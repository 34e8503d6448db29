import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecover.cartan import SWAP, canonical_gate, cartan_coordinates
from gatecover.coords import (B_CLASS, CNOT_CLASS, DCNOT_CLASS, IDENTITY_CLASS,
                              SQRT_SWAP_CLASS, SWAP_CLASS, CartanCoord,
                              canonicalize, class_equal, in_chamber, random_chamber_point)
from gatecover.errors import NotInChamberError
from gatecover.numerics import haar_unitary
from gatecover.symmetry import (inverse_map, is_inverse_invariant,
                                is_mirror_invariant,
                                is_mirrored_inverse_invariant, mirror_map,
                                mirrored_inverse_map)

PI = math.pi


# ------------------------------------------------------------- canonicalize

def test_canonicalize_already_canonical():
    c = canonicalize((PI / 2, 0, 0))
    assert class_equal(c, CNOT_CLASS)
    assert abs(c.c1 - PI / 2) < 1e-12 and abs(c.c2) < 1e-12


def test_canonicalize_permutation():
    # oracle: matching invariants of the two canonical gates
    from gatecover.cartan import local_invariants
    raw = (0, PI / 2, 0)
    c = canonicalize(raw)
    assert class_equal(c, CNOT_CLASS)
    g_raw = local_invariants(canonical_gate(raw))
    g_can = local_invariants(canonical_gate(c))
    assert g_raw.distance(g_can) <= 1e-9


def test_canonicalize_sign_flip():
    from gatecover.cartan import local_invariants
    raw = (-PI / 4, 0, 0)
    c = canonicalize(raw)
    assert class_equal(c, CartanCoord.exact(F(1, 4), 0, 0))
    assert local_invariants(canonical_gate(raw)).distance(
        local_invariants(canonical_gate(c))) <= 1e-9


def test_canonicalize_random_class_preserving(rng):
    from gatecover.cartan import local_invariants
    for _ in range(200):
        raw = tuple(rng.uniform(-2 * PI, 2 * PI, 3))
        c = canonicalize(raw)
        assert class_equal(c, c)  # chamber point, stable
        g_raw = local_invariants(canonical_gate(raw))
        g_can = local_invariants(canonical_gate(c))
        assert g_raw.distance(g_can) <= 1e-9


def test_canonicalize_exact_path():
    c = canonicalize((F(3, 4), F(3, 8), F(0)))
    assert c.frac == (F(3, 8), F(1, 4), F(0))


@pytest.mark.parametrize("raw", [(math.nan, 0.0, 0.0), (0.1, math.inf, 0.2),
                                 (0.1, 0.2, -math.inf)])
def test_canonicalize_rejects_non_finite_floats(raw):
    with pytest.raises(NotInChamberError):
        canonicalize(raw)


@pytest.mark.parametrize("slot", range(3))
def test_coord_refuses_nan_beside_its_exact_value(slot):
    raw = [0.0, 0.0, 0.0]
    raw[slot] = math.nan
    with pytest.raises(ValueError, match="disagree"):
        CartanCoord(*raw, frac=(0, 0, 0))


@pytest.mark.parametrize("frac", [(0, 0), (0, 0, 0, 5)])
def test_coord_refuses_an_exact_triple_of_the_wrong_length(frac):
    with pytest.raises(ValueError, match="three entries"):
        CartanCoord(0.0, 0.0, 0.0, frac=frac)


# the symmetry maps and nonlocal_content take canonicalize's output as a
# chamber point without checking it again
@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
    st.tuples(*[st.floats(-4 * PI, 4 * PI)] * 3),
    st.tuples(*[st.fractions(-5, 5, max_denominator=1000)] * 3)))
def test_canonicalize_lands_in_the_chamber(raw):
    assert in_chamber(canonicalize(raw), 1e-9)


def test_canonicalize_lands_in_the_chamber_from_extremes():
    floats = (1e300, -1e300, 1e-12, -1e-12, 5e-324, PI + 1e-12, PI - 1e-12, 2 * PI, 0.0)
    fracs = (F(-7, 3), F(-1, 2), F(-1, 10 ** 12), 1 + F(1, 10 ** 12), F(3, 2), F(7, 3), F(0))
    for raw in (*product(floats, repeat=3), *product(fracs, repeat=3)):
        assert in_chamber(canonicalize(raw), 1e-9), raw


def test_class_equal_identification_twins():
    assert class_equal(CartanCoord.exact(F(3, 4), F(1, 8), 0),
                       CartanCoord.exact(F(1, 4), F(1, 8), 0))
    assert not class_equal(CartanCoord.exact(F(3, 4), F(1, 8), F(1, 16)),
                           CartanCoord.exact(F(1, 4), F(1, 8), F(1, 16)))


# ------------------------------------------------------------- the three maps

def test_inverse_map_examples():
    assert class_equal(inverse_map(CNOT_CLASS), CNOT_CLASS)  # self-inverse class
    got = inverse_map(CartanCoord.exact(F(1, 4), F(1, 8), 0))
    assert class_equal(got, CartanCoord.exact(F(3, 4), F(1, 8), 0))
    assert class_equal(inverse_map(SQRT_SWAP_CLASS),
                       CartanCoord.exact(F(3, 4), F(1, 4), F(1, 4)))
    assert not class_equal(inverse_map(SQRT_SWAP_CLASS), SQRT_SWAP_CLASS)


def test_mirror_map_examples():
    assert class_equal(mirror_map(IDENTITY_CLASS), SWAP_CLASS)
    assert class_equal(mirror_map(B_CLASS), B_CLASS)
    assert class_equal(mirror_map(CNOT_CLASS), DCNOT_CLASS)


def test_mirrored_inverse_examples():
    assert class_equal(mirrored_inverse_map(B_CLASS), B_CLASS)
    assert class_equal(mirrored_inverse_map(SQRT_SWAP_CLASS), SQRT_SWAP_CLASS)


def test_mirrored_inverse_on_theta_line():
    # ((pi/2)+theta-c2, c2, c2-theta) maps to ((pi/2)+theta-c2, (pi/2)-c2, c2-theta)
    theta, c2 = PI / 12, PI / 6
    src = canonicalize((PI / 2 + theta - c2, c2, c2 - theta))
    dst = canonicalize((PI / 2 + theta - c2, PI / 2 - c2, c2 - theta))
    assert class_equal(mirrored_inverse_map(src), dst)


def test_maps_are_involutions(rng):
    for _ in range(10_000):
        c = random_chamber_point(rng)
        for m in (inverse_map, mirror_map, mirrored_inverse_map):
            assert class_equal(m(m(c)), c)


def test_mirrored_inverse_is_composition(rng):
    for _ in range(300):
        c = random_chamber_point(rng)
        assert class_equal(mirrored_inverse_map(c), mirror_map(inverse_map(c)))


def test_matrix_level_consistency(rng):
    for _ in range(100):
        u = haar_unitary(rng)
        c = cartan_coordinates(u)
        assert class_equal(cartan_coordinates(u.conj().T), inverse_map(c))
        assert class_equal(cartan_coordinates(SWAP @ u), mirror_map(c))
        assert class_equal(cartan_coordinates(SWAP @ u.conj().T),
                           mirrored_inverse_map(c))


# ------------------------------------------------------------ invariance sets

def test_invariance_flags_named_points():
    assert is_inverse_invariant(CartanCoord(PI / 2, 0.3, 0.1))
    flags = (is_inverse_invariant(B_CLASS), is_mirror_invariant(B_CLASS),
             is_mirrored_inverse_invariant(B_CLASS))
    assert flags == (True, True, True)
    assert is_mirrored_inverse_invariant(canonicalize((PI / 3, PI / 4, PI / 6)))
    assert is_inverse_invariant(CNOT_CLASS)
    assert not is_mirror_invariant(CNOT_CLASS)
    assert not is_mirrored_inverse_invariant(CNOT_CLASS)


def test_inverse_invariant_set_is_the_two_planes(rng):
    # generic points are invariant iff on the c1 = pi/2 or c3 = 0 planes;
    # points on the planes are exercised explicitly
    for _ in range(500):
        c = random_chamber_point(rng)
        dist = min(abs(c.c1 - PI / 2), abs(c.c3))
        if dist > 1e-6:
            assert not is_inverse_invariant(c)
    for _ in range(100):
        c = random_chamber_point(rng)
        on_plane = canonicalize((PI / 2, c.c2 / 2, c.c3 / 4))
        assert is_inverse_invariant(on_plane)
        flat = canonicalize((c.c1, c.c2, 0.0))
        assert is_inverse_invariant(flat)


def test_mirrored_inverse_set_is_the_two_segments(rng):
    for _ in range(500):
        c = random_chamber_point(rng)
        dist = max(abs(c.c2 - PI / 4),
                   min(abs(c.c1 + c.c3 - PI / 2), abs(c.c1 - c.c3 - PI / 2)))
        if dist > 1e-6:
            assert not is_mirrored_inverse_invariant(c)
    for _ in range(100):
        t = rng.uniform(PI / 4, PI / 2)
        assert is_mirrored_inverse_invariant(canonicalize((t, PI / 4, PI / 2 - t)))
        assert is_mirrored_inverse_invariant(canonicalize((t + PI / 4, PI / 4, t - PI / 4)))


def test_fixed_point_sets_on_grid():
    # pi/20 grid: flags match the analytic fixed-point sets exactly
    step = PI / 20
    for i in range(21):
        c1 = i * step
        top = min(c1, PI - c1) + 1e-12
        j = 0
        while j * step <= top:
            c2 = j * step
            k = 0
            while k * step <= c2 + 1e-12:
                c3 = k * step
                c = CartanCoord(c1, c2, c3)
                inv_expected = abs(c1 - PI / 2) < 1e-9 or c3 < 1e-9
                mi_expected = (abs(c2 - PI / 4) < 1e-9
                               and (abs(c1 + c3 - PI / 2) < 1e-9
                                    or abs(c1 - c3 - PI / 2) < 1e-9))
                mirror_expected = (abs(c1 - PI / 2) < 1e-9
                                   and abs(c2 - PI / 4) < 1e-9 and c3 < 1e-9)
                assert is_inverse_invariant(c) == inv_expected, (c1, c2, c3)
                assert is_mirrored_inverse_invariant(c) == mi_expected, (c1, c2, c3)
                assert is_mirror_invariant(c) == mirror_expected, (c1, c2, c3)
                k += 1
            j += 1


def test_b_unique_on_coarse_grid():
    # pi/20 grid here; the acceptance suite runs the pi/200 version
    step = PI / 20
    hits = []
    n = 20
    for i in range(n + 1):
        c1 = i * step
        top = min(c1, PI - c1)
        j = 0
        while j * step <= top + 1e-12:
            c2 = j * step
            k = 0
            while k * step <= c2 + 1e-12:
                c3 = k * step
                c = CartanCoord(c1, c2, c3)
                if (is_inverse_invariant(c) and is_mirror_invariant(c)
                        and is_mirrored_inverse_invariant(c)):
                    hits.append((c1, c2, c3))
                k += 1
            j += 1
    uniq = {tuple(np.round(t, 9)) for t in
            (canonicalize(h).astuple() for h in hits)}
    assert len(uniq) == 1
    assert class_equal(CartanCoord(*hits[0]), B_CLASS)
