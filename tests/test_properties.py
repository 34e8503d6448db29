"""Property tests pinning the symmetry maps and class comparison across the
exact (Fraction) and float number types, and the symmetry of the sign parts
of a coverage region."""

import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatecover.cartan import negate_content, nonlocal_content
from gatecover.coords import (CHAMBER_VERTICES_FRAC, CartanCoord, canonicalize,
                              class_equal, coord_distance)
from gatecover.coverage import build_halfspaces, coverage_region, union_volume
from gatecover.symmetry import inverse_map, mirror_map, mirrored_inverse_map

PI = math.pi
MAPS = (inverse_map, mirror_map, mirrored_inverse_map)

# derandomized so that every run checks the same examples
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def exact_points(draw):
    """Chamber points as rational barycentric combinations of the vertices."""
    w = [draw(st.integers(0, 12)) for _ in range(4)]
    assume(sum(w) > 0)
    total = sum(w)
    return canonicalize(tuple(
        sum(F(wi, total) * v[k] for wi, v in zip(w, CHAMBER_VERTICES_FRAC))
        for k in range(3)))


@st.composite
def float_points(draw):
    w = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(w)
    assume(total > 1e-3)
    return canonicalize(tuple(
        sum(wi / total * float(v[k]) * PI for wi, v in zip(w, CHAMBER_VERTICES_FRAC))
        for k in range(3)))


@SETTINGS
@given(exact_points())
def test_exact_maps_involutions_and_composition(c):
    assert inverse_map(inverse_map(c)).frac == c.frac
    assert mirror_map(mirror_map(c)).frac == c.frac
    assert mirrored_inverse_map(c).frac == mirror_map(inverse_map(c)).frac


@SETTINGS
@given(float_points())
def test_float_maps_involutions_and_composition(c):
    assert c.frac is None
    assert class_equal(inverse_map(inverse_map(c)), c)
    assert class_equal(mirror_map(mirror_map(c)), c)
    assert class_equal(mirrored_inverse_map(c), mirror_map(inverse_map(c)))


@SETTINGS
@given(exact_points())
def test_exact_and_float_inputs_agree(c):
    assume(c.frac[0] != F(1, 2))  # the sign switch of the mirror maps
    rendered = CartanCoord(*c.astuple())
    for m in MAPS:
        exact, approx = m(c), m(rendered)
        assert exact.frac is not None and approx.frac is None
        assert coord_distance(exact, approx) <= 1e-12


@SETTINGS
@given(float_points(), st.one_of(float_points(), st.just(None)),
       st.floats(-1e-6, 1e-6), st.sampled_from([1e-12, 1e-9, 1e-8, 5e-8, 1e-7, 1e-6, 1e-2]))
def test_class_equal_is_distance_within_tol(a, b, shift, tol):
    if b is None:  # a near neighbour, or the c3 = 0 twin of one
        b = CartanCoord(PI - a.c1 + shift, a.c2, abs(shift)) if a.c3 < 1e-6 \
            else CartanCoord(a.c1 + shift, a.c2, a.c3)
    assert class_equal(a, b, tol) == (coord_distance(a, b, tol) <= tol)


@st.composite
def exact_pairs(draw):
    """Exact chamber pairs (u1, u2); either point may sit on the c3 = 0 face."""
    def point():
        w = [draw(st.integers(0, 6)) for _ in range(4)]
        if draw(st.booleans()):
            w[3] = 0  # (pi/2, pi/2, pi/2) is the only vertex off c3 = 0
        assume(sum(w) > 0)
        return canonicalize(tuple(
            sum(F(wi, sum(w)) * v[k] for wi, v in zip(w, CHAMBER_VERTICES_FRAC))
            for k in range(3)))
    return point(), point()


@SETTINGS
@given(exact_pairs())
def test_sign_parts_repeat_in_pairs(pair):
    b, e = (nonlocal_content(c) for c in pair)
    nb, ne = negate_content(b), negate_content(e)
    assert build_halfspaces(nb, ne) == build_halfspaces(b, e)
    assert build_halfspaces(nb, e) == build_halfspaces(b, ne)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(exact_pairs())
def test_union_volume_is_symmetric_in_the_pair(pair):
    u1, u2 = pair
    assert union_volume(coverage_region(u1, u2)) == union_volume(coverage_region(u2, u1))
