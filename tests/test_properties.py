"""Property tests pinning the symmetry maps and class comparison across the
exact (Fraction) and float number types, the symmetry of the sign parts of a
coverage region, the filtered vertex enumeration against brute force, the
link between a class's symmetries and what two applications of it reach, the
closed-form Cartan coordinates of dressed gates on the chamber boundary, the
reflection across the c1 + c2 = pi face, and the parameter windows of the
built-in families against their members' regions."""

import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatecover.cartan import (canonical_gate, cartan_coordinates, kak_decompose,
                              negate_content, nonlocal_content)
from gatecover.coords import (CHAMBER_VERTICES_FRAC, IDENTITY_CLASS, SWAP_CLASS,
                              CartanCoord, canonicalize, class_equal, coord_distance)
from gatecover.coverage import (ConvexRegion, Halfspace, _enumerate_vertices,
                                build_halfspaces, contains, coverage_region,
                                rationalize, segment_windows, union_volume)
from gatecover.families import get_family
from gatecover.numerics import haar_su2_pair, haar_unitary
from gatecover.symmetry import (inverse_map, is_inverse_invariant,
                                is_mirrored_inverse_invariant, mirror_map,
                                mirrored_inverse_map)

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


def brute_force_vertices(halfspaces):
    """Reference enumeration: every plane triple solved and checked in Fractions."""
    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    found = set()
    for h1, h2, h3 in combinations(halfspaces, 3):
        n23, n31, n12 = (cross(h2.normal, h3.normal), cross(h3.normal, h1.normal),
                         cross(h1.normal, h2.normal))
        det = dot(h1.normal, n23)
        if det == 0:
            continue
        x = tuple((h1.rhs * a + h2.rhs * b + h3.rhs * c) / det
                  for a, b, c in zip(n23, n31, n12))
        if all(dot(hs.normal, x) <= hs.rhs for hs in halfspaces):
            found.add(x)
    return tuple(sorted(found))


@st.composite
def mixed_pairs(draw):
    """Exact pairs, with either point replaced half the time by a snapped Haar class."""
    pair = list(draw(exact_pairs()))
    for i in range(2):
        if draw(st.booleans()):
            u = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
            pair[i] = CartanCoord.exact(*rationalize(cartan_coordinates(u), tol=None))
    return pair


@settings(derandomize=True, deadline=None, max_examples=10)
@given(mixed_pairs())
def test_filtered_vertices_equal_brute_force(pair):
    same, flip = coverage_region(*pair).distinct_parts
    both = ConvexRegion(same.halfspaces + flip.halfspaces)
    for part in (same, flip, both):
        assert _enumerate_vertices(part.halfspaces) == brute_force_vertices(part.halfspaces)


def test_vertices_closer_than_float_resolution_stay_apart():
    # x <= 1 and x + y <= 1 + eps have right-hand sides that round to the same
    # float, so the corners (1, 0) and (1, eps) (and (0, 1), (eps, 1)) of the
    # unit square cut by x + y <= 1 + eps coincide in floats
    eps = F(1, 10 ** 20)
    rows = [Halfspace((-1, 0, 0), F(0)), Halfspace((0, -1, 0), F(0)),
            Halfspace((0, 0, -1), F(0)), Halfspace((1, 0, 0), F(1)),
            Halfspace((0, 1, 0), F(1)), Halfspace((0, 0, 1), F(1)),
            Halfspace((1, 1, 0), 1 + eps)]
    assert float(1 + eps) == 1.0
    corners = [(F(0), F(0)), (F(1), F(0)), (F(1), eps), (eps, F(1)), (F(0), F(1))]
    expected = tuple(sorted((x, y, z) for x, y in corners for z in (F(0), F(1))))
    assert _enumerate_vertices(rows) == expected == brute_force_vertices(rows)



def test_vertex_whose_float_slacks_round_positive_is_kept():
    # four planes through the apex of a pyramid: in floats, every triple of them
    # puts the apex just outside the fourth, so only the rounding bound keeps it
    apex = (F(889117, 668702), F(573115, 392061), F(587932, 265581))
    rows = [Halfspace(n, sum(a * b for a, b in zip(n, apex)))
            for n in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))]
    rows.append(Halfspace((0, 0, -1), 1 - apex[2]))
    vertices = _enumerate_vertices(rows)
    assert apex in vertices and len(vertices) == 5
    assert vertices == brute_force_vertices(rows)

# point sets whose rational convex hulls cover the chamber, its c3 = 0 face, the
# c1 = pi/2 plane (where U and U^dag share a class) and the two segments
# c2 = pi/4, c1 +/- c3 = pi/2 (where U^dag and SWAP U do)
_HULLS = (
    CHAMBER_VERTICES_FRAC,
    CHAMBER_VERTICES_FRAC[:3],
    ((F(1, 2), F(0), F(0)), (F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 2), F(1, 2))),
    ((F(1, 2), F(1, 4), F(0)), (F(1, 4), F(1, 4), F(1, 4))),
    ((F(1, 2), F(1, 4), F(0)), (F(3, 4), F(1, 4), F(1, 4))),
)


@st.composite
def symmetry_points(draw):
    corners = draw(st.sampled_from(_HULLS))
    w = [draw(st.integers(0, 6)) for _ in corners]
    assume(sum(w) > 0)
    return canonicalize(tuple(
        sum(F(wi, sum(w)) * v[k] for wi, v in zip(w, corners)) for k in range(3)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(symmetry_points())
def test_two_applications_reach_identity_and_swap_exactly_by_symmetry(c):
    region = coverage_region(c, c)
    assert contains(region, IDENTITY_CLASS) == is_inverse_invariant(c)
    assert contains(region, SWAP_CLASS) == is_mirrored_inverse_invariant(c)


_V0, _V1, _V2, _V3 = CHAMBER_VERTICES_FRAC
_CNOT_CORNER = (F(1, 2), F(0), F(0))
# the chamber, each of its faces, the c1 = pi/2 plane and each corner, as
# rational convex hulls; positive weights keep a point off the hull's boundary
_BOUNDARY_HULLS = (
    CHAMBER_VERTICES_FRAC,
    (_V0, _V1, _V2),  # c3 = 0
    (_CNOT_CORNER, _V2, _V3),  # c1 = pi/2
    (_V0, _V2, _V3),  # c1 = c2
    (_V0, _V1, _V3),  # c2 = c3
    (_V1, _V2, _V3),  # c1 + c2 = pi
    *((v,) for v in (*CHAMBER_VERTICES_FRAC, _CNOT_CORNER)),
)


@st.composite
def dressed_boundary_gates(draw):
    """``(c, u)``: an exact point of a hull above and its canonical gate
    between Haar SU(2) x SU(2) factors, times a random global phase."""
    corners = draw(st.sampled_from(_BOUNDARY_HULLS))
    w = [draw(st.integers(1, 8)) for _ in corners]
    c = canonicalize(tuple(
        sum(F(wi, sum(w)) * v[k] for wi, v in zip(w, corners)) for k in range(3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = (np.exp(2j * PI * rng.uniform()) * haar_su2_pair(rng)
         @ canonical_gate(c) @ haar_su2_pair(rng))
    return c, u


@SETTINGS
@given(dressed_boundary_gates())
def test_closed_form_coordinates_at_the_chamber_boundary(case):
    c, u = case
    assert class_equal(cartan_coordinates(u), c, 1e-9)
    assert kak_decompose(u).residual(u) <= 1e-8


@SETTINGS
@given(st.floats(PI / 2, PI - 0.05), st.floats(-2e-9, 2e-9), st.floats(0.0, 1.0))
def test_the_c1_plus_c2_face_is_one_class(c1, delta, w):
    # (c1, c2, c3) ~ (pi - c2, pi - c1, c3); a point within the canonicalization
    # tolerance of the face must land on the same side as its reflection
    c2 = PI - c1 + delta
    c3 = w * min(c2, PI - c1)
    p, q = canonicalize((c1, c2, c3)), canonicalize((PI - c2, PI - c1, c3))
    assert p.c1 + p.c2 <= PI
    assert canonicalize(p).astuple() == p.astuple()
    assert coord_distance(p, q) <= 1e-14


# every family id, with each line of the two-parameter families named in the docs
BUILTIN_LINES = (("b_alpha", None), ("spe_to_b", None),
                 *(("plane_theta_line", F(k, 12)) for k in (0, 1, 2, 3)),
                 *(("c2_quarter_line", F(k, 12)) for k in (0, 1, 3)),
                 *(("fsim_diag", b) for b in range(4)))


@pytest.mark.parametrize("line", BUILTIN_LINES)
def test_builtin_families_are_affine_and_canonical(line):
    spec = get_family(*line)
    x_lo, x_hi = (spec.exact_coord(t).frac for t in (spec.lo, spec.hi))
    for k in range(17):
        s = F(k, 16)
        raw = tuple(F(v) for v in spec.map_fn(spec.lo + s * (spec.hi - spec.lo)))
        assert raw == canonicalize(raw).frac
        assert raw == tuple(a + s * (b - a) for a, b in zip(x_lo, x_hi))


@SETTINGS
@given(st.sampled_from(BUILTIN_LINES), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.integers(0, 64))
def test_segment_windows_hold_exactly_the_members_that_reach(line, seed, flat, k):
    spec = get_family(*line)
    cv = cartan_coordinates(haar_unitary(np.random.default_rng(seed)))
    if flat:  # onto the c3 = 0 face, where both twins are tested
        cv = canonicalize((cv.c1, cv.c2, 0.0))
    x_lo, x_hi = (spec.exact_coord(t).frac for t in (spec.lo, spec.hi))
    windows = segment_windows(x_lo, x_hi, cv)
    s = F(k, 64)
    assume(all(abs(s - edge) > 1e-9 for w in windows for edge in w))
    c = spec.exact_coord(spec.lo + s * (spec.hi - spec.lo))
    assert any(s0 <= s <= s1 for s0, s1 in windows) == contains(coverage_region(c, c), cv)
