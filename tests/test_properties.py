"""Property tests pinning the symmetry maps and class comparison across the
exact (Fraction) and float number types, the symmetry of the sign parts of a
coverage region, the filtered vertex enumeration against brute force with one
exact solve per vertex, a region's integer row system against a Fraction
reference, the integer volumes against a Fraction reference, the
Monte Carlo estimate against the exact fraction and against a one-shot
reference, the link between a class's symmetries and what two applications of
it reach, the exact canonical points that canonicalization returns as they
are, the closed-form Cartan coordinates of dressed gates on the chamber
boundary, the reflection across the c1 + c2 = pi face, the parameter windows
of the built-in families against their members' regions, and the rows of a
segment against the tuples."""

import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatecover import coverage
from gatecover.cartan import (CONTENT_MAP, canonical_gate, cartan_coordinates,
                              content_to_triple, kak_decompose, negate_content,
                              nonlocal_content)
from gatecover.coords import (CHAMBER_VERTICES_FRAC, IDENTITY_CLASS, SWAP_CLASS,
                              CartanCoord, _canonical, canonicalize, class_equal,
                              coord_distance)
from gatecover.coverage import (CHAMBER_SYSTEM, ConvexRegion, CoverageRegion,
                                Halfspace, build_halfspaces, contains, coverage_region,
                                fractional_volume, mc_volume, rationalize,
                                segment_windows, union_volume)
from gatecover.families import get_family
from gatecover.numerics import haar_su2_pair, haar_unitary
from gatecover.qlr import enumerate_inequality_tuples
from gatecover.symmetry import (inverse_map, is_inverse_invariant,
                                is_mirrored_inverse_invariant, mirror_map,
                                mirrored_inverse_map)
from test_coverage import one_shot_mc_volume

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
@given(st.tuples(*[st.fractions(-3, 3, max_denominator=12)] * 3))
def test_canonicalize_returns_an_exact_canonical_point_as_it_is(t):
    # the shortcut is taken exactly on the fixed points of the full reduction,
    # and gives what the full reduction gives
    raw = CartanCoord(*(float(x) * PI for x in t), t)
    full = CartanCoord.exact(*_canonical(t, 1, 0))
    got = canonicalize(raw)
    assert got.frac == full.frac and got.astuple() == full.astuple()
    assert (got is raw) == (raw.frac == full.frac)
    assert canonicalize(got) is got
    # floats that are not those of the fractions are rebuilt
    nudged = CartanCoord(float(np.nextafter(got.c1, 4.0)), got.c2, got.c3, got.frac)
    again = canonicalize(nudged)
    assert again is not nudged and again.astuple() == got.astuple()


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


@SETTINGS
@given(exact_pairs())
def test_negated_is_the_content_flip(pair):
    """The raw-point flip of the row map and the content flip of
    ``negate_content`` are the same move, and the flip part of a region is
    the system with the second content negated."""
    b, e = (nonlocal_content(c) for c in pair)
    assert coverage._negated(pair[0].frac) == content_to_triple(negate_content(b))
    flip = coverage_region(*pair).parts[1]
    assert flip.halfspaces == build_halfspaces(b, negate_content(e))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(exact_pairs())
def test_union_volume_is_symmetric_in_the_pair(pair):
    u1, u2 = pair
    assert union_volume(coverage_region(u1, u2)) == union_volume(coverage_region(u2, u1))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(exact_pairs(), st.integers(0, 2 ** 32 - 1))
def test_mc_volume_agrees_with_the_exact_fraction(pair, seed):
    region = coverage_region(*pair)
    est = mc_volume(region, 20_000, np.random.default_rng(seed))
    assert abs(est.fraction - float(fractional_volume(region))) <= 5 * est.stderr


@settings(derandomize=True, deadline=None, max_examples=25)
@given(exact_pairs(), st.integers(0, 2 ** 32 - 1))
def test_mc_volume_equals_the_one_shot_reference(pair, seed):
    """The chunked loop, which tests a row shared by both parts once, hits
    where drawing every point at once, ordering with np.sort and testing all
    rows of both parts hits, and it consumes the same draws."""
    region = coverage_region(*pair)
    samples = 2 * coverage._MC_CHUNK + 1234  # more than two chunks
    chunked, one_shot = np.random.default_rng(seed), np.random.default_rng(seed)
    assert mc_volume(region, samples, chunked) == one_shot_mc_volume(region, samples, one_shot)
    assert chunked.random() == one_shot.random()


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def brute_force_vertices(halfspaces):
    """Reference enumeration: every plane triple solved and checked in Fractions."""
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
            pair[i] = CartanCoord.exact(*rationalize(cartan_coordinates(u)))
    return pair


@settings(derandomize=True, deadline=None, max_examples=10)
@given(mixed_pairs())
def test_filtered_vertices_equal_brute_force(pair):
    same, flip = coverage_region(*pair).parts
    both = ConvexRegion(same.halfspaces + flip.halfspaces)
    for part in (same, flip, both):
        assert part.vertices == brute_force_vertices(part.halfspaces)


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
    assert ConvexRegion(rows).vertices == expected == brute_force_vertices(rows)



APEX = (F(889117, 668702), F(573115, 392061), F(587932, 265581))


def apex_pyramid() -> list[Halfspace]:
    """Four planes through ``APEX`` and a base: in floats, every triple of the
    four puts the apex just outside the fourth."""
    rows = [Halfspace(n, sum(a * b for a, b in zip(n, APEX)))
            for n in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))]
    rows.append(Halfspace((0, 0, -1), 1 - APEX[2]))
    return rows


def test_vertex_whose_float_slacks_round_positive_is_kept():
    # only the rounding bound keeps the apex
    rows = apex_pyramid()
    vertices = ConvexRegion(rows).vertices
    assert APEX in vertices and len(vertices) == 5
    assert vertices == brute_force_vertices(rows)


def test_each_vertex_is_solved_once(monkeypatch):
    # a triple of rows tight at a solved point is never solved again; forgetting
    # that stays correct but solves some 64 triples for some 10 vertices
    solved = []

    def counting(normals, rhs, triple):
        solved.append(triple)
        return exact_vertex(normals, rhs, triple)

    exact_vertex = coverage._exact_vertex
    monkeypatch.setattr(coverage, "_exact_vertex", counting)
    b_alpha = get_family("b_alpha")
    parts = [ConvexRegion(apex_pyramid()), ConvexRegion(CHAMBER_SYSTEM)]
    for t in (F(1, 8), F(3, 8)):
        x = b_alpha.exact_coord(t)
        parts.extend(coverage_region(x, x).parts)
    counts = []
    for part in parts:
        solved.clear()
        counts.append((len(part.vertices), len(solved)))
    assert counts == [(5, 5), (4, 4), (6, 6), (6, 6), (8, 8), (8, 8)]

def centroid_coned_volume(vertices, halfspaces):
    """Reference volume in Fractions from the V- and H-forms; 0 below dimension 3.

    An edge of a facet is a pair of its vertices that is also tight on one
    more halfspace.  Each edge is coned to the facet's vertex centroid and
    then to the polytope's vertex centroid, with every tight set recomputed.
    """
    if not vertices:
        return F(0)

    def centroid(points):
        return tuple(sum(p[i] for p in points) / len(points) for i in range(3))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    center = centroid(vertices)
    tight = [frozenset(i for i, v in enumerate(vertices) if dot(hs.normal, v) == hs.rhs)
             for hs in halfspaces]
    total = F(0)
    for facet in tight:
        if len(facet) < 3:
            continue
        apex = centroid([vertices[i] for i in facet])
        edges = {pair for other in tight if len(pair := facet & other) == 2}
        for a, b in map(tuple, edges):
            total += abs(dot(sub(apex, center), cross(sub(vertices[a], center),
                                                      sub(vertices[b], center))))
    return total / 6


def reference_union_volume(same, flip):
    both = ConvexRegion(same.halfspaces + flip.halfspaces)
    return (centroid_coned_volume(same.vertices, same.halfspaces)
            + centroid_coned_volume(flip.vertices, flip.halfspaces)
            - centroid_coned_volume(both.vertices, both.halfspaces))


@st.composite
def bounded_systems(draw):
    """A box around the origin cut by up to five rows with primitive normals
    and rational rhs; it may be empty, flat or full-dimensional, and two of
    them mostly meet."""
    lo = [draw(st.fractions(-2, 0, max_denominator=6)) for _ in range(3)]
    hi = [draw(st.fractions(0, 2, max_denominator=6)) for _ in range(3)]
    rows = [Halfspace(tuple(-(k == i) for k in range(3)), -lo[i]) for i in range(3)]
    rows += [Halfspace(tuple(int(k == i) for k in range(3)), hi[i]) for i in range(3)]
    for _ in range(draw(st.integers(0, 5))):
        n = tuple(draw(st.integers(-2, 2)) for _ in range(3))
        assume(any(n))
        g = math.gcd(*n)
        rows.append(Halfspace(tuple(v // g for v in n),
                              draw(st.fractions(-1, 3, max_denominator=12))))
    return rows


def _row_lists(rhs):
    """Lists of rows with normals of the row map, repeats likely, and the given rhs."""
    return st.lists(st.tuples(st.sampled_from(coverage._row_map()[0]), rhs),
                    min_size=1, max_size=30)


def reference_integer_system(rows):
    """The least Fraction rhs per normal, sorted by normal, over the lcm of the
    reduced rhs denominators, as ``(normals, numerators, scale)``."""
    best = {}
    for n, r in rows:
        if n not in best or r < best[n]:
            best[n] = r
    normals = tuple(sorted(best))
    scale = math.lcm(*(best[n].denominator for n in normals))
    return normals, tuple(best[n].numerator * (scale // best[n].denominator)
                          for n in normals), scale


@SETTINGS
@given(_row_lists(st.fractions(-10, 10, max_denominator=10 ** 6)),
       _row_lists(st.integers(-10 ** 12, 10 ** 12)), st.integers(1, 10 ** 6))
def test_integer_system_equals_the_fraction_construction(rows, integer_rows, den):
    region = ConvexRegion(Halfspace(n, r) for n, r in rows)
    normals, numerators, scale = reference = reference_integer_system(rows)
    assert region.integer_system == reference
    assert region.halfspaces == tuple(Halfspace(n, F(r, scale))
                                      for n, r in zip(normals, numerators))
    assert region.float_system[1].tolist() == [float(hs.rhs) for hs in region.halfspaces]
    as_fractions = ConvexRegion(Halfspace(n, F(r, den)) for n, r in integer_rows)
    assert ConvexRegion(integer_rows, den).integer_system == as_fractions.integer_system


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bounded_systems(), bounded_systems())
def test_integer_volumes_equal_the_fraction_reference(rows_a, rows_b):
    same, flip = ConvexRegion(rows_a), ConvexRegion(rows_b)
    for part in (same, flip):
        assert part.volume() == centroid_coned_volume(
            brute_force_vertices(part.halfspaces), part.halfspaces)
    source = (F(0),) * 3
    region = CoverageRegion(source, source, (same, flip))
    assert union_volume(region) == reference_union_volume(same, flip)


def _panel_classes():
    """Interior points of every built-in family line, and snapped Haar classes."""
    out = []
    for line in (("b_alpha", None), ("spe_to_b", None), ("plane_theta_line", F(1, 12)),
                 ("c2_quarter_line", F(1, 12)), ("fsim_diag", 1)):
        spec = get_family(*line)
        out += [spec.exact_coord(spec.lo + F(k, 8) * (spec.hi - spec.lo)) for k in (3, 6)]
    rng = np.random.default_rng(2019)
    out += [CartanCoord.exact(*rationalize(cartan_coordinates(haar_unitary(rng))))
            for _ in range(4)]
    return out


@pytest.mark.parametrize("c", _panel_classes(), ids=str)
def test_panel_volumes_equal_the_fraction_reference(c):
    region = coverage_region(c, c)
    same, flip = region.parts
    for part in (same, flip):
        assert part.volume() == centroid_coned_volume(part.vertices, part.halfspaces)
    assert union_volume(region) == reference_union_volume(same, flip)


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
        t = spec.lo + s * (spec.hi - spec.lo)
        raw = tuple(o + t * d for o, d in zip(spec.offset, spec.slope))
        assert raw == spec.point(t) == spec.exact_coord(t).frac
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
    # a member of a grid on the line that reaches cv only through the flip part
    # lies in a window too (it is missed where the flip system's slope is wrong)
    for j in range(17):
        s = F(j, 16)
        if any(abs(s - edge) <= 1e-9 for w in windows for edge in w):
            continue
        c = spec.exact_coord(spec.lo + s * (spec.hi - spec.lo))
        region = coverage_region(c, c)
        if _part_reaches(region, 1, cv) and not _part_reaches(region, 0, cv):
            assert any(s0 <= s <= s1 for s0, s1 in windows), (s, windows)
    s = F(k, 64)
    assume(all(abs(s - edge) > 1e-9 for w in windows for edge in w))
    c = spec.exact_coord(spec.lo + s * (spec.hi - spec.lo))
    assert any(s0 <= s <= s1 for s0, s1 in windows) == contains(coverage_region(c, c), cv)


def _part_reaches(region: CoverageRegion, i: int, cv) -> bool:
    """:func:`contains` on part i of the region alone."""
    part = region.parts[i]
    return contains(CoverageRegion(region.source_u, region.source_v, (part, part)), cv)


def reference_rows(x, y):
    """The rows of build_halfspaces for the raw points x and y before deduping,
    straight from the tuples: the chamber rows, then per tuple with a non-zero
    summed delta row n, -n/g . z <= -2 (sum_alpha b + sum_beta e - d) / g with
    g = gcd(n) and the contents b = F x / 2, e = F y / 2."""
    b, e = ([sum(f * v for f, v in zip(row, p)) / 2 for row in CONTENT_MAP] for p in (x, y))
    rows = [(hs.normal, hs.rhs) for hs in CHAMBER_SYSTEM]
    for t in enumerate_inequality_tuples():
        n = [sum(CONTENT_MAP[i - 1][k] for i in t.delta_indices()) for k in range(3)]
        if any(n):
            g = math.gcd(*n)
            rhs = (sum(b[i - 1] for i in t.alpha_indices())
                   + sum(e[i - 1] for i in t.beta_indices()) - t.d)
            rows.append((tuple(-v // g for v in n), -2 * rhs / g))
    return rows


@settings(derandomize=True, deadline=None, max_examples=50)
@given(exact_pairs())
def test_segment_rows_hold_the_rows_along_the_segment(pair):
    x_lo, x_hi = (c.frac for c in pair)
    signs = (lambda x: x, lambda x: (1 - x[0], x[1], -x[2]))  # U, then -U at x
    for sign, (normals, _, r0_float, d_float) in zip(signs, coverage._segment_rows(x_lo, x_hi)):
        at = {}
        for s in (F(0), F(1, 3), F(1, 2), F(1)):
            x = tuple(a + s * (b - a) for a, b in zip(x_lo, x_hi))
            at[s] = reference_rows(x, sign(x))
            (numerators,), den = coverage._rhs((x, sign(x)))
            assert [F(v, den) for v in numerators] == [r for _, r in at[s]]
        r0 = [r for _, r in at[0]]
        d = [r1 - r for (_, r1), r in zip(at[1], r0)]
        for s, rows in at.items():
            assert [r for _, r in rows] == [r + s * v for r, v in zip(r0, d)]
        assert normals.tolist() == [list(map(float, n)) for n, _ in at[0]]
        assert r0_float.tolist() == [float(r) for r in r0]
        assert d_float.tolist() == [float(v) for v in d]
