import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from gatecover import coverage
from gatecover.cartan import (CONTENT_MAP, canonical_gate, cartan_coordinates,
                              nonlocal_content)
from gatecover.coords import (B_CLASS, CNOT_CLASS, IDENTITY_CLASS,
                              SQRT_SWAP_CLASS, SWAP_CLASS, CartanCoord,
                              canonicalize, random_chamber_point)
from gatecover.coverage import (_CHAMBER_VERTS, _MC_CHUNK, CHAMBER_SYSTEM,
                                CHAMBER_VOLUME, ConvexRegion, CoverageRegion,
                                Halfspace, McVolumeEstimate, build_halfspaces,
                                contains, coverage_region, fractional_volume,
                                mc_volume, rationalize, region_to_json, union_volume)
from gatecover.errors import InvalidContentError
from gatecover.families import FAMILY_IDS, get_family
from gatecover.numerics import haar_su2_pair, haar_unitary
from gatecover.qlr import enumerate_inequality_tuples
from gatecover.symmetry import mirror_map

PI = math.pi


# ------------------------------------------------------------ exact plumbing

def test_rationalize_exact_and_float():
    assert rationalize(B_CLASS) == (F(1, 2), F(1, 4), F(0))
    got = rationalize(CartanCoord(PI / 3, PI / 4, PI / 6))
    assert got == (F(1, 3), F(1, 4), F(1, 6))


# ------------------------------------------------------------ halfspace build

def test_trivial_tuple_gives_content_sum_row():
    # the (r=1, alpha=beta=delta=empty, d=0) tuple says f4 >= b4 + e4,
    # i.e. c1 + c2 + c3 <= -2 (b4 + e4) in units of pi
    b = nonlocal_content(B_CLASS)
    hs = build_halfspaces(b, b)
    by_normal = dict((h.normal, h.rhs) for h in hs)
    assert by_normal[(1, 1, 1)] == F(3, 2)  # -2 * (-3/8 - 3/8)


def test_identity_pair_confined_to_origin():
    zero = nonlocal_content(IDENTITY_CLASS)
    region = ConvexRegion(build_halfspaces(zero, zero))
    assert region.vertices == ((F(0), F(0), F(0)),)
    assert region.dim == 0


def test_build_halfspaces_requires_exact_content():
    exact = nonlocal_content(B_CLASS)
    rounded = nonlocal_content(CartanCoord(*B_CLASS.astuple()))
    for b, e in ((rounded, exact), (exact, rounded)):
        with pytest.raises(InvalidContentError):
            build_halfspaces(b, e)


def test_tuples_with_a_zero_normal_read_zero_at_most_zero():
    # why the row map has no row for them: their alpha and beta content rows
    # also sum to zero and d = 0, so the row reads 0 <= 0 for every source pair
    def summed(indices):
        return tuple(sum(CONTENT_MAP[i - 1][k] for i in indices) for k in range(3))

    zero = [t for t in enumerate_inequality_tuples() if summed(t.delta_indices()) == (0, 0, 0)]
    assert len(zero) == 2
    for t in zero:
        assert summed(t.alpha_indices()) == summed(t.beta_indices()) == (0, 0, 0)
        assert t.d == 0
    normals, coefficients, _ = coverage._row_map()
    assert len(normals) == len(coefficients) == len(CHAMBER_SYSTEM) + 72


def test_chamber_region_alone():
    region = ConvexRegion(CHAMBER_SYSTEM)
    assert region.dim == 3
    assert set(region.vertices) == {
        (F(0), F(0), F(0)), (F(1), F(0), F(0)),
        (F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 2), F(1, 2))}
    assert region.volume() == CHAMBER_VOLUME


def test_infeasible_system_is_empty():
    region = ConvexRegion(list(CHAMBER_SYSTEM) + [Halfspace((1, 0, 0), F(-1))])
    assert region.vertices == ()
    assert region.dim == -1
    assert region.volume() == 0


def _counted_solves(monkeypatch) -> list:
    """The argument tuples of every ``_solve_vertices`` call from now on."""
    calls = []
    solve = coverage._solve_vertices
    monkeypatch.setattr(coverage, "_solve_vertices",
                        lambda *system: calls.append(system) or solve(*system))
    return calls


def test_a_region_solves_its_vertices_once(monkeypatch):
    calls = _counted_solves(monkeypatch)
    region = ConvexRegion(CHAMBER_SYSTEM)
    reads = [(region.vertices, region.dim, region.volume(), region.integer_system)
             for _ in range(2)]
    assert reads[0] == reads[1] and len(calls) == 1


@pytest.mark.parametrize("coord, distinct", [
    (get_family("b_alpha").exact_coord(F(3, 8)), True), (B_CLASS, False)])
def test_union_volume_builds_one_intersection_of_distinct_systems(coord, distinct,
                                                                   monkeypatch):
    region = coverage_region(coord, coord)
    same, flip = region.parts
    assert (same is not flip) == distinct
    volumes = same.volume(), flip.volume()  # so that only the intersection is left
    calls = _counted_solves(monkeypatch)
    assert union_volume(region) == union_volume(region) >= max(volumes)
    assert len(calls) == distinct


def test_union_volume_leaves_the_halfspace_views_unbuilt():
    # the intersection is built from the parts' integer systems
    region = coverage_region(*(get_family("b_alpha").exact_coord(F(3, 8)),) * 2)
    assert region.parts[0] is not region.parts[1]
    union_volume(region)
    assert not any("halfspaces" in vars(part) for part in region.parts)


# ------------------------------------------------------------ named regions

def test_sqrt_swap_region_is_swap_cnot_segment():
    region = coverage_region(SQRT_SWAP_CLASS, SQRT_SWAP_CLASS)
    assert fractional_volume(region) == 0
    assert region.union_dim() == 1
    intervals = []
    for part in region.parts:
        assert part.dim <= 1
        for v in part.vertices:
            # on the segment (1/2, t, t)
            assert v[0] == F(1, 2) and v[1] == v[2]
        if part.dim == 1:
            ts = sorted(v[1] for v in part.vertices)
            intervals.append((ts[0], ts[-1]))
    intervals.sort()
    # the union of the sub-segments is the full SWAP--CNOT segment
    assert intervals[0][0] == 0
    hi = intervals[0][1]
    for lo, up in intervals[1:]:
        assert lo <= hi
        hi = max(hi, up)
    assert hi == F(1, 2)


def test_cnot_region_is_c3_plane():
    region = coverage_region(CNOT_CLASS, CNOT_CLASS)
    assert fractional_volume(region) == 0
    assert region.union_dim() == 2
    for part in region.parts:
        for v in part.vertices:
            assert v[2] == 0
    assert not contains(region, SWAP_CLASS)
    assert contains(region, B_CLASS)
    assert contains(region, CNOT_CLASS)
    assert contains(region, IDENTITY_CLASS)


def test_b_region_is_everything(rng):
    region = coverage_region(B_CLASS, B_CLASS)
    assert fractional_volume(region) == 1
    for _ in range(200):
        assert contains(region, random_chamber_point(rng))
    assert contains(region, SWAP_CLASS)


def test_identity_region_is_single_class():
    region = coverage_region(IDENTITY_CLASS, IDENTITY_CLASS)
    assert fractional_volume(region) == 0
    assert contains(region, IDENTITY_CLASS)
    assert not contains(region, CNOT_CLASS)


# ------------------------------------------------------------ membership

def test_membership_respects_identification_twin():
    region = coverage_region(CNOT_CLASS, CNOT_CLASS)
    # both representatives of a c3 = 0 class answer the same
    assert contains(region, CartanCoord.exact(F(1, 4), F(1, 8), 0)) == \
           contains(region, CartanCoord.exact(F(3, 4), F(1, 8), 0))


def test_membership_product_oracle(rng):
    # every achievable product must lie inside the region; gates spanning the
    # interpolating, line, plane-line, and fSim-realizable families
    coords = (
        B_CLASS,
        CartanCoord.exact(F(1, 4), F(1, 8), 0),
        CartanCoord.exact(F(5, 12), F(1, 6), F(1, 12)),   # theta-line point
        CartanCoord.exact(F(1, 2), F(1, 4), F(1, 12)),    # c2 = pi/4 line point
        CartanCoord.exact(F(3, 8), F(1, 4), F(1, 4)),     # c2 = c3 plane point
        CartanCoord.exact(F(1, 2), F(1, 2), 0),           # two-excitation swap class
    )
    for coord in coords:
        u = canonical_gate(coord)
        region = coverage_region(coord, coord)
        for _ in range(100):
            w = cartan_coordinates(u @ haar_su2_pair(rng) @ u)
            assert contains(region, w)


def test_unequal_pair_region(rng):
    # mixed pair: membership of the plain product and a dressed product
    ca = CartanCoord.exact(F(1, 4), F(1, 8), 0)
    cb = CartanCoord.exact(F(1, 3), F(1, 4), F(1, 6))
    region = coverage_region(ca, cb)
    ua, ub = canonical_gate(ca), canonical_gate(cb)
    assert contains(region, cartan_coordinates(ua @ ub))
    for _ in range(50):
        w = cartan_coordinates(ua @ haar_su2_pair(rng) @ ub)
        assert contains(region, w)


# every chamber point whose coordinates are multiples of pi/6, pi/8 or pi/12
_GRID = sorted({x for den in (6, 8, 12)
                for x in product([F(k, den) for k in range(den + 1)], repeat=3)
                if x[2] <= x[1] <= min(x[0], 1 - x[0])})


def _haar_class(seed):
    return cartan_coordinates(haar_unitary(np.random.default_rng(seed)))


def _family_interior(family_id):
    spec = get_family(family_id)
    return spec.exact_coord((spec.lo + spec.hi) / 2)


_CONTAINS_CLASSES = {
    "b": B_CLASS, "cnot": CNOT_CLASS, "sqrt-swap": SQRT_SWAP_CLASS,
    "spe_to_b interior": _family_interior("spe_to_b"),
    "haar 5": _haar_class(5), "haar 6": _haar_class(6),
}


@pytest.mark.parametrize("name", sorted(_CONTAINS_CLASSES))
def test_integer_contains_equals_the_fraction_evaluation(name):
    c = _CONTAINS_CLASSES[name]
    region = coverage_region(c, c)
    for part in region.parts:
        for x in _GRID:
            expected = all(n[0] * x[0] + n[1] * x[1] + n[2] * x[2] <= r
                           for n, r in part.halfspaces)
            assert part.contains_exact(x) == expected, x


# ------------------------------------------------------------ volumes

def test_fractional_volume_family_point_vs_mc(rng):
    coord = CartanCoord.exact(F(1, 3), F(1, 4), F(1, 6))
    region = coverage_region(coord, coord)
    exact = fractional_volume(region)
    assert 0 < exact < 1
    est = mc_volume(region, 50_000, rng)
    assert abs(est.fraction - float(exact)) <= 4 * est.stderr


def test_mc_volume_full_and_empty(rng):
    full = coverage_region(B_CLASS, B_CLASS)
    est = mc_volume(full, 20_000, rng)
    assert est.fraction == 1.0
    seg = coverage_region(SQRT_SWAP_CLASS, SQRT_SWAP_CLASS)
    est = mc_volume(seg, 20_000, rng)
    assert est.fraction == 0.0


def sorted_uniform_points(s):
    """Chamber points from rows s1 >= s2 >= s3: the spacings, Dirichlet(1, 1, 1, 1)
    for sorted uniforms, weight the vertices."""
    w = np.column_stack([1 - s[:, 0], s[:, 0] - s[:, 1], s[:, 1] - s[:, 2], s[:, 2]])
    return w @ _CHAMBER_VERTS


def one_shot_mc_volume(region, samples, rng):
    """Reference: all points drawn at once, ordered by np.sort, and every row of
    both parts tested."""
    pts = sorted_uniform_points(np.sort(rng.random((samples, 3)), axis=1)[:, ::-1])
    hits = np.zeros(samples, dtype=bool)
    for part in region.parts:
        a, rhs, norms = part.float_system
        hits |= np.all(pts @ a.T <= rhs + 1e-12 * norms, axis=1)
    frac = float(np.count_nonzero(hits)) / samples
    stderr = math.sqrt(max(frac * (1.0 - frac), 1.0 / samples) / samples)
    return McVolumeEstimate(frac, stderr, samples)


def _chamber_and(*rows):
    """The chamber cut by rows ``(normal, rhs)``, each of which some chamber vertex violates."""
    return ConvexRegion(list(CHAMBER_SYSTEM) + [Halfspace(n, F(r)) for n, r in rows])


def _hand_built(first, second):
    return CoverageRegion((F(0),) * 3, (F(0),) * 3, (first, second))


_FAMILY_POINT = CartanCoord.exact(F(1, 3), F(1, 4), F(1, 6))
_EMPTY = ConvexRegion(list(CHAMBER_SYSTEM) + [Halfspace((1, 0, 0), F(-1))])
_X1, _X2, _X3 = ((1, 0, 0), F(1, 2)), ((0, 1, 0), F(1, 4)), ((0, 0, 1), F(1, 8))
_BOTH_HALF = _chamber_and(_X1, _X2)
_MC_REGIONS = {
    "family point": lambda: coverage_region(_FAMILY_POINT, _FAMILY_POINT),
    "full chamber": lambda: coverage_region(B_CLASS, B_CLASS),
    "point": lambda: coverage_region(IDENTITY_CLASS, IDENTITY_CLASS),
    "empty": lambda: CoverageRegion((F(0),) * 3, (F(0),) * 3, (_EMPTY,) * 2),
    # the row layout of mc_volume: part-0-only, shared and part-1-only rows
    "parts share a row": lambda: _hand_built(_BOTH_HALF, _chamber_and(_X1, _X3)),
    "parts share no row": lambda: _hand_built(_chamber_and(_X1), _chamber_and(_X2, _X3)),
    "one part without live rows": lambda: _hand_built(_chamber_and(), _BOTH_HALF),
    "parts are one object": lambda: _hand_built(_BOTH_HALF, _BOTH_HALF),
}


@pytest.mark.parametrize("samples", [1000, 17618])  # 17618 = 2 * 2^13 + 1234
@pytest.mark.parametrize("name", sorted(_MC_REGIONS))
def test_chunked_mc_volume_equals_one_shot_reference(name, samples):
    assert samples < _MC_CHUNK or samples > 2 * _MC_CHUNK  # one chunk, or more than two
    region = _MC_REGIONS[name]()
    chunked, one_shot = np.random.default_rng(77), np.random.default_rng(77)
    est = mc_volume(region, samples, chunked)
    assert est == one_shot_mc_volume(region, samples, one_shot)
    assert chunked.random() == one_shot.random()  # the same draws were consumed
    expected = {"full chamber": 1.0, "point": 0.0, "empty": 0.0,
                "one part without live rows": 1.0}.get(name)
    if expected is not None:
        assert est.fraction == expected


# regions shaped like the benchmark's exact sweep: family interiors, Haar
# classes snapped to rationals, and the endpoints of known fraction
_SWEEP_PAIRS = {f"{f} interior": (_family_interior(f),) * 2 for f in FAMILY_IDS}
_SWEEP_PAIRS.update({
    "haar 1": (_haar_class(1),) * 2,
    "haar 2": (_haar_class(2),) * 2,
    "haar pair": (_haar_class(3), _haar_class(4)),
    "cnot plane": (CNOT_CLASS, CNOT_CLASS),
    "sqrt-swap segment": (SQRT_SWAP_CLASS, SQRT_SWAP_CLASS),
    "b": (B_CLASS, B_CLASS),
})


@pytest.mark.parametrize("name", sorted(_SWEEP_PAIRS))
def test_mc_volume_equals_dirichlet_reference_on_sweep_regions(name):
    region = coverage_region(*_SWEEP_PAIRS[name])
    samples = 100_000  # the CLI default of --mc-samples
    pulled_back, reference = np.random.default_rng(2026), np.random.default_rng(2026)
    est = mc_volume(region, samples, pulled_back)
    assert est == one_shot_mc_volume(region, samples, reference)
    assert pulled_back.random() == reference.random()


def test_mc_volume_points_are_uniform_in_the_chamber():
    # the sampler's ordered draws, formed into points without any row
    n = 100_000
    ordered = coverage._descending(np.random.default_rng(5).random((n, 3)), np.empty((4, n)))
    pts = sorted_uniform_points(ordered.T)
    centroid = np.array([1 / 2, 1 / 4, 1 / 8])  # in units of pi
    sigma = pts.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(pts.mean(axis=0) - centroid) <= 5 * sigma)
    for share, p in ((np.mean(pts[:, 2] > 1 / 4), 1 / 8), (np.mean(pts[:, 0] < 1 / 2), 1 / 2)):
        assert abs(share - p) <= 5 * math.sqrt(p * (1 - p) / n)


def test_mirror_pair_has_equal_volume(rng):
    # capability is a mirror invariant: exact volume equality, 20 random classes
    for _ in range(20):
        p = random_chamber_point(rng).astuple()
        c = CartanCoord.exact(*canonicalize(tuple(F(v / PI).limit_denominator(12)
                                                  for v in p)).frac)
        m = mirror_map(c)
        v1 = fractional_volume(coverage_region(c, c))
        v2 = fractional_volume(coverage_region(m, m))
        assert v1 == v2


def test_nesting_along_both_families(rng):
    pairs = [("b_alpha", F(1, 8), F(1, 4)), ("b_alpha", F(5, 16), F(7, 16)),
             ("spe_to_b", F(5, 16), F(3, 8)), ("spe_to_b", F(3, 8), F(7, 16))]
    for fam, t_small, t_big in pairs:
        spec = get_family(fam)
        small = coverage_region(spec.exact_coord(t_small), spec.exact_coord(t_small))
        big = coverage_region(spec.exact_coord(t_big), spec.exact_coord(t_big))
        for _ in range(250):
            p = random_chamber_point(rng)
            if contains(small, p):
                assert contains(big, p)


# ------------------------------------------------------------ export

def test_region_json_document():
    region = coverage_region(SQRT_SWAP_CLASS, SQRT_SWAP_CLASS)
    doc = region_to_json(region)
    assert doc["union_volume_fraction"]["exact"] == "0"
    assert [p["signs"] for p in doc["parts"]] == ["++", "+-", "-+", "--"]
    same, flip, flip_again, same_again = ({k: v for k, v in p.items() if k != "signs"}
                                          for p in doc["parts"])
    assert same_again == same and flip_again == flip != same
    for part in doc["parts"]:
        for v in part["vertices"]:
            assert len(v["exact"]) == 3 and len(v["radians"]) == 3
