"""Two-application coverage regions in the Weyl chamber, in exact arithmetic.

For a pair of gate classes, each quantum-LR tuple induces one linear
inequality on the content vector of the product; rewriting contents through
the linear bijection with chamber coordinates gives halfspace systems over
(c1, c2, c3) in units of pi.  Content is linear in the chamber point, so the
rows are one integer affine map of the two source points, built once from the
tuple table.  Coordinates enter as exact rationals, and every reported vertex,
volume and export is exact.  Inside a polytope the arithmetic
is in integers: the rows are integers over one common denominator, taken
straight from the row map, each vertex is an integer point over one positive
integer, the volume is an integer sum, and an exact membership query is
scaled to an integer point; ``Fraction`` appears only where halfspaces,
vertices and volumes are handed out.  Floats only prune the vertex
candidates, under a certified rounding bound, and answer float membership
queries and the Monte-Carlo check, which tests each row as an affine
function of the three sorted uniforms behind a uniform chamber point,
without forming the point.

The reachable set of a class pair is the union of two systems, that of the
pair and that with one factor negated (negating a gate changes no class but
shifts its content vector).  These are all four sign pairs: ``--`` repeats
``++`` since (-U1)(-U2) = U1 U2, and ``-+`` repeats ``+-`` since
(-U1) U2 = U1 (-U2).  The labels are written only by the export.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

import numpy as np

from .cartan import CONTENT_MAP, content_to_triple
from .coords import (CHAMBER_VERTICES_FRAC, MC_MIN_SAMPLES, PI, ExactTriple, c3_zero_twins,
                     canonicalize)
from .errors import InvalidContentError, NumericOverflowError
from .qlr import enumerate_inequality_tuples

CHAMBER_VOLUME = Fraction(1, 24)  # volume of the chamber tetrahedron in pi^3 units
MAX_DENOMINATOR = 100_000
_MAGNITUDE_CAP = 10 ** 60

# Rounding factor of the vertex filter, 16u with u = 2^-53 the unit roundoff of
# doubles.  In the slack  s = sgn(det) (r_i A + r_j B + r_k C) - |det| r_l  the
# small integers A, B, C and det are exact floats.  Each rhs is an integer (the
# rows are scaled to one denominator), rounded once by float(int), and each
# product once more, so each of the four terms is off by at most
# gamma_2 = 2u / (1 - 2u) of itself; the three additions add at most gamma_3
# times the sum of the computed magnitudes.  So the computed s is off by less
# than 5.01u times that sum (integers cannot underflow, and the rhs stay far
# below float overflow), while the computed bound, 16u times the same sum (16u
# is a power of two), is at least 15.99u times it.
_FILTER_GAMMA = 16 * 2.0 ** -53

DEFAULT_BOUNDARY_SLACK = 1e-7


class Halfspace(NamedTuple):
    """normal . x <= rhs over chamber coordinates x in units of pi."""

    normal: tuple[int, int, int]
    rhs: Fraction


# chamber plus content-ordering constraints, sorted by normal; the latter
# mostly repeat the former
CHAMBER_SYSTEM: tuple[Halfspace, ...] = (
    Halfspace((-1, 1, 0), Fraction(0)),   # c2 <= c1
    Halfspace((0, -1, -1), Fraction(0)),  # content ordering f3 >= f4
    Halfspace((0, -1, 1), Fraction(0)),   # c3 <= c2
    Halfspace((0, 0, -1), Fraction(0)),   # c3 >= 0
    Halfspace((1, 1, 0), Fraction(1)),    # c1 + c2 <= pi
)


def rationalize(coord) -> ExactTriple:
    """Exact chamber coordinate (units of pi) for a CartanCoord or triple.

    Coordinates that already carry an exact representation pass through.
    Floats are snapped to the nearest rational with denominator at most
    ``MAX_DENOMINATOR``; the snap error is not bounded.
    """
    c = canonicalize(coord)
    if c.frac is not None:
        return c.frac
    return canonicalize(tuple(Fraction(v / PI).limit_denominator(MAX_DENOMINATOR)
                              for v in c.astuple())).frac


def build_halfspaces(b, e) -> tuple[Halfspace, ...]:
    """Halfspace system for all products of gates with exact contents b and e.

    One inequality per quantum-LR tuple, rewritten from content space into
    chamber coordinates, plus the chamber and content-ordering constraints.
    The two tuples of the degenerate Grassmannians have no row.
    """
    if not all(isinstance(v, (Fraction, int)) for c in (b, e) for v in c.astuple()):
        raise InvalidContentError("exact (Fraction) content required for halfspace systems")
    (numerators,), den = _rhs((content_to_triple(b), content_to_triple(e)))
    return ConvexRegion(zip(_row_map()[0], numerators), den).halfspaces


def _negated(x) -> tuple:
    """The raw point whose content is that of -U for U at x (``negate_content``)."""
    return (1 - x[0], x[1], -x[2])


@lru_cache(maxsize=1)
def _row_map() -> tuple[tuple, tuple, int]:
    """The rows of :func:`build_halfspaces` before deduping, as one integer
    affine map of the raw points x and y of the two sources:
    ``(normals, coefficients, G)``, and row i reads
    normals[i] . z <= coefficients[i] . (x, y, 1) / G.  :func:`_rhs` evaluates
    it at exact points; an affine row, such as the slope of a segment's rhs,
    is a difference of its values at affinely independent points.

    The chamber rows come first, with zero x and y coefficients.  Then a tuple
    says sum_delta f(z) >= sum_alpha b + sum_beta e - d for the contents
    b = F x / 2 and e = F y / 2, that is -n . z <= -F_alpha . x - F_beta . y + 2 d
    with n, F_alpha and F_beta the summed ``CONTENT_MAP`` rows, divided by the
    gcd g of n; G is the lcm of every g.  The two tuples with n = 0 also have
    F_alpha = F_beta = 0 and d = 0, so they read 0 <= 0 and have no row.
    """
    def summed(indices):
        return tuple(sum(CONTENT_MAP[i - 1][k] for i in indices) for k in range(3))

    # the chamber rhs are integers, so their g is 1
    rows = [(hs.normal, 1, (0,) * 6 + (int(hs.rhs),)) for hs in CHAMBER_SYSTEM]
    for t in enumerate_inequality_tuples():
        if any(n := summed(t.delta_indices())):
            linear = summed(t.alpha_indices()) + summed(t.beta_indices())
            g = gcd(*n)
            rows.append((tuple(-v // g for v in n), g, (*(-v for v in linear), 2 * t.d)))
    common = math.lcm(*(g for _, g, _ in rows))
    return (tuple(n for n, _, _ in rows),
            tuple(tuple(common // g * c for c in coeffs) for _, g, coeffs in rows), common)


def _rhs(*pairs) -> tuple[list[list[int]], int]:
    """The rhs of the row map at each pair (x, y) of exact raw points, as
    integer numerators per pair over one shared positive denominator."""
    _, coeffs, common = _row_map()
    den = math.lcm(*(v.denominator for x, y in pairs for v in x + y))
    points = [[v.numerator * (den // v.denominator) for v in x + y] + [den] for x, y in pairs]
    return [[sum(map(operator.mul, c, p)) for c in coeffs] for p in points], common * den


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub(u, v) -> tuple:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _rank_of_span(vectors) -> int:
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return 0
    normals = [n for n in (_cross(vectors[0], v) for v in vectors) if any(n)]
    if not normals:
        return 1
    return 3 if any(_dot(normals[0], v) for v in vectors) else 2


class ConvexRegion:
    """One convex piece: ``integer_system`` plus (lazily computed) exact vertices.

    ``rows`` are ``(normal, rhs)`` pairs, normal . x <= rhs / scale with
    ``scale`` a positive integer: integer numerators over their denominator,
    or ``Halfspace`` rows at scale 1.  The least rhs per normal is kept, sorted
    by normal, over one denominator in lowest terms: ``integer_system`` is
    ``(normals, numerators, scale)`` with gcd(scale, *numerators) = 1.
    """

    def __init__(self, rows, scale: int = 1):
        best: dict = {}
        for n, r in rows:
            best[n] = min(r, best.get(n, r))
        normals = tuple(sorted(best))
        den = math.lcm(*(best[n].denominator for n in normals))
        numerators = [best[n].numerator * (den // best[n].denominator) for n in normals]
        g = gcd(scale * den, *numerators)
        self.integer_system = (normals, tuple(v // g for v in numerators), scale * den // g)

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The rows as exact halfspaces, for export."""
        normals, rhs, scale = self.integer_system
        return tuple(Halfspace(n, Fraction(r, scale)) for n, r in zip(normals, rhs))

    @cached_property
    def _solved(self) -> tuple[tuple, int, tuple[frozenset[int], ...]]:
        """Exact vertices ``(points, den, tight)``: x = point / den with integer
        points and den > 0, and per vertex the rows tight there."""
        return _solve_vertices(*self.integer_system)

    @cached_property
    def vertices(self) -> tuple[ExactTriple, ...]:
        points, den, _ = self._solved
        return tuple(sorted(tuple(Fraction(v, den) for v in p) for p in points))

    @cached_property
    def dim(self) -> int:
        """Affine dimension of the piece; -1 when empty."""
        pts = self._solved[0]
        return _rank_of_span([_sub(p, pts[0]) for p in pts[1:]]) if pts else -1

    def contains_exact(self, x: ExactTriple) -> bool:
        """n . x <= R / scale on every row, compared in integers: with den the
        lcm of the denominators of x, y = scale den x is an integer point and
        the row holds iff n . y <= R den."""
        normals, rhs, scale = self.integer_system
        den = math.lcm(*(v.denominator for v in x))
        y0, y1, y2 = (scale * v.numerator * (den // v.denominator) for v in x)
        return all(n0 * y0 + n1 * y1 + n2 * y2 <= r * den
                   for (n0, n1, n2), r in zip(normals, rhs))

    @cached_property
    def float_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows as float arrays ``(normals, rhs, normal norms)``; each rhs
        is the exact value rounded once."""
        normals, numerators, scale = self.integer_system
        a = np.array(normals, dtype=float)
        rhs = np.array([r / scale for r in numerators])
        return a, rhs, np.linalg.norm(a, axis=1)

    def contains_float(self, p, slack: float) -> bool:
        a, rhs, norms = self.float_system
        return bool(np.all(a @ np.asarray(p, dtype=float) <= rhs + slack * norms))

    def volume(self) -> Fraction:
        return self._volume

    @cached_property
    def _volume(self) -> Fraction:
        return _volume(*self._solved) if self.dim == 3 else Fraction(0)


def _volume(points, den, tight) -> Fraction:
    """Exact volume of the full-dimensional polytope with the vertices
    point / den and per vertex the rows ``tight`` there.

    A facet is a halfspace tight at three or more vertices, and an edge of
    it is its intersection with another facet.  Each edge is coned to one
    vertex of its facet, then to the first vertex of the polytope; the
    tetrahedra tile the polytope (those through either apex vanish), so no
    facet polygon needs ordering.  |det| sums to 6 den^3 times the volume.
    """
    by_row: dict[int, set[int]] = {}
    for v, rows in enumerate(tight):
        for i in rows:
            by_row.setdefault(i, set()).add(v)
    facets = {frozenset(vs) for vs in by_row.values() if len(vs) >= 3}
    origin = points[0]
    total = 0
    for facet in facets:
        if 0 in facet:
            continue
        apex = _sub(points[min(facet)], origin)
        edges = {pair for other in facets if len(pair := facet & other) == 2}
        for a, b in edges:
            total += abs(_dot(apex, _cross(_sub(points[a], origin), _sub(points[b], origin))))
    return Fraction(total, 6 * den ** 3)


def _exact_vertex(normals, rhs, triple) -> tuple[tuple[int, ...], int, frozenset[int], bool]:
    """Meeting point of three planes n . x <= r with integer n and r: the point
    as x = y / w in lowest terms with w > 0, the rows tight there, feasibility.

    x = (r1 n2 x n3 + r2 n3 x n1 + r3 n1 x n2) / det with det = n1 . n2 x n3;
    the cross products of the integer normals are integers.
    """
    n1, n2, n3 = (normals[i] for i in triple)
    r1, r2, r3 = (rhs[i] for i in triple)
    n23, n31, n12 = _cross(n2, n3), _cross(n3, n1), _cross(n1, n2)
    det = _dot(n1, n23)
    y = [r1 * a + r2 * b + r3 * c for a, b, c in zip(n23, n31, n12)]
    g = gcd(*y, det) * (1 if det > 0 else -1)
    y, w = tuple(v // g for v in y), det // g
    tight, feasible = set(), True
    for i, (n, r) in enumerate(zip(normals, rhs)):
        lhs, rw = n[0] * y[0] + n[1] * y[1] + n[2] * y[2], r * w
        if lhs == rw:
            tight.add(i)
        elif lhs > rw:
            feasible = False
    return y, w, frozenset(tight), feasible


@lru_cache(maxsize=4)
def _plane_triples(normals) -> tuple[np.ndarray, ...]:
    """The triples (i, j, k) of these normals with det = n_i . n_j x n_k != 0,
    sgn(det) (A, B, C) per triple and row l as floats (triple, i/j/k, row l),
    their absolute values, and |det|.  The normals of a system depend on the
    tuple table only, so every system built from it hits this cache.
    """
    normals = np.array(normals, dtype=np.int64)
    triples = np.array(list(combinations(range(len(normals)), 3)))
    ni, nj, nk = (normals[triples[:, c]] for c in range(3))
    cross = np.stack([np.cross(nj, nk), np.cross(nk, ni), np.cross(ni, nj)], axis=1)
    det = np.einsum("tc,tc->t", ni, cross[:, 0])
    regular = det != 0
    triples, cross, det = triples[regular], cross[regular], det[regular]
    coeffs = (np.sign(det)[:, None, None] * (cross @ normals.T)).astype(float)
    out = (triples, coeffs, np.abs(coeffs), np.abs(det).astype(float))
    for a in out:
        a.flags.writeable = False  # shared by every caller
    return out


def _solve_vertices(normals, rhs, scale) -> tuple[tuple, int, tuple[frozenset[int], ...]]:
    """Exact vertices of {x : n . x <= R / L}, with plane triples filtered in
    floats, for the rows of ``ConvexRegion.integer_system``.

    Every rhs R is an integer over the system's one denominator L, and a
    vertex is an integer point Y over an integer w with x = Y / (L w).  Planes
    i, j, k with det = n_i . n_j x n_k != 0 meet in one point, and row l
    holds there iff s = sgn(det) (R_i A + R_j B + R_k C) - |det| R_l <= 0,
    where (A, B, C) = n_l . (n_j x n_k, n_k x n_i, n_i x n_j) are integers.
    Floats evaluate s for every triple and row at once and drop a triple only
    where s exceeds its certified rounding bound, so no vertex is lost.  The
    surviving triples are walked once: a triple whose three rows are all tight
    at a point already solved, feasible or not, meets there and is skipped;
    any other is solved and checked exactly in integers (n . Y == R w for
    tightness, n . Y <= R w for feasibility).  Floats only prune the
    candidates: every reported vertex is an exact solve with an exact check.
    """
    if len(normals) < 3:
        return (), 1, ()
    triples, coeffs, abs_coeffs, abs_det = _plane_triples(normals)
    try:
        rhs_float = np.array([float(r) for r in rhs])
    except OverflowError:
        raise NumericOverflowError("scaled right-hand sides exceeded float range") from None
    r = rhs_float[triples]
    own = abs_det[:, None] * rhs_float
    slack = np.einsum("tc,tcl->tl", r, coeffs) - own
    bound = _FILTER_GAMMA * (np.einsum("tc,tcl->tl", np.abs(r), abs_coeffs) + np.abs(own))
    found: dict[tuple, frozenset[int]] = {}
    met: set[tuple] = set()  # the triples of rows tight at a solved point
    for triple in map(tuple, triples[~np.any(slack > bound, axis=1)].tolist()):
        if triple in met:
            continue
        y, w, tight, feasible = _exact_vertex(normals, rhs, triple)
        _check_magnitude(y, scale * w)
        if feasible:
            found[(y, w)] = tight
        met.update(combinations(sorted(tight), 3))
    common = math.lcm(*(w for _, w in found))
    points = tuple(tuple(v * (common // w) for v in y) for y, w in found)
    return points, scale * common, tuple(found.values())


def _check_magnitude(y, den) -> None:
    """Raise unless every coordinate y_i / den has a numerator and denominator
    in lowest terms within the magnitude cap."""
    for v in y:
        g = gcd(v, den)
        if abs(v) // g > _MAGNITUDE_CAP or den // g > _MAGNITUDE_CAP:
            raise NumericOverflowError("vertex coordinates exceeded magnitude bounds")


@dataclass
class CoverageRegion:
    """Union of the two sign-system polytopes for one ordered gate pair.

    ``parts`` is ``(same, flip)``: the system of the pair, and that with one
    factor negated, which :func:`region_to_json` writes as the sign pairs
    ``++ +- -+ --``.  The two are one object when their systems are equal.
    """

    source_u: ExactTriple
    source_v: ExactTriple
    parts: tuple[ConvexRegion, ConvexRegion]

    @cached_property
    def _union_volume(self) -> Fraction:
        same, flip = self.parts
        if same.integer_system == flip.integer_system:
            return same.volume()
        # the intersection's rows, each part's numerators over the product of the scales
        (sn, sr, ss), (fn, fr, fs) = same.integer_system, flip.integer_system
        both = ConvexRegion([*zip(sn, (r * fs for r in sr)), *zip(fn, (r * ss for r in fr))],
                            ss * fs)
        return same.volume() + flip.volume() - both.volume()

    def union_dim(self) -> int:
        return max(p.dim for p in self.parts)


def coverage_region(c_u1, c_u2) -> CoverageRegion:
    """Region of classes reachable as L1 U1 L2 U2 L3, as two exact polytopes.

    The sign choices on (U1, U2) give two distinct halfspace systems: the
    contents (b, e) and (b, -e), where -e is the content of -U2.  The product
    with one factor negated covers the content representation that the plain
    pair misses.
    """
    # float coordinates are snapped best-effort: the snap error is not bounded
    # and can exceed the membership boundary slack (ROADMAP item 3)
    xu, xv = rationalize(c_u1), rationalize(c_u2)
    rows, den = _rhs((xu, xv), (xu, _negated(xv)))
    same, flip = (ConvexRegion(zip(_row_map()[0], r), den) for r in rows)
    parts = (same, same if flip.integer_system == same.integer_system else flip)
    return CoverageRegion(xu, xv, parts)


def contains(region: CoverageRegion, coord, slack: float = DEFAULT_BOUNDARY_SLACK) -> bool:
    """Membership of a class in the union, testing both c3 = 0 representatives.

    Exact evaluation whenever the coordinate is an exact rational multiple of
    pi; otherwise float evaluation with the given outward boundary slack (in
    coordinate units of radians, scaled per-inequality by the normal).
    """
    c = canonicalize(coord)
    if c.frac is not None:
        reps = c3_zero_twins(c.frac, 0, Fraction(1))
        return any(part.contains_exact(r) for r in reps for part in region.parts)
    slack_x = slack / PI
    reps = c3_zero_twins(tuple(v / PI for v in c.astuple()), slack_x, 1.0)
    return any(part.contains_float(r, slack_x)
               for r in reps for part in region.parts)


@lru_cache(maxsize=64)
def _segment_rows(x_lo, x_hi) -> tuple:
    """Per sign system, the float rows over the segment from x_lo to x_hi:
    normals, their norms, the rhs r0 at x_lo and its change d to x_hi.

    The second source is x, or :func:`_negated` of x for the flip system.  The
    row map is affine, so d is the rhs at x_hi minus the rhs at x_lo.  Each
    float is the exact value rounded once.
    """
    normals = np.array(_row_map()[0], dtype=float)
    norms = np.linalg.norm(normals, axis=1)
    rows, den = _rhs((x_lo, x_lo), (x_lo, _negated(x_lo)), (x_hi, x_hi), (x_hi, _negated(x_hi)))
    return tuple((normals, norms, np.array([v / den for v in r0]),
                  np.array([(b - a) / den for a, b in zip(r0, r1)]))
                 for r0, r1 in zip(rows[:2], rows[2:]))


def segment_windows(x_lo, x_hi, coord) -> list[tuple[float, float]]:
    """Windows ``(s0, s1)`` of s in [0, 1] where ``coverage_region(x, x)`` with
    x = x_lo + s (x_hi - x_lo) contains ``coord``, for exact chamber points x_lo, x_hi.

    Content is linear in the chamber point, so the rhs of row i of either sign
    system is affine in s, r0 + s d, and for a fixed target each row bounds s
    on one side.  One window per sign system and c3 = 0 twin of the target,
    with the float test and default slack of :func:`contains`.  The rows are
    not deduped: the tightest rhs per normal is a minimum of affine functions.
    """
    slack_x = DEFAULT_BOUNDARY_SLACK / PI
    reps = c3_zero_twins(tuple(v / PI for v in canonicalize(coord).astuple()), slack_x, 1.0)
    windows = []
    for normals, norms, r0, d in _segment_rows(tuple(x_lo), tuple(x_hi)):
        up, down = d > 0, d < 0
        for p in reps:
            gap = normals @ p - slack_x * norms - r0
            if np.any(gap[d == 0] > 0):
                continue
            s0 = np.max(gap[up] / d[up], initial=0.0)
            s1 = np.min(gap[down] / d[down], initial=1.0)
            if s0 <= s1:
                windows.append((float(s0), float(s1)))
    return windows


def union_volume(region: CoverageRegion) -> Fraction:
    """Exact volume of the union (pi^3 units) of the two distinct parts.

    vol(same) + vol(flip) - vol(same & flip); ``volume()`` is 0 below
    dimension 3, so this also holds for lower-dimensional parts.  Equal
    systems give vol(same) without building their intersection.  The region
    keeps the result.
    """
    return region._union_volume


def fractional_volume(region: CoverageRegion) -> Fraction:
    """Exact fraction of the Weyl chamber covered, in [0, 1]."""
    frac = union_volume(region) / CHAMBER_VOLUME
    if not 0 <= frac <= 1:
        raise NumericOverflowError(f"union volume fraction {frac} escaped [0, 1]")
    return frac


@dataclass(frozen=True)
class McVolumeEstimate:
    fraction: float
    stderr: float
    samples: int


_CHAMBER_VERTS = np.array(CHAMBER_VERTICES_FRAC, dtype=float)
_MC_CHUNK = 1 << 13  # samples drawn and tested at once


def _descending(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows of the (n, 3) array u ordered s1 >= s2 >= s3, as the (3, n)
    array of s1, s2 and s3: a three-comparator min/max network, which moves
    values and rounds nothing.  The six calls write into rows 1-3 of ``out``,
    a (4, n) buffer whose row 0 holds max(u1, u2); the result is
    ``out[1:]``."""
    a, b, c = u.T
    hi, s1, mid, s3 = out
    np.maximum(a, b, out=hi)
    np.minimum(a, b, out=mid)  # lo until s3 is read off it
    np.minimum(mid, c, out=s3)
    np.maximum(mid, c, out=mid)
    np.maximum(hi, mid, out=s1)
    np.minimum(hi, mid, out=mid)  # s2
    return out[1:]


def _undominated(p: np.ndarray) -> np.ndarray:
    """Mask of the rows p_i that no other row p_j >= p_i (entrywise) implies;
    of equal rows the first is kept.  For w >= 0, w . p_j <= 0 gives w . p_i <= 0."""
    ge = np.all(p[:, None] >= p[None, :], axis=2)  # ge[j, i]: p_j >= p_i
    earlier = np.triu(np.ones(ge.shape, dtype=bool), 1)  # earlier[j, i]: j < i
    return ~np.any(ge & (~ge.T | earlier), axis=0)


def mc_volume(region: CoverageRegion, samples: int, rng: np.random.Generator) -> McVolumeEstimate:
    """Monte Carlo check of the exact fraction: uniform points in the chamber.

    Returns the hit fraction with its binomial standard error.  A uniform
    point of the chamber is x = V^T w, with V the chamber vertices and w the
    spacings (1 - s1, s1 - s2, s2 - s3, s3) of three uniforms sorted
    s1 >= s2 >= s3: the spacings of sorted uniforms are uniform on the simplex
    (Devroye 1986, ch. V).  Each row n . x <= r + 1e-12 |n| is pulled back to
    p = V n - (r + 1e-12 |n|), and since sum(w) = 1 it holds iff w . p <= 0,
    that is p0 + s1 (p1 - p0) + s2 (p2 - p1) + s3 (p3 - p2) <= 0, which is
    affine in s: the points are never formed and one matmul per chunk tests
    the rows of both parts.  A row that holds at all four chamber vertices
    holds on every sample and is dropped, and so is a row that another row
    of its part implies (:func:`_undominated`); a part with no other row is
    hit everywhere.  These tests read the rows only, never the vertices.
    The kept rows are laid out as those of the first part only, those of
    both parts, and those of the second part only, so that each part is one
    slice and a row shared by the two (up to three of about eight on a
    family point) is tested once.

    The draws, and so the generator state afterwards, are those of
    ``rng.random((samples, 3))``.  The hits equal those of sorting the draws
    with ``np.sort``, forming the points and testing every row in practice,
    though not by construction: the two evaluations round differently, by
    about 1e-16 relative, so they can disagree only on a draw that close to a
    plane, and each plane already lies 1e-12 |n| outside its facet.  The
    draws come in chunks of ``_MC_CHUNK``, which gives the same draws as one
    call for all of them, into buffers allocated once per call.  In the
    exact-sweep benchmark 2^13 ran fastest: 250 ops/s against 226 at 2^12
    and 238 at 2^14, with a peak of 46.4 MB against 45.7 and 47.8 MB.
    Testing the second part only on the points that the first part misses
    was 1.1-2.2x slower: the boolean selection costs more than the rows it
    saves.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"use at least {MC_MIN_SAMPLES} samples")
    blocks = []
    for part in dict.fromkeys(region.parts):  # equal parts once
        a, rhs, norms = part.float_system
        live = np.any(_CHAMBER_VERTS @ a.T > rhs, axis=0)
        pulled_back = (_CHAMBER_VERTS @ a[live].T - (rhs + 1e-12 * norms)[live]).T
        blocks.append(pulled_back[_undominated(pulled_back)])
    if len(blocks) == 1:
        rows, row_spans = blocks[0], [slice(None)]
    else:
        # _undominated keeps one of equal rows, so a shared row pairs once
        first, second = blocks
        equal = np.all(first[:, None] == second[None, :], axis=2)
        in_second, in_first = np.any(equal, axis=1), np.any(equal, axis=0)
        rows = np.concatenate([first[~in_second], first[in_second], second[~in_first]])
        row_spans = [slice(0, len(first)), slice(int(np.count_nonzero(~in_second)), None)]
    slopes, bound = np.diff(rows, axis=1), -rows[:, :1]
    chunk = min(_MC_CHUNK, samples)
    draws, ordered = np.empty((chunk, 3)), np.empty((4, chunk))
    values, ok = np.empty((len(rows), chunk)), np.empty((len(rows), chunk), dtype=bool)
    part_hits = np.empty((len(row_spans), chunk), dtype=bool)
    hit_count = 0
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        rng.random(out=draws[:m])
        s = _descending(draws[:m], ordered[:, :m])
        np.matmul(slopes, s, out=values[:, :m])
        np.less_equal(values[:, :m], bound, out=ok[:, :m])
        for span, hits in zip(row_spans, part_hits):
            np.logical_and.reduce(ok[span, :m], axis=0, out=hits[:m])
        hits = part_hits[0, :m]
        for other in part_hits[1:, :m]:
            np.logical_or(hits, other, out=hits)
        hit_count += int(np.count_nonzero(hits))
    frac = float(hit_count) / samples
    stderr = math.sqrt(max(frac * (1.0 - frac), 1.0 / samples) / samples)
    return McVolumeEstimate(frac, stderr, samples)


def coord_json(x: ExactTriple) -> dict:
    return {"exact": [str(v) + "*pi" for v in x],
            "radians": [float(v) * PI for v in x]}


def region_to_json(region: CoverageRegion) -> dict:
    """Exportable document with exact strings and float renderings."""
    same, flip = ({"dim": part.dim,
                   "vertices": [coord_json(v) for v in part.vertices],
                   "halfspaces": [{"normal": list(hs.normal), "rhs": str(hs.rhs)}
                                  for hs in part.halfspaces]}
                  for part in region.parts)
    return {
        "source_coords": [coord_json(region.source_u), coord_json(region.source_v)],
        # the sign pairs (U1, U2), (U1, -U2), (-U1, U2), (-U1, -U2)
        "parts": [{"signs": signs, **body} for signs, body in
                  (("++", same), ("+-", flip), ("-+", flip), ("--", same))],
        "union_volume_fraction": {
            "exact": str(fractional_volume(region)),
            "float": float(fractional_volume(region)),
        },
    }
