"""Two-application coverage regions in the Weyl chamber, in exact arithmetic.

For a pair of gate classes, each quantum-LR tuple induces one linear
inequality on the content vector of the product; rewriting contents through
the linear bijection with chamber coordinates gives halfspace systems over
(c1, c2, c3) in units of pi.  Coordinates enter as exact rationals, and every
reported vertex, volume and export is exact.  Floats only prune and order the
vertex candidates, under a certified rounding bound, and answer float
membership queries and the Monte-Carlo check.

The reachable set of a class pair is the union of the systems built from the
sign choices on the two factors (negating a gate changes no class but shifts
its content vector).  Of the four sign pairs only two give distinct systems:
(-U1)(-U2) = U1 U2 and (-U1) U2 = U1 (-U2), so ``--`` repeats ``++`` and
``-+`` repeats ``+-``, and the union is that of two polytopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

import numpy as np

from .cartan import NonlocalContent, negate_content, nonlocal_content
from .coords import PI, CartanCoord, c3_zero_twins, canonicalize
from .errors import InvalidContentError, NumericOverflowError
from .qlr import enumerate_inequality_tuples

ExactCoord = tuple[Fraction, Fraction, Fraction]

CHAMBER_VOLUME = Fraction(1, 24)  # volume of the chamber tetrahedron in pi^3 units
MAX_DENOMINATOR = 100_000
_MAGNITUDE_CAP = 10 ** 60

# Rounding factor of the vertex filter, 16u with u = 2^-53 the unit roundoff of
# doubles.  In the slack  s = sgn(det) (r_i A + r_j B + r_k C) - |det| r_l  the
# small integers A, B, C and det are exact floats.  Each rhs is rounded once by
# float(Fraction) and each product once more, so each of the four terms is off
# by at most gamma_2 = 2u / (1 - 2u) of itself; the three additions add at most
# gamma_3 times the sum of the computed magnitudes.  So the computed s is off by
# less than 5.01u times that sum (the rhs are rationals of moderate size, far
# from float underflow and overflow), while the computed bound, 16u times the
# same sum (16u is a power of two), is at least 15.99u times it.
_FILTER_GAMMA = 16 * 2.0 ** -53

# numerators of the content linear forms f_i, over a common denominator of 2
_F_NUM = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))

DEFAULT_BOUNDARY_SLACK = 1e-7


class Halfspace(NamedTuple):
    """normal . x <= rhs over chamber coordinates x in units of pi."""

    normal: tuple[int, int, int]
    rhs: Fraction


def _primitive(normal, rhs) -> Halfspace:
    g = gcd(gcd(abs(normal[0]), abs(normal[1])), abs(normal[2]))
    if g > 1:
        normal = tuple(n // g for n in normal)
        rhs = rhs / g
    return Halfspace(tuple(int(n) for n in normal), Fraction(rhs))


def dedupe_halfspaces(halfspaces) -> tuple[Halfspace, ...]:
    """Keep the tightest right-hand side per normal direction."""
    best: dict[tuple[int, int, int], Fraction] = {}
    for hs in halfspaces:
        cur = best.get(hs.normal)
        if cur is None or hs.rhs < cur:
            best[hs.normal] = hs.rhs
    return tuple(Halfspace(n, r) for n, r in sorted(best.items()))


# chamber plus content-ordering constraints; the latter mostly repeat the former
CHAMBER_SYSTEM: tuple[Halfspace, ...] = dedupe_halfspaces([
    Halfspace((-1, 1, 0), Fraction(0)),   # c2 <= c1
    Halfspace((0, -1, 1), Fraction(0)),   # c3 <= c2
    Halfspace((0, 0, -1), Fraction(0)),   # c3 >= 0
    Halfspace((1, 1, 0), Fraction(1)),    # c1 + c2 <= pi
    Halfspace((0, -1, -1), Fraction(0)),  # content ordering f3 >= f4
])


def _canonical(coord) -> CartanCoord:
    """Chamber representative of a CartanCoord or of a Fraction/float triple."""
    return canonicalize(coord if isinstance(coord, CartanCoord) else tuple(coord))


def rationalize(coord, max_denominator: int = MAX_DENOMINATOR,
                tol: float | None = 1e-9) -> ExactCoord:
    """Exact chamber coordinate (units of pi) for a CartanCoord or triple.

    Coordinates that already carry an exact representation pass through.
    Floats are snapped to the nearest bounded-denominator rational; when
    ``tol`` is given the snap must stay within ``tol`` radians.
    """
    c = _canonical(coord)
    if c.frac is not None:
        return c.frac
    values = c.astuple()
    out = []
    for v in values:
        fr = Fraction(v / PI).limit_denominator(max_denominator)
        if tol is not None and abs(float(fr) * PI - v) > tol:
            raise InvalidContentError(
                f"coordinate {v} is not a rational multiple of pi within {tol}")
        out.append(fr)
    return canonicalize(tuple(out)).frac


def _content_values(content) -> tuple[Fraction, ...]:
    if isinstance(content, NonlocalContent):
        values = content.astuple()
    else:
        values = tuple(content)
    if not all(isinstance(v, (Fraction, int)) for v in values):
        raise InvalidContentError("exact (Fraction) content required for halfspace systems")
    return tuple(Fraction(v) for v in values)


def build_halfspaces(b, e, tuples=None) -> tuple[Halfspace, ...]:
    """Halfspace system for all products of gates with contents b and e.

    One inequality per quantum-LR tuple, rewritten from content space into
    chamber coordinates, plus the chamber and content-ordering constraints.
    Tuples from the degenerate Grassmannians produce tautologies and are
    dropped after a consistency check.
    """
    if tuples is None:
        tuples = enumerate_inequality_tuples()
    return dedupe_halfspaces(_qlr_rows(b, e, tuples))


def _qlr_rows(b, e, tuples) -> list[Halfspace]:
    """The rows of :func:`build_halfspaces` before deduping: the chamber rows,
    then one row per non-degenerate tuple in tuple order.  The normals depend
    on the tuples only, so two content pairs give rows that match up by index.
    """
    b = _content_values(b)
    e = _content_values(e)
    out = list(CHAMBER_SYSTEM)
    for t in tuples:
        n = [0, 0, 0]
        for idx in t.delta_indices():
            row = _F_NUM[idx - 1]
            n = [a + r for a, r in zip(n, row)]
        rhs2 = 2 * (sum(b[i - 1] for i in t.alpha_indices())
                    + sum(e[i - 1] for i in t.beta_indices()) - t.d)
        if n == [0, 0, 0]:
            if rhs2 > 0:
                raise InvalidContentError(f"degenerate tuple {t} yields infeasible row")
            continue
        # sum_j f_idx(x) >= rhs  becomes  -n . x <= -2*rhs
        out.append(_primitive((-n[0], -n[1], -n[2]), -rhs2))
    return out


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
    """One convex piece: halfspaces plus (lazily computed) exact vertices."""

    def __init__(self, halfspaces):
        self.halfspaces = dedupe_halfspaces(halfspaces)
        self._vertices = None
        self._dim = None
        self._volume = None
        self._float_system = None

    @property
    def vertices(self) -> tuple[ExactCoord, ...]:
        if self._vertices is None:
            self._vertices = _enumerate_vertices(self.halfspaces)
        return self._vertices

    @property
    def dim(self) -> int:
        """Affine dimension of the piece; -1 when empty."""
        if self._dim is None:
            verts = self.vertices
            self._dim = _rank_of_span([_sub(v, verts[0]) for v in verts[1:]]) if verts else -1
        return self._dim

    def contains_exact(self, x: ExactCoord) -> bool:
        return all(_dot(hs.normal, x) <= hs.rhs for hs in self.halfspaces)

    @property
    def float_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The halfspaces as float arrays ``(normals, rhs, normal norms)``."""
        if self._float_system is None:
            a = np.array([hs.normal for hs in self.halfspaces], dtype=float)
            rhs = np.array([float(hs.rhs) for hs in self.halfspaces])
            self._float_system = (a, rhs, np.linalg.norm(a, axis=1))
        return self._float_system

    def contains_float(self, p, slack: float) -> bool:
        a, rhs, norms = self.float_system
        return bool(np.all(a @ np.asarray(p, dtype=float) <= rhs + slack * norms))

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = _polytope_volume(self.vertices, self.halfspaces) \
                if self.dim == 3 else Fraction(0)
        return self._volume


def _exact_vertex(halfspaces, triple) -> tuple[ExactCoord, set[int], bool]:
    """Meeting point of three planes: the point, the rows tight there, feasibility.

    x = (r1 n2 x n3 + r2 n3 x n1 + r3 n1 x n2) / det with det = n1 . n2 x n3;
    the cross products of the integer normals are integers.
    """
    h1, h2, h3 = (halfspaces[i] for i in triple)
    n23, n31, n12 = (_cross(h2.normal, h3.normal), _cross(h3.normal, h1.normal),
                     _cross(h1.normal, h2.normal))
    det = _dot(h1.normal, n23)
    x = tuple((h1.rhs * a + h2.rhs * b + h3.rhs * c) / det
              for a, b, c in zip(n23, n31, n12))
    if any(abs(v.numerator) > _MAGNITUDE_CAP or v.denominator > _MAGNITUDE_CAP for v in x):
        raise NumericOverflowError("vertex coordinates exceeded magnitude bounds")
    lhs = [_dot(hs.normal, x) for hs in halfspaces]
    tight = {i for i, (v, hs) in enumerate(zip(lhs, halfspaces)) if v == hs.rhs}
    return x, tight, all(v <= hs.rhs for v, hs in zip(lhs, halfspaces))


def _enumerate_vertices(halfspaces) -> tuple[ExactCoord, ...]:
    """Exact vertices of {x : n . x <= r}, with plane triples filtered in floats.

    Planes i, j, k with det = n_i . n_j x n_k != 0 meet in one point, and row l
    holds there iff s = sgn(det) (r_i A + r_j B + r_k C) - |det| r_l <= 0, where
    (A, B, C) = n_l . (n_j x n_k, n_k x n_i, n_i x n_j) are integers.  Floats
    evaluate s for every triple and row at once and drop a triple only where s
    exceeds its certified rounding bound, so no vertex is lost.  The surviving
    triples are grouped by the rows they may be tight on; per group one triple
    is solved and checked exactly, and its exact tight set retires every triple
    of the group that meets in the same point.  Floats only prune and order the
    candidates: every reported vertex is an exact solve with an exact check.
    """
    if len(halfspaces) < 3:
        return ()
    normals = np.array([hs.normal for hs in halfspaces], dtype=np.int64)
    triples = np.array(list(combinations(range(len(halfspaces)), 3)))
    ni, nj, nk = (normals[triples[:, c]] for c in range(3))
    cross = np.stack([np.cross(nj, nk), np.cross(nk, ni), np.cross(ni, nj)], axis=1)
    det = np.einsum("tc,tc->t", ni, cross[:, 0])
    regular = det != 0
    triples, cross, det = triples[regular], cross[regular], det[regular]
    rhs = np.array([float(hs.rhs) for hs in halfspaces])
    terms = rhs[triples][:, :, None] * (cross @ normals.T)    # (triple, i/j/k, row l)
    own = np.abs(det)[:, None] * rhs
    slack = np.sign(det)[:, None] * terms.sum(axis=1) - own
    bound = _FILTER_GAMMA * (np.abs(terms).sum(axis=1) + np.abs(own))
    keep = ~np.any(slack > bound, axis=1)
    maybe_tight = np.abs(slack[keep]) <= bound[keep]
    groups: dict[bytes, list] = {}
    for mask, triple in zip(np.packbits(maybe_tight, axis=1), triples[keep].tolist()):
        groups.setdefault(mask.tobytes(), []).append(triple)
    found: set[ExactCoord] = set()
    for pending in groups.values():
        while pending:
            x, tight, feasible = _exact_vertex(halfspaces, pending[0])
            if feasible:
                found.add(x)
            pending = [t for t in pending if not tight.issuperset(t)]
    return tuple(sorted(found))


def _centroid(points) -> ExactCoord:
    return tuple(sum(p[i] for p in points) / len(points) for i in range(3))


def _polytope_volume(vertices, halfspaces) -> Fraction:
    """Exact volume of a full-dimensional polytope from its V- and H-forms.

    An edge of a facet is a pair of its vertices that is also tight on one
    more halfspace.  Each edge is coned to the facet's vertex centroid and
    then to the polytope's vertex centroid; the tetrahedra tile the polytope,
    so no facet polygon needs ordering.
    """
    center = _centroid(vertices)
    tight = [frozenset(i for i, v in enumerate(vertices) if _dot(hs.normal, v) == hs.rhs)
             for hs in halfspaces]
    total = Fraction(0)
    for facet in tight:
        if len(facet) < 3:
            continue
        apex = _centroid([vertices[i] for i in facet])
        edges = {pair for other in tight if len(pair := facet & other) == 2}
        for a, b in map(tuple, edges):
            total += abs(_dot(_sub(apex, center), _cross(_sub(vertices[a], center),
                                                         _sub(vertices[b], center))))
    return total / 6


_SIGN_LABELS = ("++", "+-", "-+", "--")


@dataclass
class CoverageRegion:
    """Union of the sign-pair polytopes for one ordered gate pair.

    ``parts`` holds one polytope per label of ``_SIGN_LABELS``.  Since
    (-U1)(-U2) = U1 U2 and (-U1) U2 = U1 (-U2), only two are distinct: ``--``
    is the ``++`` object and ``-+`` the ``+-`` object.
    """

    source_u: ExactCoord
    source_v: ExactCoord
    parts: tuple[ConvexRegion, ...]
    _union_volume: Fraction | None = field(default=None, repr=False)

    @property
    def distinct_parts(self) -> tuple[ConvexRegion, ConvexRegion]:
        """The ``++`` and ``+-`` polytopes, whose union is the region."""
        return self.parts[:2]

    def part(self, label: str) -> ConvexRegion:
        return self.parts[_SIGN_LABELS.index(label)]

    def union_dim(self) -> int:
        return max(p.dim for p in self.distinct_parts)


def coverage_region(c_u1, c_u2, tuples=None) -> CoverageRegion:
    """Region of classes reachable as L1 U1 L2 U2 L3, as two exact polytopes.

    The sign choices on (U1, U2) give two distinct halfspace systems: the
    contents (b, e) and (b, -e), where -e is the content of -U2.  The product
    with one factor negated covers the content representation that the plain
    pair misses.
    """
    # float coordinates are snapped best-effort: the snap error is not bounded
    # (up to 1.5e-5 rad measured) and can exceed the membership boundary slack
    xu = rationalize(c_u1, tol=None)
    xv = rationalize(c_u2, tol=None)
    b = nonlocal_content(CartanCoord.exact(*xu))
    e = nonlocal_content(CartanCoord.exact(*xv))
    if tuples is None:
        tuples = enumerate_inequality_tuples()
    same = ConvexRegion(build_halfspaces(b, e, tuples))
    flip = ConvexRegion(build_halfspaces(b, negate_content(e), tuples))
    return CoverageRegion(xu, xv, (same, flip, flip, same))


def contains(region: CoverageRegion, coord, slack: float = DEFAULT_BOUNDARY_SLACK) -> bool:
    """Membership of a class in the union, testing both c3 = 0 representatives.

    Exact evaluation whenever the coordinate is an exact rational multiple of
    pi; otherwise float evaluation with the given outward boundary slack (in
    coordinate units of radians, scaled per-inequality by the normal).
    """
    c = _canonical(coord)
    if c.frac is not None:
        reps = c3_zero_twins(c.frac, 0, Fraction(1))
        return any(part.contains_exact(r) for r in reps for part in region.distinct_parts)
    slack_x = slack / PI
    reps = c3_zero_twins(tuple(v / PI for v in c.astuple()), slack_x, 1.0)
    return any(part.contains_float(r, slack_x)
               for r in reps for part in region.distinct_parts)


@lru_cache(maxsize=64)
def _segment_rows(x_lo, x_hi) -> tuple:
    """Per sign system, the float rows over the segment from x_lo to x_hi:
    normals, their norms, the rhs r0 at x_lo and its change d to x_hi."""
    tuples = enumerate_inequality_tuples()
    b_lo, b_hi = (nonlocal_content(CartanCoord.exact(*x)) for x in (x_lo, x_hi))
    systems = []
    for sign in (lambda b: b, negate_content):
        rows_lo, rows_hi = (_qlr_rows(b, sign(b), tuples) for b in (b_lo, b_hi))
        normals = np.array([hs.normal for hs in rows_lo], dtype=float)
        systems.append((normals, np.linalg.norm(normals, axis=1),
                        np.array([float(hs.rhs) for hs in rows_lo]),
                        np.array([float(h.rhs - l.rhs) for l, h in zip(rows_lo, rows_hi)])))
    return tuple(systems)


def segment_windows(x_lo, x_hi, coord,
                    slack: float = DEFAULT_BOUNDARY_SLACK) -> list[tuple[float, float]]:
    """Windows ``(s0, s1)`` of s in [0, 1] where ``coverage_region(x, x)`` with
    x = x_lo + s (x_hi - x_lo) contains ``coord``, for exact chamber points x_lo, x_hi.

    Content is linear in the chamber point, so the rhs of row i of either sign
    system is affine in s, r0 + s d, and for a fixed target each row bounds s
    on one side.  One window per sign system and c3 = 0 twin of the target,
    with the float test and slack of :func:`contains`.  The rows are not
    deduped: the tightest rhs per normal is a minimum of affine functions.
    """
    slack_x = slack / PI
    reps = c3_zero_twins(tuple(v / PI for v in _canonical(coord).astuple()), slack_x, 1.0)
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
    dimension 3, so this also holds for equal or lower-dimensional parts.
    """
    if region._union_volume is None:
        same, flip = region.distinct_parts
        both = ConvexRegion(same.halfspaces + flip.halfspaces)
        region._union_volume = same.volume() + flip.volume() - both.volume()
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


_CHAMBER_VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.5, 0.5, 0.0], [0.5, 0.5, 0.5]])


def mc_volume(region: CoverageRegion, samples: int, rng: np.random.Generator) -> McVolumeEstimate:
    """Monte Carlo check of the exact fraction: uniform points in the chamber.

    Returns the hit fraction with its binomial standard error.
    """
    if samples < 1000:
        raise ValueError("use at least 1e3 samples")
    weights = rng.dirichlet(np.ones(4), size=samples)
    pts = weights @ _CHAMBER_VERTS
    hits = np.zeros(samples, dtype=bool)
    for part in region.distinct_parts:
        a, rhs, norms = part.float_system
        inside = np.all(pts @ a.T <= rhs + 1e-12 * norms, axis=1)
        hits |= inside
    frac = float(np.count_nonzero(hits)) / samples
    stderr = math.sqrt(max(frac * (1.0 - frac), 1.0 / samples) / samples)
    return McVolumeEstimate(frac, stderr, samples)


def coord_json(x: ExactCoord) -> dict:
    return {"exact": [str(v) + "*pi" for v in x],
            "radians": [float(v) * PI for v in x]}


def region_to_json(region: CoverageRegion) -> dict:
    """Exportable document with exact strings and float renderings."""
    doc = {
        "source_coords": [coord_json(region.source_u), coord_json(region.source_v)],
        "parts": [],
        "union_volume_fraction": {
            "exact": str(fractional_volume(region)),
            "float": float(fractional_volume(region)),
        },
    }
    for label, part in zip(_SIGN_LABELS, region.parts):
        doc["parts"].append({
            "signs": label,
            "dim": part.dim,
            "vertices": [coord_json(v) for v in part.vertices],
            "halfspaces": [{"normal": list(hs.normal), "rhs": str(hs.rhs)}
                           for hs in part.halfspaces],
        })
    return doc
