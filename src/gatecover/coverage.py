"""Two-application coverage regions in the Weyl chamber, in exact arithmetic.

For a pair of gate classes, each quantum-LR tuple induces one linear
inequality on the content vector of the product; rewriting contents through
the linear bijection with chamber coordinates gives halfspace systems over
(c1, c2, c3) in units of pi.  Coordinates enter as exact rationals, vertex
enumeration and volumes are exact, and floats appear only at the
membership/Monte-Carlo boundary.

The reachable set of a class pair is the union of the four systems built from
the sign choices on the two factors (negating a gate negates no class but
shifts its content vector).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    b = _content_values(b)
    e = _content_values(e)
    if tuples is None:
        tuples = enumerate_inequality_tuples()
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
    return dedupe_halfspaces(out)


def _det3(u, v, w) -> Fraction:
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _rank_of_span(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    col = 0
    while rank < len(rows) and col < 3:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = Fraction(rows[i][col], 1) / rows[rank][col]
                rows[i] = [a - factor * p for a, p in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


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
            if not verts:
                self._dim = -1
            else:
                v0 = verts[0]
                self._dim = _rank_of_span([tuple(a - b for a, b in zip(v, v0))
                                           for v in verts[1:]])
        return self._dim

    def contains_exact(self, x: ExactCoord) -> bool:
        return all(sum(n * xi for n, xi in zip(hs.normal, x)) <= hs.rhs
                   for hs in self.halfspaces)

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


def _enumerate_vertices(halfspaces) -> tuple[ExactCoord, ...]:
    """Exact vertex enumeration by brute force over all plane triples."""
    m = len(halfspaces)
    found: set[ExactCoord] = set()
    for i, j, k in combinations(range(m), 3):
        n1, n2, n3 = halfspaces[i].normal, halfspaces[j].normal, halfspaces[k].normal
        det = _det3(n1, n2, n3)
        if det == 0:
            continue
        r = (halfspaces[i].rhs, halfspaces[j].rhs, halfspaces[k].rhs)
        x = tuple(
            Fraction(_det3(*(_col_replaced(n1, n2, n3, r, col))), 1) / det
            for col in range(3))
        if any(abs(v.numerator) > _MAGNITUDE_CAP or v.denominator > _MAGNITUDE_CAP
               for v in x):
            raise NumericOverflowError("vertex coordinates exceeded magnitude bounds")
        if all(sum(n * xi for n, xi in zip(hs.normal, x)) <= hs.rhs for hs in halfspaces):
            found.add(x)
    return tuple(sorted(found))


def _col_replaced(n1, n2, n3, rhs, col):
    rows = [list(n1), list(n2), list(n3)]
    for row, val in zip(rows, rhs):
        row[col] = val
    return rows


def _polytope_volume(vertices, halfspaces) -> Fraction:
    """Exact volume of a full-dimensional polytope from its V- and H-forms.

    Every facet polygon is ordered exactly (cross-product comparisons only),
    fan-triangulated, and coned to the vertex centroid.
    """
    if len(vertices) < 4:
        return Fraction(0)
    n = len(vertices)
    centroid = tuple(sum(v[i] for v in vertices) / n for i in range(3))
    total = Fraction(0)
    for hs in halfspaces:
        facet = [v for v in vertices
                 if sum(a * xi for a, xi in zip(hs.normal, v)) == hs.rhs]
        if len(facet) < 3:
            continue
        ordered = _order_polygon(facet, hs.normal)
        if ordered is None:
            continue
        v0 = ordered[0]
        for a, b in zip(ordered[1:], ordered[2:]):
            d = _det3(tuple(p - q for p, q in zip(v0, centroid)),
                      tuple(p - q for p, q in zip(a, centroid)),
                      tuple(p - q for p, q in zip(b, centroid)))
            total += abs(d)
    return total / 6


def _order_polygon(points, normal):
    """Cyclic (angular) order of coplanar points around their centroid, exact."""
    m = len(points)
    center = tuple(sum(p[i] for p in points) / m for i in range(3))
    dirs = [tuple(p[i] - center[i] for i in range(3)) for p in points]
    if _rank_of_span(dirs) < 2:
        return None
    ref = next(d for d in dirs if any(x != 0 for x in d))

    def half(d):
        s = _det3(ref, d, normal)
        if s != 0:
            return 0 if s > 0 else 1
        dot = sum(a * b for a, b in zip(ref, d))
        return 0 if dot > 0 else 1

    def cmp(ia, ib):
        da, db = dirs[ia], dirs[ib]
        ha, hb = half(da), half(db)
        if ha != hb:
            return -1 if ha < hb else 1
        s = _det3(da, db, normal)
        if s > 0:
            return -1
        if s < 0:
            return 1
        return 0

    order = sorted(range(m), key=functools.cmp_to_key(cmp))
    return [points[i] for i in order]


_SIGN_LABELS = ("++", "+-", "-+", "--")


@dataclass
class CoverageRegion:
    """Union of the four sign-pair polytopes for one ordered gate pair."""

    source_u: ExactCoord
    source_v: ExactCoord
    parts: tuple[ConvexRegion, ...]
    labels: tuple[str, ...] = _SIGN_LABELS
    _union_volume: Fraction | None = field(default=None, repr=False)

    def part(self, label: str) -> ConvexRegion:
        return self.parts[self.labels.index(label)]

    def union_dim(self) -> int:
        return max((p.dim for p in self.parts), default=-1)


def coverage_region(c_u1, c_u2, tuples=None) -> CoverageRegion:
    """Region of classes reachable as L1 U1 L2 U2 L3, as four exact polytopes.

    The four systems come from the sign choices on (U1, U2); the product of
    the negated pair covers the content representation that the plain pair
    misses.
    """
    # float coordinates are snapped best-effort: the snap error (<= ~1e-10 pi)
    # is far below the membership boundary slack
    xu = rationalize(c_u1, tol=None)
    xv = rationalize(c_u2, tol=None)
    b = nonlocal_content(CartanCoord.exact(*xu))
    e = nonlocal_content(CartanCoord.exact(*xv))
    if tuples is None:
        tuples = enumerate_inequality_tuples()
    parts = []
    for bb in (b, negate_content(b)):
        for ee in (e, negate_content(e)):
            parts.append(ConvexRegion(build_halfspaces(bb, ee, tuples)))
    return CoverageRegion(xu, xv, tuple(parts))


def contains(region: CoverageRegion, coord, slack: float = DEFAULT_BOUNDARY_SLACK) -> bool:
    """Membership of a class in the union, testing both c3 = 0 representatives.

    Exact evaluation whenever the coordinate is an exact rational multiple of
    pi; otherwise float evaluation with the given outward boundary slack (in
    coordinate units of radians, scaled per-inequality by the normal).
    """
    c = _canonical(coord)
    if c.frac is not None:
        reps = c3_zero_twins(c.frac, 0, Fraction(1))
        return any(part.contains_exact(r) for r in reps for part in region.parts)
    slack_x = slack / PI
    reps = c3_zero_twins(tuple(v / PI for v in c.astuple()), slack_x, 1.0)
    return any(part.contains_float(r, slack_x) for r in reps for part in region.parts)


def union_volume(region: CoverageRegion) -> Fraction:
    """Exact volume of the union (pi^3 units) by inclusion-exclusion."""
    if region._union_volume is not None:
        return region._union_volume
    solid = [p for p in region.parts if p.dim == 3]
    total = Fraction(0)
    for m in range(1, len(solid) + 1):
        for combo in combinations(solid, m):
            if m == 1:
                vol = combo[0].volume()
            else:
                merged = []
                for p in combo:
                    merged.extend(p.halfspaces)
                vol = ConvexRegion(merged).volume()
            total += vol if m % 2 == 1 else -vol
    region._union_volume = total
    return total


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
    for part in region.parts:
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
    for label, part in zip(region.labels, region.parts):
        doc["parts"].append({
            "signs": label,
            "dim": part.dim,
            "vertices": [coord_json(v) for v in part.vertices],
            "halfspaces": [{"normal": list(hs.normal), "rhs": str(hs.rhs)}
                           for hs in part.halfspaces],
        })
    return doc
