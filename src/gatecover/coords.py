"""Weyl-chamber coordinate values and canonicalization.

Internal module shared by the Cartan-decomposition and symmetry-map layers.
Coordinates live in the tetrahedral chamber

    pi/2 >= c1 >= c2 >= c3 >= 0   or   pi >= c1 > pi/2, pi - c1 >= c2 >= c3 >= 0,

with the boundary identification (c1, c2, 0) ~ (pi - c1, c2, 0).  A coordinate
optionally carries an exact representation as Fractions in units of pi, which
the exact (polytope) pipeline preserves through every map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailureError, NotInChamberError

PI = math.pi

ExactTriple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True, eq=False)
class CartanCoord:
    """A point of the Weyl chamber, in radians.

    ``frac`` (optional) is the same triple as exact Fractions in units of pi.
    Use :func:`class_equal` to compare coordinates; ``==`` is deliberately not
    class-aware.
    """

    c1: float
    c2: float
    c3: float
    frac: ExactTriple | None = None

    def __post_init__(self):
        if self.frac is not None:
            f = tuple(Fraction(x) for x in self.frac)
            object.__setattr__(self, "frac", f)
            for val, fr in zip((self.c1, self.c2, self.c3), f):
                if abs(val - float(fr) * PI) > 1e-9:
                    raise ValueError("float and exact coordinate representations disagree")

    @classmethod
    def exact(cls, f1, f2, f3) -> "CartanCoord":
        """Build from Fractions (or ints/strings) in units of pi."""
        f = (Fraction(f1), Fraction(f2), Fraction(f3))
        return cls(float(f[0]) * PI, float(f[1]) * PI, float(f[2]) * PI, f)

    def astuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def __iter__(self):
        return iter(self.astuple())

    def __repr__(self):
        if self.frac is not None:
            body = ", ".join(f"{fr}*pi" for fr in self.frac)
        else:
            body = f"{self.c1:.9g}, {self.c2:.9g}, {self.c3:.9g}"
        return f"CartanCoord({body})"


def in_chamber(triple, tol: float = 1e-9) -> bool:
    """True when the triple satisfies the chamber conditions (within tol)."""
    c1, c2, c3 = (float(x) for x in triple)
    upper = min(c1, PI - c1)
    return (-tol <= c3 <= c2 + tol and c2 <= upper + tol
            and -tol <= c1 <= PI + tol)


def require_in_chamber(coord, tol: float = 1e-9):
    if not in_chamber(tuple(coord), tol):
        raise NotInChamberError(f"coordinate {tuple(coord)} is not in the Weyl chamber")


def _canonical_exact(triple) -> ExactTriple:
    """Exact canonicalization of a Fraction triple in units of pi."""
    v = sorted((Fraction(x) % 1 for x in triple), reverse=True)
    if v[0] + v[1] > 1:
        v = sorted((1 - v[1], 1 - v[0], v[2]), reverse=True)
    if v[0] + v[1] > 1:  # a single reflection suffices after sorting
        raise ConvergenceFailureError("exact canonicalization did not land in the chamber")
    if v[2] == 0 and v[0] > Fraction(1, 2):
        v = sorted((1 - v[0], v[1], Fraction(0)), reverse=True)
    return (v[0], v[1], v[2])


def _canonical_float(triple, tol: float) -> tuple[float, float, float]:
    v = [float(x) % PI for x in triple]
    # mod can park values an epsilon below pi; that is the same class as 0
    v = [0.0 if x > PI - tol or x < tol else x for x in v]
    for _ in range(4):
        v.sort(reverse=True)
        if v[0] + v[1] > PI:
            v = [PI - v[1], PI - v[0], v[2]]
        else:
            break
    else:
        raise ConvergenceFailureError(f"canonicalization did not converge for {triple}")
    v.sort(reverse=True)
    if v[2] <= tol and v[0] > PI / 2 + tol:
        v = sorted([PI - v[0], v[1], 0.0], reverse=True)
    v = [0.0 if abs(x) <= tol else x for x in v]
    return (v[0], v[1], v[2])


def canonicalize(raw, tol: float = 1e-9) -> CartanCoord:
    """Map any real triple (or coordinate) to its chamber representative.

    The group moves used -- coordinate permutations, simultaneous sign flips of
    two coordinates, and shifts of a single coordinate by pi -- all preserve
    the local-equivalence class of exp(i H(c)/2).  When the input carries an
    exact representation the reduction is done in exact arithmetic.
    """
    if isinstance(raw, CartanCoord):
        if raw.frac is not None:
            f = _canonical_exact(raw.frac)
            return CartanCoord.exact(*f)
        raw = raw.astuple()
    if all(isinstance(x, (Fraction, int)) for x in raw):
        f = _canonical_exact(tuple(Fraction(x) for x in raw))
        return CartanCoord.exact(*f)
    c = _canonical_float(tuple(raw), tol)
    return CartanCoord(*c)


def c3_zero_twins(t, tol, one=PI) -> list:
    """``t`` plus, when ``t[2] <= tol``, its c3 = 0 twin ``(one - t1, t2, 0)``;
    ``one`` is pi in the units of ``t`` (PI for radians, 1 in units of pi)."""
    if t[2] <= tol:
        return [t, (one - t[0], t[1], 0 * one)]
    return [t]


def coord_distance(a, b, tol: float = 1e-7) -> float:
    """Distance min-over-identifications (c3 = 0 twins when c3 <= ``tol``),
    max-over-components, in radians."""
    ra = c3_zero_twins(canonicalize(a).astuple(), tol)
    rb = c3_zero_twins(canonicalize(b).astuple(), tol)
    return min(max(abs(x - y) for x, y in zip(p, q)) for p in ra for q in rb)


def class_equal(a, b, tol: float = 1e-8) -> bool:
    """Class-aware equality of two chamber points: distance within ``tol``."""
    return coord_distance(a, b, tol) <= tol


# Named chamber points used throughout tests and the CLI.
IDENTITY_CLASS = CartanCoord.exact(0, 0, 0)
CNOT_CLASS = CartanCoord.exact(Fraction(1, 2), 0, 0)
DCNOT_CLASS = CartanCoord.exact(Fraction(1, 2), Fraction(1, 2), 0)
SWAP_CLASS = CartanCoord.exact(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
SQRT_SWAP_CLASS = CartanCoord.exact(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
B_CLASS = CartanCoord.exact(Fraction(1, 2), Fraction(1, 4), 0)

CHAMBER_VERTICES_FRAC: tuple[ExactTriple, ...] = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
)


def random_chamber_point(rng: np.random.Generator) -> CartanCoord:
    """Uniform sample from the chamber tetrahedron (by volume)."""
    w = rng.dirichlet(np.ones(4))
    verts = np.array([[float(x) for x in v] for v in CHAMBER_VERTICES_FRAC]) * PI
    p = w @ verts
    # guard against roundoff pushing the point marginally outside
    return canonicalize(tuple(p))
