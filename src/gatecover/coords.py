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
from typing import TYPE_CHECKING

from .errors import ConvergenceFailureError, NotInChamberError

if TYPE_CHECKING:
    import numpy as np

PI = math.pi

ExactTriple = tuple[Fraction, Fraction, Fraction]

# the distance in radians up to which two chamber points are one class
CLASS_TOL = 1e-8
# the fewest samples coverage.mc_volume accepts; the CLI parser reads it too
MC_MIN_SAMPLES = 1000


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
            if len(f) != 3:
                raise ValueError(f"an exact coordinate has three entries, not {len(f)}")
            object.__setattr__(self, "frac", f)
            for val, fr in zip((self.c1, self.c2, self.c3), f):
                if not abs(val - float(fr) * PI) <= 1e-9:  # a NaN fails too
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


def finite_triple(raw) -> tuple:
    """The entries of ``raw`` as floats; a non-finite one raises ``NotInChamberError``."""
    raw = tuple(map(float, raw))
    if not all(map(math.isfinite, raw)):
        raise NotInChamberError(f"coordinate {raw} is not finite")
    return raw


def _canonical(v, one, tol) -> tuple:
    """Chamber representative of the triple ``v`` in units where pi is ``one``:
    Fractions and ints in units of pi with ``one = 1`` and ``tol = 0``, floats
    in radians with ``one = PI``.  Entries within ``tol`` of 0 or pi become 0."""
    v = [x % one for x in v]
    # mod can park values an epsilon below pi; that is the same class as 0
    v = [0 * one if x > one - tol or x < tol else x for x in v]
    for _ in range(4):  # after sorting one reflection lands, up to float rounding
        v.sort(reverse=True)
        if v[0] + v[1] > one:
            v = [one - v[1], one - v[0], v[2]]
        else:
            break
    else:
        raise ConvergenceFailureError(f"canonicalization did not converge for {v}")
    v.sort(reverse=True)
    if v[2] <= tol and 2 * v[0] > one + 2 * tol:
        v = sorted([one - v[0], v[1], 0 * one], reverse=True)
    v = [0 * one if abs(x) <= tol else x for x in v]
    return (v[0], v[1], v[2])


def _is_canonical_exact(c: CartanCoord) -> bool:
    """True when ``canonicalize`` would return an exact ``c`` unchanged: its
    ``frac`` is a fixed point of ``_canonical`` (1 > c1 >= c2 >= c3 >= 0,
    c1 + c2 <= 1, and not c3 = 0 with 2 c1 > 1) and its floats are those
    ``CartanCoord.exact`` builds from it."""
    f1, f2, f3 = c.frac
    return (1 > f1 >= f2 >= f3 >= 0 and f1 + f2 <= 1 and (f3 != 0 or 2 * f1 <= 1)
            and c.astuple() == (float(f1) * PI, float(f2) * PI, float(f3) * PI))


def canonicalize(raw) -> CartanCoord:
    """Map any real triple (or coordinate) to its chamber representative.

    The group moves used -- coordinate permutations, simultaneous sign flips of
    two coordinates, and shifts of a single coordinate by pi -- all preserve
    the local-equivalence class of exp(i H(c)/2).  When the input carries an
    exact representation the reduction is done in exact arithmetic.  A float
    triple with a non-finite entry raises ``NotInChamberError``.
    """
    if isinstance(raw, CartanCoord):
        if raw.frac is not None:
            if _is_canonical_exact(raw):
                return raw
            return CartanCoord.exact(*_canonical(raw.frac, 1, 0))
        raw = raw.astuple()
    if all(isinstance(x, (Fraction, int)) for x in raw):
        return CartanCoord.exact(*_canonical(raw, 1, 0))
    return CartanCoord(*_canonical(finite_triple(raw), PI, 1e-9))


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


def class_equal(a, b, tol: float = CLASS_TOL) -> bool:
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
# plain floats, so that this module loads without numpy
_CHAMBER_VERTICES_RAD = tuple(tuple(float(f) * PI for f in v) for v in CHAMBER_VERTICES_FRAC)


def random_chamber_point(rng: np.random.Generator) -> CartanCoord:
    """Uniform sample from the chamber tetrahedron (by volume)."""
    p = rng.dirichlet((1.0,) * 4) @ _CHAMBER_VERTICES_RAD
    # guard against roundoff pushing the point marginally outside
    return canonicalize(tuple(p))
