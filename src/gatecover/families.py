"""One-parameter families of local-equivalence classes and their gate realizations.

Each family is an exact segment x(t) = offset + t slope of canonical chamber
points: the line from the identity class to (pi/2, pi/4, 0), the line from
that class to the sqrt-SWAP class, the parallel lines of the c1 + c3 = pi/2
triangle, the horizontal lines of the c2 = pi/4 rectangle, and the lines of
the excitation-preserving fSim gate set; plus two circuit realizations
(Hamiltonian evolution and a two-CX template).

The registry imports without numpy; the gate builders (``fsim``,
``fsim_invariants``, ``hamiltonian_family_gate``, ``b_alpha_circuit``) load
numpy and the Cartan layer when they build a gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .coords import CLASS_TOL, PI, CartanCoord, canonicalize, class_equal, coord_distance
from .errors import CalibrationFailureError, NotOnFsimPlaneError, OutOfRangeError

if TYPE_CHECKING:
    import numpy as np

    from .cartan import LocalInvariants

Frac = Fraction
_QUARTER = Frac(1, 4)
_HALF = Frac(1, 2)

@dataclass(frozen=True)
class FamilySpec:
    """The segment x(t) = offset + t slope of chamber points over t in [lo, hi],
    with t, ``offset`` and ``slope`` exact in units of pi.

    Both endpoints must be canonical chamber points, or the constructor raises
    ``ValueError``.  Canonical points form a convex set, so every member is
    then canonical as it stands.  ``secondary`` selects one member of a
    two-parameter sheet (the line label theta, the height of a horizontal
    line, or an fSim branch index).
    """

    family_id: str
    lo: Frac
    hi: Frac
    offset: tuple[Frac, Frac, Frac]
    slope: tuple[Frac, Frac, Frac]
    secondary: Frac | int | None = None

    def __post_init__(self):
        for t in (self.lo, self.hi):
            x = self.point(t)
            if canonicalize(x).frac != x:
                raise ValueError(f"family {self.family_id}: its point {x} at t = {t} "
                                 "is not a canonical chamber point")

    def point(self, t) -> tuple[Frac, Frac, Frac]:
        """offset + t slope, exact in units of pi."""
        return tuple(o + t * s for o, s in zip(self.offset, self.slope))

    def exact_coord(self, t: Frac) -> CartanCoord:
        t = Frac(t)
        if not self.lo <= t <= self.hi:
            raise OutOfRangeError(
                f"{self.family_id}: parameter {t}*pi outside [{self.lo}, {self.hi}]*pi")
        return CartanCoord.exact(*self.point(t))

    def grid(self, n: int) -> list[Frac]:
        """n equally spaced parameter values from lo to hi inclusive."""
        if n < 2:
            return [self.lo]
        step = (self.hi - self.lo) / (n - 1)
        return [self.lo + i * step for i in range(n)]


def _no_secondary(family_id: str, secondary) -> None:
    if secondary is not None:
        raise OutOfRangeError(f"{family_id} is a single line and takes no secondary "
                              f"parameter, got {secondary}")


def _exact_label(name: str, secondary, default: Frac) -> Frac:
    """A line label in [0, pi/4], given as an exact Fraction of pi."""
    if secondary is None:
        return default
    if not isinstance(secondary, (Fraction, int)):
        raise OutOfRangeError(f"{name} must be an exact angle in [0, pi/4] "
                              f"such as pi/6, got {secondary}")
    label = Frac(secondary)
    if not 0 <= label <= _QUARTER:
        raise OutOfRangeError(f"{name}={label}*pi outside [0, pi/4]")
    return label


def _b_alpha(secondary) -> FamilySpec:
    _no_secondary("b_alpha", secondary)
    return FamilySpec("b_alpha", Frac(0), _HALF, (0, 0, 0), (1, _HALF, 0))


def _spe_to_b(secondary) -> FamilySpec:
    _no_secondary("spe_to_b", secondary)
    return FamilySpec("spe_to_b", _QUARTER, _HALF, (0, _QUARTER, _HALF), (1, 0, -1))


def _plane_theta_line(secondary) -> FamilySpec:
    theta = _exact_label("line label theta", secondary, Frac(1, 6))
    return FamilySpec("plane_theta_line", theta, _QUARTER,
                      (_HALF + theta, 0, -theta), (-1, 1, 1), secondary=theta)


def _c2_quarter_line(secondary) -> FamilySpec:
    h = _exact_label("line height c3", secondary, Frac(1, 12))
    return FamilySpec("c2_quarter_line", _HALF - h, _HALF, (0, _QUARTER, h), (1, 0, 0),
                      secondary=h)


# (offset, slope) of each branch, with parameter c1 (branch 3: pi/2 - c3)
_FSIM_BRANCHES = (
    ((0, _HALF, _HALF), (1, -1, -1)),
    ((0, 0, _HALF), (1, 1, -1)),
    ((0, _QUARTER, _QUARTER), (1, 0, 0)),
    ((_QUARTER, _QUARTER, _HALF), (0, 0, -1)),
)


def _fsim_diag(secondary) -> FamilySpec:
    if secondary is None:
        secondary = 0
    if not float(secondary).is_integer() or int(secondary) not in range(4):
        raise OutOfRangeError(f"fsim_diag branch must be an integer 0..3, got {secondary}")
    branch = int(secondary)
    return FamilySpec("fsim_diag", _QUARTER, _HALF, *_FSIM_BRANCHES[branch], secondary=branch)


_FACTORIES = {
    "b_alpha": _b_alpha,
    "spe_to_b": _spe_to_b,
    "plane_theta_line": _plane_theta_line,
    "c2_quarter_line": _c2_quarter_line,
    "fsim_diag": _fsim_diag,
}

FAMILY_IDS = tuple(sorted(_FACTORIES))


@lru_cache(maxsize=64, typed=True)
def get_family(family_id: str, secondary=None) -> FamilySpec:
    """The family ``family_id`` on its line ``secondary``, each (family_id,
    secondary) pair built and checked once, since specs are frozen."""
    try:
        factory = _FACTORIES[family_id]
    except KeyError:
        raise OutOfRangeError(f"unknown family {family_id!r}; known: {FAMILY_IDS}") from None
    return factory(secondary)


def fsim(theta: float, phi: float) -> np.ndarray:
    """Excitation-preserving two-parameter gate.

    Swap-angle theta on the single-excitation block, controlled phase phi on
    the doubly excited state.
    """
    import numpy as np

    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0],
                     [0, c, -1j * s, 0],
                     [0, -1j * s, c, 0],
                     [0, 0, 0, np.exp(-1j * phi)]], dtype=complex)


def fsim_invariants(theta: float, phi: float) -> LocalInvariants:
    """Closed-form invariants of fsim(theta, phi); agrees with the numerical route.

    They are those of the raw triple (theta, theta, -phi/2) that
    :func:`fsim_class` canonicalizes.  The minus sign is this matrix
    convention's: m(U) in the magic basis has tr m = 2 cos(2 theta) +
    2 exp(-i phi) and det U = exp(-i phi), so Im(G1) carries a minus sign (the
    conjugate convention flips it; G2 is insensitive).
    """
    from .cartan import invariants_from_coord

    return invariants_from_coord((theta, theta, -phi / 2))


def fsim_class(theta: float, phi: float) -> CartanCoord:
    """Chamber point of fsim(theta, phi): canonicalized (theta, theta, -phi/2)."""
    return canonicalize((theta, theta, -phi / 2))


def _wrap_phase(phi: float) -> float:
    w = math.fmod(phi + PI, 2 * PI)
    if w <= 0:
        w += 2 * PI
    return w - PI


def fsim_cartan_params(coord) -> tuple[float, float]:
    """Gate-set parameters (theta, phi) realizing a class on an fSim plane.

    Classes on the c1 = c2 plane map to (theta, phi) = (c1, -2 c3); classes on
    the c2 = c3 plane map to (c3, -2 c1).  The sign of phi follows from the
    matrix convention of :func:`fsim` (its class is (theta, theta, -phi/2));
    the phase is reported wrapped into (-pi, pi].  Anything else raises
    ``NotOnFsimPlaneError``.
    """
    coord = canonicalize(coord)
    c1, c2, c3 = coord.astuple()
    if abs(c1 - c2) <= CLASS_TOL:
        theta, phi = c1, -2 * c3
    elif abs(c2 - c3) <= CLASS_TOL:
        theta, phi = c3, -2 * c1
    else:
        raise NotOnFsimPlaneError(
            f"{coord} lies on neither the c1 = c2 nor the c2 = c3 plane")
    phi = _wrap_phase(phi)
    if not class_equal(fsim_class(theta, phi), coord):
        raise NotOnFsimPlaneError(f"round trip failed for {coord}")
    return theta, phi


def hamiltonian_family_gate(gt: float) -> np.ndarray:
    """Evolution exp(i t (2g XX + g YY)) indexed by the dimensionless gt.

    Equals the canonical gate of the raw triple (4gt, 2gt, 0); sweeping gt
    from 0 to pi/8 walks the (c1, c1/2, 0) family from the identity class to
    (pi/2, pi/4, 0).
    """
    if not 0 <= gt < math.inf:  # a NaN fails too
        raise OutOfRangeError(f"gt must be finite and non-negative, got {gt}")
    from .cartan import canonical_gate

    return canonical_gate((4 * gt, 2 * gt, 0.0))


@dataclass(frozen=True)
class BAlphaRealization:
    """Two-CX circuit realization of one (c1, c1/2, 0) family member."""

    theta: float
    unitary: np.ndarray
    realized: CartanCoord
    mid_control: np.ndarray
    mid_target: np.ndarray


def b_alpha_circuit(theta: float) -> BAlphaRealization:
    """CX . (single-qubit layer containing Rx(-theta)) . CX hitting (theta, theta/2, 0).

    The middle layer is Rz(pi/2) Rx(-theta) Rz(-pi/2) on the control and
    Rz(-theta/2) on the target: conjugation by CX turns it into
    exp(i (theta YX + (theta/2) ZZ)/2), which is locally equivalent to the
    canonical gate at (theta, theta/2, 0).  theta = pi/2 lands on the class
    at (pi/2, pi/4, 0); theta = 0 is a local circuit.
    """
    if not -1e-12 <= theta <= PI / 2 + 1e-12:
        raise OutOfRangeError(f"theta={theta} outside [0, pi/2]")
    import numpy as np

    from .cartan import CNOT, cartan_coordinates
    from .numerics import rx, rz

    mid_control = rz(PI / 2) @ rx(-theta) @ rz(-PI / 2)
    mid_target = rz(-theta / 2)
    unitary = CNOT @ np.kron(mid_control, mid_target) @ CNOT
    realized = cartan_coordinates(unitary)
    target = canonicalize((theta, theta / 2, 0.0))
    if coord_distance(realized, target) > 1e-6:
        raise CalibrationFailureError(
            f"realized class {realized} missed target {target}")
    return BAlphaRealization(theta, unitary, realized, mid_control, mid_target)
