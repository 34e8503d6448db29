"""One-parameter families of local-equivalence classes and their gate realizations.

Covers the interpolating family from the identity class to (pi/2, pi/4, 0),
the line joining that class to the sqrt-SWAP class, the parallel-line families
of the c1 + c3 = pi/2 triangle, the horizontal lines of the c2 = pi/4
rectangle, the excitation-preserving fSim gate set, and two concrete circuit
realizations (Hamiltonian evolution and a two-CX template).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cartan import CNOT, LocalInvariants, canonical_gate, cartan_coordinates
from .coords import PI, CartanCoord, canonicalize, class_equal, coord_distance
from .errors import CalibrationFailureError, NotOnFsimPlaneError, OutOfRangeError
from .numerics import DEFAULT_POLICY, TolerancePolicy, rx, rz

Frac = Fraction
_QUARTER = Frac(1, 4)
_HALF = Frac(1, 2)

@dataclass(frozen=True)
class FamilySpec:
    """A coordinate map t -> chamber point over t in [lo, hi] (units of pi).

    ``map_fn`` must be affine in t and land in the chamber on all of
    [lo, hi], so that the family is the segment between its endpoint classes:
    :func:`~gatecover.synthesis.synthesize_with_family` relies on it and
    raises ``ValueError`` when the midpoint class is not the midpoint of the
    endpoint classes.  ``secondary`` selects one member of a two-parameter
    sheet (the line label theta, the height of a horizontal line, or an fSim
    branch index).
    """

    family_id: str
    lo: Frac
    hi: Frac
    map_fn: Callable[[Frac], tuple[Frac, Frac, Frac]]
    secondary: Frac | int | None = None
    description: str = ""

    def exact_coord(self, t: Frac) -> CartanCoord:
        t = Frac(t)
        if not self.lo <= t <= self.hi:
            raise OutOfRangeError(
                f"{self.family_id}: parameter {t}*pi outside [{self.lo}, {self.hi}]*pi")
        return canonicalize(self.map_fn(t))

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
    return FamilySpec("b_alpha", Frac(0), _HALF,
                      lambda t: (t, t / 2, Frac(0)),
                      description="(c1, c1/2, 0); interpolates identity to (pi/2, pi/4, 0)")


def _spe_to_b(secondary) -> FamilySpec:
    _no_secondary("spe_to_b", secondary)
    return FamilySpec("spe_to_b", _QUARTER, _HALF,
                      lambda t: (t, _QUARTER, _HALF - t),
                      description="(c1, pi/4, pi/2 - c1); sqrt-SWAP class to (pi/2, pi/4, 0)")


def _plane_theta_line(secondary) -> FamilySpec:
    theta = _exact_label("line label theta", secondary, Frac(1, 6))
    return FamilySpec("plane_theta_line", theta, _QUARTER,
                      lambda c2: (_HALF + theta - c2, c2, c2 - theta),
                      secondary=theta,
                      description="(pi/2 + theta - c2, c2, c2 - theta) on c1 + c3 = pi/2")


def _c2_quarter_line(secondary) -> FamilySpec:
    h = _exact_label("line height c3", secondary, Frac(1, 12))
    return FamilySpec("c2_quarter_line", _HALF - h, _HALF,
                      lambda c1: (c1, _QUARTER, h),
                      secondary=h,
                      description="horizontal line (c1, pi/4, c3) of the c2 = pi/4 plane")


_FSIM_BRANCHES = (
    lambda c1: (c1, _HALF - c1, _HALF - c1),
    lambda c1: (c1, c1, _HALF - c1),
    lambda c1: (c1, _QUARTER, _QUARTER),
    lambda c1: (_QUARTER, _QUARTER, _HALF - c1),
)


def _fsim_diag(secondary) -> FamilySpec:
    if secondary is None:
        secondary = 0
    if not float(secondary).is_integer() or int(secondary) not in range(4):
        raise OutOfRangeError(f"fsim_diag branch must be an integer 0..3, got {secondary}")
    branch = int(secondary)
    return FamilySpec("fsim_diag", _QUARTER, _HALF, _FSIM_BRANCHES[branch],
                      secondary=branch,
                      description="fSim-realizable lines on the c1 = c2 and c2 = c3 planes")


_FACTORIES = {
    "b_alpha": _b_alpha,
    "spe_to_b": _spe_to_b,
    "plane_theta_line": _plane_theta_line,
    "c2_quarter_line": _c2_quarter_line,
    "fsim_diag": _fsim_diag,
}

FAMILY_IDS = tuple(sorted(_FACTORIES))


def get_family(family_id: str, secondary=None) -> FamilySpec:
    try:
        factory = _FACTORIES[family_id]
    except KeyError:
        raise OutOfRangeError(f"unknown family {family_id!r}; known: {FAMILY_IDS}") from None
    return factory(secondary)


def family_coord(spec: FamilySpec, t) -> CartanCoord:
    """Chamber point of the family member at parameter t (radians or Fraction of pi)."""
    if isinstance(t, (Fraction, int)):
        return spec.exact_coord(Frac(t))
    t_pi = float(t) / PI
    if not float(spec.lo) - 1e-12 <= t_pi <= float(spec.hi) + 1e-12:
        raise OutOfRangeError(
            f"{spec.family_id}: parameter {t} rad outside "
            f"[{float(spec.lo) * PI}, {float(spec.hi) * PI}] rad")
    snapped = Frac(t_pi).limit_denominator(10 ** 6)
    triple = spec.map_fn(snapped)
    return canonicalize(tuple(float(v) * PI for v in triple))


def fsim(theta: float, phi: float) -> np.ndarray:
    """Excitation-preserving two-parameter gate.

    Swap-angle theta on the single-excitation block, controlled phase phi on
    the doubly excited state.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0],
                     [0, c, -1j * s, 0],
                     [0, -1j * s, c, 0],
                     [0, 0, 0, np.exp(-1j * phi)]], dtype=complex)


def fsim_invariants(theta: float, phi: float) -> LocalInvariants:
    """Closed-form invariants of fsim(theta, phi); agrees with the numerical route.

    Writing m(U) in the magic basis gives tr m = 2 cos(2 theta) + 2 exp(-i phi)
    and det U = exp(-i phi), hence Im(G1) carries a minus sign for this matrix
    convention (the conjugate convention flips it; G2 is insensitive).
    """
    g1 = 0.25 * (2 * math.cos(2 * theta)
                 + (3 + math.cos(4 * theta)) * math.cos(phi) / 2
                 - 1j * math.sin(2 * theta) ** 2 * math.sin(phi))
    g2 = 2 * math.cos(2 * theta) + math.cos(phi)
    return LocalInvariants(complex(g1), float(g2))


def fsim_class(theta: float, phi: float) -> CartanCoord:
    """Chamber point of fsim(theta, phi): canonicalized (theta, theta, -phi/2)."""
    return canonicalize((theta, theta, -phi / 2))


def _wrap_phase(phi: float) -> float:
    w = math.fmod(phi + PI, 2 * PI)
    if w <= 0:
        w += 2 * PI
    return w - PI


def fsim_cartan_params(coord, policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Gate-set parameters (theta, phi) realizing a class on an fSim plane.

    Classes on the c1 = c2 plane map to (theta, phi) = (c1, -2 c3); classes on
    the c2 = c3 plane map to (c3, -2 c1).  The sign of phi follows from the
    matrix convention of :func:`fsim` (its class is (theta, theta, -phi/2));
    the phase is reported wrapped into (-pi, pi].  Anything else raises
    ``NotOnFsimPlaneError``.
    """
    coord = canonicalize(coord)
    c1, c2, c3 = coord.astuple()
    tol = policy.coord_tol
    if abs(c1 - c2) <= tol:
        theta, phi = c1, -2 * c3
    elif abs(c2 - c3) <= tol:
        theta, phi = c3, -2 * c1
    else:
        raise NotOnFsimPlaneError(
            f"{coord} lies on neither the c1 = c2 nor the c2 = c3 plane")
    phi = _wrap_phase(phi)
    if not class_equal(fsim_class(theta, phi), coord, max(tol, 1e-9)):
        raise NotOnFsimPlaneError(f"round trip failed for {coord}")
    return theta, phi


def hamiltonian_family_gate(gt: float) -> np.ndarray:
    """Evolution exp(i t (2g XX + g YY)) indexed by the dimensionless gt.

    Equals the canonical gate of the raw triple (4gt, 2gt, 0); sweeping gt
    from 0 to pi/8 walks the (c1, c1/2, 0) family from the identity class to
    (pi/2, pi/4, 0).
    """
    if gt < 0:
        raise OutOfRangeError(f"gt must be non-negative, got {gt}")
    return canonical_gate((4 * gt, 2 * gt, 0.0))


@dataclass(frozen=True)
class BAlphaRealization:
    """Two-CX circuit realization of one (c1, c1/2, 0) family member."""

    theta: float
    unitary: np.ndarray
    realized: CartanCoord
    mid_control: np.ndarray
    mid_target: np.ndarray


def b_alpha_circuit(theta: float, policy: TolerancePolicy = DEFAULT_POLICY) -> BAlphaRealization:
    """CX . (single-qubit layer containing Rx(-theta)) . CX hitting (theta, theta/2, 0).

    The middle layer is Rz(pi/2) Rx(-theta) Rz(-pi/2) on the control and
    Rz(-theta/2) on the target: conjugation by CX turns it into
    exp(i (theta YX + (theta/2) ZZ)/2), which is locally equivalent to the
    canonical gate at (theta, theta/2, 0).  theta = pi/2 lands on the class
    at (pi/2, pi/4, 0); theta = 0 is a local circuit.
    """
    if not -1e-12 <= theta <= PI / 2 + 1e-12:
        raise OutOfRangeError(f"theta={theta} outside [0, pi/2]")
    mid_control = rz(PI / 2) @ rx(-theta) @ rz(-PI / 2)
    mid_target = rz(-theta / 2)
    unitary = CNOT @ np.kron(mid_control, mid_target) @ CNOT
    realized = cartan_coordinates(unitary, policy)
    target = canonicalize((theta, theta / 2, 0.0))
    if coord_distance(realized, target) > max(policy.coord_tol, 1e-6):
        raise CalibrationFailureError(
            f"realized class {realized} missed target {target}")
    return BAlphaRealization(theta, unitary, realized, mid_control, mid_target)
