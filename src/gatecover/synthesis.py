"""Construction of V = L1 U L2 U L3 for targets inside the coverage region.

Stage one solves for the six Euler angles of the middle local layer L2 until
the product U L2 U lands in the target's local-equivalence class: a
Levenberg-Marquardt least-squares solve of the Makhlin-invariant mismatch,
run on eight seeded restarts at once with the Jacobian in closed form.  Stage
two reads the outer locals off the KAK decompositions of the product and of
the target, which share one canonical nonlocal factor once the classes agree.

Each of U, V and U L2 U is diagonalized in the magic basis once per call: its
eigensystem gives both its chamber point and its KAK factors.  The
two-application region of the gate's class, which the reachability check
needs, is built once per class and cached, since many targets are synthesized
from the same few gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cartan import (MAGIC, MAGIC_DAG, _chamber_point, _kak_from_eigensystem,
                     _magic_eigensystem, _makhlin, canonical_gate)
from .coords import PI, CartanCoord
from .coverage import (DEFAULT_BOUNDARY_SLACK, contains, coverage_region, rationalize,
                       segment_windows)
from .errors import ConvergenceFailureError, NotReachableError, NotUnitaryError
from .families import FamilySpec, family_coord
from .numerics import (DEFAULT_POLICY, PAULI_X, PAULI_Y, PAULI_Z, TolerancePolicy,
                       require_unitary, su2_from_euler, unitarity_defect)

# spacing of the family parameters (units of pi) tried first by synthesize_with_family
MEMBER_RESOLUTION = Fraction(1, 2048)


@dataclass(frozen=True)
class SynthesisResult:
    """Locals, optional family parameter, and realized accuracy of one synthesis.

    ``iterations`` counts residual-and-Jacobian evaluations over all restarts;
    ``residual`` is the norm of the final invariant mismatch (Re G1, Im G1, G2)
    between U L2 U and the target.  The search stops once a restart's residual
    is at most ``2**-41`` (about 4.5e-13), a bound on the rounding error of the
    two invariant triples it compares, or when the budget or every restart
    stalls.  ``converged`` means that the assembled circuit reaches
    ``fidelity >= 1 - 1e-9``.
    """

    l1: tuple[np.ndarray, np.ndarray]
    l2: tuple[np.ndarray, np.ndarray]
    l3: tuple[np.ndarray, np.ndarray]
    theta: float | None
    fidelity: float
    target_class: CartanCoord
    achieved_class: CartanCoord
    converged: bool
    iterations: int
    residual: float

    def assemble(self, u: np.ndarray) -> np.ndarray:
        """L1 U L2 U L3 (global phase not fixed)."""
        mid = np.kron(self.l2[0], self.l2[1])
        return (np.kron(self.l1[0], self.l1[1]) @ u @ mid @ u
                @ np.kron(self.l3[0], self.l3[1]))


def reachable(u_coord, v_coord, slack: float = DEFAULT_BOUNDARY_SLACK) -> bool:
    """True when class v is reachable by two applications of a gate of class u.

    The region is that of :func:`~gatecover.coverage.coverage_region`, built
    once per class (u snapped to an exact point as there) and kept in a
    bounded cache, since synthesis asks about many targets per gate.
    """
    return contains(_gate_region(rationalize(u_coord, tol=None)), v_coord, slack=slack)


@lru_cache(maxsize=64)
def _gate_region(x):
    """``coverage_region(x, x)`` for an exact chamber point x."""
    return coverage_region(x, x)


# Stop rule.  The residual compares two invariant triples (Re G1, Im G1, G2),
# each computed in floating point from a unitary 4 x 4 matrix, so below their
# rounding error it measures only noise.  To first order in u = 2^-53, with
# Frobenius norms |.| and complex products off by at most 3u each:
# - a change E of wm (|wm| = |n| = 2, |t1| <= 4, |det| = 1) moves G1 by
#   <t1 wm, E> / 4 and G2 by <t1 wm - n, E>, so the triple by at most
#   sqrt(2^2 + 10^2) |E| < 10.2 |E|;
# - each entry of wm is a 16-term sum of products of three rounded products,
#   and the terms' absolute values add up to an entry of |a| |k1 x k2| |b|,
#   of norm at most 2 * 2 * 2 = 8; with the errors of a and b (4-term
#   products, 24u each) and of k1 x k2 (40u; rounding the angle sums only
#   moves the angles, which the search absorbs), |E| < 8 * 24u + 88u = 280u,
#   and the triple is off by less than 2900u;
# - the target's triple comes from M^dag V M, two 4-term products with
#   |E| < 48u, and is off by less than 500u;
# - forming t1, t2, n and the quotients adds less than 250u to each triple.
# An exact solution thus reads |r| < 3900u, and the search stops at 2^12 u.
_RESIDUAL_FLOOR = 2.0 ** -41

# Rz(a) Ry(b) Rz(c) has entries (em cb, -ed sb, ed* sb, em* cb) with
# em = exp(-i(a + c)/2), ed = exp(-i(a - c)/2), cb = cos(b/2), sb = sin(b/2):
# entry j is exp(i(a _A[j] + c _C[j])) cos(b/2 + _B[j]).  Its derivatives in a
# and c scale entry j by i _A[j] and i _C[j]; its derivative in b is half of
# it with b/2 + _B[j] moved on by pi/2.
_A = np.array([-0.5, -0.5, 0.5, 0.5])
_C = np.array([-0.5, 0.5, -0.5, 0.5])
_B = np.array([0.0, PI / 2, -PI / 2, 0.0])
# rows: the shift of b/2 and the scale of each entry of (k, d/da, d/db, d/dc)
_SHIFT = _B + np.array([0.0, 0.0, PI / 2, 0.0])[:, None]
_SCALE = np.array([np.ones(4), 1j * _A, np.full(4, 0.5), 1j * _C])


def _invariant_residual(u: np.ndarray, target: np.ndarray, policy: TolerancePolicy):
    """The map from angle rows x (R, 6) to the invariant residuals (R, 3) and
    their Jacobians (R, 3, 6) of the middle layer.

    Row r of x holds the Euler angles of k1 and k2, and the residual is
    (Re G1, Im G1, G2) of W = U (k1 x k2) U minus ``target``.  The magic-basis
    image of W is wm = a (k1 x k2) b with a = M^dag U and b = U M, so
    det wm = det(U)^2 =: det for every row.  Entry (I, J) of wm is linear in
    the products k1[i, j] k2[k, l], with coefficient a[I, 2i + k] b[2j + l, J]:
    one fixed 16 x 16 matrix ``s`` per solve maps the flattened outer product
    o = vec(k1) vec(k2)^T to vec(wm).

    G1 = t1^2 / (16 det) and G2 = (t1^2 - t2) / (4 det) with t1 = tr m,
    t2 = tr m^2 and m = wm^T wm.  With <p, q> = sum(p o q) and n = wm m,
    t1 = <wm, wm> and t2 = <wm, n> (m is symmetric), and a change dwm of wm
    changes them by 2 <wm, dwm> and 4 <n, dwm>.  So dG1 = t1 <wm, dwm> / (4 det)
    and dG2 = (t1 <wm, dwm> - <n, dwm>) / det.  For g = wm or n, <g, wm> and the
    six <g, dwm> are vec(k1)^T q vec(k2) with one factor replaced by its
    derivative, where q is vec(g) s reshaped to 4 x 4.
    """
    a, b = MAGIC_DAG @ u, u @ MAGIC
    s = np.einsum("Iik,jlJ->IJijkl", a.reshape(4, 2, 2), b.reshape(2, 2, 4)).reshape(16, 16)
    # G1 and dG1, G2 and dG2 are these multiples of t1 <wm, .> and t1 <wm, .> - <n, .>
    scale = 1 / (np.linalg.det(u) ** 2 * np.array([[16.0] + [4.0] * 6, [4.0] + [1.0] * 6]))

    def residual(x: np.ndarray):
        x = x.reshape(-1, 2, 1, 3)
        # per row and qubit, vec of (k, d/da, d/db, d/dc)
        k = (np.exp(1j * (x[..., :1] * _A + x[..., 2:] * _C))
             * np.cos(0.5 * x[..., 1:2] + _SHIFT) * _SCALE)
        wm = ((k[:, 0, 0, :, None] * k[:, 1, 0, None, :]).reshape(-1, 16) @ s.T).reshape(-1, 4, 4)
        defect = unitarity_defect(wm)
        if defect > policy.unitarity_tol:
            raise NotUnitaryError(f"U L2 U is not unitary: defect {defect:.3e} > "
                                  f"{policy.unitarity_tol:.3e}")
        wn = np.stack([wm, wm @ np.swapaxes(wm, -1, -2) @ wm], axis=1).reshape(-1, 16)
        # <g, .> for g = wm, n against k1 x k2 with k1 and k2 each replaced by
        # (k, d/da, d/db, d/dc): [row, g, factor of k1, factor of k2]
        pairs = k[:, 0, None] @ (wn @ s).reshape(-1, 2, 4, 4) @ np.swapaxes(k[:, 1, None], -1, -2)
        # <g, wm> and <g, dwm> for the six angles, in the order of x
        p = np.concatenate([pairs[..., 0], pairs[..., 0, 1:]], axis=-1)
        y = p[:, :1, :1] * p[:, :1]
        g = np.concatenate([y, y - p[:, 1:]], axis=1) * scale
        worst = np.max(np.abs(g[:, 1, 0].imag))
        if worst > 1e-9:
            raise ConvergenceFailureError(f"G2 acquired an imaginary part {worst:.3e}")
        f = np.stack([g[:, 0].real, g[:, 0].imag, g[:, 1].real], axis=1)
        return f[..., 0] - target, f[..., 1:]

    return residual


def synthesize(u: np.ndarray, v: np.ndarray, budget: int = 4000,
               policy: TolerancePolicy = DEFAULT_POLICY) -> SynthesisResult:
    """Find locals with L1 U L2 U L3 = V up to global phase.

    ``budget`` caps the residual-and-Jacobian evaluations summed over all
    restarts (``iterations`` of the result).  The search stops as soon as one
    restart's invariant residual is at most ``2**-41``, the rounding floor of
    the invariants it compares.  Raises ``NotReachableError`` when the class
    of ``v`` lies outside the two-application region of ``u``'s class.  When
    the budget runs out first, the best-so-far result is returned, with
    ``converged=False`` unless it already reaches the fidelity.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    u = require_unitary(u, policy.unitarity_tol, "gate U")
    v = require_unitary(v, policy.unitarity_tol, "target V")
    eig_v = _magic_eigensystem(v)
    return _synthesize(u, v, eig_v, _chamber_point(v, eig_v[1]), budget, policy)


def _synthesize(u: np.ndarray, v: np.ndarray, eig_v, cv: CartanCoord, budget: int,
                policy: TolerancePolicy) -> SynthesisResult:
    """:func:`synthesize` for a checked gate and target, given the target's
    magic eigensystem ``eig_v`` and chamber point ``cv``; each of U, V and
    U L2 U is diagonalized once."""
    cu = _chamber_point(u, _magic_eigensystem(u)[1])
    if not reachable(cu, cv):
        raise NotReachableError(f"class {cv} is not reachable from two uses of {cu}")

    gv = _makhlin(v)
    residual = _invariant_residual(u, np.array([gv.g1.real, gv.g1.imag, gv.g2]), policy)
    rng = np.random.default_rng(policy.rng_seed)
    x = np.vstack([np.zeros(6), rng.uniform(0.0, 2 * PI, size=(7, 6))])[:budget]
    # Levenberg-Marquardt on all restarts at once, damped by lam * I (Marquardt's
    # diag(J^T J) vanishes where J -> 0 at chamber corners) with lam = mu |r|,
    # which shrinks where J loses rank at the solution, and Nielsen's update of mu
    r, jac = residual(x)
    used = len(x)
    f = np.sum(r * r, axis=1)
    mu = np.full(len(x), 1e-3)
    nu = np.full(len(x), 2.0)
    live = np.ones(len(x), dtype=bool)
    while f.min() > _RESIDUAL_FLOOR ** 2:
        idx = np.flatnonzero(live)
        lam = mu[idx, None] * np.sqrt(f[idx, None])
        # step -(J^T J + lam I)^-1 J^T r in the right singular basis of J,
        # which stays exact where J is rank deficient
        uj, s, vjt = np.linalg.svd(jac[idx], full_matrices=False)
        h = s * (np.swapaxes(uj, 1, 2) @ r[idx, :, None])[..., 0]
        d = -h / (s * s + lam)
        step = (np.swapaxes(vjt, 1, 2) @ d[..., None])[..., 0]
        # a restart whose step no longer moves its angles has stalled
        moves = (np.linalg.norm(step, axis=1)
                 > 1e-15 * (np.linalg.norm(x[idx], axis=1) + 1e-15))
        live[idx[~moves]] = False
        idx, step, d, h, lam = idx[moves], step[moves], d[moves], h[moves], lam[moves]
        if len(idx) == 0 or used + len(idx) > budget:
            break
        rn, jn = residual(x[idx] + step)
        used += len(idx)
        fn = np.sum(rn * rn, axis=1)
        rho = (f[idx] - fn) / np.sum(d * (lam * d - h), axis=1)
        ok = rho > 0
        acc, rej = idx[ok], idx[~ok]
        x[acc] += step[ok]
        r[acc], jac[acc], f[acc] = rn[ok], jn[ok], fn[ok]
        mu[acc] *= np.maximum(1 / 3, 1 - (2 * rho[ok] - 1) ** 3)
        nu[acc] = 2.0
        mu[rej] *= nu[rej]
        nu[rej] *= 2.0
    best = int(np.argmin(f))

    k1, k2 = su2_from_euler(*x[best, :3]), su2_from_euler(*x[best, 3:])
    w = require_unitary(u @ np.kron(k1, k2) @ u, policy.unitarity_tol, "U L2 U")
    eig_w = _magic_eigensystem(w)
    cw = _chamber_point(w, eig_w[1])
    kak_w = _kak_from_eigensystem(w, *eig_w, cw)
    kak_v = _kak_from_eigensystem(v, *eig_v, cv)
    kw = (kak_w.k1, kak_w.k2, kak_w.k3, kak_w.k4)
    # C(pi - c1, c2, c3) = (iZ x iX) C(c1, c2, -c3) (iY x 1) up to phase, and
    # the two points are one class on the c3 = 0 face; near its c2 = c3 = 0
    # edge U L2 U can land an epsilon off the face on the far side from v
    tw, tv = cw.astuple(), cv.astuple()
    if (max(abs(p - q) for p, q in zip((PI - tw[0], tw[1], -tw[2]), tv))
            < max(abs(p - q) for p, q in zip(tw, tv))):
        kw = (kw[0] @ (1j * PAULI_Z), kw[1] @ (1j * PAULI_X), 1j * PAULI_Y @ kw[2], kw[3])
    l1 = (kak_v.k1 @ kw[0].conj().T, kak_v.k2 @ kw[1].conj().T)
    l3 = (kw[2].conj().T @ kak_v.k3, kw[3].conj().T @ kak_v.k4)

    assembled = (np.kron(l1[0], l1[1]) @ w @ np.kron(l3[0], l3[1]))
    fidelity = float(abs(np.trace(assembled.conj().T @ v)) / 4.0)
    return SynthesisResult(l1=l1, l2=(k1, k2), l3=l3, theta=None,
                           fidelity=fidelity, target_class=cv,
                           achieved_class=cw, converged=fidelity >= 1.0 - 1e-9,
                           iterations=used, residual=float(np.sqrt(f[best])))


def simplest_rational(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of smallest denominator in [lo, hi], for 0 <= lo <= hi: by
    continued fractions, the smallest integer in it when it holds one."""
    whole = math.floor(lo)
    if whole == lo:
        return Fraction(whole)
    if whole + 1 <= hi:
        return Fraction(whole + 1)
    return whole + 1 / simplest_rational(1 / (hi - whole), 1 / (lo - whole))


def synthesize_with_family(spec: FamilySpec, v: np.ndarray, budget: int = 4000,
                           policy: TolerancePolicy = DEFAULT_POLICY) -> SynthesisResult:
    """Synthesize with the cheapest member of a gate family that reaches v.

    Along an affine family every coverage row's rhs is affine in the
    parameter, so the members whose region contains the class of ``v`` form
    at most four windows, one per sign system and c3 = 0 twin of the target,
    found in closed form by :func:`~gatecover.coverage.segment_windows`; no
    nesting of the regions is assumed.  The member is the first
    ``lo + k * MEMBER_RESOLUTION`` in the lowest window, or the simplest finer
    rational where that window holds none.  :func:`synthesize` then builds
    the circuit, and its own reachability check guards the choice.  Raises
    ``ValueError`` when the family is not affine and ``NotReachableError``
    when no member reaches the class.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    v = require_unitary(v, policy.unitarity_tol, "target V")
    eig_v = _magic_eigensystem(v)
    cv = _chamber_point(v, eig_v[1])
    lo, mid, hi = (spec.exact_coord(t) for t in (spec.lo, (spec.lo + spec.hi) / 2, spec.hi))
    if any(2 * m != a + b for m, a, b in zip(mid.frac, lo.frac, hi.frac)):
        raise ValueError(f"family {spec.family_id} is not affine in its parameter: "
                         f"its midpoint class {mid} is not the midpoint of {lo} and {hi}")
    windows = segment_windows(lo.frac, hi.frac, cv)
    if not windows:
        raise NotReachableError(
            f"no member of family {spec.family_id} reaches class {cv}")
    s0, s1 = min(windows)
    scale = (spec.hi - spec.lo) / MEMBER_RESOLUTION
    t = spec.lo + MEMBER_RESOLUTION * simplest_rational(scale * Fraction(s0),
                                                        scale * Fraction(s1))
    gate = require_unitary(canonical_gate(family_coord(spec, t)), policy.unitarity_tol, "gate U")
    return replace(_synthesize(gate, v, eig_v, cv, budget, policy), theta=float(t) * PI)
