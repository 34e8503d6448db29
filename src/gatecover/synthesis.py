"""Construction of V = L1 U L2 U L3 for targets inside the coverage region.

Stage one solves for the six Euler angles of the middle local layer L2 until
the product U L2 U lands in the target's local-equivalence class: a
Levenberg-Marquardt least-squares solve of the Makhlin-invariant mismatch,
run on eight seeded restarts at once with the Jacobian in closed form.  Stage
two reads the outer locals off the KAK decompositions of the product and of
the target, which share one canonical nonlocal factor once the classes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cartan import (MAGIC, MAGIC_DAG, canonical_gate, cartan_coordinates,
                     kak_decompose, local_invariants)
from .coords import PI, CartanCoord
from .coverage import DEFAULT_BOUNDARY_SLACK, contains, coverage_region
from .errors import ConvergenceFailureError, NotReachableError, NotUnitaryError
from .families import FamilySpec, family_coord
from .numerics import (DEFAULT_POLICY, PAULI_X, PAULI_Y, PAULI_Z, TolerancePolicy,
                       require_unitary, su2_from_euler, unitarity_defect)


@dataclass(frozen=True)
class SynthesisResult:
    """Locals, optional family parameter, and realized accuracy of one synthesis.

    ``iterations`` counts residual-and-Jacobian evaluations over all restarts;
    ``residual`` is the norm of the final invariant mismatch (Re G1, Im G1, G2)
    between U L2 U and the target.  ``converged`` means that the assembled
    circuit reaches ``fidelity >= 1 - 1e-9``.
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
    """True when class v is reachable by two applications of a gate of class u."""
    return contains(coverage_region(u_coord, u_coord), v_coord, slack=slack)


# d/da and d/dc of Rz(a) Ry(b) Rz(c) scale its rows and its columns by (-i/2, i/2)
_HALF_Z = np.array([-0.5j, 0.5j])


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker products of two broadcastable stacks of 2x2 matrices."""
    out = np.einsum("...ij,...kl->...ikjl", x, y)
    return out.reshape(out.shape[:-4] + (4, 4))


def _invariant_residual(x: np.ndarray, u: np.ndarray, target: np.ndarray,
                        policy: TolerancePolicy):
    """Invariant residuals (R, 3) and their Jacobians (R, 3, 6) at angle rows x (R, 6).

    Row r holds the Euler angles of k1 and k2, and the residual is (Re G1,
    Im G1, G2) of W = U (k1 x k2) U minus ``target``.  The magic-basis image
    of W is wm = (M^dag U) (k1 x k2) (U M), so det wm = det(U)^2 =: det for
    every row.  G1 = t1^2 / (16 det) and G2 = (t1^2 - t2) / (4 det) with
    t1 = tr m, t2 = tr m^2 and m = wm^T wm; m is symmetric, so
    dt1 = 2 sum(wm o dwm) and dt2 = 4 sum(m o wm^T dwm).
    """
    p, t, q = np.moveaxis(x.reshape(-1, 2, 3), -1, 0)
    k = su2_from_euler(p, t, q)
    # d/db of the closed form is half of it at b + pi
    dk = np.stack([_HALF_Z[:, None] * k, 0.5 * su2_from_euler(p, t + PI, q),
                   k * _HALF_Z], axis=2)
    dl = np.concatenate([_kron(dk[:, 0], k[:, 1, None]),
                         _kron(k[:, 0, None], dk[:, 1])], axis=1)
    a, b, det = MAGIC_DAG @ u, u @ MAGIC, np.linalg.det(u) ** 2
    wm = a @ _kron(k[:, 0], k[:, 1]) @ b
    dwm = a @ dl @ b
    defect = unitarity_defect(wm)
    if defect > policy.unitarity_tol:
        raise NotUnitaryError(f"U L2 U is not unitary: defect {defect:.3e} > "
                              f"{policy.unitarity_tol:.3e}")
    wmt = np.swapaxes(wm, -1, -2)
    m = wmt @ wm
    t1 = np.sum(wm * wm, axis=(-2, -1))
    t2 = np.sum(m * m, axis=(-2, -1))
    dt1 = 2 * np.sum(wm[:, None] * dwm, axis=(-2, -1))
    dt2 = 4 * np.sum(m[:, None] * (wmt[:, None] @ dwm), axis=(-2, -1))
    g1 = t1 ** 2 / (16 * det)
    g2 = (t1 ** 2 - t2) / (4 * det)
    worst = np.max(np.abs(g2.imag))
    if worst > 1e-9:
        raise ConvergenceFailureError(f"G2 acquired an imaginary part {worst:.3e}")
    dg1 = t1[:, None] * dt1 / (8 * det)
    dg2 = (2 * t1[:, None] * dt1 - dt2) / (4 * det)
    r = np.stack([g1.real, g1.imag, g2.real], axis=-1) - target
    return r, np.stack([dg1.real, dg1.imag, dg2.real], axis=1)


def synthesize(u: np.ndarray, v: np.ndarray, budget: int = 4000,
               policy: TolerancePolicy = DEFAULT_POLICY) -> SynthesisResult:
    """Find locals with L1 U L2 U L3 = V up to global phase.

    ``budget`` caps the residual-and-Jacobian evaluations summed over all
    restarts (``iterations`` of the result).  Raises ``NotReachableError``
    when the class of ``v`` lies outside the two-application region of
    ``u``'s class.  When the budget runs out first, the best-so-far result is
    returned, with ``converged=False`` unless it already reaches the fidelity.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    u = require_unitary(u, policy.unitarity_tol, "gate U")
    v = require_unitary(v, policy.unitarity_tol, "target V")
    cu = cartan_coordinates(u, policy)
    cv = cartan_coordinates(v, policy)
    if not reachable(cu, cv):
        raise NotReachableError(f"class {cv} is not reachable from two uses of {cu}")

    gv = local_invariants(v, policy)
    target = np.array([gv.g1.real, gv.g1.imag, gv.g2])
    rng = np.random.default_rng(policy.rng_seed)
    x = np.vstack([np.zeros(6), rng.uniform(0.0, 2 * PI, size=(7, 6))])[:budget]
    # Levenberg-Marquardt on all restarts at once, damped by lam * I (Marquardt's
    # diag(J^T J) vanishes where J -> 0 at chamber corners) with lam = mu |r|,
    # which shrinks where J loses rank at the solution, and Nielsen's update of mu
    r, jac = _invariant_residual(x, u, target, policy)
    used = len(x)
    f = np.sum(r * r, axis=1)
    mu = np.full(len(x), 1e-3)
    nu = np.full(len(x), 2.0)
    live = np.ones(len(x), dtype=bool)
    while f.min() > 1e-30:
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
        rn, jn = _invariant_residual(x[idx] + step, u, target, policy)
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
    l2 = np.kron(k1, k2)
    w = u @ l2 @ u
    cw = cartan_coordinates(w, policy)

    kak_w = kak_decompose(w, policy)
    kak_v = kak_decompose(v, policy)
    kw = (kak_w.k1, kak_w.k2, kak_w.k3, kak_w.k4)
    # C(pi - c1, c2, c3) = (iZ x iX) C(c1, c2, -c3) (iY x 1) up to phase, and
    # the two points are one class on the c3 = 0 face; near its c2 = c3 = 0
    # edge U L2 U can land an epsilon off the face on the far side from v
    tw, tv = kak_w.coord.astuple(), kak_v.coord.astuple()
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


def synthesize_with_family(spec: FamilySpec, v: np.ndarray, budget: int = 4000,
                           policy: TolerancePolicy = DEFAULT_POLICY,
                           grid_points: int = 33,
                           refine_resolution: Fraction = Fraction(1, 2048)) -> SynthesisResult:
    """Synthesize with the cheapest capable member of a gate family.

    Scans the family parameter grid for the smallest value whose coverage
    region contains the target class (regions of both sweep families are
    nested, so smaller parameters are never capable when larger ones are
    not), refines by bisection at exact rational parameters, and delegates to
    :func:`synthesize`.
    """
    v = require_unitary(v, policy.unitarity_tol, "target V")
    cv = cartan_coordinates(v, policy)

    def capable(t: Fraction) -> bool:
        c = spec.exact_coord(t)
        return contains(coverage_region(c, c), cv)

    grid = spec.grid(grid_points)
    hit_idx = next((i for i, t in enumerate(grid) if capable(t)), None)
    if hit_idx is None:
        raise NotReachableError(
            f"no member of family {spec.family_id} reaches class {cv}")
    hi = grid[hit_idx]
    if hit_idx > 0:
        lo = grid[hit_idx - 1]
        while hi - lo > refine_resolution:
            mid = (lo + hi) / 2
            if capable(mid):
                hi = mid
            else:
                lo = mid
    t = hi
    gate = canonical_gate(family_coord(spec, t))
    result = synthesize(gate, v, budget=budget, policy=policy)
    return replace(result, theta=float(t) * PI)
