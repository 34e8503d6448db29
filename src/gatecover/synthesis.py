"""Construction of V = L1 U L2 U L3 for targets inside the coverage region.

Stage one searches the six angles of the middle local layer until the product
U L2 U lands in the target's local-equivalence class (invariant mismatch as
the objective: derivative-free simplex with seeded restarts, then a
finite-difference Gauss-Newton polish).  Stage two reads the outer locals off
the KAK decompositions of the product and of the target, which share one
canonical nonlocal factor once the classes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cartan import (canonical_gate, cartan_coordinates, kak_decompose,
                     local_invariants)
from .coords import PI, CartanCoord, coord_distance
from .coverage import DEFAULT_BOUNDARY_SLACK, contains, coverage_region
from .errors import NotReachableError
from .families import FamilySpec, family_coord
from .numerics import (DEFAULT_POLICY, TolerancePolicy, require_unitary,
                       su2_from_euler)


@dataclass(frozen=True)
class SynthesisResult:
    """Locals, optional family parameter, and realized accuracy of one synthesis."""

    l1: tuple[np.ndarray, np.ndarray]
    l2: tuple[np.ndarray, np.ndarray]
    l3: tuple[np.ndarray, np.ndarray]
    theta: float | None
    fidelity: float
    target_class: CartanCoord
    achieved_class: CartanCoord
    converged: bool
    iterations: int

    def assemble(self, u: np.ndarray) -> np.ndarray:
        """L1 U L2 U L3 (global phase not fixed)."""
        mid = np.kron(self.l2[0], self.l2[1])
        return (np.kron(self.l1[0], self.l1[1]) @ u @ mid @ u
                @ np.kron(self.l3[0], self.l3[1]))


def reachable(u_coord, v_coord, slack: float = DEFAULT_BOUNDARY_SLACK) -> bool:
    """True when class v is reachable by two applications of a gate of class u."""
    return contains(coverage_region(u_coord, u_coord), v_coord, slack=slack)


def _nelder_mead(f, x0, *, max_iter: int, step: float = 0.4,
                 fatol: float = 1e-24, xatol: float = 1e-12):
    """Deterministic Nelder-Mead returning (x_best, f_best, evaluations)."""
    n = len(x0)
    pts = [np.array(x0, dtype=float)]
    for i in range(n):
        p = pts[0].copy()
        p[i] += step
        pts.append(p)
    vals = [f(p) for p in pts]
    evals = n + 1
    for _ in range(max_iter):
        order = sorted(range(n + 1), key=lambda i: (vals[i], i))
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[0] <= fatol:
            break
        if max(np.max(np.abs(p - pts[0])) for p in pts[1:]) <= xatol:
            break
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = f(xr)
        evals += 1
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = f(xe)
            evals += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            evals += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])
                evals += n
    best = min(range(n + 1), key=lambda i: (vals[i], i))
    return pts[best], vals[best], evals


def _gauss_newton_polish(residual_fn, x, *, iters: int = 30, h: float = 1e-6):
    """Finite-difference Gauss-Newton descent on a small residual vector."""
    x = np.array(x, dtype=float)
    r = residual_fn(x)
    best = float(np.dot(r, r))
    for _ in range(iters):
        if best < 1e-28:
            break
        jac = np.empty((len(r), len(x)))
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            jac[:, j] = (residual_fn(xp) - residual_fn(xm)) / (2 * h)
        dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        improved = False
        scale = 1.0
        for _ in range(12):
            xn = x + scale * dx
            rn = residual_fn(xn)
            fn = float(np.dot(rn, rn))
            if fn < best:
                x, r, best = xn, rn, fn
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return x


def _mid_local(params) -> tuple[np.ndarray, np.ndarray]:
    return su2_from_euler(*params[:3]), su2_from_euler(*params[3:])


def synthesize(u: np.ndarray, v: np.ndarray, budget: int = 4000,
               policy: TolerancePolicy = DEFAULT_POLICY) -> SynthesisResult:
    """Find locals with L1 U L2 U L3 = V up to global phase.

    Raises ``NotReachableError`` when the class of ``v`` lies outside the
    two-application region of ``u``'s class.  With an exhausted budget the
    best-so-far result is returned with ``converged=False``.
    """
    u = require_unitary(u, policy.unitarity_tol, "gate U")
    v = require_unitary(v, policy.unitarity_tol, "target V")
    cu = cartan_coordinates(u, policy)
    cv = cartan_coordinates(v, policy)
    if not reachable(cu, cv):
        raise NotReachableError(f"class {cv} is not reachable from two uses of {cu}")

    gv = local_invariants(v, policy)

    def residual(params) -> np.ndarray:
        k1, k2 = _mid_local(params)
        w = u @ np.kron(k1, k2) @ u
        g = local_invariants(w, policy)
        return np.array([g.g1.real - gv.g1.real,
                         g.g1.imag - gv.g1.imag,
                         g.g2 - gv.g2])

    def objective(params) -> float:
        r = residual(params)
        return float(np.dot(r, r))

    rng = np.random.default_rng(policy.rng_seed)
    restarts = [np.zeros(6)] + [rng.uniform(0.0, 2 * PI, size=6) for _ in range(7)]
    per_restart = max(200, budget // len(restarts))
    best_x, best_f, used = None, np.inf, 0
    for x0 in restarts:
        x, fx, evals = _nelder_mead(objective, x0, max_iter=per_restart)
        used += evals
        if fx < best_f:
            best_x, best_f = x, fx
        if best_f < 1e-24:
            break
    best_x = _gauss_newton_polish(residual, best_x)
    best_f = objective(best_x)

    k1, k2 = _mid_local(best_x)
    l2 = np.kron(k1, k2)
    w = u @ l2 @ u
    cw = cartan_coordinates(w, policy)
    # at chamber corners the invariants are critical in the coordinates, so the
    # reachable coordinate precision degrades to sqrt(invariant precision);
    # the assembled fidelity is the operative success measure there
    converged = coord_distance(cw, cv) <= max(policy.coord_tol, 1e-8)

    kak_w = kak_decompose(w, policy)
    kak_v = kak_decompose(v, policy)
    l1 = (kak_v.k1 @ kak_w.k1.conj().T, kak_v.k2 @ kak_w.k2.conj().T)
    l3 = (kak_w.k3.conj().T @ kak_v.k3, kak_w.k4.conj().T @ kak_v.k4)

    assembled = (np.kron(l1[0], l1[1]) @ w @ np.kron(l3[0], l3[1]))
    fidelity = float(abs(np.trace(assembled.conj().T @ v)) / 4.0)
    converged = converged or fidelity >= 1.0 - 1e-9
    return SynthesisResult(l1=l1, l2=(k1, k2), l3=l3, theta=None,
                           fidelity=fidelity, target_class=cv,
                           achieved_class=cw, converged=converged,
                           iterations=used)


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
