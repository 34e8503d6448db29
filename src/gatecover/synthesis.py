"""Construction of V = L1 U L2 U L3 for targets inside the coverage region.

Stage one solves for the six Euler angles of the middle local layer L2 until
the product U L2 U lands in the target's local-equivalence class: a
Levenberg-Marquardt least-squares solve of the Makhlin-invariant mismatch,
run on eight restarts at once with the Jacobian in closed form.  Restart 0
starts at the identity layer, except for a gate of the B class (pi/2, pi/4, 0):
there it starts at the middle layer of Zhang, Vala, Sastry and Whaley
(PRL 93, 020502 (2004)), which solves the problem in closed form, so the
search stops after its first batch.  Restarts 1-7 start at seeded random
angles, and a restart that stalls is re-drawn from the same generator while
the budget allows.  The live restarts are one block of rows in draw order:
masks apply each iteration's accepted and rejected steps, a stalled restart
leaves the block with its draw index, and a re-draw joins it as a new row, so
each residual evaluation reads one contiguous batch.  Stage two reads the
outer locals off one local map of U L2 U onto the target, from the two gates'
real factorizations in the magic basis (``cartan._local_map``), once their
classes agree.

Many targets are synthesized from the same few gates, so what a solve reads
of the gate U alone is built once per gate and kept in a bounded cache: U's
chamber point, the two-application region of its class (which the
reachability check needs, itself cached per class), the target-free terms of
the invariant residual, and, for a gate of the B class only, U's KAK factors
for the closed-form seed.  U, V and U L2 U are each read in the magic basis
once, into the record of ``cartan._magic_image`` (Makhlin invariants,
eigenvalues of m(U), chamber point), whose real factorization adds one
eigenbasis.  A gate outside the B class needs only its chamber point, and a
refusal only V's, so neither is given an eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cartan import (MAGIC, MAGIC_DAG, KakDecomposition, _local_map, _MagicImage, _magic_image,
                     canonical_gate)
from .coords import B_CLASS, PI, CartanCoord, class_equal
from .coverage import CoverageRegion, contains, coverage_region, rationalize, segment_windows
from .errors import ConvergenceFailureError, NotReachableError, NotUnitaryError
from .families import FamilySpec
from .numerics import (UNITARITY_TOL, euler_from_su2, kron2, require_unitary, su2_from_euler,
                       unitarity_defect)

# spacing of the family parameters (units of pi) tried first by synthesize_with_family
MEMBER_RESOLUTION = Fraction(1, 2048)
# the share of the lowest window below the member synthesize_with_family picks
MEMBER_MARGIN = Fraction(1, 8)


@dataclass(frozen=True)
class SynthesisResult:
    """Locals, optional family parameter, and realized accuracy of one synthesis.

    ``iterations`` counts residual-and-Jacobian evaluations over all restarts,
    and ``restart`` is the index of the draw whose layer was kept: 0-7 for the
    first eight restarts (0 for a gate of the B class, whose restart 0 is
    exact), 8 and up for the re-draws of stalled restarts, in the order they
    were drawn.  ``residual`` is the norm of the final invariant mismatch
    (Re G1, Im G1, G2) between U L2 U and the target.  The search stops once a
    restart's residual is at most ``2**-41`` (about 4.5e-13), a bound on the
    rounding error of the two invariant triples it compares, or when the
    budget runs out.  A restart that stalls above that bound is re-drawn at
    seeded random angles while the budget allows; the layer kept is the best
    seen over all draws, the stalled ones included.  ``converged`` means that
    the assembled circuit reaches ``fidelity >= 1 - 1e-9``.
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
    restart: int
    residual: float

    def assemble(self, u: np.ndarray) -> np.ndarray:
        """L1 U L2 U L3 (global phase not fixed)."""
        mid = kron2(*self.l2)
        return kron2(*self.l1) @ u @ mid @ u @ kron2(*self.l3)


def reachable(u_coord, v_coord) -> bool:
    """True when class v is reachable by two applications of a gate of class u.

    The region is that of :func:`~gatecover.coverage.coverage_region`, built
    once per class (u snapped to an exact point as there) and kept in a
    bounded cache, since synthesis asks about many targets per gate.
    """
    return contains(_gate_region(rationalize(u_coord)), v_coord)


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


def _residual_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The target-free terms ``(s, scale)`` of :func:`_invariant_residual` for
    the gate U.

    The magic-basis image of W = U (k1 x k2) U is wm = a (k1 x k2) b with
    a = M^dag U and b = U M, so det wm = det(U)^2 =: det for every k1, k2.
    Entry (I, J) of wm is linear in the products k1[i, j] k2[k, l], with
    coefficient a[I, 2i + k] b[2j + l, J]: one fixed 16 x 16 matrix ``s`` maps
    the flattened outer product o = vec(k1) vec(k2)^T to vec(wm).  ``scale``
    holds the multiples of t1 <wm, .> and t1 <wm, .> - <n, .> that give G1
    and dG1, G2 and dG2 (see :func:`_invariant_residual`).
    """
    a, b = MAGIC_DAG @ u, u @ MAGIC
    s = np.einsum("Iik,jlJ->IJijkl", a.reshape(4, 2, 2), b.reshape(2, 2, 4)).reshape(16, 16)
    scale = 1 / (np.linalg.det(u) ** 2 * np.array([[16.0] + [4.0] * 6, [4.0] + [1.0] * 6]))
    return s, scale


def _invariant_residual(s: np.ndarray, scale: np.ndarray, target: np.ndarray):
    """The map from angle rows x (R, 6) to the invariant residuals (R, 3) and
    their Jacobians (R, 3, 6) of the middle layer, for a gate U with
    ``s, scale = _residual_terms(U)``.

    Row r of x holds the Euler angles of k1 and k2, and the residual is
    (Re G1, Im G1, G2) of W = U (k1 x k2) U minus ``target``, with wm = M^dag W M
    formed as ``s`` times vec(k1) vec(k2)^T.

    G1 = t1^2 / (16 det) and G2 = (t1^2 - t2) / (4 det) with t1 = tr m,
    t2 = tr m^2 and m = wm^T wm.  With <p, q> = sum(p o q) and n = wm m,
    t1 = <wm, wm> and t2 = <wm, n> (m is symmetric), and a change dwm of wm
    changes them by 2 <wm, dwm> and 4 <n, dwm>.  So dG1 = t1 <wm, dwm> / (4 det)
    and dG2 = (t1 <wm, dwm> - <n, dwm>) / det.  For g = wm or n, <g, wm> and the
    six <g, dwm> are vec(k1)^T q vec(k2) with one factor replaced by its
    derivative, where q is vec(g) s reshaped to 4 x 4.
    """

    def residual(x: np.ndarray):
        x = x.reshape(-1, 2, 1, 3)
        # per row and qubit, vec of (k, d/da, d/db, d/dc)
        k = (np.exp(1j * (x[..., :1] * _A + x[..., 2:] * _C))
             * np.cos(0.5 * x[..., 1:2] + _SHIFT) * _SCALE)
        wm = ((k[:, 0, 0, :, None] * k[:, 1, 0, None, :]).reshape(-1, 16) @ s.T).reshape(-1, 4, 4)
        defect = unitarity_defect(wm)
        if defect > UNITARITY_TOL:
            raise NotUnitaryError(f"U L2 U is not unitary: defect {defect:.3e} > "
                                  f"{UNITARITY_TOL:.3e}")
        rows = len(wm)
        wn = np.empty((rows, 2, 4, 4), dtype=complex)
        wn[:, 0] = wm
        wn[:, 1] = wm @ np.swapaxes(wm, -1, -2) @ wm
        # <g, .> for g = wm, n against k1 x k2 with k1 and k2 each replaced by
        # (k, d/da, d/db, d/dc): [row, g, factor of k1, factor of k2]
        pairs = (k[:, 0, None] @ (wn.reshape(-1, 16) @ s).reshape(-1, 2, 4, 4)
                 @ np.swapaxes(k[:, 1, None], -1, -2))
        # <g, wm> and <g, dwm> for the six angles, in the order of x
        p = np.empty((rows, 2, 7), dtype=complex)
        p[..., :4] = pairs[..., 0]
        p[..., 4:] = pairs[..., 0, 1:]
        y = p[:, 0, :1] * p[:, 0]
        g = np.empty((rows, 2, 7), dtype=complex)
        g[:, 0] = y
        g[:, 1] = y - p[:, 1]
        g *= scale
        worst = np.max(np.abs(g[:, 1, 0].imag))
        if worst > 1e-9:
            raise ConvergenceFailureError(f"G2 acquired an imaginary part {worst:.3e}")
        f = np.empty((rows, 3, 7))
        f[:, 0] = g[:, 0].real
        f[:, 1] = g[:, 0].imag
        f[:, 2] = g[:, 1].real
        return f[..., 0] - target, f[..., 1:]

    return residual


def _b_middle_layer(c: CartanCoord) -> tuple[np.ndarray, np.ndarray]:
    """Factors (m1, m2) with B (m1 x m2) B in the class of the chamber point c,
    B the canonical gate of the B class (Zhang, Vala, Sastry and Whaley,
    PRL 93, 020502 (2004), in this package's conventions).

    With R_a(x) = exp(i x a.sigma / 2), m1 = R_Y(c1) and m2 = R_n(beta), where
    cos beta = 4s - 1 for s = sin^2(c2/2) cos^2(c3/2), n = (0, cos phi, sin phi)
    with cos phi >= 0 and sin^2 phi = cos c2 cos c3 / (1 - 2s).  Written out,
    m2 = cos(beta/2) + i sin(beta/2) n.sigma with cos(beta/2) = sqrt(2s) and
    sin(beta/2) n = (0, sqrt(2) cos(c2/2) sin(c3/2), sqrt(cos c2 cos c3)):
    square roots of numbers that are non-negative on the chamber (c2, c3 <=
    pi/2) and no quotient, so the iSWAP point c2 = pi/2, c3 = 0, where
    1 - 2s = 0 and beta = 0, needs no case of its own, and no rounding of
    1 - 2s near it tilts n.
    """
    c1, c2, c3 = c.astuple()
    a0 = math.sqrt(2) * math.sin(c2 / 2) * math.cos(c3 / 2)
    ay = math.sqrt(2) * math.cos(c2 / 2) * math.sin(c3 / 2)
    az = math.sqrt(max(0.0, math.cos(c2) * math.cos(c3)))
    m1 = np.array([[math.cos(c1 / 2), math.sin(c1 / 2)],
                   [-math.sin(c1 / 2), math.cos(c1 / 2)]], dtype=complex)
    m2 = np.array([[a0 + 1j * az, ay], [-ay, a0 - 1j * az]])
    return m1, m2


def _b_seed(kak: KakDecomposition, cv: CartanCoord) -> np.ndarray:
    """The six Euler angles of the middle layer L2 with U L2 U in the class cv,
    for a gate U of the B class with KAK decomposition ``kak``.

    With U = (k1 x k2) B (k3 x k4) up to phase, L2 = (k3 x k4)^dag M (k1 x k2)^dag
    gives U L2 U = (k1 x k2) B M B (k3 x k4), for M of :func:`_b_middle_layer`.
    """
    m1, m2 = _b_middle_layer(cv)
    l2 = np.stack([kak.k3.conj().T @ m1 @ kak.k1.conj().T,
                   kak.k4.conj().T @ m2 @ kak.k2.conj().T])
    return np.stack(euler_from_su2(l2), axis=1).ravel()


@dataclass(frozen=True)
class _Gate:
    """What a solve reads of the gate U whatever the target: its chamber point
    ``coord``, the two-application ``region`` of its class (that of
    :func:`reachable`), the terms ``s`` and ``scale`` of
    :func:`_invariant_residual`, and, for a gate of the B class only, its KAK
    decomposition ``kak``, which :func:`_b_seed` reads.  Its arrays are
    read-only, since every solve from U shares them."""

    coord: CartanCoord
    region: CoverageRegion
    s: np.ndarray
    scale: np.ndarray
    kak: KakDecomposition | None


@lru_cache(maxsize=64)
def _gate(key: bytes) -> _Gate:
    """The :class:`_Gate` of the checked 4 x 4 complex gate whose bytes are
    ``key``: keyed by value, so a caller that later changes its array meets
    another record.  The chamber point comes from U's magic image, which
    reads the eigenvalues of m(U) alone; only a gate of the B class is given
    the eigenbasis its KAK needs."""
    u = np.frombuffer(key, dtype=complex).reshape(4, 4)
    image = _magic_image(u)
    cu = image.coord
    kak = image.kak() if class_equal(cu, B_CLASS) else None
    s, scale = _residual_terms(u)
    for arr in (s, scale) + ((kak.k1, kak.k2, kak.k3, kak.k4) if kak else ()):
        arr.setflags(write=False)
    return _Gate(cu, _gate_region(rationalize(cu)), s, scale, kak)


def synthesize(u: np.ndarray, v: np.ndarray, budget: int = 4000,
               seed: int = 7) -> SynthesisResult:
    """Find locals with L1 U L2 U L3 = V up to global phase.

    ``budget`` caps the residual-and-Jacobian evaluations summed over all
    restarts (``iterations`` of the result), and ``seed`` draws the starting
    angles of restarts 1-7 and of every re-draw.  The search stops as soon as
    one restart's invariant residual is at most ``2**-41``, the rounding floor
    of the invariants it compares.  A restart that stalls above that floor is
    re-drawn at random angles from the same generator while the budget allows,
    so a seed gives one result.  For a gate of the B class restart 0 is the
    closed-form middle layer (see :func:`_b_middle_layer`), which lies below
    that floor, so the search ends with its first batch of ``min(8, budget)``
    evaluations whatever the target.  Raises ``NotReachableError`` when the class
    of ``v`` lies outside the two-application region of ``u``'s class.  When
    the budget runs out first, the best result seen is returned, with
    ``converged=False`` unless it already reaches the fidelity.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    u = require_unitary(u, name="gate U")
    v = require_unitary(v, name="target V")
    return _synthesize(u, _magic_image(v), budget, seed)


def _synthesize(u: np.ndarray, target: _MagicImage, budget: int,
                seed: int) -> SynthesisResult:
    """:func:`synthesize` for a checked gate U and the magic image of the
    checked target V; U's own terms come from :func:`_gate`.  A refusal reads
    only V's chamber point; stage two factors V and U L2 U, one ``eigh`` each."""
    gate = _gate(u.tobytes())
    cv = target.coord
    if not contains(gate.region, cv):
        raise NotReachableError(f"class {cv} is not reachable from two uses of {gate.coord}")

    gv = target.invariants
    residual = _invariant_residual(gate.s, gate.scale,
                                   np.array([gv.g1.real, gv.g1.imag, gv.g2]))
    rng = np.random.default_rng(seed)
    x = np.vstack([np.zeros(6), rng.uniform(0.0, 2 * PI, size=(7, 6))])[:budget]
    if gate.kak is not None:
        x[0] = _b_seed(gate.kak, cv)
    # Levenberg-Marquardt on all restarts at once, damped by lam * I (Marquardt's
    # diag(J^T J) vanishes where J -> 0 at chamber corners) with lam = mu |r|,
    # which shrinks where J loses rank at the solution, and Nielsen's update of mu.
    # The live restarts are one block of rows in draw order, ``draw`` holding
    # their draw indices: masks update the accepted and rejected rows, a stalled
    # restart leaves the block with its draw index, and each re-draw is
    # appended as a new row.  A row that left stays above the stop floor, so the
    # block alone decides the stop, and the layer kept is the first draw of
    # least residual over all rows.
    r, jac = residual(x)
    used = drawn = len(x)
    f = np.sum(r * r, axis=1)
    mu = np.full(len(x), 1e-3)
    nu = np.full(len(x), 2.0)
    draw = np.arange(len(x))
    left = []  # (draw, x, f) of the rows that stalled
    while f.min() > _RESIDUAL_FLOOR ** 2:
        lam = mu[:, None] * np.sqrt(f[:, None])
        # step -(J^T J + lam I)^-1 J^T r in the right singular basis of J,
        # which stays exact where J is rank deficient
        uj, s, vjt = np.linalg.svd(jac, full_matrices=False)
        h = s * (np.swapaxes(uj, 1, 2) @ r[..., None])[..., 0]
        d = -h / (s * s + lam)
        step = (np.swapaxes(vjt, 1, 2) @ d[..., None])[..., 0]
        # a restart whose step no longer moves its angles has stalled (the
        # norms are those of np.linalg.norm, without its call overhead)
        moves = (np.sqrt(np.sum(step * step, axis=1))
                 > 1e-15 * (np.sqrt(np.sum(x * x, axis=1)) + 1e-15))
        n = int(np.count_nonzero(moves))
        if used + n > budget:
            break
        batch = x + step
        if n < len(x):
            # the stalled restarts leave the block; as many as the budget
            # leaves room for are re-drawn, as new rows
            left.append((draw[~moves], x[~moves], f[~moves]))
            fresh = rng.uniform(0.0, 2 * PI, size=(min(len(x) - n, budget - used - n), 6))
            if n + len(fresh) == 0:
                break
            x, r, jac, f, mu, nu, draw, batch, d, h, lam = (
                a[moves] for a in (x, r, jac, f, mu, nu, draw, batch, d, h, lam))
            batch = np.concatenate([batch, fresh])
        rn, jn = residual(batch)
        used += len(rn)
        fn = np.sum(rn * rn, axis=1)
        rho = (f - fn[:n]) / np.sum(d * (lam * d - h), axis=1)
        ok = rho > 0
        x = np.where(ok[:, None], batch[:n], x)
        r = np.where(ok[:, None], rn[:n], r)
        jac = np.where(ok[:, None, None], jn[:n], jac)
        f = np.where(ok, fn[:n], f)
        # an accepted row's factor is the same with |rho| capped at 1 (1/3 from
        # rho = 1 on), and a rejected row's cannot overflow
        mu = np.where(ok, mu * np.maximum(1 / 3, 1 - (2 * np.minimum(np.abs(rho), 1.0) - 1) ** 3),
                      mu * nu)
        nu = np.where(ok, 2.0, 2.0 * nu)
        if len(batch) > n:
            new = len(batch) - n
            x, r, jac, f = (np.concatenate([a, b[n:]])
                            for a, b in ((x, batch), (r, rn), (jac, jn), (f, fn)))
            mu, nu = np.append(mu, np.full(new, 1e-3)), np.append(nu, np.full(new, 2.0))
            draw = np.append(draw, np.arange(drawn, drawn + new))
            drawn += new
    if left:
        # every row back in draw order, so that argmin picks the first draw
        draw, x, f = (np.concatenate(rows) for rows in zip((draw, x, f), *left))
        order = np.argsort(draw)
        x, f = x[order], f[order]
    restart = int(np.argmin(f))

    k1, k2 = su2_from_euler(*x[restart, :3]), su2_from_euler(*x[restart, 3:])
    w = require_unitary(u @ kron2(k1, k2) @ u, name="U L2 U")
    image_w = _magic_image(w)
    l1, l3 = _local_map(target.factors, image_w.factors)
    assembled = kron2(*l1) @ w @ kron2(*l3)
    fidelity = float(abs(np.trace(assembled.conj().T @ target.u)) / 4.0)
    return SynthesisResult(l1=l1, l2=(k1, k2), l3=l3, theta=None,
                           fidelity=fidelity, target_class=cv,
                           achieved_class=image_w.coord, converged=fidelity >= 1.0 - 1e-9,
                           iterations=used, restart=restart,
                           residual=float(np.sqrt(f[restart])))


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
                           seed: int = 7) -> SynthesisResult:
    """Synthesize with a member of a gate family that reaches v with a margin.

    A family is a segment of chamber points, so every coverage row's rhs is
    affine in the parameter, and the members whose region contains the class
    of ``v`` form at most four windows, one per sign system and c3 = 0 twin of
    the target, found in closed form by
    :func:`~gatecover.coverage.segment_windows`; no nesting of the regions is
    assumed.  The lowest window (s0, s1) starts at the cheapest reaching
    member, but there the target lies on the boundary of the member's region,
    where the solve is ill-conditioned.  So the member is the grid point
    ``lo + k * MEMBER_RESOLUTION`` in that window nearest
    ``s0 + MEMBER_MARGIN * (s1 - s0)``, one eighth of the way in: the cheapest
    member with a margin.  When s0 = 0 no row binds, and the member is ``lo``;
    when the window holds no grid point, it is the simplest finer rational in
    it.  The lowest grid member is kept with no margin when its square is in
    the target's class, since its identity restart 0 is then exact.
    :func:`synthesize` builds the circuit with ``budget`` and ``seed``, and
    its own reachability check guards the choice.  Raises
    ``NotReachableError`` when no member reaches the class.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    v = require_unitary(v, name="target V")
    target = _magic_image(v)
    windows = segment_windows(spec.point(spec.lo), spec.point(spec.hi), target.coord)
    if not windows:
        raise NotReachableError(
            f"no member of family {spec.family_id} reaches class {target.coord}")
    s0, s1 = (Fraction(s) for s in min(windows))
    scale = (spec.hi - spec.lo) / MEMBER_RESOLUTION
    first, last = math.ceil(scale * s0), math.floor(scale * s1)
    if s0 == 0 or first > last:
        # simplest_rational(0, .) is 0, so s0 = 0 gives lo
        k = simplest_rational(scale * s0, scale * s1)
    elif class_equal(tuple(2 * a for a in spec.point(spec.lo + MEMBER_RESOLUTION * first)),
                     target.coord):
        k = first
    else:
        k = min(max(round(scale * (s0 + MEMBER_MARGIN * (s1 - s0))), first), last)
    t = spec.lo + MEMBER_RESOLUTION * k
    gate = require_unitary(canonical_gate(spec.exact_coord(t)), name="gate U")
    return replace(_synthesize(gate, target, budget, seed), theta=float(t) * PI)
