"""Numerical substrate for two-qubit gate analysis.

Small fixed-size complex matrix helpers, an eigendecomposition of symmetric
unitary matrices that returns a *real orthogonal* eigenbasis (the property the
magic-basis machinery depends on), and Haar-random sampling.  Everything here
is pure given its inputs; the only stateful object is an injected
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, NotSymmetricError, NotUnitaryError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

XX = np.kron(PAULI_X, PAULI_X)
YY = np.kron(PAULI_Y, PAULI_Y)
ZZ = np.kron(PAULI_Z, PAULI_Z)


@dataclass(frozen=True)
class TolerancePolicy:
    """Tolerances and reproducibility knobs shared across the package.

    Attributes
    ----------
    unitarity_tol : max-entry deviation of M M^dag from identity accepted on input.
    coord_tol : tolerance of the Weyl-chamber class-equality predicate.
    volume_mc_samples : default sample count for Monte Carlo volume estimates.
    rng_seed : seed for every internally created generator.
    """

    unitarity_tol: float = 1e-10
    coord_tol: float = 1e-8
    volume_mc_samples: int = 100_000
    rng_seed: int = 7

    def __post_init__(self):
        if min(self.unitarity_tol, self.coord_tol) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.coord_tol < 1e-12:
            raise ValueError("coord_tol must be at least 1e-12")
        if int(self.volume_mc_samples) < 1:
            raise ValueError("volume_mc_samples must be a positive integer")


DEFAULT_POLICY = TolerancePolicy()


def unitarity_defect(m: np.ndarray) -> float:
    """Max-entry deviation of ``m @ m^dag`` from the identity, over a stack too."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m @ np.swapaxes(m, -1, -2).conj() - np.eye(m.shape[-1]))))


def require_unitary(m: np.ndarray, tol: float = DEFAULT_POLICY.unitarity_tol,
                    name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex ndarray, raising ``NotUnitaryError`` if it fails."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotUnitaryError(f"{name} must be square, got shape {m.shape}")
    defect = unitarity_defect(m)
    if defect > tol:
        raise NotUnitaryError(f"{name} is not unitary: defect {defect:.3e} > {tol:.3e}")
    return m


def _joint_jacobi(a: np.ndarray, b: np.ndarray, *, sweeps: int = 60,
                  off_tol: float = 5e-15) -> np.ndarray:
    """Orthogonal O jointly diagonalizing the commuting symmetric pair (a, b).

    Cardoso-Souloumiac Jacobi sweeps: each Givens angle maximizes the combined
    diagonal mass of both matrices, so joint near-degeneracies (where any basis
    works) and split eigenvalues (where only the shared basis works) are both
    handled without eigenvalue-grouping heuristics.
    """
    n = a.shape[0]
    a = a.copy()
    b = b.copy()
    o = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                g1 = (a[p, p] - a[q, q], 2.0 * a[p, q])
                g2 = (b[p, p] - b[q, q], 2.0 * b[p, q])
                gxx = g1[0] * g1[0] + g2[0] * g2[0]
                gxy = g1[0] * g1[1] + g2[0] * g2[1]
                gyy = g1[1] * g1[1] + g2[1] * g2[1]
                # dominant eigenvector (cos 2t, sin 2t) of the 2x2 Gram matrix
                ang = 0.5 * np.arctan2(2.0 * gxy, gxx - gyy)
                x, y = np.cos(ang), np.sin(ang)
                if x < 0.0:
                    x, y = -x, -y
                c = np.sqrt((1.0 + x) / 2.0)
                s = y / np.sqrt(2.0 * (1.0 + x))
                if abs(s) < 1e-18:
                    continue
                off = max(off, abs(s))
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = -s
                rot[q, p] = s
                a = rot.T @ a @ rot
                b = rot.T @ b @ rot
                o = o @ rot
        maxoff = max(
            float(np.max(np.abs(a - np.diag(np.diag(a))))),
            float(np.max(np.abs(b - np.diag(np.diag(b))))))
        if maxoff <= off_tol:
            break
    return o


def eig_symmetric_unitary(m: np.ndarray, *,
                          symmetry_tol: float = 1e-10,
                          unitarity_tol: float = 1e-10,
                          residual_tol: float = 1e-9):
    """Diagonalize a complex symmetric unitary matrix over a real orthogonal basis.

    For symmetric unitary M, the real and imaginary parts commute, so they are
    simultaneously diagonalizable by a real orthogonal O:  M = O D O^T with D
    diagonal and unit-modulus.  A plain complex eigensolver does not guarantee
    real eigenvectors in degenerate subspaces, hence the joint Jacobi
    diagonalization of Re(M) and Im(M).

    Returns
    -------
    (w, o) : eigenvalues as a complex vector sorted by phase angle, and the
        matching real orthogonal eigenvector matrix with det(o) = +1.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"matrix must be square, got {m.shape}")
    sym_defect = float(np.max(np.abs(m - m.T)))
    if sym_defect > symmetry_tol:
        raise NotSymmetricError(f"matrix is not symmetric: defect {sym_defect:.3e}")
    require_unitary(m, unitarity_tol)

    re = (m.real + m.real.T) / 2.0
    im = (m.imag + m.imag.T) / 2.0
    o = _joint_jacobi(re, im)

    n = m.shape[0]
    # Deterministic column signs: largest-magnitude entry made positive.
    for j in range(n):
        k = int(np.argmax(np.abs(o[:, j])))
        if o[k, j] < 0:
            o[:, j] = -o[:, j]
    w = np.diag(o.T @ m @ o).copy()
    order = np.argsort(np.angle(w), kind="stable")
    w = w[order]
    o = o[:, order]
    if np.linalg.det(o) < 0:
        o[:, 0] = -o[:, 0]

    offdiag = float(np.max(np.abs(o.T @ m @ o - np.diag(w))))
    if offdiag > residual_tol or float(np.max(np.abs(np.abs(w) - 1.0))) > residual_tol:
        raise ConvergenceFailureError(
            f"simultaneous diagonalization failed: off-diagonal residual {offdiag:.3e}")
    return w, o


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) matrix via a random unit quaternion."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a, b, c, d = v
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]], dtype=complex)


def haar_su2_pair(rng: np.random.Generator) -> np.ndarray:
    """Haar-random local gate k1 (x) k2 with both factors in SU(2)."""
    return np.kron(haar_su2(rng), haar_su2(rng))


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-random U(dim) matrix (Ginibre + phase-fixed QR)."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def rx(angle: float) -> np.ndarray:
    """exp(-i angle X / 2)"""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(angle: float) -> np.ndarray:
    """exp(-i angle Z / 2)"""
    return np.array([[np.exp(-1j * angle / 2), 0],
                     [0, np.exp(1j * angle / 2)]], dtype=complex)


def su2_from_euler(a, b, c) -> np.ndarray:
    """Rz(a) Ry(b) Rz(c) in closed form, stacked over the shape of the angles;
    surjective onto SU(2)."""
    em, ed = np.exp(-0.5j * (a + c)), np.exp(-0.5j * (a - c))
    cb, sb = np.cos(0.5 * b), np.sin(0.5 * b)
    return np.stack([em * cb, -ed * sb, ed.conj() * sb, em.conj() * cb],
                    axis=-1).reshape(*np.shape(a), 2, 2)


def kron_factor(m: np.ndarray, tol: float = 1e-10):
    """Factor a 4x4 matrix into phase * a (x) b with det(a) = det(b) = 1.

    Raises ``ValueError`` when ``m`` is not a Kronecker product to within
    ``tol`` (max-entry residual).
    """
    m = np.asarray(m, dtype=complex)
    idx = int(np.argmax(np.abs(m)))
    i, j = divmod(idx, 4)
    i1, i0 = divmod(i, 2)
    j1, j0 = divmod(j, 2)
    b = m[2 * i1:2 * i1 + 2, 2 * j1:2 * j1 + 2].copy()
    a = np.array([[m[2 * p + i0, 2 * q + j0] for q in range(2)] for p in range(2)],
                 dtype=complex)
    pivot = m[i, j]
    prod = np.kron(a, b) / pivot
    residual = float(np.max(np.abs(prod - m)))
    if residual > tol:
        raise ValueError(f"matrix is not a tensor product: residual {residual:.3e}")
    # Push determinants into the scalar prefactor so both factors are special.
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    a = a / np.sqrt(det_a)
    b = b / np.sqrt(det_b)
    phase = np.sqrt(det_a) * np.sqrt(det_b) / pivot
    return phase, a, b
