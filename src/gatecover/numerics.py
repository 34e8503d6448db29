"""Numerical substrate for two-qubit gate analysis.

Small fixed-size complex matrix helpers, an eigendecomposition of symmetric
unitary matrices that returns a *real orthogonal* eigenbasis (the property the
magic-basis machinery depends on), and Haar-random sampling.  The real basis
is that of one real symmetric ``eigh``: the mix cos p Re M + sin p Im M of the
two commuting parts of M, at an angle p read off the eigenphases of M that
keeps every two distinct eigenvalues of M distinct in the mix.  A caller that
already holds those eigenphases (the Cartan layer computes them once per gate)
passes them in, so one gate costs one ``eigvals`` and one ``eigh``.  Everything
here is pure given its inputs; the only stateful object is an injected
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, NotSymmetricError, NotUnitaryError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

XX = np.kron(PAULI_X, PAULI_X)
YY = np.kron(PAULI_Y, PAULI_Y)
ZZ = np.kron(PAULI_Z, PAULI_Z)


# the largest max-entry deviation of M M^dag from the identity of a unitary M
UNITARITY_TOL = 1e-10


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """A read-only ``np.eye(n)``, built once per size, since every unitarity
    check subtracts one and the synthesis search runs one per evaluation."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def unitarity_defect(m: np.ndarray) -> float:
    """Max-entry deviation of ``m @ m^dag`` from the identity, over a stack too."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m @ np.swapaxes(m, -1, -2).conj() - _identity(m.shape[-1])).max())


def require_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex ndarray, raising ``NotUnitaryError`` if it is
    not square, not finite or off unitary by more than ``UNITARITY_TOL``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotUnitaryError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotUnitaryError(f"{name} has a non-finite entry")
    defect = unitarity_defect(m)
    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
        raise NotUnitaryError(
            f"{name} is not unitary: defect {defect:.3e} > {UNITARITY_TOL:.3e}")
    return m


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b of two 2 x 2 matrices, equal to ``np.kron(a, b)`` bit for bit
    (the same products of the same entries) at a fraction of its overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _mixing_angle(phi: list[float]) -> float:
    """The angle p of :func:`eig_symmetric_unitary` for the eigenphases
    ``phi``: the middle of the widest gap between the pair means
    (phi_j + phi_k) / 2 mod pi on the circle of length pi, the first such gap
    in ascending order of the means on a tie, and 0 for a single phase.

    Plain floats, since for n = 4 the six means cost less this way than
    numpy's array calls do; Python's ``+``, ``/`` and ``%`` on floats are the
    IEEE operations of numpy's ``add``, ``divide`` and ``remainder``.
    """
    n = len(phi)
    means = sorted((phi[j] + phi[k]) / 2 % math.pi for j in range(n) for k in range(j + 1, n))
    if not means:
        return 0.0
    gaps = [b - a for a, b in zip(means, means[1:])] + [means[0] + math.pi - means[-1]]
    widest = max(gaps)
    return means[gaps.index(widest)] + widest / 2


def eig_symmetric_unitary(m: np.ndarray, phases: np.ndarray | None = None):
    """Diagonalize a complex symmetric unitary matrix over a real orthogonal basis.

    For symmetric unitary M the real and imaginary parts commute, so one real
    orthogonal O diagonalizes both:  M = O diag(exp(i phi)) O^T.  A complex
    eigensolver does not return real eigenvectors, and neither part alone
    separates every eigenspace of M, but the real symmetric matrix

        cos p Re M + sin p Im M = O diag(cos(phi - p)) O^T

    does for a suitable angle p, and ``eigh`` of it returns O.  Two of its
    eigenvalues coincide where phi_j = phi_k, where any real basis of the
    shared eigenspace of M is correct, or where p is a pair mean
    (phi_j + phi_k) / 2 mod pi.  So p is the middle of the widest gap between
    the pair means on the circle of length pi, which the phases of the
    complex eigenvalues of M fix: for n = 4 the six means leave a gap of at
    least pi/6, so two eigenvalues of M that differ are split by at least
    2 sin(pi/12) |sin((phi_j - phi_k) / 2)|.

    ``phases`` are the eigenphases of M in any order, when the caller already
    has them; without them one ``np.linalg.eigvals`` of M supplies them.  They
    only pick p: the returned eigenvalues and the off-diagonal check are both
    read off one product O^T M O.

    Returns
    -------
    (w, o) : the eigenvalues as a complex vector and the real orthogonal
        eigenvector matrix with det(o) = +1, in the column order and signs
        that ``eigh`` gave (column 0 negated where det was -1).  A caller that
        needs a canonical order or sign applies it itself.

    Raises ``NotSymmetricError`` when M is not square or is off symmetric by
    more than 1e-10, ``NotUnitaryError`` when it is off unitary by more than
    ``UNITARITY_TOL``, and ``ConvergenceFailureError`` when O^T M O is off
    diagonal, or w off the unit circle, by more than 1e-9.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"matrix must be square, got {m.shape}")
    sym_defect = float(np.abs(m - m.T).max())
    if sym_defect > 1e-10:
        raise NotSymmetricError(f"matrix is not symmetric: defect {sym_defect:.3e}")
    require_unitary(m)

    phi = np.angle(np.linalg.eigvals(m)) if phases is None else np.asarray(phases, dtype=float)
    p = _mixing_angle(phi.tolist())
    o = np.linalg.eigh(np.cos(p) * (m.real + m.real.T) + np.sin(p) * (m.imag + m.imag.T))[1]
    if np.linalg.det(o) < 0:
        o[:, 0] = -o[:, 0]

    d = o.T @ m @ o
    w = d.diagonal().copy()
    np.fill_diagonal(d, 0)
    offdiag = float(np.abs(d).max())
    if offdiag > 1e-9 or float(np.abs(np.abs(w) - 1.0).max()) > 1e-9:
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
    return kron2(haar_su2(rng), haar_su2(rng))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(4) matrix (Ginibre + phase-fixed QR)."""
    z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
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


def euler_from_su2(k: np.ndarray):
    """Angles (a, b, c) with ``su2_from_euler(a, b, c) = ±k / sqrt(det k)``,
    the inverse of :func:`su2_from_euler`, stacked over the leading axes.

    A special unitary k = [[p, -q*], [q, p*]] has p = cos(b/2) exp(-i(a + c)/2)
    and q = sin(b/2) exp(i(a - c)/2).  Where p or q vanishes (b = pi or 0) its
    argument reads 0 and only the other one fixes a and c.
    """
    k = np.asarray(k, dtype=complex)
    k = k / np.sqrt(np.linalg.det(k))[..., None, None]
    p, q = k[..., 0, 0], k[..., 1, 0]
    ap, aq = np.angle(p), np.angle(q)
    return aq - ap, 2 * np.arctan2(np.abs(q), np.abs(p)), -ap - aq


def kron_factor(m: np.ndarray):
    """Factor a 4x4 matrix into phase * a (x) b with det(a) = det(b) = 1.

    The two 2 x 2 determinants are taken in closed form.  Raises
    ``ValueError`` when ``m`` is not a Kronecker product to within 1e-8
    (max-entry residual), and when its largest entry is zero or not finite.
    """
    m = np.asarray(m, dtype=complex)
    idx = int(np.argmax(np.abs(m)))
    i, j = divmod(idx, 4)
    i1, i0 = divmod(i, 2)
    j1, j0 = divmod(j, 2)
    b = m[2 * i1:2 * i1 + 2, 2 * j1:2 * j1 + 2]
    a = m[i0::2, j0::2]
    pivot = m[i, j]
    if pivot == 0 or not np.isfinite(pivot):
        raise ValueError(f"matrix is not a tensor product: pivot {pivot}")
    prod = kron2(a, b) / pivot
    residual = float(np.abs(prod - m).max())
    if not residual <= 1e-8:  # a NaN residual fails too
        raise ValueError(f"matrix is not a tensor product: residual {residual:.3e}")
    # Push determinants into the scalar prefactor so both factors are special.
    root_a = np.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    root_b = np.sqrt(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
    return root_a * root_b / pivot, a / root_a, b / root_b
