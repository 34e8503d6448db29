"""Magic-basis machinery for two-qubit gates.

Local invariants, Cartan-coordinate extraction, canonical-gate construction,
the full KAK decomposition U = exp(i a) (k1 x k2) exp(i H(c)/2) (k3 x k4), and
the nonlocal-content vector derived from the eigenvalues of H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coords import PI, CartanCoord, canonicalize, require_in_chamber
from .errors import ConstraintViolationError, ConvergenceFailureError
from .numerics import (DEFAULT_POLICY, TolerancePolicy, XX, YY, ZZ,
                       eig_symmetric_unitary, kron_factor, require_unitary)

# Bell-type "magic" basis.  Columns are the eigenvectors of every H(c1,c2,c3):
# (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2.
MAGIC = np.array([[1, 0, 0, 1j],
                  [0, 1j, 1, 0],
                  [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2)
MAGIC_DAG = MAGIC.conj().T


def magic_basis() -> np.ndarray:
    """The 4x4 unitary whose columns are the Bell-type eigenbasis vectors."""
    return MAGIC.copy()


@dataclass(frozen=True)
class LocalInvariants:
    """The pair (G1, G2) labelling a local-equivalence class."""

    g1: complex
    g2: float

    def astuple(self):
        return (self.g1, self.g2)

    def distance(self, other: "LocalInvariants") -> float:
        return math.sqrt(abs(self.g1 - other.g1) ** 2 + (self.g2 - other.g2) ** 2)


@dataclass(frozen=True)
class NonlocalContent:
    """Sorted, sum-zero vector of H eigenvalues in cycles (eigenvalue / 2 pi).

    Entries are exact ``Fraction`` values when derived from an exact
    coordinate, plain floats otherwise.
    """

    a1: Fraction | float
    a2: Fraction | float
    a3: Fraction | float
    a4: Fraction | float

    def __post_init__(self):
        a = self.astuple()
        exact = all(isinstance(x, Fraction) for x in a)
        tol = 0 if exact else 1e-12
        if not (a[0] >= a[1] - tol and a[1] >= a[2] - tol and a[2] >= a[3] - tol):
            raise ConstraintViolationError(f"content not sorted: {a}")
        if a[0] - a[3] > 1 + tol:
            raise ConstraintViolationError(f"content span exceeds 1: {a}")
        if abs(sum(a)) > (0 if exact else 1e-12):
            raise ConstraintViolationError(f"content does not sum to zero: {a}")

    def astuple(self):
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, Fraction) for x in self.astuple())


@dataclass(frozen=True)
class KakDecomposition:
    """U = exp(i global_phase) (k1 x k2) exp(i H(coord)/2) (k3 x k4)."""

    global_phase: float
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    k4: np.ndarray
    coord: CartanCoord

    def assemble(self) -> np.ndarray:
        inner = np.kron(self.k1, self.k2) @ canonical_gate(self.coord) @ np.kron(self.k3, self.k4)
        return np.exp(1j * self.global_phase) * inner

    def residual(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(self.assemble() - np.asarray(u, dtype=complex))))


def _triple(coord) -> tuple[float, float, float]:
    if isinstance(coord, CartanCoord):
        return coord.astuple()
    c1, c2, c3 = (float(x) for x in coord)
    return (c1, c2, c3)


def _h_eigenvalues(coord) -> tuple[float, float, float, float]:
    # eigenvalues of H on the magic-basis columns, in column order
    c1, c2, c3 = _triple(coord)
    return (c1 - c2 + c3, c1 + c2 - c3, -c1 - c2 - c3, -c1 + c2 + c3)


def nonlocal_hamiltonian(coord) -> np.ndarray:
    """H(c) = c1 XX + c2 YY + c3 ZZ for any real triple."""
    c1, c2, c3 = _triple(coord)
    return c1 * XX + c2 * YY + c3 * ZZ


def canonical_gate(coord) -> np.ndarray:
    """exp(i H(c)/2), exponentiated exactly in the magic eigenbasis."""
    h = np.array(_h_eigenvalues(coord))
    return MAGIC @ np.diag(np.exp(0.5j * h)) @ MAGIC_DAG


def local_invariants(u: np.ndarray, policy: TolerancePolicy = DEFAULT_POLICY) -> LocalInvariants:
    """Makhlin invariants of a two-qubit unitary.

    G1 = tr^2(m) / (16 det U) and G2 = (tr^2(m) - tr(m^2)) / (4 det U) with
    m = (Q^dag U Q)^T (Q^dag U Q); both are invariant under local gates on
    either side and under global phase.
    """
    return _makhlin(require_unitary(u, policy.unitarity_tol, "gate"))


def _makhlin(u: np.ndarray) -> LocalInvariants:
    # local_invariants of a gate already checked to be unitary
    um = MAGIC_DAG @ u @ MAGIC
    det = np.linalg.det(um)
    m = um.T @ um
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4 * det)
    if abs(g2.imag) > 1e-9:
        raise ConvergenceFailureError(f"G2 acquired an imaginary part {g2.imag:.3e}")
    return LocalInvariants(complex(g1), float(g2.real))


def invariants_from_coord(coord) -> LocalInvariants:
    """Closed-form invariants of the class represented by a chamber point."""
    c1, c2, c3 = _triple(coord)
    g1 = (math.cos(c1) * math.cos(c2) * math.cos(c3)
          + 1j * math.sin(c1) * math.sin(c2) * math.sin(c3)) ** 2
    g2 = math.cos(2 * c1) + math.cos(2 * c2) + math.cos(2 * c3)
    return LocalInvariants(g1, g2)


def _magic_eigensystem(u: np.ndarray):
    """``(um, w, o)``: the det-normalized gate in the magic basis and the
    eigenvalues and real orthogonal eigenbasis of m(U) = um^T um."""
    um = MAGIC_DAG @ u @ MAGIC
    um = um / np.linalg.det(um) ** 0.25
    w, o = eig_symmetric_unitary(um.T @ um)
    return um, w, o


def _chamber_point(u: np.ndarray, w: np.ndarray) -> CartanCoord:
    """Chamber point of ``u`` in closed form from the eigenvalues ``w`` of m(U).

    m(U) of the canonical gate at c has eigenvalues exp(i h) with h the sum-zero
    vector of ``_h_eigenvalues``, from which c1 = (h0 + h1)/2, c2 = (h1 + h3)/2
    and c3 = (h0 + h3)/2.  The arguments of ``w`` fix each h_j only modulo 2 pi,
    and the fourth root of det shifts all four by 0 or pi; setting
    h3 = -(h0 + h1 + h2) therefore moves h by a lattice vector, which shifts
    each coordinate by a multiple of pi.  The order of ``w`` is a Weyl-group
    move.  ``canonicalize`` undoes both, so no branch or ordering is searched.
    The Makhlin invariants of ``u`` guard the result.
    """
    h = np.angle(w)
    h[3] = -(h[0] + h[1] + h[2])
    coord = canonicalize(((h[0] + h[1]) / 2, (h[1] + h[3]) / 2, (h[0] + h[3]) / 2))
    miss = invariants_from_coord(coord).distance(_makhlin(u))
    if miss > 1e-8:
        raise ConvergenceFailureError(
            f"chamber point {coord} misses the gate invariants by {miss:.3e}")
    return coord


def cartan_coordinates(u: np.ndarray, policy: TolerancePolicy = DEFAULT_POLICY) -> CartanCoord:
    """Chamber representative of the local-equivalence class of ``u``.

    Diagonalizes m(U) in the magic basis and reads the chamber point off the
    eigenvalue arguments in closed form (see ``_chamber_point``); a mismatch
    with the Makhlin invariants of ``u`` raises ``ConvergenceFailureError``.
    """
    u = require_unitary(u, policy.unitarity_tol, "gate")
    _, w, _ = _magic_eigensystem(u)
    return _chamber_point(u, w)


def _match_eigenvalues(w: np.ndarray, target: np.ndarray, tol: float = 1e-6):
    """Permutation p with w[p[j]] ~ target[j], or None."""
    best = None
    for perm in itertools.permutations(range(4)):
        err = max(abs(w[perm[j]] - target[j]) for j in range(4))
        if err <= tol and (best is None or err < best[0]):
            best = (err, perm)
    return None if best is None else best[1]


def kak_decompose(u: np.ndarray, policy: TolerancePolicy = DEFAULT_POLICY) -> KakDecomposition:
    """Full KAK decomposition with the nonlocal factor in canonical form.

    The left/right local factors come from the real orthogonal eigenbasis of
    m(U); the finite gauge freedom (eigenvalue pairing, the sign of the
    residual phase, determinant signs) is resolved by exhaustive matching
    followed by a reconstruction check.  The matching is not a coordinate
    search: ``_chamber_point`` fixes the point, but the eigenbasis comes in
    phase order and canonicalization moved h by a Weyl-group element, so the
    eigenbasis columns must still be mapped onto the canonical point's magic
    columns.
    """
    u = require_unitary(u, policy.unitarity_tol, "gate")
    um, w, o2 = _magic_eigensystem(u)
    return _kak_from_eigensystem(u, um, w, o2, _chamber_point(u, w))


def _kak_from_eigensystem(u: np.ndarray, um: np.ndarray, w: np.ndarray, o2: np.ndarray,
                          coord: CartanCoord) -> KakDecomposition:
    """The local factors of :func:`kak_decompose`, given the magic eigensystem
    ``(um, w, o2)`` of the unitary ``u`` and its chamber point."""
    h = np.array(_h_eigenvalues(coord))

    for sigma in (1.0, -1.0):
        target = sigma * np.exp(1j * h)
        perm = _match_eigenvalues(w, target)
        if perm is None:
            continue
        o2p = o2[:, list(perm)]
        w_p = w[list(perm)]
        # Exact square roots of the measured eigenvalues, on the branch closest
        # to the canonical-form phases; keeps the left factor real.
        s = 1.0 if sigma > 0 else 1j
        f = np.empty(4, dtype=complex)
        for j in range(4):
            root = np.sqrt(w_p[j])
            tgt = s * np.exp(0.5j * h[j])
            f[j] = root if abs(root - tgt) <= abs(-root - tgt) else -root
        o1 = um @ o2p @ np.diag(f.conj())
        if float(np.max(np.abs(o1.imag))) > 1e-7:
            continue
        o1 = o1.real
        if np.linalg.det(o2p) < 0:
            o2p = o2p.copy()
            o2p[:, 0] = -o2p[:, 0]
            o1[:, 0] = -o1[:, 0]

        left = MAGIC @ o1 @ MAGIC_DAG
        right = MAGIC @ o2p.T @ MAGIC_DAG
        try:
            _, k1, k2 = kron_factor(left, tol=1e-8)
            _, k3, k4 = kron_factor(right, tol=1e-8)
        except ValueError:
            continue

        base = np.kron(k1, k2) @ canonical_gate(coord) @ np.kron(k3, k4)
        tr = np.trace(base.conj().T @ u)
        alpha = float(np.angle(tr))
        dec = KakDecomposition(alpha, k1, k2, k3, k4, coord)
        if dec.residual(u) <= 1e-8:
            return dec
    raise ConvergenceFailureError("KAK gauge resolution failed")


def nonlocal_content(coord, policy: TolerancePolicy = DEFAULT_POLICY) -> NonlocalContent:
    """Content vector (h2, h1, h4, h3)/2pi of a chamber point.

    The chamber ordering makes the vector weakly decreasing with span at most
    one; exactness of the coordinate is preserved.
    """
    if not isinstance(coord, CartanCoord):
        coord = canonicalize(coord)
    require_in_chamber(coord, max(policy.coord_tol, 1e-9))
    if coord.frac is not None:
        x1, x2, x3 = coord.frac
        half = Fraction(1, 2)
        return NonlocalContent((x1 + x2 - x3) * half, (x1 - x2 + x3) * half,
                               (-x1 + x2 + x3) * half, -(x1 + x2 + x3) * half)
    c1, c2, c3 = coord.astuple()
    two_pi = 2 * PI
    return NonlocalContent((c1 + c2 - c3) / two_pi, (c1 - c2 + c3) / two_pi,
                           (-c1 + c2 + c3) / two_pi, -(c1 + c2 + c3) / two_pi)


def negate_content(content: NonlocalContent) -> NonlocalContent:
    """Content of -U given the content of U; an involution.

    Corresponds to the coordinate move (c1, c2, c3) -> (pi - c1, c2, -c3).
    """
    a1, a2, a3, a4 = content.astuple()
    half = Fraction(1, 2) if content.is_exact else 0.5
    return NonlocalContent(a3 + half, a4 + half, a1 - half, a2 - half)


def content_to_triple(content: NonlocalContent):
    """Inverse of the content map: raw (c1, c2, c3) in units of pi.

    May land outside the chamber (negated contents do); canonicalize to
    compare classes.
    """
    a1, a2, a3, _ = content.astuple()
    return (a1 + a2, a1 + a3, a2 + a3)


# Reference gates in the computational basis |00>, |01>, |10>, |11>.
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

# the square root of SWAP whose class sits at (pi/4, pi/4, pi/4);
# the other root (singlet eigenvalue +i) lands at the dagger class (3pi/4, ...)
SQRT_SWAP = np.array([[1, 0, 0, 0],
                      [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
                      [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                      [0, 0, 0, 1]], dtype=complex)

ISWAP = np.array([[1, 0, 0, 0],
                  [0, 0, 1j, 0],
                  [0, 1j, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)

DCNOT = SWAP @ CNOT


def b_gate() -> np.ndarray:
    """Canonical representative of the class at (pi/2, pi/4, 0)."""
    return canonical_gate((PI / 2, PI / 4, 0.0))
