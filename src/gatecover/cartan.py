"""Magic-basis machinery for two-qubit gates.

Local invariants, Cartan-coordinate extraction, canonical-gate construction,
the full KAK decomposition U = exp(i a) (k1 x k2) exp(i H(c)/2) (k3 x k4), and
the nonlocal-content vector derived from the eigenvalues of H.  A gate is read
in the magic basis once, into the record of ``_magic_image``, from which its
invariants, chamber point and real factorization are all taken; KAK is the
local map (``_local_map``) onto the canonical gate's closed-form factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .coords import CLASS_TOL, PI, CartanCoord, canonicalize, finite_triple, in_chamber
from .errors import ConstraintViolationError, ConvergenceFailureError, NotInChamberError
from .numerics import XX, YY, ZZ, eig_symmetric_unitary, kron2, kron_factor, require_unitary

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
        inner = kron2(self.k1, self.k2) @ canonical_gate(self.coord) @ kron2(self.k3, self.k4)
        return np.exp(1j * self.global_phase) * inner

    def residual(self, u: np.ndarray) -> float:
        return float(np.abs(self.assemble() - np.asarray(u, dtype=complex)).max())


# The content map: the content of a chamber point x (units of pi) is a = F x / 2,
# the eigenvalues of H(pi x) over 2 pi, sorted on the chamber.  The eigenvalues
# F c of H(c) on the magic-basis columns are its rows in the order _COLUMNS.
CONTENT_MAP = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))
_COLUMNS = [1, 0, 3, 2]


def _content_map(x, div) -> tuple:
    """F x / div: the content with div = 2 for Fractions in units of pi and
    2 pi for radians; the eigenvalues F c of H(c) with div = 1."""
    x1, x2, x3 = x
    return tuple((f1 * x1 + f2 * x2 + f3 * x3) / div for f1, f2, f3 in CONTENT_MAP)


def _content_point(a) -> tuple:
    """The x with F x / 2 = a for a sum-zero a (F^T F = 4 I gives x = F^T a / 2)."""
    return (a[0] + a[1], a[0] + a[2], a[1] + a[2])


def _h_eigenvalues(coord) -> tuple[float, float, float, float]:
    h = _content_map(finite_triple(coord), 1)
    return tuple(h[j] for j in _COLUMNS)


def nonlocal_hamiltonian(coord) -> np.ndarray:
    """H(c) = c1 XX + c2 YY + c3 ZZ for any finite real triple."""
    c1, c2, c3 = finite_triple(coord)
    return c1 * XX + c2 * YY + c3 * ZZ


def canonical_gate(coord) -> np.ndarray:
    """exp(i H(c)/2), exponentiated exactly in the magic eigenbasis."""
    h = np.array(_h_eigenvalues(coord))
    return MAGIC @ np.diag(np.exp(0.5j * h)) @ MAGIC_DAG


def local_invariants(u: np.ndarray) -> LocalInvariants:
    """Makhlin invariants of a two-qubit unitary.

    G1 = tr^2(m) / (16 det U) and G2 = (tr^2(m) - tr(m^2)) / (4 det U) with
    m = (Q^dag U Q)^T (Q^dag U Q); both are invariant under local gates on
    either side and under global phase.  They are read off the magic
    transform, its det and two traces, with no eigenvalue taken.
    """
    return _makhlin(require_unitary(u, name="gate"))[2]


def invariants_from_coord(coord) -> LocalInvariants:
    """Closed-form invariants of the class represented by a chamber point."""
    c1, c2, c3 = finite_triple(coord)
    g1 = (math.cos(c1) * math.cos(c2) * math.cos(c3)
          + 1j * math.sin(c1) * math.sin(c2) * math.sin(c3)) ** 2
    g2 = math.cos(2 * c1) + math.cos(2 * c2) + math.cos(2 * c3)
    return LocalInvariants(g1, g2)


def _chamber_point(w: np.ndarray, invariants: LocalInvariants) -> CartanCoord:
    """Chamber point in closed form from the eigenvalues ``w`` of m(U), sorted
    by phase, guarded by the Makhlin ``invariants`` of U.

    A unitary U gives a unitary m(U), so ``w`` lies on the unit circle up to
    rounding; more than 1e-9 off it raises ``ConvergenceFailureError``.  m(U)
    of the canonical gate at c has eigenvalues exp(i h) with h the sum-zero
    vector of ``_h_eigenvalues``, from which c = (h0 + h1, h1 + h3, h0 + h3)/2
    by the inverse of the content map.  The arguments of ``w`` fix each h_j
    only modulo 2 pi, and the fourth root of det shifts all four by 0 or pi;
    setting h3 = -(h0 + h1 + h2) therefore moves h by a lattice vector, which
    shifts each coordinate by a multiple of pi.  The order of ``w`` is a Weyl-group
    move.  ``canonicalize`` undoes both, so no branch or ordering is searched,
    and no eigenvector is needed: the eigenvalues alone fix the point.  A
    point more than 1e-8 from ``invariants`` raises ``ConvergenceFailureError``.
    """
    off = float(np.abs(np.abs(w) - 1.0).max())
    if off > 1e-9:
        raise ConvergenceFailureError(f"eigenvalues of m(U) off the unit circle by {off:.3e}")
    h = np.angle(w).tolist()
    h[3] = -(h[0] + h[1] + h[2])
    coord = canonicalize(tuple(s / 2 for s in _content_point([h[j] for j in _COLUMNS])))
    miss = invariants_from_coord(coord).distance(invariants)
    if miss > 1e-8:
        raise ConvergenceFailureError(
            f"chamber point {coord} misses the gate invariants by {miss:.3e}")
    return coord


# the 24 orders of four eigenvalues, lexicographic as itertools.permutations,
# whether each is odd (its permutation matrix has det -1), and the two signs
# of c^2 for c in {1, i}
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))
_ODD = [sum(a > b for a, b in itertools.combinations(q, 2)) % 2 == 1 for q in _PERMUTATIONS]
_SIGNS = np.array([[[1.0]], [[-1.0]]])
_I4 = np.eye(4)


@dataclass(frozen=True)
class _MagicImage:
    """A checked unitary ``u`` read in the magic basis: its Makhlin
    ``invariants``, the det-normalized image ``um``, m(U) = um^T um, the
    eigenvalues ``w`` of m(U) sorted by phase, and the chamber point
    ``coord`` they give.  :func:`_magic_image` builds it."""

    u: np.ndarray
    invariants: LocalInvariants
    um: np.ndarray
    m: np.ndarray
    w: np.ndarray
    coord: CartanCoord

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """um = o1 diag(f) o2^T as ``(o1, f, o2, f**2)``, o2 the real eigenbasis of
        m(U) with det o2 = +1 from
        :func:`~gatecover.numerics.eig_symmetric_unitary`, given the phases of
        ``w``: one ``eigh``, in its own column order and signs, for the local map
        matches columns by order and sign itself.  x = um o2 has x^T x =
        diag(f**2), so o1 = x diag(f)^-1 is orthogonal and unitary, hence real
        (more than 1e-7 off raises ``ConvergenceFailureError``)."""
        o2 = eig_symmetric_unitary(self.m, np.angle(self.w))[1]
        x = self.um @ o2
        e = np.sum(x * x, axis=0)
        f = np.sqrt(e)
        o1 = x * f.conj()
        if float(np.abs(o1.imag).max()) > 1e-7:
            raise ConvergenceFailureError("magic image has no real factorization")
        return o1.real, f, o2, e

    def kak(self) -> KakDecomposition:
        """The local map of ``u`` onto the canonical gate of ``coord``, whose magic
        image diag(exp(i h/2)) has the factors (I, exp(i h/2), I, exp(i h)), with
        the phase and a residual check (above 1e-8 raises
        ``ConvergenceFailureError``) on the one assembled product, whose canonical
        gate is built from the exp(i h/2) already in hand."""
        h = np.array(_h_eigenvalues(self.coord))
        eh = np.exp(0.5j * h)
        (k1, k2), (k3, k4) = _local_map(self.factors, (_I4, eh, _I4, np.exp(1j * h)))
        base = kron2(k1, k2) @ ((MAGIC * eh) @ MAGIC_DAG) @ kron2(k3, k4)
        alpha = float(np.angle(np.trace(base.conj().T @ self.u)))
        residual = float(np.abs(np.exp(1j * alpha) * base - self.u).max())
        if not residual <= 1e-8:  # a NaN fails too
            raise ConvergenceFailureError(f"KAK reconstruction residual {residual:.3e}")
        return KakDecomposition(alpha, k1, k2, k3, k4, self.coord)


def _local_map(v, w):
    """``((k1, k2), (k3, k4))`` with V = phase (k1 x k2) W (k3 x k4) for gates V, W
    of one class, from real factors ``(o1, f, o2, f**2)`` with det o2 = 1 on both
    sides (Kraus and Cirac, PRA 63, 062309).

    An order p of W's columns, c in {1, i} and signs s with f_w[p] = c s f_v
    give um_v = L1 um_w L3 / c for the real L1 = o1_v diag(s) o1_w[:, p]^T and
    L3 = o2_w[:, p] o2_v^T, whatever bases degenerate spectra got: no gauge is
    searched, and neither the column signs nor the column order of the factors
    need any normalization.  p and c minimize max |f_w[p]^2 - c^2 f_v^2|, with
    no cutoff.  det L3 = det p, so for an odd p flipping column 0 of both of V's
    factors keeps um_v and makes det L3 = 1.  Both locals go to the
    computational basis in one stacked product.  An L1 or L3 that is not local
    raises ``ConvergenceFailureError``."""
    o1v, fv, o2v, ev = v
    o1w, fw, o2w, ew = w
    err = np.abs(ew[_PERMUTATIONS] - _SIGNS * ev).max(axis=-1)
    c, p = divmod(int(np.argmin(err)), len(_PERMUTATIONS))
    q = _PERMUTATIONS[p]
    fp, cf, o2p = fw[q], (1.0, 1j)[c] * fv, o2w[:, q]
    o1p = o1v * np.where(np.abs(fp - cf) <= np.abs(fp + cf), 1.0, -1.0)
    if _ODD[p]:
        o1p[:, 0], o2p[:, 0] = -o1p[:, 0], -o2p[:, 0]
    real = np.empty((2, 4, 4))
    np.matmul(o1p, o1w[:, q].T, out=real[0])
    np.matmul(o2p, o2v.T, out=real[1])
    l1, l3 = MAGIC @ real @ MAGIC_DAG
    try:
        return kron_factor(l1)[1:], kron_factor(l3)[1:]
    except ValueError as exc:
        raise ConvergenceFailureError(f"local map failed: {exc}") from None


def _makhlin(u: np.ndarray) -> tuple[np.ndarray, complex, LocalInvariants]:
    """The magic transform um of a gate already checked to be unitary, its det,
    and the Makhlin invariants (see :func:`local_invariants`) read off the two
    and the traces of m = um^T um.  A G2 with an imaginary part above 1e-9
    raises ``ConvergenceFailureError``."""
    um = MAGIC_DAG @ u @ MAGIC
    det = np.linalg.det(um)
    m = um.T @ um
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4 * det)
    if abs(g2.imag) > 1e-9:
        raise ConvergenceFailureError(f"G2 acquired an imaginary part {g2.imag:.3e}")
    return um, det, LocalInvariants(complex(g1), float(g2.real))


def _magic_image(u: np.ndarray) -> _MagicImage:
    """The :class:`_MagicImage` of a gate already checked to be unitary, from
    one magic transform, one ``det`` and one ``eigvals``.

    The Makhlin invariants are those of :func:`_makhlin`, read before the det
    is divided out; the chamber point is that of :func:`_chamber_point`.
    """
    um, det, invariants = _makhlin(u)
    um = um / det ** 0.25
    m = um.T @ um
    w = np.linalg.eigvals(m)
    w = w[np.argsort(np.angle(w), kind="stable")]
    return _MagicImage(u, invariants, um, m, w, _chamber_point(w, invariants))


def cartan_coordinates(u: np.ndarray) -> CartanCoord:
    """Chamber representative of the local-equivalence class of ``u``.

    Reads the chamber point off the arguments of the eigenvalues of m(U) in
    the magic basis in closed form (see ``_chamber_point``), from one
    ``eigvals`` and no eigenbasis.  A non-unitary ``u`` raises
    ``NotUnitaryError``; eigenvalues off the unit circle, or a point that
    misses the Makhlin invariants of ``u``, raise ``ConvergenceFailureError``.
    """
    return _magic_image(require_unitary(u, name="gate")).coord


def kak_decompose(u: np.ndarray) -> KakDecomposition:
    """Full KAK decomposition with the nonlocal factor in canonical form.

    The chamber point is that of :func:`cartan_coordinates`; the locals are
    the local map of ``u`` onto its canonical gate, from one ``eigh`` of m(U)
    and the canonical gate's closed-form factors, with no gauge searched.  A
    failed map or a reconstruction residual above 1e-8 raises
    ``ConvergenceFailureError``.
    """
    return _magic_image(require_unitary(u, name="gate")).kak()


def nonlocal_content(coord) -> NonlocalContent:
    """Content vector (h2, h1, h4, h3)/2pi of a chamber point.

    The chamber ordering makes the vector weakly decreasing with span at most
    one; exactness of the coordinate is preserved.  A ``CartanCoord`` more
    than ``CLASS_TOL`` off the chamber raises ``NotInChamberError``; any other
    triple is canonicalized first.
    """
    if not isinstance(coord, CartanCoord):
        coord = canonicalize(coord)
    elif not in_chamber(coord, CLASS_TOL):
        raise NotInChamberError(f"coordinate {tuple(coord)} is not in the Weyl chamber")
    if coord.frac is not None:
        return NonlocalContent(*_content_map(coord.frac, 2))
    return NonlocalContent(*_content_map(coord.astuple(), 2 * PI))


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
    return _content_point(content.astuple())


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
