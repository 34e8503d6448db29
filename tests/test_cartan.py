import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecover import cartan
from gatecover.cartan import (CNOT, DCNOT, ISWAP, MAGIC, MAGIC_DAG, SQRT_SWAP, SWAP,
                              _chamber_point, _h_eigenvalues, _magic_image, b_gate,
                              canonical_gate, cartan_coordinates,
                              content_to_triple, invariants_from_coord,
                              kak_decompose, local_invariants, magic_basis,
                              negate_content, nonlocal_content,
                              nonlocal_hamiltonian)
from gatecover.coords import (B_CLASS, CNOT_CLASS, DCNOT_CLASS, SQRT_SWAP_CLASS,
                              SWAP_CLASS, CartanCoord, class_equal, coord_distance,
                              random_chamber_point)
from gatecover.errors import (ConstraintViolationError, ConvergenceFailureError,
                              NotInChamberError, NotUnitaryError)
from gatecover.numerics import (eig_symmetric_unitary, haar_su2_pair, haar_unitary,
                                unitarity_defect)

PI = math.pi


# ---------------------------------------------------------------- magic basis

def test_magic_basis_columns_are_bell_vectors():
    q = magic_basis()
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(q[:, 0], [s, 0, 0, s], atol=1e-15)
    np.testing.assert_allclose(q[:, 1], [0, 1j * s, 1j * s, 0], atol=1e-15)
    np.testing.assert_allclose(q[:, 2], [0, s, -s, 0], atol=1e-15)
    np.testing.assert_allclose(q[:, 3], [1j * s, 0, 0, -1j * s], atol=1e-15)


def test_magic_basis_unitary():
    q = magic_basis()
    np.testing.assert_allclose(q @ q.conj().T, np.eye(4), atol=1e-15)


def test_magic_transpose_product_is_permutation_phase():
    # direct multiplication: exactly one unit-modulus entry per row and column
    q = magic_basis()
    m = q.T @ q
    mags = np.abs(m)
    assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-15)
    assert np.all(np.sum(mags > 1e-12, axis=0) == 1)
    assert np.all(np.sum(mags > 1e-12, axis=1) == 1)


# ------------------------------------------------------- nonlocal hamiltonian

def test_hamiltonian_zero():
    np.testing.assert_allclose(nonlocal_hamiltonian((0, 0, 0)), np.zeros((4, 4)))


def test_hamiltonian_eigenpair_on_second_bell_vector():
    # eigenvalue c1 + c2 - c3 on the i(|01>+|10>)/sqrt2 column
    h = nonlocal_hamiltonian((PI / 2, PI / 4, 0))
    psi2 = magic_basis()[:, 1]
    np.testing.assert_allclose(h @ psi2, (3 * PI / 4) * psi2, atol=1e-12)


def test_hamiltonian_eigenpairs_random(rng):
    triple = rng.uniform(-1, 1, 3)
    h = nonlocal_hamiltonian(triple)
    c1, c2, c3 = triple
    evs = (c1 - c2 + c3, c1 + c2 - c3, -c1 - c2 - c3, -c1 + c2 + c3)
    q = magic_basis()
    for j, ev in enumerate(evs):
        assert np.max(np.abs(h @ q[:, j] - ev * q[:, j])) <= 1e-13


def test_hamiltonian_hermitian(rng):
    h = nonlocal_hamiltonian(rng.uniform(-2, 2, 3))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


# ------------------------------------------------------------- canonical gate

def test_canonical_identity():
    np.testing.assert_allclose(canonical_gate((0, 0, 0)), np.eye(4), atol=1e-15)


def test_canonical_gate_matches_exact_exponential(rng):
    # oracle: eigen-decomposed exponential vs a Taylor/Pade-free series sum
    triple = rng.uniform(-1, 1, 3)
    h = nonlocal_hamiltonian(triple)
    series = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        series += term
        term = term @ (0.5j * h) / k
    np.testing.assert_allclose(canonical_gate(triple), series, atol=1e-12)


def test_canonical_cnot_class_invariants():
    # oracle: evaluate the invariants on the CNOT matrix itself
    g_cnot = local_invariants(CNOT)
    g_can = local_invariants(canonical_gate((PI / 2, 0, 0)))
    assert abs(g_cnot.g1 - g_can.g1) < 1e-12
    assert abs(g_cnot.g2 - g_can.g2) < 1e-12
    assert abs(g_cnot.g1) < 1e-12
    assert abs(g_cnot.g2 - 1.0) < 1e-12


def test_canonical_b_class_round_trip():
    coord = cartan_coordinates(canonical_gate((PI / 2, PI / 4, 0)))
    assert class_equal(coord, B_CLASS)


# ------------------------------------------------------------ invariants

def test_invariants_identity():
    g = local_invariants(np.eye(4))
    assert abs(g.g1 - 1.0) < 1e-12 and abs(g.g2 - 3.0) < 1e-12


def test_invariants_swap_dual_path():
    g_swap = local_invariants(SWAP)
    g_can = local_invariants(canonical_gate((PI / 2, PI / 2, PI / 2)))
    assert abs(g_swap.g1 - g_can.g1) < 1e-12
    assert abs(g_swap.g2 - g_can.g2) < 1e-12
    assert abs(g_swap.g1 + 1.0) < 1e-12 and abs(g_swap.g2 + 3.0) < 1e-12


def test_invariants_require_unitary():
    with pytest.raises(NotUnitaryError):
        local_invariants(np.ones((4, 4)))


def test_invariants_local_and_phase_invariance(rng):
    for _ in range(1000):
        u = haar_unitary(rng)
        g0 = local_invariants(u)
        v = (np.exp(1j * rng.uniform(0, 2 * PI))
             * haar_su2_pair(rng) @ u @ haar_su2_pair(rng))
        g1 = local_invariants(v)
        assert g0.distance(g1) <= 1e-10


def test_closed_form_invariants_match_matrix_route(rng):
    for _ in range(100):
        c = random_chamber_point(rng)
        g_closed = invariants_from_coord(c)
        g_matrix = local_invariants(canonical_gate(c))
        assert g_closed.distance(g_matrix) < 1e-11


@pytest.mark.parametrize("build", [canonical_gate, nonlocal_hamiltonian, invariants_from_coord])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_coordinate_layer_refuses_a_non_finite_entry(build, value, slot):
    raw = [0.0, 0.0, 0.0]
    raw[slot] = value
    for coord in (tuple(raw), CartanCoord(*raw)):
        with pytest.raises(NotInChamberError, match="is not finite"):
            build(coord)


# ------------------------------------------------------------ coordinates

def test_coordinates_of_named_gates():
    assert class_equal(cartan_coordinates(CNOT), CNOT_CLASS)
    assert class_equal(cartan_coordinates(SWAP), SWAP_CLASS)
    assert class_equal(cartan_coordinates(SWAP @ CNOT), DCNOT_CLASS)
    assert class_equal(cartan_coordinates(SQRT_SWAP), SQRT_SWAP_CLASS)
    assert class_equal(cartan_coordinates(ISWAP), DCNOT_CLASS)
    assert class_equal(cartan_coordinates(DCNOT), DCNOT_CLASS)
    assert class_equal(cartan_coordinates(b_gate()), B_CLASS)


def test_coordinates_dressing_invariance(rng):
    # round trip through random local dressing and global phase
    for _ in range(50):
        c = random_chamber_point(rng)
        u = (np.exp(1j * rng.uniform(0, 2 * PI))
             * haar_su2_pair(rng) @ canonical_gate(c) @ haar_su2_pair(rng))
        assert class_equal(cartan_coordinates(u), c, 1e-8)


def test_coordinates_round_trip(rng):
    for _ in range(300):
        c = random_chamber_point(rng)
        assert class_equal(cartan_coordinates(canonical_gate(c)), c, 1e-9)


def test_coordinates_idempotent_on_canonical():
    for coord in (CNOT_CLASS, B_CLASS, SWAP_CLASS, SQRT_SWAP_CLASS):
        got = cartan_coordinates(canonical_gate(coord))
        assert class_equal(got, coord, 1e-10)


def test_chamber_point_guard_rejects_eigenvalues_of_another_gate(rng):
    # the closed form trusts the eigenvalues; the invariants of the gate guard it
    for u, v in ((CNOT, SWAP), (b_gate(), CNOT), (haar_unitary(rng), haar_unitary(rng))):
        w = _magic_image(v).w
        assert class_equal(_chamber_point(w, local_invariants(v)), cartan_coordinates(v))
        with pytest.raises(ConvergenceFailureError, match="misses the gate invariants"):
            _chamber_point(w, local_invariants(u))


def _eigenbasis_chamber_point(u):
    """The chamber point read off the eigenbasis, diag(O^T m(U) O), as
    cartan_coordinates computed it before it needed only the eigenvalues."""
    um = MAGIC_DAG @ u @ MAGIC
    um = um / np.linalg.det(um) ** 0.25
    w = eig_symmetric_unitary(um.T @ um)[0]
    return _chamber_point(w[np.argsort(np.angle(w), kind="stable")], local_invariants(u))


def test_eigenvalue_point_equals_the_eigenbasis_point_on_hard_spectra(rng):
    # repeated eigenvalues of m(U), the pair of DCNOT at -1 on the phase cut,
    # c3 = 0 twins, and two eigenvalues of m(U) 1e-12 to 1e-6 apart (h1 - h2
    # = 2 (c1 - c2), h0 - h1 = 2 (c2 - c3))
    gates = [DCNOT, CNOT, SWAP, np.eye(4, dtype=complex), b_gate(), ISWAP]
    twins = [(F(1, 3), F(1, 5), 0), (F(2, 3), F(1, 5), 0), (F(1, 8), 0, 0), (F(7, 8), 0, 0)]
    gates += [canonical_gate(CartanCoord.exact(*c)) for c in twins]
    for gap in (1e-12, 1e-10, 1e-8, 1e-6):
        gates += [canonical_gate((PI / 3 + gap / 2, PI / 3, PI / 7)),
                  canonical_gate((PI / 3, PI / 7 + gap / 2, PI / 7)),
                  canonical_gate((PI / 2 + gap / 2, PI / 2, 0.0))]
    gates += [haar_su2_pair(rng) @ g @ haar_su2_pair(rng) for g in gates for _ in range(20)]
    for g in gates:
        got, ref = cartan_coordinates(g), _eigenbasis_chamber_point(g)
        assert class_equal(got, ref)
        assert coord_distance(got, ref) <= 4e-15
        assert kak_decompose(g).residual(g) <= 1e-8


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_coordinates_need_one_eigvals_and_kak_one_eigh(monkeypatch, rng):
    eigvals = _count_calls(monkeypatch, np.linalg, "eigvals")
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    det = _count_calls(monkeypatch, np.linalg, "det")
    eigensystem = _count_calls(monkeypatch, cartan, "eig_symmetric_unitary")
    for u in (haar_unitary(rng), b_gate() @ haar_su2_pair(rng) @ b_gate(), DCNOT):
        cartan_coordinates(u)
        # one det serves both the invariants of the guard and the normalization
        assert (len(eigvals), len(eigh), len(eigensystem), len(det)) == (1, 0, 0, 1)
        kak_decompose(u)
        # KAK adds the det of its eigenbasis only: the local map reads the sign
        # of its permutation and kron_factor takes its 2 x 2 dets in closed form
        assert (len(eigvals), len(eigh), len(eigensystem), len(det)) == (2, 1, 1, 3)
        for calls in (eigvals, eigh, det, eigensystem):
            calls.clear()


def test_local_invariants_take_no_eigenvalues(monkeypatch, rng):
    gates = [haar_unitary(rng), CNOT, DCNOT, SWAP, np.eye(4, dtype=complex),
             b_gate() @ haar_su2_pair(rng) @ b_gate()]
    images = [_magic_image(u).invariants for u in gates]
    eigvals = _count_calls(monkeypatch, np.linalg, "eigvals")
    for u, image in zip(gates, images):
        got = local_invariants(u)
        assert len(eigvals) == 0
        # the same arithmetic as the magic image's, so the same bits
        assert repr(got.astuple()) == repr(image.astuple())


# ------------------------------------------------------------ KAK

def test_kak_canonical_input():
    dec = kak_decompose(canonical_gate(B_CLASS))
    assert class_equal(dec.coord, B_CLASS)
    assert dec.residual(canonical_gate(B_CLASS)) <= 1e-8


# dressed gates whose m(U) has a repeated spectrum, and classes on the c3 = 0
# face that have a twin, (c1, c2, 0) ~ (pi - c1, c2, 0), reached from either side
_HARD_KAK = {"identity": np.eye(4, dtype=complex), "cnot": CNOT, "dcnot": DCNOT,
             "swap": SWAP, "b": b_gate(),
             "twin_near": canonical_gate(CartanCoord.exact(F(1, 3), F(1, 5), 0)),
             "twin_far": canonical_gate(CartanCoord.exact(F(2, 3), F(1, 5), 0)),
             "axis_near": canonical_gate(CartanCoord.exact(F(1, 8), 0, 0)),
             "axis_far": canonical_gate((7 * PI / 8, 0.0, 0.0))}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(sorted(_HARD_KAK) + ["haar"]), st.integers(0, 2 ** 32 - 1),
       st.floats(0, 2 * PI))
def test_kak_reassembles_hard_spectra(name, seed, phase):
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng) if name == "haar" else (
        np.exp(1j * phase) * haar_su2_pair(rng) @ _HARD_KAK[name] @ haar_su2_pair(rng))
    dec = kak_decompose(u)
    assert dec.residual(u) <= 1e-8
    for k in (dec.k1, dec.k2, dec.k3, dec.k4):
        assert abs(np.linalg.det(k) - 1.0) <= 1e-12
        assert unitarity_defect(k) <= 1e-12
    coord = cartan_coordinates(u)
    assert np.array(dec.coord.astuple()).tobytes() == np.array(coord.astuple()).tobytes()
    assert dec.coord.frac == coord.frac


def test_kak_haar(rng):
    for _ in range(100):
        u = haar_unitary(rng)
        dec = kak_decompose(u)
        assert dec.residual(u) <= 1e-8
        for k in (dec.k1, dec.k2, dec.k3, dec.k4):
            assert abs(np.linalg.det(k) - 1.0) < 1e-9
        assert class_equal(dec.coord, cartan_coordinates(u))


def test_kak_cnot_reassembly():
    dec = kak_decompose(CNOT)
    assert class_equal(dec.coord, CNOT_CLASS)
    assert dec.residual(CNOT) <= 1e-8


# ------------------------------------------------------------ content

def test_content_b_class():
    # oracle: eigenvalues of H(B)/2pi sorted descending
    h = nonlocal_hamiltonian(B_CLASS)
    evs = sorted(np.linalg.eigvalsh(h) / (2 * PI), reverse=True)
    content = nonlocal_content(B_CLASS)
    np.testing.assert_allclose([float(a) for a in content.astuple()], evs, atol=1e-12)
    assert content.astuple() == (F(3, 8), F(1, 8), F(-1, 8), F(-3, 8))


def test_content_identity_and_swap():
    assert nonlocal_content(CartanCoord.exact(0, 0, 0)).astuple() == (0, 0, 0, 0)
    swap = nonlocal_content(SWAP_CLASS)
    assert swap.astuple() == (F(1, 4), F(1, 4), F(1, 4), F(-3, 4))
    assert swap.a1 - swap.a4 == 1  # span boundary


def test_content_rejects_outside_chamber():
    with pytest.raises(NotInChamberError):
        nonlocal_content(CartanCoord(2.0, 1.9, 1.8))


def test_negate_content_fixed_point_and_involution(rng):
    b = nonlocal_content(B_CLASS)
    assert negate_content(b).astuple() == b.astuple()
    zero = nonlocal_content(CartanCoord.exact(0, 0, 0))
    assert negate_content(zero).astuple() == (F(1, 2), F(1, 2), F(-1, 2), F(-1, 2))
    for _ in range(100):
        v = nonlocal_content(random_chamber_point(rng))
        w = negate_content(negate_content(v))
        np.testing.assert_allclose([float(x) for x in w.astuple()],
                                   [float(x) for x in v.astuple()], atol=1e-12)


def test_content_coordinate_bijection(rng):
    for _ in range(100):
        c = random_chamber_point(rng)
        v = nonlocal_content(c)
        triple = content_to_triple(v)
        np.testing.assert_allclose([float(t) * PI for t in triple], c.astuple(),
                                   atol=1e-12)


def test_content_constraint_validation():
    from gatecover.cartan import NonlocalContent
    with pytest.raises(ConstraintViolationError):
        NonlocalContent(0.1, 0.2, -0.1, -0.2)  # not sorted
    with pytest.raises(ConstraintViolationError):
        NonlocalContent(0.9, 0.1, -0.2, -0.8)  # span > 1
