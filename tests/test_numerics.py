import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecover.errors import NotSymmetricError, NotUnitaryError
from gatecover.numerics import (_mixing_angle, eig_symmetric_unitary, euler_from_su2, haar_su2,
                                haar_su2_pair, haar_unitary, kron2, kron_factor, require_unitary,
                                rz, su2_from_euler, unitarity_defect)


def random_symmetric_unitary(rng, degenerate=False):
    if degenerate:
        pool = [0.0, np.pi / 2, np.pi, rng.uniform(-np.pi, np.pi)]
        angles = rng.choice(pool, size=4)
    else:
        angles = rng.uniform(-np.pi, np.pi, 4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q @ np.diag(np.exp(1j * angles)) @ q.T


def test_require_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        require_unitary(np.diag([1.0, 1.0, 1.0, 1.5]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
def test_require_unitary_rejects_non_finite_entries(entry):
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    with pytest.raises(NotUnitaryError):
        require_unitary(m)


def test_eig_identity():
    w, o = eig_symmetric_unitary(np.eye(4, dtype=complex))
    assert np.allclose(w, 1.0)
    assert np.max(np.abs(o @ o.T - np.eye(4))) < 1e-12


def test_eig_already_diagonal():
    m = np.diag([1j, 1j, -1j, -1j])
    w, o = eig_symmetric_unitary(m)
    np.testing.assert_allclose(sorted(np.angle(w)),
                               sorted([np.pi / 2] * 2 + [-np.pi / 2] * 2), atol=1e-12)
    # eigenvectors stay a signed permutation of the standard basis
    assert np.all(np.sum(np.abs(o) > 1e-9, axis=0) == 1)
    assert np.max(np.abs(m - o @ np.diag(w) @ o.T)) < 1e-12


def test_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eig_symmetric_unitary(np.array([[0, 1], [0.5, 0]], dtype=complex) * 1j)


def test_eig_reconstruction_bulk(rng):
    # reconstruction and orthogonality on random symmetric unitaries,
    # degenerate spectra included
    worst_resid = 0.0
    worst_orth = 0.0
    for i in range(10_000):
        m = random_symmetric_unitary(rng, degenerate=(i % 3 == 0))
        w, o = eig_symmetric_unitary(m)
        worst_resid = max(worst_resid, float(np.max(np.abs(m - o @ np.diag(w) @ o.T))))
        worst_orth = max(worst_orth, float(np.max(np.abs(o.T @ o - np.eye(4)))))
        assert abs(np.linalg.det(o) - 1.0) < 1e-9
    assert worst_resid <= 1e-9
    assert worst_orth <= 1e-10


def _spectrum(n, kind, a, b, gap, rest):
    """Eigenphases of one of the spectra that can trip a real eigenbasis."""
    if kind == "degenerate":  # 2 + 2, 3 + 1 and 4-fold, cut to n entries
        return {"2+2": [a, a, b, b], "3+1": [a, a, a, b], "4": [a] * 4}[rest][:n]
    if kind == "pairs":  # pair means that collide at p = 0
        return [a, -a, b, -b][:n]
    return ([a, a + gap] + [b, -b])[:n]  # two phases gap apart


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(["degenerate", "pairs", "gap"]),
       a=st.floats(-np.pi, np.pi), b=st.floats(-np.pi, np.pi),
       gap=st.floats(1e-12, 1e-6), rest=st.sampled_from(["2+2", "3+1", "4"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eig_real_basis_on_hard_spectra(n, kind, a, b, gap, rest, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    m = q @ np.diag(np.exp(1j * np.array(_spectrum(n, kind, a, b, gap, rest)))) @ q.T
    w, o = eig_symmetric_unitary(m)
    assert o.dtype == np.float64
    assert np.max(np.abs(o.T @ o - np.eye(n))) <= 1e-10
    assert abs(np.linalg.det(o) - 1.0) <= 1e-10
    assert np.max(np.abs(m - o @ np.diag(w) @ o.T)) <= 1e-9
    # the eigenphases a caller passes in pick the same mixing angle, so the
    # same basis, bit for bit
    given_w, given_o = eig_symmetric_unitary(m, np.angle(np.linalg.eigvals(m)))
    assert (given_w.tobytes(), given_o.tobytes()) == (w.tobytes(), o.tobytes())


def _reference_mixing_angle(phi: np.ndarray) -> float:
    """The mixing angle in numpy array operations: the middle of the widest
    gap, the first on a tie, between the sorted pair means mod pi."""
    if len(phi) < 2:
        return 0.0
    means = np.sort(np.add.outer(phi, phi)[np.triu_indices(len(phi), 1)] / 2 % np.pi)
    gaps = np.diff(means, append=means[:1] + np.pi)
    return float(means[np.argmax(gaps)] + gaps.max() / 2)


def test_mixing_angle_equals_the_array_reference_bit_for_bit(rng):
    # Haar spectra of m = U^T U, and spectra with repeated phases
    spectra = [np.angle(np.linalg.eigvals(u.T @ u))
               for u in (haar_unitary(rng) for _ in range(500))]
    spectra += [np.angle(np.linalg.eigvals(random_symmetric_unitary(rng, degenerate=True)))
                for _ in range(300)]
    for a, b in rng.uniform(-np.pi, np.pi, size=(100, 2)):
        spectra += [np.array(s) for s in ([a, a, b, b], [a, a, a, b], [a] * 4, [a, -a, b, -b])]
    # phases that straddle the cut at +-pi, so that pair means wrap mod pi
    for e in rng.uniform(0.0, 1e-3, size=(100, 4)):
        spectra += [np.array([np.pi - e[0], -np.pi + e[1], np.pi - e[2], -np.pi + e[3]]),
                    np.array([np.pi, -np.pi, np.pi - e[0], e[1]]),
                    np.array([np.pi - e[0], -np.pi + e[0]])]
    spectra += [np.array([np.pi, -np.pi]), np.array([0.0, 0.0]), np.array([np.pi])]
    # one and two phases
    spectra += [rng.uniform(-np.pi, np.pi, size=n) for n in (1, 2) for _ in range(100)]
    for phi in spectra:
        assert _mixing_angle(phi.tolist()).hex() == _reference_mixing_angle(phi).hex(), phi


def test_kron2_equals_numpy_kron(rng):
    for _ in range(200):
        a, b = (rng.normal(size=(2, 2, 2)) @ [1, 1j] for _ in range(2))
        assert np.array_equal(kron2(a, b), np.kron(a, b))
        assert np.array_equal(kron2(a.real, b), np.kron(a.real, b))


def test_eig_eigenvalue_product_matches_det(rng):
    m = random_symmetric_unitary(rng)
    w, _ = eig_symmetric_unitary(m)
    assert abs(np.prod(w) - np.linalg.det(m)) < 1e-10


def test_eig_on_magic_basis_product_of_cnot():
    # m(CNOT) built from the magic-basis machinery is symmetric unitary with
    # det(m) = det(CNOT)^2; reconstruction through the real orthogonal basis
    from gatecover.cartan import CNOT, magic_basis
    q = magic_basis()
    um = q.conj().T @ CNOT @ q
    m = um.T @ um
    w, o = eig_symmetric_unitary(m)
    assert abs(np.prod(w) - np.linalg.det(CNOT) ** 2) < 1e-10
    assert np.max(np.abs(m - o @ np.diag(w) @ o.T)) <= 1e-9


def test_haar_su2_pair_deterministic():
    a = haar_su2_pair(np.random.default_rng(42))
    b = haar_su2_pair(np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert unitarity_defect(a) <= 1e-13


def test_haar_su2_pair_tensor_structure(rng):
    for _ in range(25):
        m = haar_su2_pair(rng)
        phase, k1, k2 = kron_factor(m)
        assert np.max(np.abs(phase * np.kron(k1, k2) - m)) < 1e-12
        assert abs(np.linalg.det(k1) - 1) < 1e-12
        assert abs(np.linalg.det(k2) - 1) < 1e-12


def test_haar_su2_moment(rng):
    # Haar moment E|u00|^2 = 1/2 for SU(2); 5 sigma band at n = 1e4
    n = 10_000
    vals = np.array([abs(haar_su2(rng)[0, 0]) ** 2 for _ in range(n)])
    # Var(|u00|^2) = E x^2 - (E x)^2 with x uniform on [0,1]: 1/12
    sigma = np.sqrt(1.0 / 12.0 / n)
    assert abs(vals.mean() - 0.5) < 5 * sigma


def test_haar_unitary_is_unitary(rng):
    for _ in range(10):
        assert unitarity_defect(haar_unitary(rng)) < 1e-12


def test_kron_factor_rejects_entangling(rng):
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    for m in (cx, haar_su2_pair(rng) @ cx @ haar_su2_pair(rng), haar_unitary(rng)):
        with pytest.raises(ValueError, match="not a tensor product"):
            kron_factor(m)


@pytest.mark.parametrize("m", [np.zeros((4, 4)), np.full((4, 4), np.nan)])
def test_kron_factor_refuses_a_zero_or_nan_matrix(m):
    with pytest.raises(ValueError, match="not a tensor product"):
        kron_factor(m)


def test_kron_factor_of_a_stack_equals_each_matrix_alone(rng):
    ms = np.array([np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.5, 2) * haar_su2_pair(rng)
                   for _ in range(50)])
    phases, a, b = kron_factor(ms)
    assert (phases.shape, a.shape, b.shape) == ((50,), (50, 2, 2), (50, 2, 2))
    for k, m in enumerate(ms):
        alone = kron_factor(m)
        for got, ref in zip((phases[k], a[k], b[k]), alone):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    # one matrix that is not a product, or has a zero pivot, refuses the stack
    for odd in (haar_unitary(rng), np.zeros((4, 4))):
        with pytest.raises(ValueError, match="not a tensor product"):
            kron_factor(np.stack([ms[0], odd, ms[1]]))


def test_kron_factor_equals_the_det_normalization(rng):
    # the closed-form 2 x 2 dets against np.linalg.det on the same blocks
    for _ in range(500):
        m = np.exp(2j * np.pi * rng.uniform()) * 1.5 * haar_su2_pair(rng)
        phase, a, b = kron_factor(m)
        for k in (a, b):
            assert abs(np.linalg.det(k) - 1) <= 1e-12
        i, j = divmod(int(np.argmax(np.abs(m))), 4)
        a0, b0 = m[i % 2::2, j % 2::2], m[i // 2 * 2:i // 2 * 2 + 2, j // 2 * 2:j // 2 * 2 + 2]
        ra, rb = np.sqrt(np.linalg.det(a0)), np.sqrt(np.linalg.det(b0))
        for got, ref in ((a, a0 / ra), (b, b0 / rb), (phase, ra * rb / m[i, j])):
            assert np.max(np.abs(got - ref)) <= 1e-14


def test_su2_from_euler_stack_matches_rotation_product(rng):
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(5, 3))
    stack = su2_from_euler(*angles.T)
    assert stack.shape == (5, 2, 2)
    assert unitarity_defect(stack) <= 1e-14
    for (a, b, c), k in zip(angles, stack):
        cb, sb = np.cos(b / 2), np.sin(b / 2)
        ry = np.array([[cb, -sb], [sb, cb]])
        np.testing.assert_allclose(k, rz(a) @ ry @ rz(c), atol=1e-15)
        assert unitarity_defect(k) == unitarity_defect(k[None])


@st.composite
def u2_matrices(draw):
    """Haar SU(2), then the same times a phase, and the degenerate b = 0
    (diagonal) and b = pi (antidiagonal) forms, also times a phase."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["su2", "u2", "diagonal", "antidiagonal"]))
    alpha, phase = rng.uniform(-np.pi, np.pi, size=2)
    e = np.exp(1j * alpha)
    k = {"su2": haar_su2(rng), "u2": haar_su2(rng),
         "diagonal": np.diag([e, e.conjugate()]),
         "antidiagonal": np.array([[0, -e.conjugate()], [e, 0]])}[kind]
    return k if kind == "su2" else np.exp(1j * phase) * k


@settings(derandomize=True, deadline=None, max_examples=200)
@given(u2_matrices())
def test_euler_from_su2_inverts_su2_from_euler(k):
    a, b, c = euler_from_su2(k)
    assert 0 <= b <= np.pi
    special = k / np.sqrt(np.linalg.det(k))
    back = su2_from_euler(a, b, c)
    assert min(np.max(np.abs(back - special)), np.max(np.abs(back + special))) <= 1e-14


def test_euler_from_su2_over_a_stack(rng):
    stack = np.stack([np.exp(1j * rng.uniform(0, 2 * np.pi)) * haar_su2(rng) for _ in range(5)])
    angles = euler_from_su2(stack)
    assert all(np.shape(x) == (5,) for x in angles)
    for row, k in zip(np.stack(angles, axis=1), stack):
        np.testing.assert_allclose(su2_from_euler(*row), su2_from_euler(*euler_from_su2(k)),
                                   rtol=0, atol=1e-15)
