import numpy as np
import pytest

from gatecover.errors import NotSymmetricError, NotUnitaryError
from gatecover.numerics import (TolerancePolicy, eig_symmetric_unitary,
                                haar_su2, haar_su2_pair, haar_unitary,
                                kron_factor, require_unitary, rz, su2_from_euler,
                                unitarity_defect)


def random_symmetric_unitary(rng, degenerate=False):
    if degenerate:
        pool = [0.0, np.pi / 2, np.pi, rng.uniform(-np.pi, np.pi)]
        angles = rng.choice(pool, size=4)
    else:
        angles = rng.uniform(-np.pi, np.pi, 4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q @ np.diag(np.exp(1j * angles)) @ q.T


def test_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(unitarity_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(coord_tol=1e-13)
    with pytest.raises(ValueError):
        TolerancePolicy(volume_mc_samples=0)


def test_require_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        require_unitary(np.diag([1.0, 1.0, 1.0, 1.5]))


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
        phase, k1, k2 = kron_factor(m, tol=1e-12)
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


def test_kron_factor_rejects_entangling():
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        kron_factor(cx)


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
