import math
from fractions import Fraction as F

import numpy as np
import pytest

from gatecover.cartan import (CNOT, SWAP, b_gate, canonical_gate, cartan_coordinates,
                              local_invariants)
from gatecover.coords import B_CLASS, CNOT_CLASS, SWAP_CLASS, CartanCoord, class_equal
from gatecover.errors import NotReachableError
from gatecover.families import get_family
from gatecover.numerics import DEFAULT_POLICY, haar_su2_pair, haar_unitary, su2_from_euler
from gatecover.synthesis import (_invariant_residual, reachable, synthesize,
                                 synthesize_with_family)

PI = math.pi


def aligned_residual(result, u, v):
    asm = result.assemble(u)
    phase = np.exp(1j * np.angle(np.trace(asm.conj().T @ v)))
    return float(np.max(np.abs(phase * asm - v)))


def test_reachable_facts():
    assert reachable(B_CLASS, SWAP_CLASS)
    assert not reachable(CNOT_CLASS, SWAP_CLASS)
    assert reachable(CNOT_CLASS, B_CLASS)


def test_reachable_square_is_trivially_reachable(rng):
    u = haar_unitary(rng)
    cu = cartan_coordinates(u)
    cv = cartan_coordinates(u @ u)
    assert reachable(cu, cv)


def test_synthesize_b_to_swap():
    b = b_gate()
    res = synthesize(b, SWAP)
    assert res.converged
    assert res.fidelity >= 1 - 1e-6
    assert aligned_residual(res, b, SWAP) <= 1e-5
    assert class_equal(res.target_class, SWAP_CLASS)
    assert 0 <= res.residual <= 1e-12


def test_synthesize_trivial_square(rng):
    u = haar_unitary(rng)
    v = u @ u
    res = synthesize(u, v)
    assert res.converged and res.fidelity >= 1 - 1e-9
    # the search starts at the identity layer, which already solves this
    np.testing.assert_allclose(np.kron(res.l2[0], res.l2[1]), np.eye(4), atol=1e-12)


def test_synthesize_haar_targets_from_b(rng):
    b = b_gate()
    for _ in range(4):
        v = haar_unitary(rng)
        res = synthesize(b, v)
        assert res.converged
        assert res.fidelity >= 1 - 1e-6
        assert aligned_residual(res, b, v) <= 1e-5


CHAMBER_BOUNDARY_CLASSES = [
    (F(11, 12), F(1, 12), F(1, 12)),
    (F(1, 2), F(1, 3), F(1, 3)),
    # c2 = c3 = 0 edge: U L2 U may land just off the c3 = 0 face on the far side
    (F(1, 12), 0, 0),
    (F(1, 8), 0, 0),
]


@pytest.mark.parametrize("coord", CHAMBER_BOUNDARY_CLASSES)
def test_synthesize_chamber_boundary_classes(coord):
    b = b_gate()
    v = canonical_gate(CartanCoord.exact(*coord))
    res = synthesize(b, v)
    assert res.converged
    assert res.fidelity >= 1 - 1e-6
    assert aligned_residual(res, b, v) <= 1e-5


@pytest.mark.parametrize("target", ["swap", "cnot", "haar"] + CHAMBER_BOUNDARY_CLASSES)
def test_converged_is_the_assembled_fidelity(target, rng):
    named = {"swap": SWAP, "cnot": CNOT, "haar": haar_unitary(rng)}
    v = named[target] if isinstance(target, str) else canonical_gate(CartanCoord.exact(*target))
    res = synthesize(b_gate(), v)
    assert res.converged and res.fidelity >= 1 - 1e-9
    # a run cut short by its budget is converged exactly when it reaches that fidelity
    short = synthesize(b_gate(), v, budget=1)
    assert short.converged == (short.fidelity >= 1 - 1e-9)


@pytest.mark.parametrize("budget", [1, 8, 100])
def test_synthesize_honours_budget(budget):
    res = synthesize(b_gate(), SWAP, budget=budget)
    assert 1 <= res.iterations <= budget


def test_invariant_jacobian_matches_central_differences(rng):
    u = haar_unitary(rng)
    x = rng.uniform(0, 2 * PI, size=(4, 6))
    h = 1e-6
    for gate in (b_gate(), u, SWAP @ u):
        r, jac = _invariant_residual(x, gate, np.zeros(3), DEFAULT_POLICY)
        for row, angles in zip(r, x):
            w = gate @ np.kron(su2_from_euler(*angles[:3]), su2_from_euler(*angles[3:])) @ gate
            g = local_invariants(w)
            np.testing.assert_allclose(row, [g.g1.real, g.g1.imag, g.g2], atol=1e-12)
        fd = np.empty_like(jac)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            rp, _ = _invariant_residual(x + e, gate, np.zeros(3), DEFAULT_POLICY)
            rm, _ = _invariant_residual(x - e, gate, np.zeros(3), DEFAULT_POLICY)
            fd[:, :, j] = (rp - rm) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


def test_synthesize_refuses_unreachable():
    with pytest.raises(NotReachableError):
        synthesize(CNOT, SWAP)


def test_synthesize_deterministic(rng):
    v = haar_unitary(rng)
    b = b_gate()
    r1 = synthesize(b, v)
    r2 = synthesize(b, v)
    assert r1.fidelity == r2.fidelity
    assert r1.iterations == r2.iterations
    np.testing.assert_array_equal(r1.l2[0], r2.l2[0])
    np.testing.assert_array_equal(r1.l2[1], r2.l2[1])


def test_mirror_capability_transfer(rng):
    # if V is reachable from U it is reachable from SWAP U
    for _ in range(10):
        u = haar_unitary(rng)
        v = u @ haar_su2_pair(rng) @ u
        r1 = synthesize(u, v)
        r2 = synthesize(SWAP @ u, v)
        assert r1.converged and r2.converged
        assert r1.fidelity >= 1 - 1e-6 and r2.fidelity >= 1 - 1e-6


def test_family_synthesis_swap_needs_the_endpoint():
    spec = get_family("b_alpha")
    res = synthesize_with_family(spec, SWAP)
    assert res.theta == PI / 2
    assert res.converged and res.fidelity >= 1 - 1e-6


def test_family_synthesis_cnot_is_cheaper():
    spec = get_family("b_alpha")
    res = synthesize_with_family(spec, CNOT)
    assert res.theta < PI / 2 - 1e-9
    assert res.converged and res.fidelity >= 1 - 1e-6


def test_family_synthesis_local_target_needs_nothing():
    spec = get_family("b_alpha")
    local = haar_su2_pair(np.random.default_rng(3))  # class (0,0,0)
    res = synthesize_with_family(spec, local)
    assert res.theta == 0.0
    assert res.fidelity >= 1 - 1e-6


def test_family_synthesis_unreachable():
    from fractions import Fraction as F

    from gatecover.families import FamilySpec

    # a one-point "family" pinned at the sqrt-SWAP class covers only the
    # SWAP--CNOT segment, so a generic solid target is out of reach
    stub = FamilySpec("stub", F(1, 4), F(1, 4),
                      lambda t: (F(1, 4), F(1, 4), F(1, 4)))
    with pytest.raises(NotReachableError):
        synthesize_with_family(stub, canonical_gate(B_CLASS))
