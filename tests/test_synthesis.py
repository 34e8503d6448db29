import math
from fractions import Fraction as F

import numpy as np
import pytest

import gatecover.cartan as cartan
import gatecover.synthesis as synthesis
from gatecover.cartan import (CNOT, SQRT_SWAP, SWAP, b_gate, canonical_gate,
                              cartan_coordinates, kak_decompose, local_invariants)
from gatecover.coords import B_CLASS, CNOT_CLASS, SWAP_CLASS, CartanCoord, class_equal
from gatecover.coverage import contains, coverage_region
from gatecover.errors import NotReachableError
from gatecover.families import FamilySpec, get_family
from gatecover.numerics import DEFAULT_POLICY, haar_su2_pair, haar_unitary, su2_from_euler
from gatecover.synthesis import (_RESIDUAL_FLOOR, MEMBER_RESOLUTION, _invariant_residual,
                                 reachable, simplest_rational, synthesize,
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


# chamber edges where the invariant residual falls only linearly near the
# solution; the stop rule, not the budget, ends their search
CHAMBER_EDGE_CLASSES = [
    (F(1, 12), F(1, 12), 0), (F(1, 12), F(1, 12), F(1, 12)),
    (F(1, 8), F(1, 8), 0), (F(1, 8), F(1, 8), F(1, 8)),
    (F(7, 8), F(1, 8), 0), (F(7, 8), F(1, 8), F(1, 8)),
    (F(11, 12), F(1, 12), 0), (F(11, 12), F(1, 12), F(1, 12)),
]


@pytest.mark.parametrize("coord", CHAMBER_EDGE_CLASSES)
def test_stop_rule_ends_the_search_at_the_rounding_floor(coord):
    res = synthesize(b_gate(), canonical_gate(CartanCoord.exact(*coord)), budget=4000)
    assert res.converged and res.fidelity >= 1 - 1e-9
    assert res.residual <= _RESIDUAL_FLOOR
    assert res.iterations < 4000


def test_residual_floor_is_above_the_rounding_of_the_invariants(rng):
    # an exact solution (the target is U L2 U itself) reads only rounding error
    for gate in (b_gate(), haar_unitary(rng), SWAP @ haar_unitary(rng)):
        x = rng.uniform(-2 * PI, 4 * PI, size=(200, 6))
        for angles in x:
            w = gate @ np.kron(su2_from_euler(*angles[:3]), su2_from_euler(*angles[3:])) @ gate
            g = local_invariants(w)
            r, _ = _invariant_residual(gate, np.array([g.g1.real, g.g1.imag, g.g2]),
                                       DEFAULT_POLICY)(angles[None])
            assert np.linalg.norm(r) <= _RESIDUAL_FLOOR / 8


def _counted_eigensystems(monkeypatch) -> list:
    calls = []
    real = cartan._magic_eigensystem

    def counted(u):
        calls.append(u)
        return real(u)
    monkeypatch.setattr(cartan, "_magic_eigensystem", counted)
    monkeypatch.setattr(synthesis, "_magic_eigensystem", counted)
    return calls


def test_synthesize_diagonalizes_each_matrix_once(monkeypatch, rng):
    calls = _counted_eigensystems(monkeypatch)
    v = haar_unitary(rng)
    res = synthesize(b_gate(), v)
    assert res.converged
    # U, V and U L2 U
    assert len(calls) == 3
    assert sum(np.array_equal(c, v) for c in calls) == 1


def test_family_synthesis_diagonalizes_the_target_once(monkeypatch, rng):
    calls = _counted_eigensystems(monkeypatch)
    v = haar_unitary(rng)
    res = synthesize_with_family(get_family("b_alpha"), v)
    assert res.converged
    assert len(calls) == 3
    assert sum(np.array_equal(c, v) for c in calls) == 1


def test_kak_and_coordinates_read_the_same_chamber_point(rng):
    gates = [haar_unitary(rng) for _ in range(30)]
    for coord in CHAMBER_BOUNDARY_CLASSES + CHAMBER_EDGE_CLASSES:
        c = canonical_gate(CartanCoord.exact(*coord))
        gates += [c, haar_su2_pair(rng) @ c @ haar_su2_pair(rng)]
    for g in gates:
        assert kak_decompose(g).coord.astuple() == cartan_coordinates(g).astuple()


def test_cached_reachable_matches_a_fresh_region(rng):
    # the benchmark's refusal pairs, Haar targets and chamber boundary classes
    # (as matrices and as exact points) against B, CNOT, sqrt(SWAP) and a Haar gate
    targets = [cartan_coordinates(v) for v in (SWAP, SQRT_SWAP, b_gate())]
    targets += [cartan_coordinates(haar_unitary(rng)) for _ in range(100)]
    for coord in CHAMBER_BOUNDARY_CLASSES:
        targets += [CartanCoord.exact(*coord),
                    cartan_coordinates(canonical_gate(CartanCoord.exact(*coord)))]
    for u in (b_gate(), CNOT, SQRT_SWAP, haar_unitary(rng)):
        cu = cartan_coordinates(u)
        fresh = coverage_region(cu, cu)
        assert [reachable(cu, cv) for cv in targets] == [contains(fresh, cv) for cv in targets]
    for u, v in ((CNOT, SWAP), (CNOT, SQRT_SWAP), (SQRT_SWAP, b_gate())):
        assert not reachable(cartan_coordinates(u), cartan_coordinates(v))


def test_coverage_region_is_not_cached():
    assert coverage_region(B_CLASS, B_CLASS) is not coverage_region(B_CLASS, B_CLASS)


@pytest.mark.parametrize("budget", [1, 8, 100])
def test_synthesize_honours_budget(budget):
    res = synthesize(b_gate(), SWAP, budget=budget)
    assert 1 <= res.iterations <= budget


def test_invariant_jacobian_matches_central_differences(rng):
    u = haar_unitary(rng)
    x = rng.uniform(0, 2 * PI, size=(4, 6))
    h = 1e-6
    for gate in (b_gate(), u, SWAP @ u):
        residual = _invariant_residual(gate, np.zeros(3), DEFAULT_POLICY)
        r, jac = residual(x)
        for row, angles in zip(r, x):
            w = gate @ np.kron(su2_from_euler(*angles[:3]), su2_from_euler(*angles[3:])) @ gate
            g = local_invariants(w)
            np.testing.assert_allclose(row, [g.g1.real, g.g1.imag, g.g2], atol=1e-12)
        fd = np.empty_like(jac)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            rp, _ = residual(x + e)
            rm, _ = residual(x - e)
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
    # a one-point "family" pinned at the sqrt-SWAP class covers only the
    # SWAP--CNOT segment, so a generic solid target is out of reach
    stub = FamilySpec("stub", F(1, 4), F(1, 4),
                      lambda t: (F(1, 4), F(1, 4), F(1, 4)))
    with pytest.raises(NotReachableError):
        synthesize_with_family(stub, canonical_gate(B_CLASS))


# classes that members of plane_theta_line(0) reach although the regions along
# that line are not nested (their volumes rise and then fall), each with the
# window of parameters t (units of pi) whose region contains it
UNNESTED_LINE_CLASSES = [
    ((F(508, 1000), F(49, 100), F(176, 1000)), F(11, 125), F(89, 1000)),
    ((F(603, 1000), F(389, 1000), F(193, 1000)), F(193, 2000), F(201, 2000)),
    ((F(552, 1000), F(448, 1000), F(358, 1000)), F(179, 1000), F(179, 1000)),
]


@pytest.mark.parametrize("coord, lo, hi", UNNESTED_LINE_CLASSES)
def test_family_synthesis_on_a_line_that_is_not_nested(coord, lo, hi):
    v = canonical_gate(CartanCoord.exact(*coord))
    res = synthesize_with_family(get_family("plane_theta_line", F(0)), v)
    assert res.converged and res.fidelity >= 1 - 1e-9
    assert lo - 1e-6 <= res.theta / PI <= hi + 1e-6


@pytest.mark.parametrize("line", [("b_alpha", None), ("plane_theta_line", F(0)),
                                  ("fsim_diag", 2)])
def test_family_synthesis_picks_the_first_reaching_member(line, rng):
    spec = get_family(*line)
    reached = 0
    for _ in range(4):
        v = haar_unitary(rng)
        try:
            res = synthesize_with_family(spec, v)
        except NotReachableError:
            continue
        reached += 1
        t = F(res.theta / PI).limit_denominator(1 << 20)
        assert res.converged
        assert (t - spec.lo) % MEMBER_RESOLUTION == 0
        c = spec.exact_coord(t)
        assert contains(coverage_region(c, c), res.target_class)
        if t > spec.lo:
            c = spec.exact_coord(t - MEMBER_RESOLUTION)
            assert not contains(coverage_region(c, c), res.target_class)
    assert reached


@pytest.mark.parametrize("lo, hi, map_fn", [
    (F(0), F(1, 2), lambda t: (t, t * t, F(0))),  # curved
    (F(0), F(1), lambda t: (t, F(0), F(0))),      # straight, but folded past c1 = pi/2
])
def test_family_synthesis_rejects_a_family_that_is_not_affine(lo, hi, map_fn):
    with pytest.raises(ValueError, match="family bent"):
        synthesize_with_family(FamilySpec("bent", lo, hi, map_fn), CNOT)


@pytest.mark.parametrize("lo, hi, simplest", [
    (F(1, 3), F(1, 2), F(1, 2)),
    (F(3, 10), F(7, 20), F(1, 3)),
    (F(5, 2), F(9, 2), F(3)),
    (F(4), F(6), F(4)),
    (F(5, 7), F(5, 7), F(5, 7)),
    (F(0), F(0), F(0)),
])
def test_simplest_rational(lo, hi, simplest):
    assert simplest_rational(lo, hi) == simplest
