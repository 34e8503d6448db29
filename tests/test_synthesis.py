import dataclasses
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

import gatecover.cartan as cartan
import gatecover.synthesis as synthesis
from gatecover.cartan import (CNOT, DCNOT, ISWAP, SQRT_SWAP, SWAP, _local_map, _magic_image,
                              b_gate, canonical_gate, cartan_coordinates, kak_decompose,
                              local_invariants)
from gatecover.coords import (B_CLASS, CNOT_CLASS, DCNOT_CLASS, IDENTITY_CLASS, SWAP_CLASS,
                              CartanCoord, class_equal, random_chamber_point)
from gatecover.coverage import contains, coverage_region, segment_windows
from gatecover.errors import ConvergenceFailureError, NotReachableError, NotUnitaryError
from gatecover.families import FamilySpec, get_family
from gatecover.numerics import haar_su2_pair, haar_unitary, su2_from_euler
from gatecover.synthesis import (_RESIDUAL_FLOOR, MEMBER_RESOLUTION, SynthesisResult,
                                 _b_middle_layer, _invariant_residual, _residual_terms,
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


@pytest.mark.parametrize("solve", [
    lambda m: synthesize(m, CNOT), lambda m: synthesize(CNOT, m),
    lambda m: synthesize_with_family(get_family("b_alpha"), m)])
@pytest.mark.parametrize("n", [2, 8])
def test_synthesis_refuses_a_unitary_that_is_not_4x4(solve, n):
    synthesis._gate.cache_clear()
    with pytest.raises(NotUnitaryError, match="must be 4 x 4"):
        solve(np.eye(n, dtype=complex))
    assert synthesis._gate.cache_info().currsize == 0


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


# every chamber point whose coordinates are multiples of pi/6, pi/8 or pi/12,
# with both members of each c3 = 0 twin pair
SMALL_DENOMINATOR_CLASSES = sorted(
    t for t in {(F(a, d), F(b, d), F(c, d)) for d in (6, 8, 12)
                for a in range(d + 1) for b in range(d + 1) for c in range(d + 1)}
    if t[0] >= t[1] >= t[2] >= 0 and t[1] <= 1 - t[0])


def _b_middle_layer_class(c) -> CartanCoord:
    m1, m2 = _b_middle_layer(c)
    return cartan_coordinates(b_gate() @ np.kron(m1, m2) @ b_gate())


def _twin_is_nearer(res: SynthesisResult) -> bool:
    """True when the c3 = 0 twin (pi - c1, c2, -c3) of the achieved class lies
    nearer the target class than the achieved class itself."""
    tw, tv = res.achieved_class.astuple(), res.target_class.astuple()
    twin = (PI - tw[0], tw[1], -tw[2])
    return max(abs(p - q) for p, q in zip(twin, tv)) < max(abs(p - q) for p, q in zip(tw, tv))


# c2 = c3 = 0 edge targets, dressed by Haar locals, for which U L2 U lands on
# the far side of the c3 = 0 face from the gate of class (pi/3, pi/6, 0); the
# local map of the two real factorizations needs no gauge for the twin
@pytest.mark.parametrize("coord, seed", [((F(1, 8), 0, 0), 7), ((F(1, 4), 0, 0), 2),
                                         ((F(1, 4), 0, 0), 4)])
def test_a_layer_landing_on_the_c3_zero_twin_is_gauged(coord, seed):
    rng = np.random.default_rng(1)
    u = canonical_gate(CartanCoord.exact(F(1, 3), F(1, 6), 0))
    v = haar_su2_pair(rng) @ canonical_gate(CartanCoord.exact(*coord)) @ haar_su2_pair(rng)
    res = synthesize(u, v, seed=seed)
    assert _twin_is_nearer(res)
    assert res.converged and res.fidelity >= 1 - 1e-9
    assert aligned_residual(res, u, v) <= 1e-6


def test_b_reaches_every_small_denominator_class_in_one_batch():
    assert len(SMALL_DENOMINATOR_CLASSES) == 181
    for t in SMALL_DENOMINATOR_CLASSES:
        c = CartanCoord.exact(*t)
        assert class_equal(_b_middle_layer_class(c), c, 1e-12), t
        res = synthesize(b_gate(), canonical_gate(c), budget=8)
        assert res.converged and (res.iterations, res.restart) == (8, 0), t


def test_b_middle_layer_reaches_random_chamber_points(rng):
    points = [random_chamber_point(rng) for _ in range(200)]
    assert sum(c.c1 > PI / 2 for c in points) >= 50
    for c in points:
        assert class_equal(_b_middle_layer_class(c), c, 1e-12), c


@pytest.mark.parametrize("c", [
    IDENTITY_CLASS, B_CLASS, SWAP_CLASS,
    # the iSWAP class, where 1 - 2s = 0 and beta = 0
    DCNOT_CLASS, CartanCoord(PI / 2, PI / 2, 0.0),
    # c3 = 0 twins, exact and in floats
    CartanCoord.exact(F(1, 4), F(1, 4), 0), CartanCoord.exact(F(3, 4), F(1, 4), 0),
    CartanCoord.exact(F(1, 3), F(1, 6), 0), CartanCoord.exact(F(2, 3), F(1, 6), 0),
    CartanCoord(0.4, 0.3, 0.0), CartanCoord(PI - 0.4, 0.3, 0.0),
    CartanCoord.exact(1, 0, 0),
])
def test_b_middle_layer_special_classes(c):
    assert class_equal(_b_middle_layer_class(c), c, 1e-12)


def _dressed_b(rng) -> np.ndarray:
    return np.exp(2j * PI * rng.uniform()) * haar_su2_pair(rng) @ b_gate() @ haar_su2_pair(rng)


# the closed-form restart 0 already lies below the stop floor, so from a gate
# of the B class the search ends with its first batch, whatever the target
@pytest.mark.parametrize("target", ["swap", "cnot", "local", "haar", "dressed"]
                         + CHAMBER_BOUNDARY_CLASSES + CHAMBER_EDGE_CLASSES)
def test_b_targets_do_not_depend_on_the_budget(target, rng):
    named = {"swap": SWAP, "cnot": CNOT, "local": haar_su2_pair(rng)}
    if target == "haar":
        pairs = [(b_gate(), haar_unitary(rng)) for _ in range(4)]
    elif target == "dressed":
        pairs = [(_dressed_b(rng), haar_unitary(rng)) for _ in range(4)]
    elif isinstance(target, str):
        pairs = [(b_gate(), named[target])]
    else:
        pairs = [(b_gate(), canonical_gate(CartanCoord.exact(*target)))]
    for u, v in pairs:
        res = synthesize(u, v, budget=8)
        assert res.converged and res.fidelity >= 1 - 1e-9
        assert (res.iterations, res.restart) == (8, 0)
        assert res.residual <= _RESIDUAL_FLOOR
        assert aligned_residual(res, u, v) <= 1e-7
        # with the default budget too, so no stalled restart is ever re-drawn
        _assert_identical(res, synthesize(u, v))


def test_family_member_at_b_takes_one_batch():
    res = synthesize_with_family(get_family("b_alpha"), SWAP, budget=8)
    assert res.theta == PI / 2
    assert res.converged and (res.iterations, res.restart) == (8, 0)


def test_family_member_whose_square_is_the_target_is_kept():
    # the lowest grid member of the lowest window, (pi/4, pi/8, 0), squares to
    # B, so the identity restart 0 is exact and the margin is not taken
    res = synthesize_with_family(get_family("b_alpha"), b_gate())
    assert res.theta == PI / 4
    assert res.converged and (res.iterations, res.restart) == (8, 0)


def _aligned_local_map(v: np.ndarray, w: np.ndarray) -> float:
    """Max entry of phase L1 W L3 - V for the locals of ``_local_map``."""
    l1, l3 = _local_map(_magic_image(v).factors, _magic_image(w).factors)
    mapped = np.kron(*l1) @ w @ np.kron(*l3)
    phase = np.trace(mapped.conj().T @ v)
    return float(np.max(np.abs(phase / abs(phase) * mapped - v)))


@pytest.mark.parametrize("gate", ["haar", "local", "cnot", "iswap", "dcnot", "swap", "b"])
def test_local_map_carries_a_gate_onto_its_class(gate, rng):
    # the named classes have degenerate spectra of m(V), whose real bases are
    # arbitrary within each eigenspace
    named = {"local": np.eye(4), "cnot": CNOT, "iswap": ISWAP, "dcnot": DCNOT, "swap": SWAP,
             "b": b_gate()}
    for _ in range(10):
        v = haar_unitary(rng) if gate == "haar" else (
            haar_su2_pair(rng) @ named[gate] @ haar_su2_pair(rng))
        w = np.exp(2j * PI * rng.uniform()) * haar_su2_pair(rng) @ v @ haar_su2_pair(rng)
        assert _aligned_local_map(v, w) <= 1e-12
        assert _aligned_local_map(w, v) <= 1e-12


# the classes of the far-twin cases above, and one more
@pytest.mark.parametrize("c1", [F(1, 8), F(1, 4), F(1, 3)])
def test_local_map_joins_the_c3_zero_twins(c1, rng):
    # (c1, 0, 0) and (1 - c1, 0, 0) times pi are one class
    near = canonical_gate(CartanCoord.exact(c1, 0, 0))
    far = haar_su2_pair(rng) @ canonical_gate((PI - float(c1) * PI, 0.0, 0.0)) @ haar_su2_pair(rng)
    assert _aligned_local_map(near, far) <= 1e-12
    assert _aligned_local_map(far, near) <= 1e-12


def test_restart_names_the_layer_that_was_kept(rng):
    u = haar_unitary(rng)
    # off the B class restart 0 is the identity layer, which solves v = u u
    assert synthesize(u, u @ u).restart == 0
    results = [synthesize(u, u @ haar_su2_pair(rng) @ u) for _ in range(4)]
    assert all(res.converged and res.restart in range(8) for res in results)
    # a random start wins somewhere
    assert any(res.restart > 0 for res in results)


def test_residual_floor_is_above_the_rounding_of_the_invariants(rng):
    # an exact solution (the target is U L2 U itself) reads only rounding error
    for gate in (b_gate(), haar_unitary(rng), SWAP @ haar_unitary(rng)):
        x = rng.uniform(-2 * PI, 4 * PI, size=(200, 6))
        for angles in x:
            w = gate @ np.kron(su2_from_euler(*angles[:3]), su2_from_euler(*angles[3:])) @ gate
            g = local_invariants(w)
            r, _ = _invariant_residual(*_residual_terms(gate),
                                       np.array([g.g1.real, g.g1.imag, g.g2]))(angles[None])
            assert np.linalg.norm(r) <= _RESIDUAL_FLOOR / 8


def _counted_diagonalizations(monkeypatch) -> tuple[list, list]:
    """The gates given a magic image (their m(U) eigenvalues) and the symmetric
    matrices given an eigenbasis, each in call order, in the Cartan layer and
    synthesis."""
    gates, bases = [], []
    real_image, real_basis = cartan._magic_image, cartan.eig_symmetric_unitary

    def image(u):
        gates.append(np.array(u))
        return real_image(u)

    def basis(m, phases=None):
        bases.append(np.array(m))
        return real_basis(m, phases)
    for module in (cartan, synthesis):
        monkeypatch.setattr(module, "_magic_image", image)
    monkeypatch.setattr(cartan, "eig_symmetric_unitary", basis)
    return gates, bases


def _count(matrices: list, m: np.ndarray) -> int:
    return sum(np.array_equal(c, m) for c in matrices)


def _m_of(u: np.ndarray) -> np.ndarray:
    return _magic_image(u).m


def test_synthesize_diagonalizes_each_matrix_once(monkeypatch, rng):
    gates, bases = _counted_diagonalizations(monkeypatch)
    for u in (b_gate(), _dressed_b(rng)):
        v = haar_unitary(rng)
        synthesis._gate.cache_clear()
        for warm in (False, True):
            gates.clear(), bases.clear()
            res = synthesize(u, v)
            assert res.converged
            w = u @ np.kron(*res.l2) @ u
            # cold: U, V and U L2 U, each with its eigenvalues and one
            # eigenbasis; warm: U's KAK is cached, so only V and U L2 U
            assert (len(gates), len(bases)) == ((2, 2) if warm else (3, 3))
            assert ((_count(gates, u), _count(gates, v), _count(gates, w))
                    == (int(not warm), 1, 1))
            assert (_count(bases, _m_of(u)), _count(bases, _m_of(v))) == (int(not warm), 1)


@pytest.mark.parametrize("gate", ["cnot", "haar"])
def test_a_gate_outside_the_b_class_gets_no_eigenbasis(gate, monkeypatch, rng):
    u = CNOT if gate == "cnot" else haar_unitary(rng)
    v = u @ haar_su2_pair(rng) @ u
    synthesis._gate.cache_clear()
    gates, bases = _counted_diagonalizations(monkeypatch)
    for warm in (False, True):
        gates.clear(), bases.clear()
        assert synthesize(u, v).converged
        # U's chamber point needs only its eigenvalues, and only when cold
        assert (len(gates), len(bases)) == ((2, 2) if warm else (3, 2))
        assert (_count(gates, u), _count(bases, _m_of(u))) == (int(not warm), 0)


def test_family_synthesis_diagonalizes_the_target_once(monkeypatch, rng):
    v = haar_unitary(rng)
    synthesis._gate.cache_clear()
    gates, bases = _counted_diagonalizations(monkeypatch)
    for warm in (False, True):
        gates.clear(), bases.clear()
        res = synthesize_with_family(get_family("b_alpha"), v)
        assert res.converged
        member_class = get_family("b_alpha").exact_coord(
            F(res.theta / PI).limit_denominator(1 << 20))
        member = canonical_gate(member_class)
        # a member outside the B class: its eigenvalues only, and only when cold
        assert not class_equal(member_class, B_CLASS)
        assert (len(gates), len(bases)) == ((2, 2) if warm else (3, 2))
        assert (_count(gates, member), _count(gates, v)) == (int(not warm), 1)
        assert _count(bases, _m_of(member)) == 0


def test_stage_two_factors_two_locals_and_builds_no_canonical_gate(monkeypatch, rng):
    kron_calls, canonical_calls = [], []
    real_kron, real_canonical = cartan.kron_factor, cartan.canonical_gate

    def kron(m):
        kron_calls.append(m)
        return real_kron(m)

    def canonical(coord):
        canonical_calls.append(coord)
        return real_canonical(coord)
    monkeypatch.setattr(cartan, "kron_factor", kron)
    for module in (cartan, synthesis):
        monkeypatch.setattr(module, "canonical_gate", canonical)
    h = haar_unitary(rng)
    for u, v in ((b_gate(), haar_unitary(rng)), (h, h @ haar_su2_pair(rng) @ h)):
        synthesize(u, v)
        # warm: U's record is cached, so only stage two runs the Cartan layer,
        # with one kron_factor over the stack of both outer layers
        kron_calls.clear(), canonical_calls.clear()
        assert synthesize(u, v).converged
        assert (len(kron_calls), len(canonical_calls)) == (1, 0)
        assert kron_calls[0].shape == (2, 4, 4)


def test_a_failed_local_map_is_a_convergence_failure(monkeypatch, rng):
    def kron(m):
        raise ValueError("matrix is not a tensor product")
    monkeypatch.setattr(cartan, "kron_factor", kron)
    with pytest.raises(ConvergenceFailureError, match="local map failed"):
        kak_decompose(haar_unitary(rng))
    # a gate outside the B class has no KAK, so only stage two maps locals
    h = haar_unitary(rng)
    assert not class_equal(cartan_coordinates(h), B_CLASS)
    with pytest.raises(ConvergenceFailureError, match="local map failed"):
        synthesize(h, h @ haar_su2_pair(rng) @ h)


def _field_bytes(res: SynthesisResult) -> dict[str, bytes]:
    """Each field of a result as bytes: the raw bytes of the local factors,
    the repr of the rest (exact for the floats and counts)."""
    fields = {}
    for f in dataclasses.fields(SynthesisResult):
        x = getattr(res, f.name)
        fields[f.name] = (b"".join(m.tobytes() for m in x) if f.name in ("l1", "l2", "l3")
                          else repr(x).encode())
    return fields


def _assert_identical(a: SynthesisResult, b: SynthesisResult) -> None:
    x, y = _field_bytes(a), _field_bytes(b)
    for name in x:
        assert x[name] == y[name], name


@pytest.mark.parametrize("gate", ["b", "cnot", "haar", "family"])
def test_results_are_bit_identical_warm_and_cold(gate, rng):
    if gate == "family":
        def solve(v):
            return synthesize_with_family(get_family("spe_to_b"), v)
        targets = [haar_unitary(rng) for _ in range(3)]
    else:
        u = {"b": b_gate(), "cnot": CNOT, "haar": haar_unitary(rng)}[gate]

        def solve(v):
            return synthesize(u, v)
        targets = [haar_unitary(rng) if gate == "b" else u @ haar_su2_pair(rng) @ u
                   for _ in range(3)]
    # cold: the gate's record is built for this target; warm: for another one
    for v, other in zip(targets, targets[1:] + targets[:1]):
        synthesis._gate.cache_clear()
        cold = solve(v)
        synthesis._gate.cache_clear()
        solve(other)
        warm = solve(v)
        assert cold.converged
        _assert_identical(cold, warm)
        _assert_identical(cold, solve(v))


def test_a_gate_changed_after_a_call_changes_later_results(rng):
    u = b_gate()
    v = haar_unitary(rng)
    first = synthesize(u, v)
    # the same array, now holding CNOT, whose two applications stay on c3 = 0
    u[...] = CNOT
    with pytest.raises(NotReachableError):
        synthesize(u, v)
    u[...] = b_gate()
    _assert_identical(first, synthesize(u, v))


def test_cached_gate_arrays_are_read_only():
    gate = synthesis._gate(b_gate().tobytes())
    arrays = (gate.s, gate.scale, gate.kak.k1, gate.kak.k2, gate.kak.k3, gate.kak.k4)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        gate.s[0, 0] = 0


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


@pytest.mark.parametrize("solve", [lambda budget: synthesize(b_gate(), SWAP, budget=budget),
                                   lambda budget: synthesize_with_family(
                                       get_family("b_alpha"), SWAP, budget=budget)],
                         ids=["gate", "family"])
@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_refused(solve, budget):
    with pytest.raises(ValueError, match="budget must be at least 1"):
        solve(budget)


@pytest.mark.parametrize("budget", [1, 8, 100])
def test_synthesize_honours_budget(budget):
    res = synthesize(b_gate(), SWAP, budget=budget)
    assert 1 <= res.iterations <= budget


def test_invariant_jacobian_matches_central_differences(rng):
    u = haar_unitary(rng)
    x = rng.uniform(0, 2 * PI, size=(4, 6))
    h = 1e-6
    for gate in (b_gate(), u, SWAP @ u):
        residual = _invariant_residual(*_residual_terms(gate), np.zeros(3))
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
    stub = FamilySpec("stub", F(1, 4), F(1, 4), (F(1, 4), F(1, 4), F(1, 4)), (0, 0, 0))
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
def test_family_synthesis_picks_the_member_an_eighth_into_the_lowest_window(line, rng):
    spec = get_family(*line)
    scale = (spec.hi - spec.lo) / MEMBER_RESOLUTION
    margins = []
    for _ in range(4):
        v = haar_unitary(rng)
        try:
            res = synthesize_with_family(spec, v)
        except NotReachableError:
            continue
        t = F(res.theta / PI).limit_denominator(1 << 20)
        assert res.converged
        c = spec.exact_coord(t)
        assert contains(coverage_region(c, c), res.target_class)
        # the member is a grid point of the lowest window, the one nearest
        # the point an eighth of the way into it
        k = (t - spec.lo) / MEMBER_RESOLUTION
        assert k.denominator == 1
        s0, s1 = (F(s) for s in min(segment_windows(spec.point(spec.lo), spec.point(spec.hi),
                                                     res.target_class)))
        assert s0 > 0
        first, last = math.ceil(scale * s0), math.floor(scale * s1)
        x = scale * (s0 + (s1 - s0) / 8)
        assert first <= k <= last
        assert all(abs(k - x) <= abs(j - x) for j in (k - 1, k + 1) if first <= j <= last)
        margins.append(k - first)
    assert margins and max(margins) > 0


def _fsim_diag_3_stalls() -> list[np.ndarray]:
    """Draws #37 and #101 of a seeded Haar sequence: from the lowest member of
    fsim_diag branch 3 that reaches them, every first restart stalls."""
    rng = np.random.default_rng(2026)
    draws = [haar_unitary(rng) for _ in range(102)]
    return [draws[37], draws[101]]


# the lowest grid member of fsim_diag branch 3 that reaches each target above
STALLING_MEMBERS = [F(753, 2048), F(239, 512)]


def test_fsim_diag_targets_that_stalled_converge():
    spec = get_family("fsim_diag", 3)
    for v in _fsim_diag_3_stalls():
        res = synthesize_with_family(spec, v)
        assert res.converged and res.fidelity >= 1 - 1e-9
        assert res.iterations <= 200
        assert aligned_residual(res, canonical_gate(spec.exact_coord(
            F(res.theta / PI).limit_denominator(1 << 20))), v) <= 1e-7


@pytest.mark.parametrize("budget", [200, 4000])
def test_stalled_restarts_are_redrawn_within_the_budget(budget):
    spec = get_family("fsim_diag", 3)
    for t, v in zip(STALLING_MEMBERS, _fsim_diag_3_stalls()):
        res = synthesize(canonical_gate(spec.exact_coord(t)), v, budget=budget)
        assert 1 <= res.iterations <= budget
        if budget == 4000:
            # all eight first restarts stall there, so a re-draw wins
            assert res.converged and res.restart >= 8
            assert res.residual <= _RESIDUAL_FLOOR


def test_redrawn_search_is_one_result_per_seed():
    spec = get_family("fsim_diag", 3)
    u = canonical_gate(spec.exact_coord(STALLING_MEMBERS[0]))
    v = _fsim_diag_3_stalls()[0]
    first = synthesize(u, v, seed=7)
    assert first.restart >= 8
    _assert_identical(first, synthesize(u, v, seed=7))
    assert synthesize(u, v, seed=8).l2[0].tobytes() != first.l2[0].tobytes()


def _panel_digest() -> str:
    """sha256 over every field of a fixed panel of syntheses, and over the KAK
    locals and phase of each target.

    The panel holds direct syntheses of Haar targets from B, family syntheses
    from b_alpha, spe_to_b and fsim_diag branch 0 (a refusal hashes as such),
    a gate outside the B class at budgets 4000, 17 and 1, and the fsim_diag
    branch 3 targets whose first restarts all stall, at budgets 200 and 4000.
    The floats are the bits of one numpy and LAPACK build: another build may
    round an SVD or a product differently and so move the digest.
    """
    rng = np.random.default_rng(2032)
    digest = hashlib.sha256()
    redrawn = 0

    def add(solve, v):
        nonlocal redrawn
        try:
            res = solve()
        except NotReachableError:
            digest.update(b"refused")
        else:
            digest.update(b"".join(_field_bytes(res).values()))
            redrawn += res.restart >= 8
        kak = kak_decompose(v)
        digest.update(b"".join(k.tobytes() for k in (kak.k1, kak.k2, kak.k3, kak.k4)))
        digest.update(repr(kak.global_phase).encode())

    targets = [haar_unitary(rng) for _ in range(6)]
    for v in targets:
        add(lambda: synthesize(b_gate(), v), v)
    for family, secondary in (("b_alpha", None), ("spe_to_b", None), ("fsim_diag", 0)):
        spec = get_family(family, secondary)
        for v in targets[:4]:
            add(lambda: synthesize_with_family(spec, v), v)
    u = haar_unitary(rng)
    v = u @ haar_su2_pair(rng) @ u
    for budget in (4000, 17, 1):
        add(lambda: synthesize(u, v, budget=budget), v)
    spec = get_family("fsim_diag", 3)
    for t, v in zip(STALLING_MEMBERS, _fsim_diag_3_stalls()):
        for budget in (200, 4000):
            add(lambda: synthesize(canonical_gate(spec.exact_coord(t)), v, budget=budget), v)
    assert redrawn >= 2
    return digest.hexdigest()


# _panel_digest() of the search before its live restarts became one block
PANEL_DIGEST = "9f26071b0391a9109e4bb8f82c88681d15037fefc5a2323d0de8e412faf59e5a"


def test_the_search_takes_the_same_iterates_on_a_fixed_panel():
    assert _panel_digest() == PANEL_DIGEST


def test_a_refusal_builds_no_eigenbasis_of_the_target(monkeypatch, rng):
    gates, bases = _counted_diagonalizations(monkeypatch)
    stub = FamilySpec("stub", F(1, 4), F(1, 4), (F(1, 4), F(1, 4), F(1, 4)), (0, 0, 0))
    for refuse in (lambda v: synthesize(CNOT, v),
                   lambda v: synthesize_with_family(stub, v)):
        v = haar_unitary(rng)
        bases.clear()
        with pytest.raises(NotReachableError):
            refuse(v)
        assert _count(bases, _m_of(v)) == 0


def test_target_invariants_are_read_once(monkeypatch, rng):
    # the Makhlin invariants are read only where a magic image is built
    calls, _ = _counted_diagonalizations(monkeypatch)
    v = haar_unitary(rng)
    synthesize(b_gate(), v)
    calls.clear()
    res = synthesize(b_gate(), v)
    w = b_gate() @ np.kron(*res.l2) @ b_gate()
    # warm: the images of V and of U L2 U, whose guards read their invariants
    assert (len(calls), _count(calls, v), _count(calls, w)) == (2, 1, 1)


@pytest.mark.parametrize("lo, hi, offset, slope", [
    (F(0), F(1), (0, 0, 0), (1, 0, 0)),           # folded past c1 = pi/2 at hi
    (F(0), F(1, 2), (0, F(1, 4), 0), (1, 0, 0)),  # c2 > c1 at lo
], ids=["folded", "off_chamber"])
def test_family_spec_rejects_a_non_canonical_endpoint(lo, hi, offset, slope):
    with pytest.raises(ValueError, match="family bent"):
        FamilySpec("bent", lo, hi, offset, slope)


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
