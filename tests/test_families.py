import math
from fractions import Fraction as F

import numpy as np
import pytest

from gatecover.cartan import cartan_coordinates, local_invariants
from gatecover.coords import (B_CLASS, CNOT_CLASS, SQRT_SWAP_CLASS,
                              CartanCoord, class_equal, in_chamber)
from gatecover.errors import (NotOnFsimPlaneError, OutOfRangeError)
from gatecover.families import (FAMILY_IDS, FamilySpec, b_alpha_circuit,
                                fsim, fsim_cartan_params, fsim_class,
                                fsim_invariants, get_family,
                                hamiltonian_family_gate)
from gatecover.numerics import unitarity_defect
from gatecover.symmetry import (is_inverse_invariant,
                                is_mirrored_inverse_invariant)

PI = math.pi


# ------------------------------------------------------------ family registry

def test_registry_ids():
    assert set(FAMILY_IDS) == {"b_alpha", "spe_to_b", "plane_theta_line",
                               "c2_quarter_line", "fsim_diag"}


def test_b_alpha_endpoints():
    spec = get_family("b_alpha")
    assert class_equal(spec.exact_coord(F(1, 2)), B_CLASS)  # alpha = 1
    assert class_equal(spec.exact_coord(F(0)), CartanCoord.exact(0, 0, 0))


def test_spe_to_b_touches_sqrt_swap():
    spec = get_family("spe_to_b")
    assert class_equal(spec.exact_coord(F(1, 4)), SQRT_SWAP_CLASS)
    assert class_equal(spec.exact_coord(F(1, 2)), B_CLASS)


def test_theta_line_cnot_end():
    spec = get_family("plane_theta_line", F(0))
    assert class_equal(spec.exact_coord(F(0)), CNOT_CLASS)
    assert class_equal(spec.exact_coord(F(1, 4)), SQRT_SWAP_CLASS)


def test_family_out_of_range():
    spec = get_family("b_alpha")
    with pytest.raises(OutOfRangeError):
        spec.exact_coord(F(3, 4))
    with pytest.raises(OutOfRangeError):
        get_family("nope")
    for fid in ("b_alpha", "spe_to_b"):
        with pytest.raises(OutOfRangeError, match="takes no secondary"):
            get_family(fid, F(1, 6))
    with pytest.raises(OutOfRangeError, match="exact angle"):
        get_family("plane_theta_line", 0.3)
    with pytest.raises(OutOfRangeError, match="outside"):
        get_family("c2_quarter_line", F(1, 2))
    for branch in (F(1, 6), 2.5, 4, -1):
        with pytest.raises(OutOfRangeError, match="integer 0..3"):
            get_family("fsim_diag", branch)
    assert get_family("fsim_diag", 2.0).secondary == 2


def test_get_family_builds_each_line_once():
    assert get_family("plane_theta_line", F(1, 12)) is get_family("plane_theta_line", F(1, 12))
    # the cache tells an exact 0 from the radian 0.0, which stays refused
    assert get_family("plane_theta_line", F(0)).secondary == 0
    with pytest.raises(OutOfRangeError, match="exact angle"):
        get_family("plane_theta_line", 0.0)
    # a spec built directly is still checked
    with pytest.raises(ValueError, match="not a canonical chamber point"):
        FamilySpec("bad", F(0), F(1), (0, 0, 0), (1, 1, 1))


def test_family_coords_chamber_valid(rng):
    for fid in FAMILY_IDS:
        specs = [get_family(fid)]
        if fid == "plane_theta_line":
            specs.append(get_family(fid, F(1, 12)))
        if fid == "fsim_diag":
            specs = [get_family(fid, b) for b in range(4)]
        for spec in specs:
            for t in spec.grid(100):
                c = spec.exact_coord(t)
                assert in_chamber(c.astuple())


def test_family_symmetry_predicates():
    # the c3 = 0 family is inverse-invariant everywhere; the spe line is
    # mirrored-inverse-invariant everywhere
    b_alpha = get_family("b_alpha")
    for t in b_alpha.grid(9):
        assert is_inverse_invariant(b_alpha.exact_coord(t))
    spe = get_family("spe_to_b")
    for t in spe.grid(9):
        assert is_mirrored_inverse_invariant(spe.exact_coord(t))
    # theta lines hit the mirrored-inverse set exactly at c2 = pi/4
    line = get_family("plane_theta_line", F(1, 12))
    for t in line.grid(9):
        expected = (t == F(1, 4))
        assert is_mirrored_inverse_invariant(line.exact_coord(t)) == expected


# ------------------------------------------------------------------- fsim

def test_fsim_identity_and_unitarity(rng):
    np.testing.assert_allclose(fsim(0, 0), np.eye(4), atol=1e-15)
    for _ in range(20):
        th, ph = rng.uniform(0, 2 * PI, 2)
        assert unitarity_defect(fsim(th, ph)) <= 1e-14


def test_fsim_iswap_like():
    m = fsim(PI / 2, 0)
    expect = np.array([[1, 0, 0, 0], [0, 0, -1j, 0],
                       [0, -1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
    np.testing.assert_allclose(m, expect, atol=1e-15)


def test_fsim_controlled_phase_family():
    phi = 0.7
    np.testing.assert_allclose(fsim(0, phi),
                               np.diag([1, 1, 1, np.exp(-1j * phi)]), atol=1e-15)


def test_fsim_invariants_identity():
    g = fsim_invariants(0, 0)
    assert abs(g.g1 - 1) < 1e-15 and abs(g.g2 - 3) < 1e-15


def test_fsim_invariants_zero_phase_line():
    for th in np.linspace(0, PI, 13):
        assert abs(fsim_invariants(th, 0).g2 - (2 * math.cos(2 * th) + 1)) < 1e-12


def test_fsim_invariants_dual_path(rng):
    for _ in range(100):
        th, ph = rng.uniform(0, 2 * PI, 2)
        closed = fsim_invariants(th, ph)
        numeric = local_invariants(fsim(th, ph))
        assert closed.distance(numeric) <= 1e-10


def test_fsim_class_map(rng):
    for _ in range(50):
        th, ph = rng.uniform(0, 2 * PI, 2)
        assert class_equal(cartan_coordinates(fsim(th, ph)), fsim_class(th, ph))


def test_fsim_params_examples():
    th, ph = fsim_cartan_params(SQRT_SWAP_CLASS)
    assert abs(th - PI / 4) < 1e-12 and abs(ph + PI / 2) < 1e-12
    th, ph = fsim_cartan_params(CartanCoord.exact(F(1, 2), 0, 0))
    assert abs(th) < 1e-12 and abs(abs(ph) - PI) < 1e-12
    # c2 = c3 plane point
    th, ph = fsim_cartan_params(CartanCoord.exact(F(1, 2), F(1, 8), F(1, 8)))
    assert abs(th - PI / 8) < 1e-12


def test_fsim_params_round_trips_on_brown_lines():
    for branch in range(4):
        spec = get_family("fsim_diag", branch)
        for t in spec.grid(9):
            c = spec.exact_coord(t)
            th, ph = fsim_cartan_params(c)
            assert class_equal(cartan_coordinates(fsim(th, ph)), c)


def test_fsim_params_rejects_generic_point():
    with pytest.raises(NotOnFsimPlaneError):
        fsim_cartan_params(CartanCoord.exact(F(5, 12), F(1, 4), F(1, 12)))


# ------------------------------------------------ circuit-level realizations

def test_hamiltonian_family_identity_end():
    np.testing.assert_allclose(hamiltonian_family_gate(0.0), np.eye(4), atol=1e-15)


def test_hamiltonian_family_reaches_b():
    c = cartan_coordinates(hamiltonian_family_gate(PI / 8))
    assert class_equal(c, B_CLASS)


def test_hamiltonian_family_traces_b_alpha_line():
    for gt in np.linspace(0.0, PI / 8, 9):
        c = cartan_coordinates(hamiltonian_family_gate(gt))
        assert abs(c.c1 - 4 * gt) < 1e-9
        assert abs(c.c2 - c.c1 / 2) < 1e-9
        assert abs(c.c3) < 1e-9


def test_hamiltonian_family_rejects_negative():
    with pytest.raises(OutOfRangeError):
        hamiltonian_family_gate(-0.1)


@pytest.mark.parametrize("gt", [-1.0, math.nan, math.inf, -math.inf])
def test_hamiltonian_family_rejects_gt_outside_zero_to_inf(gt):
    with pytest.raises(OutOfRangeError, match="finite and non-negative"):
        hamiltonian_family_gate(gt)


def test_b_alpha_circuit_endpoints():
    local_end = b_alpha_circuit(0.0)
    assert class_equal(local_end.realized, CartanCoord.exact(0, 0, 0))
    b_end = b_alpha_circuit(PI / 2)
    assert class_equal(b_end.realized, B_CLASS, 1e-6)


def test_b_alpha_circuit_grid():
    for theta in np.linspace(0.0, PI / 2, 11):
        real = b_alpha_circuit(theta)
        assert abs(real.realized.c2 - real.realized.c1 / 2) <= 1e-6
        assert abs(real.realized.c3) <= 1e-6
        assert abs(real.realized.c1 - theta) <= 1e-6
        assert unitarity_defect(real.unitary) < 1e-12


def test_b_alpha_circuit_contains_rx():
    # the middle control-wire gate is Rx(-theta) conjugated by fixed rotations
    from gatecover.numerics import rx, rz
    theta = 0.73
    real = b_alpha_circuit(theta)
    expect = rz(PI / 2) @ rx(-theta) @ rz(-PI / 2)
    np.testing.assert_allclose(real.mid_control, expect, atol=1e-15)
