"""Self-tests of the benchmark: seeded inputs, output checkers, span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from gatecover.cartan import canonical_gate, cartan_coordinates  # noqa: E402
from gatecover.coords import CNOT_CLASS, SWAP_CLASS, CartanCoord, class_equal  # noqa: E402
from gatecover.coverage import McVolumeEstimate  # noqa: E402
from speed import BURST, NOMINAL_S, SpeedLog  # noqa: E402
from tracing import NullTracer, Span, Tracer, self_times, span_stats  # noqa: E402

N_ITEMS = 16


def fingerprint(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, CartanCoord):
        return (value.astuple(), value.frac)
    if isinstance(value, dict) and "region" in value:
        return value["name"]
    if isinstance(value, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in value.items()))
    return repr(value)


def inputs(cls, seed, tmp_path):
    wl = cls(seed, NullTracer(), tmp_path)
    try:
        return [(it.slot, it.key, fingerprint(it.data)) for it in map(wl.item, range(N_ITEMS))]
    finally:
        wl.close()


@pytest.mark.parametrize("cls", W.WORKLOADS.values(), ids=list(W.WORKLOADS))
def test_seed_fixes_inputs(cls, tmp_path):
    first = inputs(cls, 5, tmp_path)
    assert first == inputs(cls, 5, tmp_path)
    assert first != inputs(cls, 6, tmp_path)


def test_pauli_points_are_reachable():
    """The membership oracle's exact inside points are classes of u (P x I) u."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    for x in [(Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)),
              (Fraction(5, 12), Fraction(1, 6), Fraction(1, 12))]:
        u = canonical_gate(CartanCoord.exact(*x))
        for p, point in zip(paulis, W._pauli_points(x)):
            assert class_equal(cartan_coordinates(u @ np.kron(p, np.eye(2)) @ u), point)


def test_exact_sweep_check_rejects_corrupted_output(tmp_path):
    wl = W.ExactSweep(3, NullTracer(), tmp_path)
    item = wl.item(2)                       # first zero endpoint: the sqrt-SWAP class
    assert item.slot == "endpoint" and item.key.startswith("spe_to_b")
    out = wl.run(item, NullTracer())
    assert wl.check(item, out) == []
    assert wl.check(item, dict(out, fraction=Fraction(3, 2)))       # outside [0, 1]
    assert wl.check(item, dict(out, mc=McVolumeEstimate(0.2, 0.001, 100_000)))
    solid = W.Item("b_alpha", "k", {"expect": None})
    doc = {"union_volume_fraction": {"exact": "1/2"}}
    good = {"fraction": Fraction(1, 2), "doc": doc, "mc": McVolumeEstimate(0.5, 0.0016, 10**5)}
    assert wl.check(solid, good) == []
    assert wl.check(solid, dict(good, fraction=Fraction(1, 3)))    # json disagrees
    full = W.Item("endpoint", "k", {"expect": Fraction(1)})
    assert wl.check(full, good)                                      # endpoint not exactly 1


def test_membership_check_rejects_corrupted_output(tmp_path):
    wl = W.MembershipOracle(3, NullTracer(), tmp_path)
    item = wl.item(1)
    assert item.slot == "product" and item.data["gate"]["name"] == "cnot"
    out = wl.run(item, NullTracer())
    assert wl.check(item, out) == []
    assert wl.check(item, dict(out, inside=False))                   # product outside
    other = wl.run(wl.item(2), NullTracer())["kak"]
    assert wl.check(item, dict(out, kak=other))                      # KAK of another gate
    cnot = wl.gates[1]
    outsider = W.Item("exact", "swap", {"gate": cnot, "point": SWAP_CLASS, "truth": False})
    assert wl.run(outsider, NullTracer()) == {"inside": False}
    assert wl.check(outsider, {"inside": False}) == []
    assert wl.check(outsider, {"inside": True})                      # point outside accepted


def test_synthesis_check_rejects_corrupted_output(tmp_path):
    wl = W.Synthesis(3, NullTracer(), tmp_path)
    item = W.Item("direct", "k")
    assert wl.check(item, {"fidelity": 1.0}) == []
    assert wl.check(item, {"fidelity": 0.9999})
    refusal = W.Item("refusal", "k")
    assert wl.check(refusal, {"reachable": False, "refused": True}) == []
    assert len(wl.check(refusal, {"reachable": True, "refused": False})) == 2
    u = canonical_gate(CNOT_CLASS)
    assert W.fidelity(u * np.exp(0.3j), u) == pytest.approx(1.0)


def test_cli_check_rejects_corrupted_output(tmp_path):
    wl = W.Cli(3, NullTracer(), tmp_path)
    try:
        out_path = wl.workdir / "doc.json"
        bad = W.Item("bad_input", "k", {"expect": 2, "out": str(out_path)})
        assert wl.check(bad, {"code": 2, "stderr": ""}) == []
        assert wl.check(bad, {"code": 0, "stderr": ""})              # wrong exit code
        qlr = W.Item("qlr", "k", {"expect": 0, "out": str(wl.workdir / "none.txt")})
        assert wl.check(qlr, {"code": 0, "stderr": ""})              # exit 0, no output

        coverage = W.Item("coverage", "k", {"expect": 0, "out": str(out_path),
                                            "coord": "pi/2,pi/4,0"})
        wl._library_fraction["pi/2,pi/4,0"] = Fraction(1)
        doc = {"union_volume_fraction": {"exact": "1"},
               "mc_volume": {"fraction": 1.0, "stderr": 1e-5}}
        out_path.write_text(json.dumps(doc))
        assert wl.check(coverage, {"code": 0, "stderr": ""}) == []
        doc["union_volume_fraction"]["exact"] = "53/54"
        out_path.write_text(json.dumps(doc))
        assert wl.check(coverage, {"code": 0, "stderr": ""})         # fraction differs
        out_path.write_text("{not json")
        assert wl.check(coverage, {"code": 0, "stderr": ""})         # does not parse

        sweep = W.Item("sweep", "k", {"expect": 0, "out": str(out_path)})
        rows = [{"parameter": p, "fraction": f, "mc_fraction": f, "mc_stderr": 1e-3}
                for p, f in ((0, 0.0), (0.8, 0.5), (1.6, 1.0))]
        out_path.write_text(json.dumps(rows))
        assert wl.check(sweep, {"code": 0, "stderr": ""}) == []
        rows[1]["fraction"] = rows[1]["mc_fraction"] = 1.5
        out_path.write_text(json.dumps(rows))
        assert wl.check(sweep, {"code": 0, "stderr": ""})            # leaves [0, 1]

        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        synth = W.Item("synth", "k", {"expect": 0, "out": str(out_path), "target": "swap"})
        out_path.write_text(json.dumps({"locals": {k: [eye, eye] for k in ("l1", "l2", "l3")}}))
        assert wl.check(synth, {"code": 0, "stderr": ""})            # b.b is not SWAP
    finally:
        wl.close()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # op [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tracer.span("op"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["c"].parent == by_name["b"].span_id
    selfs = self_times(tracer.spans)
    assert [selfs[by_name[n].span_id] for n in ("op", "a", "b", "c")] == [3, 3, 3, 1]
    stats = span_stats(tracer.spans)
    assert stats["op"] == {"calls": 1, "s": 10, "p50_s": 10, "self_s": 3}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", 0.0, 10.0, None, 1), Span(1, "x", 1.0, 5.0, 0, 1),
             Span(2, "y", 3.0, 7.0, 0, 1), Span(3, "z", 8.0, 12.0, 0, 1)]
    # children cover [1, 7] and [8, 10] of the parent: 8 of its 10 seconds
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_cycle_rate_weights_slot_medians_by_their_share_of_the_cycle():
    latency = {"a": [1.0, 1.0, 9.0], "b": [4.0]}
    assert run.cycle_rate(("a", "a", "b"), latency) == pytest.approx(3 / (1.0 + 1.0 + 4.0))


def test_cycle_median_weights_samples_by_their_slots_share_of_the_cycle():
    cycle = ("a", "b", "c", "d")
    # a and b ran twice before the run stopped; each slot still counts once
    latency = {"a": [1.0, 1.0], "b": [2.0, 2.0], "c": [3.0], "d": [4.0]}
    assert run.cycle_median(cycle, latency) == pytest.approx(2.5)
    latency = {"a": [1.0, 1.0], "b": [2.0, 2.0], "c": [3.0], "d": [9.0] * 5}
    assert run.cycle_median(cycle, latency) == pytest.approx(2.5)
    assert statistics.median(x for xs in latency.values() for x in xs) == 6.0  # unweighted
    assert run.cycle_median(("a", "a", "a", "b"), {"a": [1.0], "b": [2.0] * 4}) == 1.0


def test_only_known_failures_of_a_slot_leave_the_output_correct():
    class Raising(W.Workload):
        cycle = ("a", "b")
        known_failures = {"a": (W.NotConverged,)}

        def run(self, item, tracer):
            raise item.data["exc"]

    wl = Raising(1, NullTracer(), HERE)
    outcomes = run.Outcomes(wl)
    outcomes.execute(0, W.Item("a", "k", {"exc": W.NotConverged()}), NullTracer())
    assert (outcomes.failed, outcomes.wrong) == (1, 0)
    outcomes.execute(1, W.Item("a", "k", {"exc": ValueError()}), NullTracer())
    assert (outcomes.failed, outcomes.wrong) == (2, 1)   # another raise on that slot
    outcomes.execute(2, W.Item("b", "k", {"exc": W.NotConverged()}), NullTracer())
    assert (outcomes.failed, outcomes.wrong) == (3, 2)   # the known raise on another slot


def test_speed_log_scales_an_interval_by_the_calls_around_it():
    now = [0.0]
    slowdown = iter([1, 1, 1, 2, 2, 2, 4, 4, 4])

    def measure():
        now[0] += 0.01
        return NOMINAL_S * next(slowdown)

    log = SpeedLog(clock=lambda: now[0], measure=measure)
    log.maybe_sample()                                   # the first call samples
    assert len(log.samples) == BURST
    log.maybe_sample()                                   # too soon: no sample
    assert len(log.samples) == BURST
    op1 = (now[0] + 0.1, now[0] + 1.0)                   # an op at full speed ...
    now[0] = op1[1] + 0.1
    log.maybe_sample()                                   # ... then the machine halves its speed
    op2 = (now[0] + 0.1, now[0] + 1.0)
    now[0] = op2[1] + 0.1
    log.maybe_sample()
    # op1: calls at speeds 1, 1, 1 | 1/2, 1/2, 1/2 -> median of the six: 1.5
    assert log.factor(*op1) == pytest.approx(1 / 1.5)
    # op2: 1/2, 1/2, 1/2 | 1/4, 1/4, 1/4 -> 3
    assert log.factor(*op2) == pytest.approx(1 / 3)
    assert log.kernel_s() == 2 * NOMINAL_S


def test_end_to_end_reports_the_scaled_times_and_memory():
    got = run.end_to_end("exact_sweep", {"setup_s": 0.4, "ops_per_s": 10.0, "op_p50_s": 0.08})
    assert got["setup_s"] == (0.4, "s")
    assert got["ops_per_s"] == (10.0, "1/s")
    assert got["op_p50_s"] == (0.08, "s")
    assert got["peak_rss_mb"][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
