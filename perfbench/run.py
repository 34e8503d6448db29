#!/usr/bin/env python3
"""gatecover benchmark: one closed-loop workload per run, with output checks.

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the library is imported from ``src/`` there.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The line before it, ``results {...}``, holds the digest of the exact outputs
and the figures that are not metrics (error rate, p90 where it is measurable,
the raw wall-clock times before the machine-speed scaling of ``speed.py``).
"""

from __future__ import annotations

import os

# pinned before numpy loads: two shared cores, one client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from speed import SpeedLog
from tracing import NullTracer, Tracer, self_times, span_stats

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCE = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".bench_out"
WORKLOAD_NAMES = ("exact_sweep", "membership_oracle", "synthesis", "cli")
SETUP_PROBES = 7
P90_MIN_SAMPLES = 100  # ten samples beyond p90

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# span name -> the statistics reported for it; every span also gets self_s
SPAN_STATS = {
    "op": (),
    "qlr.enumerate": (),
    "coverage.build": ("calls", "s", "p50_s"),
    "coverage.vertices": ("s", "p50_s"),
    "coverage.volume": ("s",),
    "coverage.union": ("s",),
    "coverage.json": ("s",),
    "coverage.mc_volume": ("s",),
    "coverage.contains_float": ("calls", "s"),
    "coverage.contains_exact": ("calls", "s"),
    "cartan.coordinates": ("calls", "s", "p50_s"),
    "cartan.kak": ("calls", "s", "p50_s"),
    "synthesis.synthesize": ("calls", "s", "p50_s"),
    "synthesis.family": ("calls", "s"),
    "synthesis.reachable": ("calls", "s"),
    "synthesis.refuse": ("calls", "s"),
    "cli.analyze": ("p50_s",),
    "cli.coverage": ("p50_s",),
    "cli.sweep": ("p50_s",),
    "cli.qlr": ("p50_s",),
    "cli.synth": ("p50_s",),
    "cli.refusal": ("p50_s",),
    "cli.bad_input": ("p50_s",),
}

# counter -> how its observations reduce to one value per run
COUNTERS = {
    "coverage.halfspaces_per_part": "mean",
    "coverage.parts_distinct": "mean",
    "coverage.vertices_per_part": "mean",
    "coverage.solid_parts": "mean",
    "coverage.union.terms": "first_cycle_sum",
    "coverage.max_denominator_digits": "max",
    "synthesis.evaluations": "first_cycle_sum",
    "synthesis.converged_share": "mean",
    "synthesis.worst_infidelity": "max",
    "cli.bad_input_exit2_share": "mean",
    "cli.known_defects": "max",
}


def per_layer_names() -> list[str]:
    names = ["qlr.enumerate_s", "qlr.tuples", "cli.import_s"]
    for span, stats in SPAN_STATS.items():
        names += [f"{span}.{stat}" for stat in stats + ("self_s",)]
    return names + list(COUNTERS) + ["trace.overhead_s", "trace.layer_share"]


def use_checkout_source() -> None:
    if not (SOURCE / "gatecover" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gatecover sources under {SOURCE}; "
                 "run from the root of a gatecover checkout")
    sys.path.insert(0, str(SOURCE))
    os.environ["PYTHONPATH"] = str(SOURCE)


def setup_probe(workload: str, seed: int) -> None:
    """Child process: do a run's set-up, report its parts, print one line, exit."""
    t0 = time.perf_counter()
    import gatecover.cli  # noqa: F401  (the import a gatecover process pays)
    t1 = time.perf_counter()
    from gatecover.qlr import enumerate_inequality_tuples
    enumerate_inequality_tuples()
    t2 = time.perf_counter()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, NullTracer(), CHECKOUT)
    wl.item(0)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "qlr_s": t2 - t1, "inputs_s": t3 - t2}), flush=True)
    wl.close()


def measure_setup(workload: str, seed: int, speed: SpeedLog) -> dict[str, float]:
    """Median over fresh processes of process start to the first op, and of its parts.

    ``setup_scaled_s`` is the median with each process's time scaled by the
    machine's speed around it.
    """
    samples, intervals = [], []
    speed.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--setup-probe",
                                 "--workload", workload, "--seed", str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = elapsed
        samples.append(sample)
        intervals.append((t0, t0 + elapsed))
        speed.sample()
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    out["setup_scaled_s"] = statistics.median(
        s["setup_s"] * speed.factor(*iv) for s, iv in zip(samples, intervals))
    return out


class Outcomes:
    """Latencies, failures and first-cycle exact-output digests of one run's ops."""

    def __init__(self, wl):
        self.wl = wl
        self.latency: dict[str, list[float]] = {slot: [] for slot in wl.cycle}
        self.intervals: dict[str, list[tuple[float, float]]] = {slot: [] for slot in wl.cycle}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []
        self.first_cycle: dict[int, str] = {}

    def execute(self, i, item, tracer) -> float:
        """Run and check one op; return its latency in seconds.

        An op fails when it raises or when its output fails a check.  Every
        failure makes the run's output incorrect, except a raise the workload
        lists as a known failure of its slot (``Workload.known_failures``).
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                out = self.wl.run(item, tracer)
        except Exception as exc:  # the op's failure is a result; keep running
            t1 = time.perf_counter()
            self.failed += 1
            known = isinstance(exc, self.wl.known_failures.get(item.slot, ()))
            if not known:
                self.wrong += 1
            self.messages.append(f"op {i} [{item.key}] raised "
                                 f"({'known' if known else 'unexpected'}): "
                                 + traceback.format_exc(limit=2).strip())
        else:
            t1 = time.perf_counter()
            problems = self.wl.check(item, out)
            if problems:
                self.failed += 1
                self.wrong += 1
                self.messages += [f"op {i} [{item.key}] wrong output: {p}" for p in problems]
            else:
                text = self.wl.exact_output(item, out)
                if text is not None and i < len(self.wl.cycle):
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    self.first_cycle.setdefault(i, f"{item.key}\t{digest}\n")
        self.latency[item.slot].append(t1 - t0)
        self.intervals[item.slot].append((t0, t1))
        return t1 - t0

    def scaled_latency(self, speed: SpeedLog) -> dict[str, list[float]]:
        """Each op's latency scaled by the machine's speed around it."""
        return {slot: [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in ivs]
                for slot, ivs in self.intervals.items()}

def cycle_rate(cycle, latency: dict[str, list[float]]) -> float:
    """Closed-loop rate over the stated input mix: one cycle of slots.

    Each slot's median latency is weighted by its share of the cycle, so
    the rate does not depend on where in the cycle the run happened to
    stop, and a burst of load from outside moves it less than a mean would.
    """
    return len(cycle) / sum(statistics.median(latency[slot]) for slot in cycle)


def cycle_median(cycle, latency: dict[str, list[float]]) -> float:
    """Median latency over the stated input mix.

    Each sample weighs its slot's share of the cycle divided by the slot's
    sample count, so the median does not depend on which slots a run
    happened to repeat before it stopped.
    """
    share = Counter(cycle)
    weighted = sorted((x, Fraction(share[slot], len(xs)))
                      for slot, xs in latency.items() for x in xs)
    half, acc = sum(w for _, w in weighted) / 2, Fraction(0)
    for k, (x, w) in enumerate(weighted):
        acc += w
        if acc > half:
            return x
        if acc == half:
            return (x + weighted[k + 1][0]) / 2
    raise ValueError("no latencies")


def timed_loop(wl, seconds: float, tracer, speed: SpeedLog) -> tuple[Outcomes, list[float]]:
    """Closed loop, one client: ops until ``seconds`` of op time and one full cycle.

    The speed kernel runs between ops, untimed.  With a real tracer every
    input runs twice, traced and untraced in alternating order, and the
    paired differences measure the tracing cost.
    """
    outcomes, untraced = Outcomes(wl), NullTracer()
    overhead = []
    busy, i = 0.0, 0
    while busy < seconds or i < len(wl.cycle):
        speed.maybe_sample()
        item = wl.item(i)
        if not tracer.enabled:
            busy += outcomes.execute(i, item, untraced)
        else:
            lat = {}
            tracer.op_id = i
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                lat[traced] = outcomes.execute(i, item, tracer if traced else untraced)
            overhead.append(lat[True] - lat[False])
            busy += lat[True] + lat[False]
        i += 1
    speed.sample()
    return outcomes, overhead


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_metrics(cycle, setup_s: float, latency) -> dict[str, float]:
    return {"setup_s": setup_s, "ops_per_s": cycle_rate(cycle, latency),
            "op_p50_s": cycle_median(cycle, latency)}


def end_to_end(workload, scaled: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Time metrics in seconds of the nominal machine of ``speed.py``, and memory."""
    values = dict(scaled, peak_rss_mb=peak_rss_mb(workload))
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("share", "infidelity")) else "count"


def per_layer(wl, setup, tuples, tracer, overhead) -> dict[str, tuple[float, str]]:
    """Layer figures of a traced run, in wall-clock seconds as measured."""
    stats = span_stats(tracer.spans)
    out = {"qlr.enumerate_s": setup["qlr_s"], "qlr.tuples": len(tuples),
           "cli.import_s": setup["import_s"]}
    for span, wanted in SPAN_STATS.items():
        got = stats.get(span, {"calls": 0, "s": 0.0, "p50_s": 0.0, "self_s": 0.0})
        for stat in wanted + ("self_s",):
            out[f"{span}.{stat}"] = got[stat]
    n_cycle = len(wl.cycle)
    for name, how in COUNTERS.items():
        obs = tracer.counters.get(name, [])
        values = [v for _, v in obs]
        if not values:
            value = 0.0
        elif how == "mean":
            value = statistics.fmean(values)
        elif how == "max":
            value = max(values)
        else:
            value = sum(v for op, v in obs if isinstance(op, int) and op < n_cycle)
        out[name] = value
    selfs = self_times(tracer.spans)
    op_time = sum(s.end - s.start for s in tracer.spans if s.name == "op")
    layer_self = sum(selfs[s.span_id] for s in tracer.spans
                     if s.name != "op" and isinstance(s.op_id, int))
    out["trace.overhead_s"] = statistics.fmean(overhead)
    out["trace.layer_share"] = layer_self / op_time
    return {k: (out[k], per_layer_unit(k)) for k in per_layer_names()}


def run_workload(args) -> int:
    use_checkout_source()
    setup_speed, speed = SpeedLog(), SpeedLog()
    setup = measure_setup(args.workload, args.seed, setup_speed)

    from gatecover.qlr import enumerate_inequality_tuples
    from workloads import WORKLOADS
    tracer = Tracer() if args.trace else NullTracer()
    tracer.op_id = "setup"
    with tracer.span("qlr.enumerate"):
        tuples = enumerate_inequality_tuples()
    wl = WORKLOADS[args.workload](args.seed, tracer, CHECKOUT)
    try:
        outcomes, overhead = timed_loop(wl, args.seconds, tracer, speed)
        known_defects = wl.probe_known_defects(tracer)
    finally:
        wl.close()

    n_ops = outcomes.attempted
    for message in outcomes.messages[:20]:
        print(message, file=sys.stderr)
    scaled = outcomes.scaled_latency(speed)
    latencies = [x for xs in scaled.values() for x in xs]
    error_rate = outcomes.failed / n_ops
    p90 = (statistics.quantiles(latencies, n=10)[-1]
           if len(latencies) >= P90_MIN_SAMPLES else None)
    raw = time_metrics(wl.cycle, setup["setup_s"], outcomes.latency)
    if args.trace:
        metrics = per_layer(wl, setup, tuples, tracer, overhead)
    else:
        metrics = end_to_end(args.workload,
                             time_metrics(wl.cycle, setup["setup_scaled_s"], scaled))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n_ops} ops over a cycle of {len(wl.cycle)} slots, {outcomes.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':40s} {error_rate:.6g} ({outcomes.failed}/{n_ops})")
        print(f"  {'op_p90_s':40s} " + (f"{p90:.6g} s" if p90 is not None else
              f"n/a: {len(latencies)} samples, p90 needs {P90_MIN_SAMPLES}"))
        print(f"  setup_s is the median of {SETUP_PROBES} fresh set-ups; "
              f"op_p50_s is over {len(latencies)} samples")
        print(f"  times are scaled to the nominal machine op by op; speed kernel median "
              f"{speed.kernel_s() * 1e3:.3f} ms over {len(speed.samples)} calls; unscaled "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, status in known_defects.items():
        print(f"  known defect, not an op: {name}: {status}")
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": n_ops, "failed": outcomes.failed,
        "error_rate": error_rate, "op_p90_s": p90, "unscaled": raw,
        "speed_kernel_s": {"setup": setup_speed.kernel_s(), "ops": speed.kernel_s()},
        "speed_calls": {"setup": len(setup_speed.samples), "ops": len(speed.samples)},
        "known_defects": known_defects,
        "samples_per_slot": {k: len(v) for k, v in outcomes.latency.items()},
        "mean_s_per_slot": {k: statistics.fmean(v) for k, v in outcomes.latency.items()},
        "digest_first_cycle": hashlib.sha256(
            "".join(outcomes.first_cycle[i] for i in sorted(outcomes.first_cycle)).encode()
        ).hexdigest(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(results, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.json"))
    print("results " + json.dumps(results))
    print(json.dumps({"correct": outcomes.wrong == 0, "attempted": n_ops,
                      "failed": outcomes.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as the per-workload runs do it."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        use_checkout_source()
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
