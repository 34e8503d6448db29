"""The four benchmark workloads: seeded inputs, one timed op each, output checks.

Every workload is a closed loop with one client.  Op ``i`` runs the slot
``cycle[i % len(cycle)]``; its input depends only on the seed and ``i``, so a
seed fixes the input sequence.  ``run`` is the timed op and records a span
around each call into a gatecover layer; ``check`` is untimed and returns the
problems it found in the op's output (an empty list when it is correct).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from gatecover import cli as gc_cli
from gatecover.cartan import (CNOT, SQRT_SWAP, SWAP, b_gate, canonical_gate,
                              cartan_coordinates, kak_decompose)
from gatecover.coords import (B_CLASS, CNOT_CLASS, PI, SQRT_SWAP_CLASS,
                              SWAP_CLASS, CartanCoord, canonicalize,
                              coord_distance)
from gatecover.coverage import (contains, coverage_region, fractional_volume,
                                mc_volume, region_to_json)
from gatecover.errors import NotReachableError
from gatecover.families import get_family
from gatecover.numerics import haar_su2_pair, haar_unitary
from gatecover.qlr import QLR_TABLE_SHA256
from gatecover.synthesis import reachable, synthesize, synthesize_with_family

MC_SAMPLES = 100_000          # the CLI default of --mc-samples
MEMBERSHIP_SLACK = 1e-7
KAK_RESIDUAL_MAX = 1e-8
FIDELITY_MIN = 1 - 1e-6

_WORKLOAD_KEYS = {"exact_sweep": 1, "membership_oracle": 2, "synthesis": 3, "cli": 4}


def op_rng(workload: str, seed: int, i: int) -> np.random.Generator:
    """Generator for the input of op ``i``: a function of the seed and ``i`` only."""
    return np.random.default_rng((seed, _WORKLOAD_KEYS[workload], 1, i))


def setup_rng(workload: str, seed: int) -> np.random.Generator:
    """Generator for the inputs a workload draws once, in set-up."""
    return np.random.default_rng((seed, _WORKLOAD_KEYS[workload], 0))


def fidelity(a: np.ndarray, v: np.ndarray) -> float:
    """|tr(a^dag v)| / 4: 1 when a equals v up to global phase."""
    return float(abs(np.trace(a.conj().T @ v)) / 4.0)


def family_point(rng: np.random.Generator, family_id: str):
    """A family member at a small-denominator interior parameter: (spec, t)."""
    if family_id in ("plane_theta_line", "c2_quarter_line"):
        secondary = Fraction(int(rng.integers(1, 6)), 24)
    elif family_id == "fsim_diag":
        secondary = int(rng.integers(0, 4))
    else:
        secondary = None
    spec = get_family(family_id, secondary)
    t = spec.lo + (spec.hi - spec.lo) * Fraction(int(rng.integers(1, 8)), 8)
    return spec, t


def exact_chamber_point(rng: np.random.Generator, strict: bool = False) -> CartanCoord:
    """Uniform draw from the chamber points with coordinates in (1/den) pi."""
    den = int(rng.choice([6, 8, 12]))
    while True:
        c1, c2, c3 = (Fraction(int(rng.integers(0, den + 1)), den) for _ in range(3))
        if c3 <= c2 <= min(c1, 1 - c1) and (not strict or 0 < c3 < c2 < c1 < 1 - c2):
            return canonicalize((c1, c2, c3))


def angle_literal(f: Fraction) -> str:
    """CLI angle syntax for f * pi."""
    return "0" if f == 0 else f"{f.numerator}pi/{f.denominator}"


def coord_literal(c: CartanCoord) -> str:
    return ",".join(angle_literal(f) for f in c.frac)


def denominator_digits(doc: dict) -> int:
    """Most decimal digits of any denominator among the exact strings of a region export."""
    exact = [doc["union_volume_fraction"]["exact"]]
    for part in doc["parts"]:
        exact += [s.removesuffix("*pi") for v in part["vertices"] for s in v["exact"]]
        exact += [h["rhs"] for h in part["halfspaces"]]
    return max(len(str(Fraction(s).denominator)) for s in exact)


@dataclass
class Item:
    """One op's input.  ``key`` names it in digests and failure reports."""

    slot: str
    key: str
    data: dict = field(default_factory=dict)


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()
    # slot -> exceptions that are known failures of the library at the parent
    # commit: counted as failed ops, not as wrong output.  Any other raise is.
    known_failures: dict[str, tuple[type[Exception], ...]] = {}

    def __init__(self, seed: int, tracer, checkout: Path):
        self.seed = seed
        self.checkout = checkout

    def item(self, i: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item, tracer):
        raise NotImplementedError

    def check(self, item: Item, out) -> list[str]:
        raise NotImplementedError

    def exact_output(self, item: Item, out) -> str | None:
        """Canonical text of the op's exact outputs, or None when it has none."""
        return None

    def probe_known_defects(self, tracer) -> dict[str, str]:
        """Run once, untimed, the inputs that fail at the parent commit: name -> status."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- exact_sweep

_ZERO_ENDPOINTS = (("b_alpha", None, Fraction(0)),        # identity class: point parts
                   ("spe_to_b", None, Fraction(1, 4)),    # sqrt-SWAP class: segment
                   ("fsim_diag", 0, Fraction(1, 2)),      # CNOT class: plane
                   ("fsim_diag", 1, Fraction(1, 2)))      # DCNOT class: plane


_FAMILIES = ("b_alpha", "spe_to_b", "plane_theta_line", "c2_quarter_line", "fsim_diag")
# classes drawn once, the same for every seed (see ExactSweep and Synthesis)
_PANEL_SEED = 20190


def panel_rng(workload: str) -> np.random.Generator:
    return np.random.default_rng((_PANEL_SEED, _WORKLOAD_KEYS[workload], 2))


class ExactSweep(Workload):
    """One op is one gatecover sweep row plus one coverage export of a class.

    Three slots, so that a run of a dozen ops has three of each:
    interior family points, endpoints with a known answer (a zero endpoint and
    the full endpoint each cycle), and Haar classes.  The classes come from
    panels drawn once for all seeds: ten interior points, two per family at
    small-denominator parameters, and four Haar-random classes.  A run passes
    over most of each panel, so runs with different seeds time nearly the same
    problems; the seed picks where in each panel a run starts and the order
    of the zero endpoints, and seeds the Monte Carlo estimates.
    """

    name = "exact_sweep"
    cycle = ("family", "family", "endpoint", "haar") * 2

    def __init__(self, seed: int, tracer, checkout: Path):
        super().__init__(seed, tracer, checkout)
        prng = panel_rng(self.name)
        family, seen = [], set()
        for f in _FAMILIES * 2:
            spec, t = family_point(prng, f)
            while (f, spec.secondary, t) in seen:
                spec, t = family_point(prng, f)
            seen.add((f, spec.secondary, t))
            family.append((spec, t))
        self.panels = {"family": family,
                       "haar": [cartan_coordinates(haar_unitary(prng)) for _ in range(4)]}
        rng = setup_rng(self.name, seed)
        self.offsets = {slot: int(rng.integers(n)) for slot, n in
                        (("family", 10), ("haar", 4), ("endpoint", 4))}

    def item(self, i: int) -> Item:
        rng = op_rng(self.name, self.seed, i)
        lap, pos = divmod(i, len(self.cycle))
        slot = self.cycle[pos]
        expect = None
        if slot == "endpoint":
            if pos < 4:
                # a zero endpoint; the first cycle always has the sqrt-SWAP class
                pick = 1 if lap == 0 else (self.offsets[slot] + lap) % len(_ZERO_ENDPOINTS)
                family_id, secondary, t = _ZERO_ENDPOINTS[pick]
                spec, expect = get_family(family_id, secondary), Fraction(0)
            else:
                # both sweep families end in the class (pi/2, pi/4, 0)
                spec = get_family(("b_alpha", "spe_to_b")[(self.offsets[slot] + lap) % 2])
                t, expect = spec.hi, Fraction(1)
            coord = spec.exact_coord(t)
            key = f"{spec.family_id}[{spec.secondary}] t={t}"
        else:
            # the j-th op of this slot in the run takes the next panel entry
            j = self.cycle.count(slot) * lap + self.cycle[:pos].count(slot)
            panel = self.panels[slot]
            k = (self.offsets[slot] + j) % len(panel)
            if slot == "haar":
                coord = panel[k]
                key = f"haar panel#{k} " + ",".join(f"{x:.12f}" for x in coord.astuple())
            else:
                spec, t = panel[k]
                coord = spec.exact_coord(t)
                key = f"{spec.family_id}[{spec.secondary}] t={t}"
        return Item(slot, key, {"coord": coord, "expect": expect,
                                "mc_seed": int(rng.integers(2**63))})

    def run(self, item: Item, tracer):
        c = item.data["coord"]
        rng = np.random.default_rng(item.data["mc_seed"])
        with tracer.span("coverage.build"):
            region = coverage_region(c, c)
        with tracer.span("coverage.vertices"):
            for p in region.parts:
                p.vertices
        with tracer.span("coverage.volume"):
            for p in region.parts:
                p.volume()
        # per-part volumes are cached now, so this holds only the intersections
        with tracer.span("coverage.union"):
            frac = fractional_volume(region)
        with tracer.span("coverage.json"):
            doc = region_to_json(region)
        with tracer.span("coverage.mc_volume"):
            mc = mc_volume(region, MC_SAMPLES, rng)
        if tracer.enabled:
            record_region(tracer, region, with_vertices=True)
            solid = sum(p.dim == 3 for p in region.parts)
            tracer.count("coverage.union.terms", 2 ** solid - 1 - solid)
            tracer.count("coverage.max_denominator_digits", denominator_digits(doc))
        return {"fraction": frac, "doc": doc, "mc": mc}

    def check(self, item: Item, out) -> list[str]:
        frac, mc, problems = out["fraction"], out["mc"], []
        if not 0 <= frac <= 1:
            problems.append(f"fraction {frac} outside [0, 1]")
        if out["doc"]["union_volume_fraction"]["exact"] != str(frac):
            problems.append("region_to_json fraction differs from fractional_volume")
        if abs(float(frac) - mc.fraction) > 5 * mc.stderr:
            problems.append(f"fraction {float(frac):.6f} and Monte Carlo "
                            f"{mc.fraction:.6f} +- {mc.stderr:.6f} differ by more than 5 sigma")
        expect = item.data["expect"]
        if expect is not None and frac != expect:
            problems.append(f"known endpoint gave {frac}, expected exactly {expect}")
        return problems

    def exact_output(self, item: Item, out) -> str:
        return json.dumps(out["doc"], sort_keys=True)


def record_region(tracer, region, with_vertices: bool) -> None:
    """Counters describing one coverage region, for the per-layer report."""
    tracer.count("coverage.parts_distinct", len({p.halfspaces for p in region.parts}))
    for p in region.parts:
        tracer.count("coverage.halfspaces_per_part", len(p.halfspaces))
        if with_vertices:
            tracer.count("coverage.vertices_per_part", len(p.vertices))
    if with_vertices:
        tracer.count("coverage.solid_parts", sum(p.dim == 3 for p in region.parts))


# --------------------------------------------------------------------------- membership_oracle

def _pauli_points(x) -> list[CartanCoord]:
    """Exact classes of u (P (x) I) u for u = canonical_gate(x), P in {I, X, Y, Z}.

    X (x) I commutes with the XX term of the canonical Hamiltonian and
    anticommutes with YY and ZZ, so u (X (x) I) u = (X (x) I) canonical(2 x1, 0, 0);
    likewise for Y and Z.  These classes are therefore inside region(x, x).
    """
    return [canonicalize(tuple(2 * v for v in x))] + [
        canonicalize((2 * v, Fraction(0), Fraction(0))) for v in x]


class MembershipOracle(Workload):
    """Acceptance-5 shape: classes of Haar-local products tested against prebuilt regions."""

    name = "membership_oracle"
    cycle = ("product",) * 7 + ("exact",)

    def __init__(self, seed: int, tracer, checkout: Path):
        super().__init__(seed, tracer, checkout)
        rng = setup_rng(self.name, seed)
        gates = [("b", B_CLASS, None), ("cnot", CNOT_CLASS, None),
                 ("sqrt_swap", SQRT_SWAP_CLASS, None)]
        for k in range(2):
            gates.append((f"exact{k}", exact_chamber_point(rng, strict=True), None))
        for k in range(2):
            u = haar_unitary(rng)
            gates.append((f"haar{k}", cartan_coordinates(u), u))
        self.gates = []
        for name, coord, u in gates:
            with tracer.span("coverage.build"):
                region = coverage_region(coord, coord)
            if tracer.enabled:
                record_region(tracer, region, with_vertices=False)
            self.gates.append({"name": name, "region": region,
                               "u": canonical_gate(coord) if u is None else u})

    def item(self, i: int) -> Item:
        rng = op_rng(self.name, self.seed, i)
        gate = self.gates[i % len(self.gates)]
        slot = self.cycle[i % len(self.cycle)]
        if slot == "product":
            u = gate["u"]
            return Item(slot, f"{gate['name']} product", {"gate": gate,
                        "w": u @ haar_su2_pair(rng) @ u})
        name = gate["name"]
        if name == "cnot" and (i // len(self.cycle)) % 2 == 0:
            point, truth = SWAP_CLASS, False          # the known outsider
        elif name in ("b", "cnot", "sqrt_swap"):
            point = exact_chamber_point(rng)
            if name == "sqrt_swap" and rng.random() < 0.5:
                s = Fraction(int(rng.integers(0, 7)), 12)
                point = canonicalize((Fraction(1, 2), s, s))
            x = point.frac
            truth = {"b": True,                        # fraction 1: the whole chamber
                     "cnot": x[2] == 0,                # exactly the c3 = 0 plane
                     "sqrt_swap": x[0] == Fraction(1, 2) and x[1] == x[2]}[name]
        else:
            choices = _pauli_points(gate["region"].source_u)
            point, truth = choices[int(rng.integers(0, len(choices)))], True
        return Item(slot, f"{name} exact {coord_literal(point)}",
                    {"gate": gate, "point": point, "truth": truth})

    def run(self, item: Item, tracer):
        region = item.data["gate"]["region"]
        if item.slot == "exact":
            with tracer.span("coverage.contains_exact"):
                return {"inside": contains(region, item.data["point"])}
        w = item.data["w"]
        with tracer.span("cartan.coordinates"):
            coord = cartan_coordinates(w)
        with tracer.span("cartan.kak"):
            kak = kak_decompose(w)
        with tracer.span("coverage.contains_float"):
            inside = contains(region, coord, slack=MEMBERSHIP_SLACK)
        return {"inside": inside, "kak": kak}

    def check(self, item: Item, out) -> list[str]:
        if item.slot == "exact":
            truth = item.data["truth"]
            if out["inside"] != truth:
                return [f"exact membership gave {out['inside']}, expected {truth}"]
            return []
        problems = []
        if not out["inside"]:
            problems.append("product class outside the region at slack 1e-7")
        residual = out["kak"].residual(item.data["w"])
        if not residual <= KAK_RESIDUAL_MAX:
            problems.append(f"KAK residual {residual:.3e} above {KAK_RESIDUAL_MAX}")
        return problems

    def exact_output(self, item: Item, out) -> str | None:
        return f"{item.key} -> {out['inside']}" if item.slot == "exact" else None


# --------------------------------------------------------------------------- synthesis

_REFUSALS = (("cnot", CNOT, "swap", SWAP), ("cnot", CNOT, "sqrt_swap", SQRT_SWAP),
             ("sqrt_swap", SQRT_SWAP, "b", None), ("cnot", CNOT, "haar", None))


class NotConverged(Exception):
    """Synthesis returned its best try, flagged converged=False: a failed op.

    The library reports the miss itself.  On the slots where the parent commit
    already misses (``known_failures``) the op only counts as failed;
    elsewhere, like a converged result below the fidelity bound, it makes the
    run's output incorrect.
    """


# Haar-random classes per synthesis slot, shared by all seeds; about one pass
# over each panel fits in a run
_PANEL_SIZES = {"direct": 32, "family_b_alpha": 8, "family_spe_to_b": 8}


class Synthesis(Workload):
    """One op is one two-application circuit, or one correct refusal.

    The solver's work on a target depends only on the target's class: the
    Nelder-Mead objective compares local invariants, and the family scan
    tests the class against coverage regions.  So every seed draws its targets
    as ``k (x) k' . w . l (x) l'`` with ``w`` from one panel of Haar-random
    unitaries per slot, drawn once for all seeds; the seed draws the Haar
    local factors and the panel entry a run starts at.  Runs with different
    seeds then time the same problems, and their spread is the machine's
    rather than that of a few dozen random classes.
    """

    name = "synthesis"
    cycle = ("direct", "direct", "family_b_alpha", "direct", "direct",
             "family_spe_to_b", "direct", "refusal")
    known_failures = {"family_b_alpha": (NotConverged,), "family_spe_to_b": (NotConverged,)}

    def __init__(self, seed: int, tracer, checkout: Path):
        super().__init__(seed, tracer, checkout)
        prng = panel_rng(self.name)
        self.panels = {slot: [haar_unitary(prng) for _ in range(n)]
                       for slot, n in _PANEL_SIZES.items()}
        rng = setup_rng(self.name, seed)
        self.offsets = {slot: int(rng.integers(n)) for slot, n in _PANEL_SIZES.items()}

    def item(self, i: int) -> Item:
        rng = op_rng(self.name, self.seed, i)
        slot = self.cycle[i % len(self.cycle)]
        if slot != "refusal":
            # j-th op of this slot in the run
            j = (i // len(self.cycle)) * self.cycle.count(slot) \
                + self.cycle[:i % len(self.cycle)].count(slot)
            panel = self.panels[slot]
            k = (self.offsets[slot] + j) % len(panel)
            v = haar_su2_pair(rng) @ panel[k] @ haar_su2_pair(rng)
            return Item(slot, f"{slot} panel#{k} op#{i}", {"v": v})
        uname, u, vname, v = _REFUSALS[int(rng.integers(0, len(_REFUSALS)))]
        if vname == "b":
            v = b_gate()
        elif vname == "haar":
            v = haar_unitary(rng)
        return Item(slot, f"refusal {uname}->{vname}",
                    {"u": u, "v": v, "cu": cartan_coordinates(u),
                     "cv": cartan_coordinates(v)})

    def run(self, item: Item, tracer):
        d = item.data
        if item.slot == "refusal":
            with tracer.span("synthesis.reachable"):
                ok = reachable(d["cu"], d["cv"])
            try:
                with tracer.span("synthesis.refuse"):
                    synthesize(d["u"], d["v"])
            except NotReachableError:
                return {"reachable": ok, "refused": True}
            return {"reachable": ok, "refused": False}
        if item.slot == "direct":
            u = b_gate()
            with tracer.span("synthesis.synthesize"):
                res = synthesize(u, d["v"])
        else:
            spec = get_family(item.slot.removeprefix("family_"))
            with tracer.span("synthesis.family"):
                res = synthesize_with_family(spec, d["v"])
            t = Fraction(res.theta / PI).limit_denominator(1 << 20)
            u = canonical_gate(spec.exact_coord(t))
        fid = fidelity(res.assemble(u), d["v"])
        if tracer.enabled:
            tracer.count("synthesis.evaluations", res.iterations)
            tracer.count("synthesis.converged_share", float(res.converged))
            tracer.count("synthesis.worst_infidelity", 1.0 - fid)
        if not res.converged:
            raise NotConverged(f"converged=False after {res.iterations} evaluations, "
                               f"recomputed fidelity {fid:.12f}")
        return {"fidelity": fid}

    def check(self, item: Item, out) -> list[str]:
        if item.slot == "refusal":
            problems = []
            if out["reachable"]:
                problems.append("reachable() accepted an unreachable target")
            if not out["refused"]:
                problems.append("synthesize() did not raise NotReachableError")
            return problems
        if not out["fidelity"] >= FIDELITY_MIN:
            return [f"recomputed fidelity {out['fidelity']:.12f} below {FIDELITY_MIN}"]
        return []

    def exact_output(self, item: Item, out) -> str | None:
        if item.slot == "refusal":
            return f"{item.key} -> {out['reachable']} {out['refused']}"
        return None


# --------------------------------------------------------------------------- cli

_ANALYZE_BUILTINS = ("identity", "cnot", "swap", "sqrt_swap", "b", "dcnot", "iswap")
_SYNTH_BUILTINS = ("swap", "cnot", "iswap", "dcnot", "sqrt_swap")
_BAD_INPUTS = (["coverage", "--coord", "pi/4,pi/8"], ["analyze", "not_a_gate"],
               ["analyze", "--coord", "pi/0,0,0"], ["synth", "b", "fsim:pi/3"],
               ["synth", "b"], ["sweep", "no_family"], ["sweep", "b_alpha", "--points", "x"],
               ["qlr", "--format", "xml"])
_CLI_REFUSALS = (["synth", "cnot", "swap"], ["synth", "cnot", "sqrt_swap"],
                 ["synth", "sqrt_swap", "b"])


class ProcessCrash(Exception):
    """The gatecover process died with a traceback instead of an exit code."""


# Invocations that fail at the parent commit.  No op of a workload may fail,
# so they are not ops: every run executes each once, untimed, and reports
# whether it still fails.  name -> (argv, expected exit code)
_KNOWN_DEFECTS = {
    # exit 1 with an AttributeError traceback instead of a usage error
    "analyze without a gate": (["analyze"], 2),
    "coverage without a gate": (["coverage"], 2),
    # exits 0 with "converged": false, fidelity 0.9999967 after 6298 evaluations
    "synth b to coord:11pi/12,1pi/12,1pi/12": (["synth", "b", "coord:11pi/12,1pi/12,1pi/12"], 0),
}


def _matrix(doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc])


class Cli(Workload):
    """One op is one gatecover process; every subcommand plus malformed input."""

    name = "cli"
    cycle = ("analyze", "coverage", "qlr", "bad_input", "synth", "sweep", "refusal")

    def __init__(self, seed: int, tracer, checkout: Path):
        super().__init__(seed, tracer, checkout)
        self.workdir = checkout / ".bench_out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = setup_rng(self.name, seed)
        # two coverage inputs per run keep the untimed exact-fraction check short
        self.coverage_coords = [
            family_point(rng, str(rng.choice(["b_alpha", "spe_to_b", "plane_theta_line",
                                              "c2_quarter_line", "fsim_diag"])))
            for _ in range(2)]
        self._library_fraction: dict[str, Fraction] = {}

    def item(self, i: int) -> Item:
        rng = op_rng(self.name, self.seed, i)
        slot = self.cycle[i % len(self.cycle)]
        lap = i // len(self.cycle)
        out = str(self.workdir / f"op{i}.{'txt' if slot == 'qlr' else 'json'}")
        data = {"expect": 0, "out": out}
        if slot == "analyze":
            kind = int(rng.integers(0, 3))
            if kind == 0:
                gate = str(rng.choice(_ANALYZE_BUILTINS))
            elif kind == 1:
                a, b = (angle_literal(Fraction(int(rng.integers(0, 16)), 8)) for _ in range(2))
                gate = f"fsim:{a},{b}"
            else:
                gate = "coord:" + coord_literal(exact_chamber_point(rng))
            data["gate"] = gate
            argv = ["analyze", gate, "--out", out]
        elif slot == "coverage":
            spec, t = self.coverage_coords[lap % 2]
            data["coord"] = coord_literal(spec.exact_coord(t))
            argv = ["coverage", "--coord", data["coord"], "--out", out]
        elif slot == "qlr":
            argv = ["qlr", "--out", out]
        elif slot == "synth":
            # builtins and exact classes take turns, so every run has the same
            # mix; exact classes lie inside the chamber, as the boundary miss
            # is a known defect, probed apart
            target = (str(rng.choice(_SYNTH_BUILTINS)) if lap % 2 == 0
                      else "coord:" + coord_literal(exact_chamber_point(rng, strict=True)))
            data["target"] = target
            argv = ["synth", "b", target, "--out", out]
        elif slot == "sweep":
            data["family"] = ("b_alpha", "spe_to_b")[lap % 2]
            argv = ["sweep", data["family"], "--points", "3", "--format", "json", "--out", out]
        elif slot == "refusal":
            argv, data["expect"] = list(_CLI_REFUSALS[int(rng.integers(0, 3))]), 3
        else:  # bad_input
            argv, data["expect"] = list(_BAD_INPUTS[int(rng.integers(0, len(_BAD_INPUTS)))]), 2
        data["argv"] = argv
        return Item(slot, "gatecover " + " ".join(argv).replace(out, "OUT"), data)

    def _gatecover(self, argv: list[str]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "gatecover.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(self.checkout / "src"))
        return subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=150)

    def probe_known_defects(self, tracer) -> dict[str, str]:
        status = {}
        for name, (argv, expect) in _KNOWN_DEFECTS.items():
            out = self.workdir / "defect.json"
            proc = self._gatecover(argv + (["--out", str(out)] if expect == 0 else []))
            if "Traceback (most recent call last)" in proc.stderr:
                status[name] = f"exit {proc.returncode} with a traceback"
            elif proc.returncode != expect:
                status[name] = f"exit {proc.returncode}, expected {expect}"
            elif expect == 0 and json.loads(out.read_text(encoding="utf-8"))["converged"] is False:
                status[name] = "exit 0 with converged=false"
            else:
                status[name] = "fixed"
        tracer.count("cli.known_defects", sum(s != "fixed" for s in status.values()))
        return status

    def run(self, item: Item, tracer):
        with tracer.span(f"cli.{item.slot}"):
            proc = self._gatecover(item.data["argv"])
        if tracer.enabled and item.slot == "bad_input":
            tracer.count("cli.bad_input_exit2_share", float(proc.returncode == 2))
        if "Traceback (most recent call last)" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            raise ProcessCrash(f"gatecover exited {proc.returncode} with a traceback: {last}")
        if item.slot == "synth" and proc.returncode == 0:
            doc = json.loads(Path(item.data["out"]).read_text(encoding="utf-8"))
            if doc["converged"] is False:
                raise NotConverged(f"gatecover synth exited 0 with converged=false after "
                                   f"{doc['iterations']} evaluations, fidelity {doc['fidelity']}")
        return {"code": proc.returncode, "stderr": proc.stderr}

    def check(self, item: Item, out) -> list[str]:
        d, code = item.data, out["code"]
        if code != d["expect"]:
            tail = out["stderr"].strip().splitlines()[-1:] or [""]
            return [f"exit code {code}, expected {d['expect']}: {tail[0]}"]
        if d["expect"] != 0:
            return []
        try:
            text = Path(d["out"]).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            return [f"output unreadable: {exc}"]
        if item.slot == "qlr":
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            return [] if digest == QLR_TABLE_SHA256 and text.count("\n") == 74 else [
                "qlr table differs from the pinned sha256"]
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"output does not parse as JSON: {exc}"]
        return getattr(self, f"_check_{item.slot}")(d, doc)

    def _check_analyze(self, d, doc) -> list[str]:
        expected = cartan_coordinates(gc_cli.parse_gate(d["gate"]))
        got = doc["cartan_coordinates"]["radians"]
        if coord_distance(CartanCoord(*got), expected) > 1e-9:
            return [f"analyze coordinates {got} differ from the library's {expected}"]
        return []

    def _check_coverage(self, d, doc) -> list[str]:
        coord = d["coord"]
        if coord not in self._library_fraction:
            c = gc_cli.parse_coord(coord)
            self._library_fraction[coord] = fractional_volume(coverage_region(c, c))
        lib = self._library_fraction[coord]
        problems = []
        if doc["union_volume_fraction"]["exact"] != str(lib):
            problems.append(f"exact fraction {doc['union_volume_fraction']['exact']} "
                            f"differs from the library's {lib}")
        mc = doc["mc_volume"]
        if abs(float(lib) - mc["fraction"]) > 5 * mc["stderr"]:
            problems.append("Monte Carlo fraction more than 5 sigma from the exact one")
        return problems

    def _check_synth(self, d, doc) -> list[str]:
        u, v = b_gate(), gc_cli.parse_gate(d["target"])
        loc = {k: np.kron(_matrix(doc["locals"][k][0]), _matrix(doc["locals"][k][1]))
               for k in ("l1", "l2", "l3")}
        fid = fidelity(loc["l1"] @ u @ loc["l2"] @ u @ loc["l3"], v)
        return [] if fid >= FIDELITY_MIN else [f"recomputed fidelity {fid:.12f} too low"]

    def _check_sweep(self, d, doc) -> list[str]:
        fr = [row["fraction"] for row in doc]
        problems = []
        if len(doc) != 3 or fr[0] != 0.0 or fr[-1] != 1.0:
            problems.append(f"sweep fractions {fr}: need 3 rows from exactly 0 to exactly 1")
        if any(not 0 <= a <= b <= 1 for a, b in zip(fr, fr[1:])):
            problems.append(f"sweep fractions {fr} not non-decreasing in [0, 1]")
        for row in doc:
            if abs(row["fraction"] - row["mc_fraction"]) > 5 * row["mc_stderr"]:
                problems.append(f"row {row['parameter']}: Monte Carlo more than 5 sigma off")
        return problems

    def exact_output(self, item: Item, out) -> str | None:
        if item.slot not in ("coverage", "sweep", "qlr") or out["code"] != 0:
            return None
        text = Path(item.data["out"]).read_text(encoding="utf-8")
        if item.slot == "coverage":
            doc = json.loads(text)
            doc.pop("mc_volume")
            text = json.dumps(doc, sort_keys=True)
        elif item.slot == "sweep":
            text = json.dumps([[row["parameter"], row["fraction"]] for row in json.loads(text)])
        return text

    def close(self) -> None:
        for f in self.workdir.iterdir():
            f.unlink()
        self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (ExactSweep, MembershipOracle, Synthesis, Cli)}
