"""Command-line surface.

Subcommands: ``analyze`` (class data of one gate), ``coverage`` (two-application
region export), ``sweep`` (fractional volume along a family), ``qlr`` (the
inequality tuple table), and ``synth`` (two-application circuit construction).

Angle literals accept exact pi-rational syntax (``2pi/7``, ``pi/4``, ``0``)
which keeps the polytope pipeline exact end to end; plain decimals are treated
as radians.  Exit codes: 0 success, 2 parse/validation error, 3 target not
reachable, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import cartan, coverage, families, qlr, symmetry, synthesis
from .coords import PI, CartanCoord, canonicalize
from .errors import (CalibrationFailureError, ConvergenceFailureError,
                     GatecoverError, NotReachableError, NotUnitaryError,
                     NumericOverflowError, OutOfRangeError, ParseError)
from .numerics import TolerancePolicy

_ANGLE_RE = re.compile(r"^([+-]?\d*)pi(?:/(\d+))?$")


def parse_angle(text: str) -> tuple[float, Fraction | None]:
    """Radians plus the exact Fraction of pi when the literal is pi-rational."""
    t = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(t)
    if m:
        head = m.group(1)
        num = -1 if head == "-" else 1 if head in ("", "+") else int(head)
        den = int(m.group(2) or 1)
        if den == 0:
            raise ParseError(f"zero denominator in angle {text!r}")
        fr = Fraction(num, den)
        return float(fr) * PI, fr
    try:
        val = float(t)
    except ValueError:
        raise ParseError(f"cannot parse angle {text!r}") from None
    return val, (Fraction(0) if val == 0 else None)


def parse_coord(text: str) -> CartanCoord:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"coordinate needs three comma-separated angles, got {text!r}")
    parsed = [parse_angle(p) for p in parts]
    if all(fr is not None for _, fr in parsed):
        return canonicalize(tuple(fr for _, fr in parsed))
    return canonicalize(tuple(val for val, _ in parsed))


def _matrix_from_file(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        m = np.load(path)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        rows = []
        for row in data:
            entries = []
            for cell in row:
                if isinstance(cell, str):
                    entries.append(complex(cell.replace("i", "j")))
                elif isinstance(cell, (list, tuple)):
                    entries.append(complex(cell[0], cell[1]))
                else:
                    entries.append(complex(cell))
            rows.append(entries)
        m = np.array(rows, dtype=complex)
    if m.shape != (4, 4):
        raise ParseError(f"matrix in {path} has shape {m.shape}, need 4x4")
    return m


_BUILTINS = {
    "identity": lambda: np.eye(4, dtype=complex),
    "cnot": lambda: cartan.CNOT.copy(),
    "swap": lambda: cartan.SWAP.copy(),
    "sqrt_swap": lambda: cartan.SQRT_SWAP.copy(),
    "b": cartan.b_gate,
    "dcnot": lambda: cartan.DCNOT.copy(),
    "iswap": lambda: cartan.ISWAP.copy(),
}


def parse_gate(spec: str) -> np.ndarray:
    """Builtin name, ``fsim:theta,phi``, ``coord:c1,c2,c3``, or a matrix file."""
    s = spec.strip()
    name = s.lower()
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("fsim:"):
        args = name[len("fsim:"):].split(",")
        if len(args) != 2:
            raise ParseError(f"fsim spec needs two angles, got {spec!r}")
        theta, _ = parse_angle(args[0])
        phi, _ = parse_angle(args[1])
        return families.fsim(theta, phi)
    if name.startswith("coord:"):
        return cartan.canonical_gate(parse_coord(name[len("coord:"):]))
    try:
        return _matrix_from_file(s)
    except FileNotFoundError:
        raise ParseError(
            f"unknown gate {spec!r}: not a builtin ({', '.join(sorted(_BUILTINS))}), "
            "not fsim:..., coord:..., or a readable matrix file") from None


def _coord_doc(coord: CartanCoord) -> dict:
    doc = {"radians": list(coord.astuple()),
           "units_of_pi": [c / PI for c in coord.astuple()]}
    if coord.frac is not None:
        doc["exact"] = [str(f) + "*pi" for f in coord.frac]
    return doc


def _policy(args) -> TolerancePolicy:
    kwargs = {}
    if getattr(args, "seed", None) is not None:
        kwargs["rng_seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        kwargs["coord_tol"] = args.tol
    if getattr(args, "mc_samples", None) is not None:
        kwargs["volume_mc_samples"] = args.mc_samples
    return TolerancePolicy(**kwargs)


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def cmd_analyze(args) -> int:
    policy = _policy(args)
    if args.coord is not None:
        # the parsed class, exact when the literal is; the gate only feeds the invariants
        coord = parse_coord(args.coord)
        gate = cartan.canonical_gate(coord)
        label = f"coord:{args.coord}"
    else:
        gate = parse_gate(args.gate)
        coord = cartan.cartan_coordinates(gate, policy)
        label = args.gate
    inv = cartan.local_invariants(gate, policy)
    content = cartan.nonlocal_content(coord, policy)
    doc = {
        "gate": label,
        "cartan_coordinates": _coord_doc(coord),
        "invariants": {"g1": [inv.g1.real, inv.g1.imag], "g2": inv.g2},
        "nonlocal_content": [str(a) if isinstance(a, Fraction) else a
                             for a in content.astuple()],
        "symmetry": {
            "inverse_invariant": symmetry.is_inverse_invariant(coord, policy),
            "mirror_invariant": symmetry.is_mirror_invariant(coord, policy),
            "mirrored_inverse_invariant":
                symmetry.is_mirrored_inverse_invariant(coord, policy),
        },
    }
    _emit(doc, args)
    return 0


def _gate_class(args, policy) -> CartanCoord:
    if args.coord is not None:
        return parse_coord(args.coord)
    gate = parse_gate(args.gate)
    return cartan.cartan_coordinates(gate, policy)


def cmd_coverage(args) -> int:
    policy = _policy(args)
    coord = _gate_class(args, policy)
    region = coverage.coverage_region(coord, coord)
    frac = coverage.fractional_volume(region)
    rng = np.random.default_rng(policy.rng_seed)
    mc = coverage.mc_volume(region, policy.volume_mc_samples, rng)
    doc = coverage.region_to_json(region)
    doc["mc_volume"] = {"fraction": mc.fraction, "stderr": mc.stderr,
                        "samples": mc.samples}
    _emit(doc, args)
    print(f"exact fraction: {frac} = {float(frac):.6f}")
    print(f"mc fraction:    {mc.fraction:.6f} +- {mc.stderr:.6f} ({mc.samples} samples)")
    return 0


def cmd_sweep(args) -> int:
    policy = _policy(args)
    secondary = None
    try:
        if args.secondary is not None:
            val, fr = parse_angle(args.secondary)
            secondary = fr if fr is not None else val
        spec = families.get_family(args.family, secondary)
    except (ParseError, OutOfRangeError) as exc:
        raise ParseError(f"--secondary {args.secondary}: {exc}") from None
    rng = np.random.default_rng(policy.rng_seed)
    rows = []
    for t in spec.grid(args.points):
        coord = spec.exact_coord(t)
        region = coverage.coverage_region(coord, coord)
        frac = coverage.fractional_volume(region)
        mc = coverage.mc_volume(region, policy.volume_mc_samples, rng)
        rows.append((spec.family_id, float(t) * PI, float(frac),
                     mc.fraction, mc.stderr))
    fmt = args.format or "csv"
    out = args.out or f"{spec.family_id}_sweep.{fmt}"
    header = ["family_id", "parameter", "fraction", "mc_fraction", "mc_stderr"]
    if fmt == "json":
        with open(out, "w", encoding="ascii") as fh:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        with open(out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    for row in rows:
        print(f"  {row[0]} t={row[1]:.6f} fraction={row[2]:.6f} "
              f"mc={row[3]:.6f}+-{row[4]:.6f}")
    return 0


def cmd_qlr(args) -> int:
    out = args.out or "qlr_tuples.txt"
    count = qlr.write_table(out)
    print(f"wrote {out}: {count} tuples, sha256 {qlr.table_sha256()}")
    return 0


def cmd_synth(args) -> int:
    policy = _policy(args)
    target = parse_gate(args.target)
    if args.gate in families.FAMILY_IDS:
        spec = families.get_family(args.gate)
        result = synthesis.synthesize_with_family(spec, target, budget=args.budget,
                                                  policy=policy)
    else:
        gate = parse_gate(args.gate)
        result = synthesis.synthesize(gate, target, budget=args.budget, policy=policy)

    def mat(m):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(m)]

    doc = {
        "theta": result.theta,
        "fidelity": result.fidelity,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "target_class": _coord_doc(result.target_class),
        "achieved_class": _coord_doc(result.achieved_class),
        "locals": {
            "l1": [mat(result.l1[0]), mat(result.l1[1])],
            "l2": [mat(result.l2[0]), mat(result.l2[1])],
            "l3": [mat(result.l3[0]), mat(result.l3[1])],
        },
    }
    _emit(doc, args)
    print(f"fidelity {result.fidelity:.9f}"
          + (f", family parameter {result.theta:.6f} rad" if result.theta is not None else ""))
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecover",
        description="Nonlocal analysis, two-application coverage, and synthesis "
                    "of two-qubit gates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *names):
        # each subcommand gets only the shared options it reads
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="rng seed")
        if "tol" in names:
            p.add_argument("--tol", type=float, default=None, help="class-equality tolerance")
        if "mc_samples" in names:
            p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None)
        if "out" in names:
            p.add_argument("--out", default=None, help="output file path")
        if "format" in names:
            p.add_argument("--format", choices=("json", "csv"), default=None)

    def gate_or_coord(p, gate_help):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("gate", nargs="?", help=gate_help)
        group.add_argument("--coord", default=None, help="exact class coordinate c1,c2,c3")

    p = sub.add_parser("analyze", help="coordinates, invariants, content, symmetry flags")
    gate_or_coord(p, "builtin | fsim:a,b | coord:a,b,c | matrix file")
    add(p, "tol", "out")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("coverage", help="two-application region of one gate class")
    gate_or_coord(p, "gate spec as for analyze")
    add(p, "seed", "mc_samples", "out")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("sweep", help="fractional coverage along a family")
    p.add_argument("family", choices=families.FAMILY_IDS)
    p.add_argument("--points", type=positive_int, default=11)
    p.add_argument("--secondary", default=None,
                   help="line of a two-parameter family: an exact angle such as pi/6 "
                        "(plane_theta_line, c2_quarter_line) or a branch 0..3 (fsim_diag)")
    add(p, "seed", "mc_samples", "out", "format")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("qlr", help="emit the inequality tuple table")
    add(p, "out")
    p.set_defaults(fn=cmd_qlr)

    p = sub.add_parser("synth", help="two-application circuit for a target gate")
    p.add_argument("gate", help="gate spec or family id")
    p.add_argument("target", help="target gate spec")
    p.add_argument("--budget", type=positive_int, default=4000)
    add(p, "seed", "out")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotReachableError as exc:
        print(f"not reachable: {exc}", file=sys.stderr)
        return 3
    except (ParseError, NotUnitaryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceFailureError, NumericOverflowError, CalibrationFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except GatecoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
