"""Command-line surface.

Subcommands: ``analyze`` (class data of one gate), ``coverage`` (two-application
region export), ``sweep`` (fractional volume along a family), ``qlr`` (the
inequality tuple table), and ``synth`` (two-application circuit construction).

Angle literals accept exact pi-rational syntax (``2pi/7``, ``pi/4``, ``0``)
which keeps the polytope pipeline exact end to end; plain decimals are treated
as radians.  Exit codes: 0 success, 2 parse/validation error, 3 target not
reachable, 4 numerical failure (``synth`` also exits 4, after writing its JSON,
when the search ends unconverged).

Numeric modules load after the arguments parse: this module imports no numpy,
and a command loads numpy and the Cartan, coverage and synthesis layers only
once its own arguments have parsed, so ``qlr`` and a usage error never do.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import families, qlr
from .coords import CLASS_TOL, MC_MIN_SAMPLES, PI, CartanCoord, canonicalize
from .errors import (CalibrationFailureError, ConvergenceFailureError,
                     GatecoverError, NotReachableError, NotUnitaryError,
                     NumericOverflowError, OutOfRangeError, ParseError)

if TYPE_CHECKING:
    import numpy as np

_ANGLE_RE = re.compile(r"^([+-]?\d*)pi(?:/(\d+))?$")


def parse_angle(text: str) -> tuple[float, Fraction | None]:
    """Radians plus the exact Fraction of pi when the literal is pi-rational."""
    t = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(t)
    fr = None
    if m:
        head = m.group(1)
        num = -1 if head == "-" else 1 if head in ("", "+") else int(head)
        den = int(m.group(2) or 1)
        if den == 0:
            raise ParseError(f"zero denominator in angle {text!r}")
        fr = Fraction(num, den)
    try:
        val = float(t) if fr is None else float(fr) * PI
    except ValueError:
        raise ParseError(f"cannot parse angle {text!r}") from None
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ParseError(f"angle {text!r} is not a finite number")
    return val, (Fraction(0) if fr is None and val == 0 else fr)


def parse_coord(text: str) -> CartanCoord:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"coordinate needs three comma-separated angles, got {text!r}")
    parsed = [parse_angle(p) for p in parts]
    if all(fr is not None for _, fr in parsed):
        return canonicalize(tuple(fr for _, fr in parsed))
    return canonicalize(tuple(val for val, _ in parsed))


def _entry(cell) -> complex:
    """One matrix entry: a number, an "a+bi" string or an [re, im] pair.  JSON
    true and false are refused, though Python reads a bool as an int."""
    if isinstance(cell, str):
        return complex(cell.replace("i", "j"))
    re_part, im_part = cell if isinstance(cell, list) else (cell, 0)
    if isinstance(re_part, bool) or isinstance(im_part, bool):
        raise TypeError(f"boolean matrix entry {cell!r}")
    return complex(re_part, im_part)


def _matrix_from_file(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        import numpy as np

        m = np.load(path)
        if m.dtype.kind not in "iufc":  # bool and text cast to complex too
            raise ParseError(f"matrix in {path} has dtype {m.dtype}, need numbers")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        malformed = (f"matrix in {path} is not a list of rows of numbers, "
                     "'a+bi' strings or [re, im] pairs")
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ParseError(malformed)
        try:
            rows = [[_entry(cell) for cell in row] for row in data]
        except (TypeError, ValueError, OverflowError):  # an int beyond float range
            raise ParseError(malformed) from None
        if len({len(row) for row in rows}) > 1:
            raise ParseError(f"matrix in {path} has rows of lengths "
                             f"{[len(row) for row in rows]}, need 4x4")
        import numpy as np

        m = np.array(rows, dtype=complex)
    if m.shape != (4, 4):
        raise ParseError(f"matrix in {path} has shape {m.shape}, need 4x4")
    return m


# each one but b and identity is a constant of cartan under its upper-cased name
_BUILTINS = ("b", "cnot", "dcnot", "identity", "iswap", "sqrt_swap", "swap")


def parse_gate(spec: str) -> np.ndarray:
    """Builtin name, ``fsim:theta,phi``, ``coord:c1,c2,c3``, or a matrix file.
    A builtin is a fresh array, never a shared constant."""
    s = spec.strip()
    name = s.lower()
    if name in _BUILTINS:
        from . import cartan

        if name == "b":
            return cartan.b_gate()
        if name == "identity":
            import numpy as np

            return np.eye(4, dtype=complex)
        return getattr(cartan, name.upper()).copy()
    if name.startswith("fsim:"):
        args = name[len("fsim:"):].split(",")
        if len(args) != 2:
            raise ParseError(f"fsim spec needs two angles, got {spec!r}")
        theta, _ = parse_angle(args[0])
        phi, _ = parse_angle(args[1])
        return families.fsim(theta, phi)
    if name.startswith("coord:"):
        coord = parse_coord(name[len("coord:"):])
        from .cartan import canonical_gate

        return canonical_gate(coord)
    try:
        return _matrix_from_file(s)
    except FileNotFoundError:
        raise ParseError(
            f"unknown gate {spec!r}: not a builtin ({', '.join(_BUILTINS)}), "
            "not fsim:..., coord:..., or a readable matrix file") from None


def _coord_doc(coord: CartanCoord) -> dict:
    doc = {"radians": list(coord.astuple()),
           "units_of_pi": [c / PI for c in coord.astuple()]}
    if coord.frac is not None:
        doc["exact"] = [str(f) + "*pi" for f in coord.frac]
    return doc


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def cmd_analyze(args) -> int:
    if args.coord is not None:
        coord, label = parse_coord(args.coord), f"coord:{args.coord}"
    else:
        gate, label = parse_gate(args.gate), args.gate
    from . import cartan, symmetry
    from .numerics import require_unitary

    if args.coord is not None:
        # the parsed class, exact when the literal is; the gate only feeds the invariants
        inv = cartan.local_invariants(cartan.canonical_gate(coord))
    else:
        # one magic image of the gate gives both its class and its invariants
        image = cartan._magic_image(require_unitary(gate, name="gate"))
        coord, inv = image.coord, image.invariants
    content = cartan.nonlocal_content(coord)
    doc = {
        "gate": label,
        "cartan_coordinates": _coord_doc(coord),
        "invariants": {"g1": [inv.g1.real, inv.g1.imag], "g2": inv.g2},
        "nonlocal_content": [str(a) if isinstance(a, Fraction) else a
                             for a in content.astuple()],
        "symmetry": {
            "inverse_invariant": symmetry.is_inverse_invariant(coord, args.tol),
            "mirror_invariant": symmetry.is_mirror_invariant(coord, args.tol),
            "mirrored_inverse_invariant":
                symmetry.is_mirrored_inverse_invariant(coord, args.tol),
        },
    }
    _emit(doc, args)
    return 0


def _gate_class(args) -> CartanCoord:
    if args.coord is not None:
        return parse_coord(args.coord)
    gate = parse_gate(args.gate)
    from .cartan import cartan_coordinates

    return cartan_coordinates(gate)


def cmd_coverage(args) -> int:
    coord = _gate_class(args)
    import numpy as np

    from . import coverage

    region = coverage.coverage_region(coord, coord)
    frac = coverage.fractional_volume(region)
    mc = coverage.mc_volume(region, args.mc_samples, np.random.default_rng(args.seed))
    doc = coverage.region_to_json(region)
    doc["mc_volume"] = {"fraction": mc.fraction, "stderr": mc.stderr,
                        "samples": mc.samples}
    _emit(doc, args)
    print(f"exact fraction: {frac} = {float(frac):.6f}")
    print(f"mc fraction:    {mc.fraction:.6f} +- {mc.stderr:.6f} ({mc.samples} samples)")
    return 0


def _family(family_id: str, secondary_text: str | None) -> families.FamilySpec:
    """The family ``family_id`` on the line that ``--secondary`` names, if given:
    a pi-rational literal stays exact, any other angle is radians.  An fsim_diag
    branch is a plain number, so it is read in radians and ``pi`` is no branch."""
    secondary = None
    try:
        if secondary_text is not None:
            val, fr = parse_angle(secondary_text)
            secondary = fr if fr is not None and family_id != "fsim_diag" else val
        return families.get_family(family_id, secondary)
    except (ParseError, OutOfRangeError) as exc:
        raise ParseError(f"--secondary {secondary_text}: {exc}") from None


def cmd_sweep(args) -> int:
    spec = _family(args.family, args.secondary)
    import numpy as np

    from . import coverage

    rng = np.random.default_rng(args.seed)
    rows = []
    for t in spec.grid(args.points):
        coord = spec.exact_coord(t)
        region = coverage.coverage_region(coord, coord)
        frac = coverage.fractional_volume(region)
        mc = coverage.mc_volume(region, args.mc_samples, rng)
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
    text = qlr.write_table(out)
    print(f"wrote {out}: {len(text.splitlines())} tuples, sha256 {qlr.table_sha256(text)}")
    return 0


def cmd_synth(args) -> int:
    family = args.gate in families.FAMILY_IDS
    if args.secondary is not None and not family:
        raise ParseError(f"--secondary {args.secondary}: applies only to a family id "
                         f"({', '.join(families.FAMILY_IDS)}), not to gate {args.gate!r}")
    target = parse_gate(args.target)
    gate = _family(args.gate, args.secondary) if family else parse_gate(args.gate)
    from . import synthesis

    solve = synthesis.synthesize_with_family if family else synthesis.synthesize
    result = solve(gate, target, budget=args.budget, seed=args.seed)

    def pair(factors):
        # each entry as [re, im]; json writes a numpy float64 as the float it is
        return [[[[z.real, z.imag] for z in row] for row in k] for k in factors]

    doc = {
        "theta": result.theta,
        "fidelity": result.fidelity,
        "converged": result.converged,
        "iterations": result.iterations,
        "restart": result.restart,
        "residual": result.residual,
        "target_class": _coord_doc(result.target_class),
        "achieved_class": _coord_doc(result.achieved_class),
        "locals": {"l1": pair(result.l1), "l2": pair(result.l2), "l3": pair(result.l3)},
    }
    _emit(doc, args)
    print(f"fidelity {result.fidelity:.9f}"
          + (f", family parameter {result.theta:.6f} rad" if result.theta is not None else ""))
    if not result.converged:
        # the JSON is written either way; the exit code says the search failed
        raise ConvergenceFailureError(
            f"synthesis ended unconverged at fidelity {result.fidelity:.9f} "
            f"after {result.iterations} evaluations")
    return 0


def _int_at_least(low: int, name: str):
    """The argparse type of an integer of at least ``low``; argparse calls it
    ``name`` when the text is no integer."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = name
    return parse


positive_int = _int_at_least(1, "positive_int")
non_negative_int = _int_at_least(0, "non_negative_int")
mc_sample_count = _int_at_least(MC_MIN_SAMPLES, "mc_sample_count")


def class_tolerance(text: str) -> float:
    value = float(text)
    if not 1e-12 <= value < math.inf:  # a NaN fails too
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 1e-12, got {text}")
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
            p.add_argument("--seed", type=non_negative_int, default=7, help="rng seed (default 7)")
        if "tol" in names:
            p.add_argument("--tol", type=class_tolerance, default=CLASS_TOL,
                           help="class-equality tolerance in radians, finite and "
                                f"at least 1e-12 (default {CLASS_TOL:g})")
        if "mc_samples" in names:
            p.add_argument("--mc-samples", dest="mc_samples", type=mc_sample_count,
                           default=100_000,
                           help=f"Monte Carlo samples, at least {MC_MIN_SAMPLES} "
                                "(default 100000)")
        if "out" in names:
            p.add_argument("--out", default=None, help="output file path")
        if "format" in names:
            p.add_argument("--format", choices=("json", "csv"), default=None)
        if "secondary" in names:
            p.add_argument("--secondary", default=None,
                           help="line of a two-parameter family: an exact angle such as "
                                "pi/6 (plane_theta_line, c2_quarter_line) or a branch "
                                "0..3 (fsim_diag)")

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
    add(p, "seed", "mc_samples", "out", "format", "secondary")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("qlr", help="emit the inequality tuple table")
    add(p, "out")
    p.set_defaults(fn=cmd_qlr)

    p = sub.add_parser("synth", help="two-application circuit for a target gate")
    p.add_argument("gate", help="gate spec, or a family id: the member is the cheapest one "
                                "that reaches the target with a margin, one eighth of the "
                                "way into the lowest window of reaching members")
    p.add_argument("target", help="target gate spec")
    p.add_argument("--budget", type=positive_int, default=4000,
                   help="cap on solver evaluations over all restarts, a stalled restart "
                        "re-drawn from --seed while it allows (default 4000)")
    add(p, "seed", "out", "secondary")
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
