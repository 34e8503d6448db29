import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from gatecover import cartan, cli
from gatecover.cartan import CNOT, canonical_gate
from gatecover.cli import build_parser, main, parse_angle, parse_coord, parse_gate
from gatecover.coverage import coverage_region, fractional_volume
from gatecover.errors import ConvergenceFailureError, NotInChamberError, ParseError
from gatecover.families import get_family

PI = math.pi


def test_parse_angle_exact_literals():
    assert parse_angle("pi/4") == (PI / 4, F(1, 4))
    assert parse_angle("2pi/7") == (2 * PI / 7, F(2, 7))
    assert parse_angle("-pi/2") == (-PI / 2, F(-1, 2))
    assert parse_angle("pi") == (PI, F(1))
    assert parse_angle("0") == (0.0, F(0))
    val, frac = parse_angle("0.25")
    assert val == 0.25 and frac is None
    with pytest.raises(ParseError):
        parse_angle("pi/0")
    with pytest.raises(ParseError):
        parse_angle("two pies")


def test_parse_coord_exact():
    c = parse_coord("2pi/7,pi/4,3pi/14")
    assert c.frac == (F(2, 7), F(1, 4), F(3, 14))


def test_parse_gate_specs(tmp_path):
    assert parse_gate("cnot").shape == (4, 4)
    assert parse_gate("fsim:pi/3,pi/5").shape == (4, 4)
    assert parse_gate("coord:pi/2,pi/4,0").shape == (4, 4)
    mat = [[[1, 0], [0, 0], [0, 0], [0, 0]],
           [[0, 0], [1, 0], [0, 0], [0, 0]],
           [[0, 0], [0, 0], [1, 0], [0, 0]],
           [[0, 0], [0, 0], [0, 0], [1, 0]]]
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(mat))
    np.testing.assert_allclose(parse_gate(str(path)), np.eye(4))
    with pytest.raises(ParseError):
        parse_gate("not_a_gate")


@pytest.mark.parametrize("name", cli._BUILTINS)
def test_builtin_gate_is_a_fresh_copy_of_its_source(name):
    constants = ("CNOT", "DCNOT", "ISWAP", "SQRT_SWAP", "SWAP")
    before = {c: getattr(cartan, c).copy() for c in constants}
    if name == "b":
        source = cartan.b_gate()
    elif name == "identity":
        source = np.eye(4, dtype=complex)
    else:
        source = getattr(cartan, name.upper())
    first, second = parse_gate(name), parse_gate(name)
    for gate in (first, second):  # bit for bit
        assert gate.dtype == source.dtype and gate.shape == (4, 4)
        assert gate.tobytes() == source.tobytes()
    assert first is not second and not np.shares_memory(first, second)
    first[...] = 7
    assert np.array_equal(second, source)
    assert np.array_equal(parse_gate(name), source)
    for c in constants:
        assert np.array_equal(getattr(cartan, c), before[c]), c


def test_analyze_b(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["analyze", "b", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["symmetry"] == {"inverse_invariant": True, "mirror_invariant": True,
                               "mirrored_inverse_invariant": True}
    np.testing.assert_allclose(doc["cartan_coordinates"]["units_of_pi"],
                               [0.5, 0.25, 0.0], atol=1e-9)


def test_analyze_reads_the_gate_in_the_magic_basis_once(tmp_path, monkeypatch):
    images = []
    magic_image = cartan._magic_image
    monkeypatch.setattr(cartan, "_magic_image", lambda u: images.append(u) or magic_image(u))
    assert main(["analyze", "b", "--out", str(tmp_path / "b.json")]) == 0
    assert len(images) == 1


def test_analyze_coord_takes_no_eigenvalues(tmp_path, monkeypatch):
    # the class is parsed; the canonical gate feeds only the invariants
    eigvals, images = [], []
    real_eigvals, magic_image = np.linalg.eigvals, cartan._magic_image
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals.append(m) or real_eigvals(m))
    monkeypatch.setattr(cartan, "_magic_image", lambda u: images.append(u) or magic_image(u))
    out = tmp_path / "c.json"
    assert main(["analyze", "--coord", "pi/3,pi/4,pi/6", "--out", str(out)]) == 0
    assert (len(eigvals), len(images)) == (0, 0)
    inv = cartan.local_invariants(canonical_gate(parse_coord("pi/3,pi/4,pi/6")))
    doc = json.loads(out.read_text())
    assert doc["invariants"]["g1"] == [inv.g1.real, inv.g1.imag]
    assert doc["invariants"]["g2"] == inv.g2


def test_analyze_cnot(tmp_path):
    out = tmp_path / "c.json"
    assert main(["analyze", "cnot", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["symmetry"]["inverse_invariant"] is True
    assert doc["symmetry"]["mirror_invariant"] is False
    np.testing.assert_allclose(doc["invariants"]["g1"], [0, 0], atol=1e-12)
    assert abs(doc["invariants"]["g2"] - 1) < 1e-12


def test_analyze_exact_coord_stays_exact(tmp_path):
    out = tmp_path / "b.json"
    assert main(["analyze", "--coord", "pi/2,pi/4,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cartan_coordinates"]["exact"] == ["1/2*pi", "1/4*pi", "0*pi"]
    assert doc["nonlocal_content"] == ["3/8", "1/8", "-1/8", "-3/8"]
    assert all(doc["symmetry"].values())


def test_analyze_negative_first_angle_needs_the_equals_form(tmp_path, capsys):
    # after a space argparse reads "-pi/4,0,0" as an option, not as the value
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--coord", "-pi/4,0,0"])
    assert exc.value.code == 2
    assert "--coord: expected one argument" in capsys.readouterr().err
    out = tmp_path / "a.json"
    assert main(["analyze", "--coord=-pi/4,0,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cartan_coordinates"]["exact"] == ["1/4*pi", "0*pi", "0*pi"]


def test_analyze_identity_matrix_file(tmp_path):
    mat = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(mat))
    out = tmp_path / "out.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["cartan_coordinates"]["radians"], [0, 0, 0],
                               atol=1e-9)
    np.testing.assert_allclose(doc["invariants"]["g1"], [1, 0], atol=1e-9)
    assert abs(doc["invariants"]["g2"] - 3) < 1e-9


def test_analyze_npy_matrix_file(tmp_path, capsys):
    path = tmp_path / "cnot.npy"
    np.save(path, CNOT)
    out = tmp_path / "out.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    np.testing.assert_allclose(json.loads(out.read_text())["cartan_coordinates"]["units_of_pi"],
                               [0.5, 0, 0], atol=1e-9)
    np.save(path, np.eye(3, dtype=complex))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shape (3, 3), need 4x4" in err
    # numpy casts both to the identity
    for identity in (np.eye(4, dtype=bool), np.eye(4, dtype=int).astype(str)):
        np.save(path, identity)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "need numbers" in err


def test_analyze_prints_json_without_out(capsys):
    assert main(["analyze", "cnot"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["cartan_coordinates"]["units_of_pi"], [0.5, 0, 0],
                               atol=1e-9)


@pytest.mark.parametrize("error, code", [
    (ConvergenceFailureError("no convergence"), 4),
    # a domain error that no earlier clause names
    (NotInChamberError("off the chamber"), 2),
])
def test_main_maps_domain_errors_to_exit_codes(error, code, monkeypatch, capsys):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "cmd_qlr", fail)
    assert main(["qlr"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith(str(error))


def test_analyze_rejects_nonunitary(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[2, 0]] + [[0, 0]] * 3 for _ in range(4)]))
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("text", [
    "5",
    "[1, 2, 3, 4]",
    "[[[1]]]",
    "[[1, 0, 0, 0], [0, null, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    "[[1, 0, 0, 0], [0, {}, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    '["1000", "0100", "0010", "0001"]',
    "[[1, 0, 0, 0], [0, [1, 0, 0], 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    '[[1, 0, 0, 0], [0, "one", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]',
    # a Python bool is an int, so true would read as 1
    "[[true, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    "[[1, 0, 0, 0], [0, [1, false], 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    # an integer beyond float range, as a number and as the real part of a pair
    "[[1" + "0" * 400 + ", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
    "[[[1" + "0" * 400 + ", 0], 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]",
], ids=["number", "flat_list", "short_pair", "null_cell", "object_cell", "string_rows",
        "long_pair", "word_cell", "bool_cell", "bool_pair", "huge_int", "huge_int_pair"])
def test_malformed_matrix_file_exits_2(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="not a list of rows"):
        parse_gate(str(path))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ragged_matrix_file_exits_2(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text("[[1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]")
    with pytest.raises(ParseError, match=r"rows of lengths \[3, 4, 4, 4\], need 4x4"):
        parse_gate(str(path))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "inhomogeneous" not in err


@pytest.mark.parametrize("argv", [
    ["synth", "b", "coord:nan,0,0"],
    ["synth", "b", "NAN_MATRIX"],
    ["analyze", "--coord", "inf,0,0"],
    ["analyze", "--coord", "1e400,0,0"],
    ["analyze", "--coord", "1" + "0" * 400 + "pi,0,0"],
    ["analyze", "fsim:nan,0"],
])
def test_non_finite_input_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text("[[1, 0, 0, 0], [0, NaN, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]")
    argv = [str(path) if a == "NAN_MATRIX" else a for a in argv]
    assert main(argv) == 2  # pytest turns any numpy warning into an error
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_coverage_b(tmp_path, capsys):
    out = tmp_path / "region.json"
    assert main(["coverage", "b", "--out", str(out), "--mc-samples", "2000"]) == 0
    doc = json.loads(out.read_text())
    assert doc["union_volume_fraction"]["exact"] == "1"
    assert doc["mc_volume"]["fraction"] == 1.0


def test_coverage_sqrt_swap(tmp_path, capsys):
    out = tmp_path / "region.json"
    assert main(["coverage", "sqrt_swap", "--out", str(out),
                 "--mc-samples", "2000"]) == 0
    doc = json.loads(out.read_text())
    assert doc["union_volume_fraction"]["exact"] == "0"
    assert max(p["dim"] for p in doc["parts"]) == 1


def test_coverage_exact_coord(tmp_path):
    out = tmp_path / "region.json"
    assert main(["coverage", "--coord", "2pi/7,pi/4,3pi/14",
                 "--out", str(out), "--mc-samples", "2000"]) == 0
    doc = json.loads(out.read_text())
    frac = F(doc["union_volume_fraction"]["exact"])
    assert 0 < frac < 1


def test_sweep_endpoints(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "spe_to_b", "--points", "2", "--out", str(out),
                 "--mc-samples", "1000"]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "family_id,parameter,fraction,mc_fraction,mc_stderr"
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[2]) == 0.0
    assert float(last[2]) == 1.0


def test_qlr_command(tmp_path, capsys):
    out = tmp_path / "qlr.txt"
    assert main(["qlr", "--out", str(out)]) == 0
    text1 = out.read_text()
    assert len(text1.strip().splitlines()) == 74
    assert main(["qlr", "--out", str(out)]) == 0
    assert out.read_text() == text1


def test_synth_b_swap(tmp_path):
    out = tmp_path / "synth.json"
    assert main(["synth", "b", "swap", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["fidelity"] >= 1 - 1e-6
    assert doc["converged"] is True


def test_synth_reports_residual_on_chamber_boundary_class(tmp_path):
    out = tmp_path / "synth.json"
    assert main(["synth", "b", "coord:11pi/12,1pi/12,1pi/12", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    # from the B class the closed-form restart 0 ends the search in one batch
    assert doc["iterations"] == 8
    assert doc["restart"] == 0
    assert 0 <= doc["residual"] <= 1e-12


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_synth_rejects_budget_below_one(budget, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "b", "swap", "--budget", budget, "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    assert "--budget: must be at least 1" in capsys.readouterr().err


def test_synth_family(tmp_path):
    out = tmp_path / "synth.json"
    assert main(["synth", "b_alpha", "swap", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["theta"] - PI / 2) < 1e-12


@pytest.mark.parametrize("family", ["b_alpha", "spe_to_b"])
@pytest.mark.parametrize("target", ["cnot", "iswap", "dcnot", "swap", "b"])
def test_synth_family_converges_on_named_targets(family, target, tmp_path):
    doc = _json_run(["synth", family, target], tmp_path / "synth.json")
    assert doc["converged"] is True
    assert doc["fidelity"] >= 1 - 1e-9
    assert doc["iterations"] < 4000


def test_synth_unreachable_exit_code(tmp_path):
    assert main(["synth", "cnot", "swap"]) == 3


def test_unconverged_synth_writes_its_json_and_exits_4(tmp_path, capsys):
    # one evaluation cannot reach CNOT from two CNOTs
    out = tmp_path / "synth.json"
    assert main(["synth", "cnot", "cnot", "--budget", "1", "--out", str(out)]) == 4
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["iterations"] == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert f"fidelity {doc['fidelity']:.9f}" in err


@pytest.mark.parametrize("command", ["analyze", "coverage"])
def test_missing_gate_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "one of the arguments gate --coord is required" in capsys.readouterr().err


def test_gate_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["analyze", "cnot"], ["qlr"]])
def test_out_in_missing_directory_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_sweep_one_point_is_the_lowest_member(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "spe_to_b", "--points", "1", "--out", str(out),
                 "--mc-samples", "1000"]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) == PI / 4  # spe_to_b starts at pi/4


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sweep_rejects_points_below_one(points, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "b_alpha", "--points", points, "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "--points: must be at least 1" in capsys.readouterr().err


def test_options_attach_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qlr", "--format", "xml"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format xml" in capsys.readouterr().err
    sub = build_parser()._subparsers._group_actions[0].choices
    shared = {"--seed", "--tol", "--mc-samples", "--out", "--format", "--secondary"}
    slots = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt in shared)
             for name, p in sub.items()}
    assert slots == {"analyze": ["--out", "--tol"],
                     "coverage": ["--mc-samples", "--out", "--seed"],
                     "sweep": ["--format", "--mc-samples", "--out", "--secondary", "--seed"],
                     "qlr": ["--out"],
                     "synth": ["--out", "--secondary", "--seed"]}


@pytest.mark.parametrize("family, secondary, form", [
    ("plane_theta_line", "0.3", "exact angle in [0, pi/4] such as pi/6"),
    ("fsim_diag", "pi/6", "branch must be an integer 0..3"),
    ("fsim_diag", "pi", "branch must be an integer 0..3"),
    ("b_alpha", "pi/6", "takes no secondary parameter"),
])
def test_sweep_rejects_unusable_secondary(family, secondary, form, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", family, "--secondary", secondary, "--points", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --secondary {secondary}: ") and form in err
    assert not out.exists()


@pytest.mark.parametrize("secondary, branch", [("0", 0), ("3", 3)])
def test_sweep_reads_the_fsim_diag_branch_as_a_number(secondary, branch, tmp_path):
    out = tmp_path / "s.json"
    assert main(["sweep", "fsim_diag", "--secondary", secondary, "--points", "3",
                 "--mc-samples", "1000", "--format", "json", "--out", str(out)]) == 0
    spec = get_family("fsim_diag", branch)
    assert [row["fraction"] for row in json.loads(out.read_text())] == [
        float(fractional_volume(coverage_region(c, c)))
        for c in map(spec.exact_coord, spec.grid(3))]


def test_synth_secondary_picks_the_family_line(tmp_path):
    doc = _json_run(["synth", "plane_theta_line", "cnot", "--secondary", "pi/12"],
                    tmp_path / "s.json")
    spec = get_family("plane_theta_line", F(1, 12))
    t = F(doc["theta"] / PI).limit_denominator(1 << 20)
    # a member of the pi/12 line below pi/6, where the default line starts
    assert doc["converged"] and spec.lo <= t < F(1, 6)
    u = canonical_gate(spec.exact_coord(t))

    def pair(name):
        a, b = (np.array([[complex(re, im) for re, im in row] for row in m])
                for m in doc["locals"][name])
        return np.kron(a, b)
    circuit = pair("l1") @ u @ pair("l2") @ u @ pair("l3")
    assert abs(np.trace(circuit.conj().T @ CNOT)) / 4 >= 1 - 1e-9


@pytest.mark.parametrize("gate, secondary, form", [
    ("b", "pi/12", "applies only to a family id"),
    ("cnot", "0", "applies only to a family id"),
    ("plane_theta_line", "0.3", "exact angle in [0, pi/4] such as pi/6"),
    ("spe_to_b", "pi/6", "takes no secondary parameter"),
    ("fsim_diag", "pi", "branch must be an integer 0..3"),
])
def test_synth_rejects_unusable_secondary(gate, secondary, form, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["synth", gate, "cnot", "--secondary", secondary, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --secondary {secondary}: ") and form in err
    assert not out.exists()


def _exit_code(argv) -> int:
    """The exit code of ``gatecover argv``, whether argparse or a command sets it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _json_run(argv, out) -> dict:
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_analyze_tol_sets_the_class_equality_tolerance(tmp_path):
    # 1e-6 rad beyond the c1 = pi/2 plane, so the gate and its inverse are
    # 2e-6 rad apart: distinct classes at the default 1e-8, one class at 1e-5
    argv = ["analyze", "--coord", "1.5707973,0.3,0.2"]
    strict = _json_run(argv, tmp_path / "strict.json")
    loose = _json_run(argv + ["--tol", "1e-5"], tmp_path / "loose.json")
    assert strict["symmetry"]["inverse_invariant"] is False
    assert loose["symmetry"]["inverse_invariant"] is True
    strict.pop("symmetry"), loose.pop("symmetry")
    assert strict == loose


def test_synth_seed_sets_the_random_restarts(tmp_path):
    argv = ["synth", "b_alpha", "cnot"]
    runs = [_json_run(argv + ["--seed", "11"], tmp_path / f"s{i}.json") for i in range(2)]
    default = _json_run(argv, tmp_path / "default.json")
    assert runs[0] == runs[1]
    assert runs[0]["converged"] and default["converged"]
    # restarts 1-7 start at seeded angles, and another restart's layer is kept
    assert ((runs[0]["restart"], runs[0]["iterations"])
            != (default["restart"], default["iterations"]))
    assert runs[0]["locals"]["l2"] != default["locals"]["l2"]


def test_coverage_seed_sets_the_monte_carlo_draw(tmp_path):
    argv = ["coverage", "--coord", "2pi/7,pi/4,3pi/14", "--mc-samples", "2000"]
    runs = [_json_run(argv + ["--seed", "3"], tmp_path / f"c{i}.json") for i in range(2)]
    other = _json_run(argv + ["--seed", "4"], tmp_path / "other.json")
    assert runs[0] == runs[1]
    assert runs[0]["mc_volume"]["samples"] == 2000
    assert runs[0]["mc_volume"]["fraction"] != other["mc_volume"]["fraction"]
    runs[0].pop("mc_volume"), other.pop("mc_volume")
    assert runs[0] == other


def test_seeded_monte_carlo_figures_are_pinned(tmp_path):
    # mc_volume's figures at a fixed seed, bit for bit: a faster loop must keep them
    doc = _json_run(["coverage", "--coord", "pi/3,pi/4,pi/6", "--seed", "7"], tmp_path / "c.json")
    assert doc["union_volume_fraction"]["exact"] == "16/27"
    mc = doc["mc_volume"]
    assert (mc["fraction"], mc["stderr"]) == (0.59459, 0.001552587298350724)
    rows = _json_run(["sweep", "b_alpha", "--points", "3", "--seed", "7", "--format", "json"],
                     tmp_path / "s.json")
    assert [row["mc_fraction"] for row in rows] == [0.0, 0.50064, 1.0]


def test_coverage_rejects_zero_mc_samples(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert _exit_code(["coverage", "b", "--mc-samples", "0", "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1", "1e-13", "nan", "inf", "-inf", "tiny"])
def test_analyze_rejects_tol_outside_its_range(tol, tmp_path, capsys):
    out = tmp_path / "a.json"
    assert _exit_code(["analyze", "cnot", "--tol", tol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "argument --tol: " in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_accepts_the_smallest_tol(tmp_path):
    doc = _json_run(["analyze", "cnot", "--tol", "1e-12"], tmp_path / "a.json")
    assert doc["symmetry"]["inverse_invariant"] is True


@pytest.mark.parametrize("argv", [["synth", "b", "cnot"],
                                  ["coverage", "b", "--mc-samples", "1000"],
                                  ["sweep", "b_alpha", "--points", "2", "--mc-samples", "1000"]])
def test_negative_seed_is_refused_by_name(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert _exit_code(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "b_alpha", "--points", "x"], "argument --points: invalid positive_int value: 'x'"),
    (["synth", "b", "cnot", "--budget", "x"],
     "argument --budget: invalid positive_int value: 'x'"),
    (["coverage", "b", "--seed", "x"], "argument --seed: invalid non_negative_int value: 'x'"),
    (["coverage", "b", "--mc-samples", "x"],
     "argument --mc-samples: invalid mc_sample_count value: 'x'"),
])
def test_non_integer_text_is_refused_by_type_name(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_MC_COMMANDS = [["coverage", "b"], ["sweep", "b_alpha", "--points", "2"]]


@pytest.mark.parametrize("count", ["0", "10", "999"])
@pytest.mark.parametrize("argv", _MC_COMMANDS)
def test_mc_samples_below_the_floor_are_refused_by_name(argv, count, tmp_path, capsys):
    out = tmp_path / "out"
    assert _exit_code(argv + ["--mc-samples", count, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument --mc-samples: must be at least 1000, got {count}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", _MC_COMMANDS)
def test_mc_samples_floor_is_accepted(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["--mc-samples", "1000", "--out", str(out)]) == 0
    assert out.read_text()
