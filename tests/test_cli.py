import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from gatecover.cli import build_parser, main, parse_angle, parse_coord, parse_gate
from gatecover.errors import ParseError

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


def test_analyze_b(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["analyze", "b", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["symmetry"] == {"inverse_invariant": True, "mirror_invariant": True,
                               "mirrored_inverse_invariant": True}
    np.testing.assert_allclose(doc["cartan_coordinates"]["units_of_pi"],
                               [0.5, 0.25, 0.0], atol=1e-9)


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


def test_analyze_rejects_nonunitary(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[2, 0]] + [[0, 0]] * 3 for _ in range(4)]))
    assert main(["analyze", str(path)]) == 2


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
    assert 1 <= doc["iterations"] <= 4000
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


def test_synth_unreachable_exit_code(tmp_path):
    assert main(["synth", "cnot", "swap"]) == 3


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
    shared = {"--seed", "--tol", "--mc-samples", "--out", "--format"}
    slots = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt in shared)
             for name, p in sub.items()}
    assert slots == {"analyze": ["--out", "--tol"],
                     "coverage": ["--mc-samples", "--out", "--seed"],
                     "sweep": ["--format", "--mc-samples", "--out", "--seed"],
                     "qlr": ["--out"],
                     "synth": ["--out", "--seed"]}


@pytest.mark.parametrize("family, secondary, form", [
    ("plane_theta_line", "0.3", "exact angle in [0, pi/4] such as pi/6"),
    ("fsim_diag", "pi/6", "branch must be an integer 0..3"),
    ("b_alpha", "pi/6", "takes no secondary parameter"),
])
def test_sweep_rejects_unusable_secondary(family, secondary, form, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", family, "--secondary", secondary, "--points", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --secondary {secondary}: ") and form in err
    assert not out.exists()
