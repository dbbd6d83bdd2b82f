import json

import support
from plumbsw.cli import main

GRAPHS = support.GRAPH_DIR


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sw_sigma257_line(capsys):
    code, out, _ = run(capsys, "sw", GRAPHS / "sigma_2_5_7.graph")
    assert code == 0
    assert out.splitlines() == ["h=(0,0,0,0,0) -sw_norm=2 agree=true"]


def test_sw_two_nodes_lines(capsys):
    code, out, _ = run(capsys, "sw", GRAPHS / "two_nodes_h3.graph")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert [line.split("-sw_norm=")[1].split()[0] for line in lines] == ["5", "3", "3"]
    assert all(line.endswith("agree=true") for line in lines)


def test_sw_json_lines(capsys):
    code, out, _ = run(capsys, "sw", GRAPHS / "sigma_2_5_7.graph",
                       "--format", "json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["sw_norm_neg"] == 2 and rec["agree"] is True
    assert rec["routes"] == {"duality": 2, "polypart": 2, "division": 2, "lattice": 2}
    assert rec["raw"] == "-2"
    assert "_text" not in rec


def test_sw_single_method(capsys):
    code, out, _ = run(capsys, "sw", GRAPHS / "sigma_2_5_7.graph",
                       "--method", "duality")
    assert code == 0
    assert out.splitlines() == ["h=(0,0,0,0,0) -sw_norm=2 agree=true"]


def test_validate_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", GRAPHS / "sigma_2_5_7.graph")
    assert code == 0 and "check negative definite: pass" in out
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a -1\nvertex b -1\nedge a b\n")
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    assert "FAIL" in out and "not a valid" in err


def test_invariants_output(capsys):
    code, out, _ = run(capsys, "invariants", GRAPHS / "sigma_2_5_7.graph")
    assert code == 0
    lines = out.splitlines()
    assert "|H| = 1" in lines
    assert "Z_K = (12,6,3,4,2)" in lines
    assert "nodes = E1" in lines
    assert "E*[E1] = (70,35,14,20,10)" in lines


def test_zeta_box_output(capsys):
    code, out, _ = run(capsys, "zeta", GRAPHS / "sigma_2_5_7.graph",
                       "--reduce", "E1", "--box", "15")
    assert code == 0
    series = [l for l in out.splitlines() if l.startswith(("1 *", "-1 *"))]
    assert series == ["1 * t^(0)", "1 * t^(10)", "1 * t^(14)"]


def test_polypart_command(capsys):
    code, out, _ = run(capsys, "polypart", GRAPHS / "sigma_2_5_7.graph")
    assert code == 0
    lines = out.splitlines()
    assert "P+ (duality) = t^(1) + t^(11)" in lines
    assert "P+ (division) = t^(1) + t^(11)" in lines
    assert any(line.startswith("agree = true") for line in lines)


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", GRAPHS / "sigma_2_5_7.graph",
                       "--shape", "concave", "--positivity", "positive",
                       "--dilation", "70,35,14,20,10", "--reduce", "E1")
    assert code == 0
    assert out.strip() == "count = 2"


def test_count_requires_dilation(capsys):
    code, _, err = run(capsys, "count", GRAPHS / "sigma_2_5_7.graph")
    assert code == 2 and "--dilation" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", GRAPHS / "sigma_2_5_7.graph",
                         "--samples", "3", "--seed", "11")
    code2, out2, _ = run(capsys, "verify", GRAPHS / "sigma_2_5_7.graph",
                         "--samples", "3", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert [l.split()[1] for l in out1.splitlines()] == [
        "canonical-cycle-identity", "gorenstein-symmetry", "inclusion-exclusion",
        "division-vs-duality", "route-agreement", "quadratic-consistency"]
    assert all(l.startswith("ok ") for l in out1.splitlines())


def test_usage_errors(capsys):
    assert main(["frobnicate", "x.graph"]) == 2
    code, _, err = run(capsys, "sw", "no_such_file.graph")
    assert code == 2 and "No such file" in err


def test_bad_graph_file(capsys, tmp_path):
    bad = tmp_path / "syntax.graph"
    bad.write_text("vertex a -2\nedge a ghost\n")
    code, _, err = run(capsys, "sw", bad)
    assert code == 2 and "unknown vertex" in err


def test_non_definite_graph_is_rejected(capsys, tmp_path):
    # det(-I) = 3 > 0, but -I is not positive definite
    bad = tmp_path / "indefinite.graph"
    bad.write_text("vertex a 2\nvertex b 2\nedge a b\n")
    for command in ("sw", "invariants"):
        code, out, err = run(capsys, command, bad)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not negative definite" in err


def test_reduce_unknown_vertex(capsys):
    code, _, err = run(capsys, "zeta", GRAPHS / "two_nodes_h3.graph", "--reduce", "ZZ")
    assert code == 2
    assert err.startswith("error:") and "'ZZ'" in err and "Traceback" not in err


def test_verify_rejects_no_samples(capsys):
    for samples in ("0", "-1"):
        code, out, err = run(capsys, "verify", GRAPHS / "sigma_2_5_7.graph",
                             "--samples", samples)
        assert code == 2 and out == ""
        assert "--samples" in err
