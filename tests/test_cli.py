import contextlib
import io
import json
from pathlib import Path

import support
from plumbsw.cli import main

GRAPHS = support.GRAPH_DIR

# Exact stdout and exit code of the printing commands on the shipped graphs,
# in both formats.  Regenerate, only for an intended output change, with
# ``PYTHONPATH=src python tests/test_cli.py``.
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.txt"
GOLDEN_COMMANDS = (("invariants",), ("zeta",), ("zeta", "--box", "30"),
                   ("polypart",), ("sw",))
SHIPPED = ("sigma_2_5_7.graph", "two_nodes_h3.graph", "three_nodes_h1.graph")
# Beyond GOLDEN_COMMANDS: division certificates of two_nodes_h3 (its two
# non-zero classes, and the reduction to every vertex); verify with one sample
# on each shipped graph; polytope counts at l_top, the lattice route's query
# (concave, closed, positive; with a fiber on two_nodes_h3) and convex ones.
GOLDEN_EXTRA = (
    ("polypart", "two_nodes_h3.graph", "--h", "0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3"),
    ("polypart", "two_nodes_h3.graph", "--h", "0,0,2/3,2/3,1/3,1/3,0,0,1/3,2/3"),
    ("polypart", "two_nodes_h3.graph", "--reduce", "w1,v1,a1,a2,a3,a4,v2,w2,w3,w4"),
    *(("verify", name, "--samples", "1") for name in SHIPPED),
    ("count", "sigma_2_5_7.graph", "--dilation", "70,35,14,20,10", "--positivity", "positive"),
    ("count", "sigma_2_5_7.graph", "--shape", "convex", "--boundary", "open",
     "--dilation", "70,35,14,20,10", "--reduce", "E1,E4"),
    ("count", "two_nodes_h3.graph", "--dilation", "39,78,12,6,6,12,78,39,26,26",
     "--positivity", "positive", "--h", "0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3"),
    ("count", "two_nodes_h3.graph", "--shape", "convex",
     "--dilation", "39,78,12,6,6,12,78,39,26,26"),
    ("count", "three_nodes_h1.graph", "--dilation", "171,342,56,162,24,150,114,81,75,50",
     "--positivity", "positive"),
    ("count", "three_nodes_h1.graph", "--shape", "convex", "--boundary", "open",
     "--dilation", "171,342,56,162,24,150,114,81,75,50"),
)


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


def test_count_without_ends(capsys, tmp_path):
    # A one-vertex graph has no end coordinates: the empty point is the only
    # candidate, and it is not strictly positive.
    single = tmp_path / "single.graph"
    single.write_text("vertex a -2\n")
    for positivity, want in (("nonneg", 1), ("positive", 0)):
        code, out, _ = run(capsys, "count", single, "--reduce", "a",
                           "--dilation", "2", "--positivity", positivity)
        assert code == 0 and out == f"count = {want}\n"


# star(-1; -3,-4,-5,-5): |H| = 5, with a node of valency 4.  The tests below
# put the lattice route off by one on class 0 to see how a route
# disagreement is reported.
STAR4 = "vertex c -1\n" + "".join(
    f"vertex l{i} {e}\nedge c l{i}\n" for i, e in enumerate((-3, -4, -5, -5)))
STAR4_ROUTES = "h=(0,0,0,0,0) duality=17 polypart=17 division=17 lattice=18"


def lattice_off_by_one(monkeypatch):
    """Make the lattice route answer 18 on class 0, where the others give 17."""
    from plumbsw import swcore
    from plumbsw.lattice import lattice_of
    real = swcore.sw_via_lattice_all

    def crooked(g):
        values = real(g)
        values[lattice_of(g).zero_class] = 18
        return values

    monkeypatch.setattr(swcore, "sw_via_lattice_all", crooked)


def test_sw_disagreement_names_route_values(capsys, monkeypatch, tmp_path):
    lattice_off_by_one(monkeypatch)
    star = tmp_path / "star4.graph"
    star.write_text(STAR4)
    code, out, _ = run(capsys, "sw", star)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("h=(0,0,0,0,0) -sw_norm=? agree=false"
                        " duality=17 polypart=17 division=17 lattice=18")
    assert lines[1:] == [f"h=(0,0,0,{a},{b}) -sw_norm={v} agree=true" for a, b, v in
                         (("1/5", "4/5", 10), ("2/5", "3/5", 12), ("3/5", "2/5", 12),
                          ("4/5", "1/5", 10))]
    code, out, _ = run(capsys, "sw", star, "--format", "json-lines")
    rec = json.loads(out.splitlines()[0])
    assert code == 1 and rec["sw_norm_neg"] is None and rec["errors"] == {}
    assert rec["routes"] == {"duality": 17, "polypart": 17, "division": 17, "lattice": 18}


def test_verify_names_failure_witness(capsys, monkeypatch, tmp_path):
    lattice_off_by_one(monkeypatch)
    star = tmp_path / "star4.graph"
    star.write_text(STAR4)
    code, out, _ = run(capsys, "verify", star, "--samples", "1")
    assert code == 1
    assert out.splitlines() == [
        "ok canonical-cycle-identity", "ok gorenstein-symmetry", "ok inclusion-exclusion",
        "ok division-vs-duality", "FAIL route-agreement: " + STAR4_ROUTES,
        "ok quadratic-consistency"]
    code, out, _ = run(capsys, "verify", star, "--samples", "1", "--format", "json-lines")
    rec = json.loads(out.splitlines()[4])
    assert rec == {"check": "route-agreement", "detail": STAR4_ROUTES, "pass": False}

    from plumbsw import counting, decomp, swcore
    real = decomp.euclid_divide

    def crooked(R):
        dec = real(R)
        dec.poly = {}
        return dec

    monkeypatch.setattr(swcore, "euclid_divide", crooked)
    monkeypatch.setattr(counting, "inclusion_exclusion_check", lambda *args: False)
    monkeypatch.setattr(swcore, "Q", lambda *args: 10 ** 6)
    code, out, _ = run(capsys, "verify", star, "--samples", "2", "--seed", "3")
    lines = out.splitlines()
    assert code == 1
    assert lines[2].startswith("FAIL inclusion-exclusion: subset=")
    assert " x=(" in lines[2] and lines[2].endswith(")")
    mismatch = ("h=(0,0,0,0,0) duality=17 polypart=? "
                f"({swcore._POLYPART_MISMATCH}) division=0 lattice=18")
    assert lines[3] == "FAIL division-vs-duality: " + mismatch
    assert lines[4] == "FAIL route-agreement: " + mismatch
    assert lines[5].startswith("FAIL quadratic-consistency: l'=(")


def golden_transcript() -> str:
    runs = [(command, name, fmt, options)
            for name in SHIPPED
            for fmt in ("text", "json-lines")
            for command, *options in GOLDEN_COMMANDS]
    runs += [(command, name, fmt, options)
             for command, name, *options in GOLDEN_EXTRA
             for fmt in ("text", "json-lines")]
    blocks = []
    for command, name, fmt, options in runs:
        argv = [command, name, *options, "--format", fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, str(GRAPHS / name), *options, "--format", fmt])
        blocks.append(f"$ plumbsw {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return "".join(blocks)


def test_golden_cli_output():
    want = GOLDEN.read_text(encoding="utf-8")
    assert golden_transcript().splitlines() == want.splitlines()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_transcript(), encoding="utf-8")
