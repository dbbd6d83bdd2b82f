import contextlib
import gc
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import support
from plumbsw import counting, swcore
from plumbsw.cli import main
from plumbsw.graph import parse_graph
from plumbsw.lattice import all_classes, e_star, format_vec, lattice_of

GRAPHS = support.GRAPH_DIR
ROOT = Path(__file__).resolve().parents[1]
HUB33 = ROOT / "tests" / "data" / "hub_tree_33.graph"
D4 = ROOT / "tests" / "data" / "d4.graph"

# Exact stdout, stderr and exit code of the printing commands on the shipped
# graphs, in both formats, and of sw and polypart on two test graphs whose H
# takes class steps: hub_tree_33 (|H| = 36) and D4 (H = (Z/2)^2, not
# cyclic); then of every command but count on the 30-graph corpus, of sw
# and invariants on two larger graphs, and of the invalid graphs.  A graph
# is named by its file name under graphs/, by its path from the root of the
# checkout, or, for a graph built by ``tests/support.py`` and written to a
# temporary file, by a name of GOLDEN_BUILT.  Each stderr line is printed
# after stdout, prefixed "stderr: ".  Regenerate, only for an intended
# output change, with ``PYTHONPATH=src python tests/test_cli.py``.
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
    # a reduction on which two live exponents of the numerator coincide
    ("zeta", "three_nodes_h1.graph", "--reduce", "u3"),
    *((command, name) for name in ("tests/data/hub_tree_33.graph", "tests/data/d4.graph")
      for command in ("sw", "polypart")),
)
# Connected and negative definite, but a-b-c-a is a cycle.
TRIANGLE = "vertex a -3\nvertex b -3\nvertex c -3\nedge a b\nedge b c\nedge a c\n"
# Invalid graphs, named by shape and Euler numbers: two cycles, two forests,
# four trees that are not negative definite, and a cycle beside an isolated
# vertex, which has n - 1 edges but is no tree.
INVALID = {
    "triangle_-3": TRIANGLE,
    "triangle_-1": "vertex a -1\nvertex b -1\nvertex c -1\nedge a b\nedge b c\nedge a c\n",
    "forest_2": "vertex a -2\nvertex b -2\n",
    "forest_3": "vertex a -2\nvertex b -2\nvertex c 1\nedge a b\n",
    "vertex_a_0": "vertex a 0\n",
    "chain_2_2": "vertex a 2\nvertex b 2\nedge a b\n",
    "chain_-1_-1": "vertex a -1\nvertex b -1\nedge a b\n",
    "chain_-2_-1_-2_-2": "vertex a -2\nvertex b -1\nvertex c -2\nvertex d -2\n"
                         "edge a b\nedge b c\nedge c d\n",
    "triangle_-3_and_d_-2": TRIANGLE + "vertex d -2\n",
}
CORPUS_COMMANDS = (("invariants",), ("validate",), ("zeta",), ("polypart",), ("sw",),
                   ("verify", "--samples", "1"))


def graph_text(g) -> str:
    return "".join([*(f"vertex {v} {e}\n" for v, e in zip(g.ids, g.eulers)),
                    *(f"edge {a} {b}\n" for a, b in sorted(g.edges))])


def golden_built():
    """The graphs the transcript builds, by name: the corpus, caterpillar(2),
    brieskorn(2,3,301), one vertex of Euler number -400 and the invalid
    graphs, each as the text of its file."""
    built = {f"corpus_{i:02}.graph": graph_text(g) for i, g in enumerate(support.corpus())}
    built["caterpillar_2.graph"] = graph_text(support.caterpillar(2))
    built["brieskorn_2_3_301.graph"] = graph_text(support.brieskorn(2, 3, 301))
    built["vertex_a_-400.graph"] = "vertex a -400\n"
    built.update((f"invalid_{name}.graph", text) for name, text in INVALID.items())
    return built


# Runs on the built graphs, as (command, name, *options, formats).
GOLDEN_BUILT = (
    *((command, f"corpus_{i:02}.graph", *options, ("text", "json-lines"))
      for i in range(support.CORPUS_SIZE) for command, *options in CORPUS_COMMANDS),
    *((command, name, ("text", "json-lines"))
      for name in ("caterpillar_2.graph", "brieskorn_2_3_301.graph")
      for command in ("sw", "invariants")),
    ("sw", "vertex_a_-400.graph", ("text",)),
    *((command, f"invalid_{name}.graph", ("text",))
      for name in INVALID for command in ("validate", "invariants", "sw")),
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


@pytest.mark.parametrize("text", ["vertex a -5\n",
                                  "vertex a -2\nvertex b -2\nedge a b\n"])
def test_sw_lattice_alone_on_a_graph_without_nodes_exits_2(capsys, tmp_path, text):
    # the only route asked for does not apply: a usage error, not a
    # disagreement between routes
    path = tmp_path / "no_nodes.graph"
    path.write_text(text)
    assert run(capsys, "sw", path, "--method", "lattice") == (
        2, "", "error: graph has no nodes; use the duality route\n")
    code, out, _ = run(capsys, "sw", path)
    assert code == 0 and "agree=true" in out


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


def product_of_node_factors(g, active):
    """prod (1 - t^{E*_v on the live coordinates})^{mu_v} over the vertices
    with mu_v = valency - 2 > 0, multiplied out by dict convolution on
    Fraction exponents, zero terms dropped."""
    _, _, val = support.classify_vertices(g)
    product = {(Fraction(0),) * len(active): 1}
    for v in g.ids:
        col = e_star(g, v)
        a = tuple(col[i] for i in active)
        for _ in range(val[v] - 2):
            out = {}
            for e, c in product.items():
                for shift, sign in (((0,) * len(a), 1), (a, -1)):
                    key = tuple(x + y for x, y in zip(e, shift))
                    out[key] = out.get(key, 0) + sign * c
            product = out
    return {format_vec(e): c for e, c in product.items() if c}


def test_reduced_numerator_is_the_product_of_node_factors(capsys, tmp_path, corpus30):
    # every node factor (1 - t^a) reduced to the live set, summed over equal
    # live exponents: on every single vertex and on the node set
    graphs = [support.sigma257(), support.two_nodes(), support.three_nodes(), *corpus30]
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.graph"
        path.write_text(graph_text(g))
        nodes, _, _ = support.classify_vertices(g)
        for live in [(v,) for v in g.ids] + ([nodes] if nodes else []):
            code, out, _ = run(capsys, "zeta", path, "--reduce", ",".join(live),
                               "--format", "json-lines")
            assert code == 0
            got = json.loads(out.splitlines()[-1])["numerator"]
            active = sorted(g.index(v) for v in live)
            assert got == product_of_node_factors(g, active), (k, live)


def test_polypart_command(capsys):
    code, out, _ = run(capsys, "polypart", GRAPHS / "sigma_2_5_7.graph")
    assert code == 0
    lines = out.splitlines()
    assert "P+ (duality) = t^(1) + t^(11)" in lines
    assert "P+ (division) = t^(1) + t^(11)" in lines
    assert any(line.startswith("agree = true") for line in lines)


def test_polypart_divides_only_its_class(capsys, monkeypatch):
    # |H| = 3: only the split terms of the one class asked for are built and
    # divided, and no class's component is built as a RatFunc
    from plumbsw import cli, decomp, series
    built, divided, asked = [], [], []
    real_init, real_divide = series.RatFunc.__post_init__, decomp.divide_component
    real_split = series._split_classes

    def counted_init(self):
        built.append(self.htag)
        real_init(self)

    def counted_divide(*args):
        divided.append(args[-1])
        return real_divide(*args)

    def counted_split(*args):
        terms, denom = real_split(*args)
        return (lambda key: asked.append(key) or terms(key)), denom

    monkeypatch.setattr(series.RatFunc, "__post_init__", counted_init)
    monkeypatch.setattr(cli.decomp, "divide_component", counted_divide)
    monkeypatch.setattr(cli.series, "_split_classes", counted_split)
    code, out, _ = run(capsys, "polypart", GRAPHS / "two_nodes_h3.graph",
                       "--h", "0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3")
    assert code == 0 and "agree = true" in out
    assert built == [] and [str(h) for h in divided] == ["(0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3)"]
    assert asked == [divided[0].key]


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", GRAPHS / "sigma_2_5_7.graph",
                       "--shape", "concave", "--positivity", "positive",
                       "--dilation", "70,35,14,20,10", "--reduce", "E1")
    assert code == 0
    assert out.strip() == "count = 2"


def test_count_dilation_off_the_grid(capsys):
    # |H| = 3: 274/7 is off the 1/3 grid and cuts where 39 does, closed or
    # open, since floor(3 * 274/7) = 117 = 3 * 39
    graph = GRAPHS / "two_nodes_h3.graph"
    code, out, err = run(capsys, "count", graph, "--reduce", "v1,v2",
                         "--dilation", ",".join(["1/7"] * 10))
    assert (code, out, err) == (0, "count = 1\n", "")
    _, want, _ = run(capsys, "count", graph, "--dilation", ",".join(["39"] * 10))
    assert int(want.split("=")[1]) > 1
    for boundary in ("closed", "open"):
        code, out, _ = run(capsys, "count", graph, "--boundary", boundary,
                           "--dilation", ",".join(["274/7"] * 10))
        assert (code, out) == (0, want)


def test_count_requires_dilation(capsys):
    code, _, err = run(capsys, "count", GRAPHS / "sigma_2_5_7.graph")
    assert code == 2 and "--dilation" in err


@pytest.mark.parametrize("argv", [
    ("polypart", "--h", "1/0,0,0,0,0"),
    ("count", "--dilation", "1/0,0,0,0,0"),
    ("count", "--dilation", "70,35,14,20,10", "--h", "1/0,0,0,0,0"),
])
def test_zero_denominator_in_a_vector_flag(capsys, argv):
    code, _, err = run(capsys, argv[0], GRAPHS / "sigma_2_5_7.graph", *argv[1:])
    flag = argv[-2]
    assert code == 2
    assert err.startswith(f"error: {flag} has a zero denominator")
    assert "Traceback" not in err


# A valid value for every flag on sigma_2_5_7 (5 vertices), and the flags each
# command reads besides --format: 57 (command, flag) pairs are left unread.
FLAG_VALUES = {"--h": "0,0,0,0,0", "--reduce": "E1", "--box": "30", "--method": "duality",
               "--samples": "1", "--seed": "1", "--shape": "convex", "--boundary": "open",
               "--positivity": "positive", "--dilation": "70,35,14,20,10"}
READS = {"validate": (), "invariants": (), "zeta": ("--reduce", "--box"),
         "polypart": ("--h", "--reduce"), "sw": ("--method",),
         "count": ("--dilation", "--reduce", "--h", "--shape", "--boundary", "--positivity"),
         "verify": ("--samples", "--seed")}
UNREAD = [(command, flag, FLAG_VALUES[flag])
          for command, reads in READS.items() for flag in FLAG_VALUES if flag not in reads]


@pytest.mark.parametrize("command,flag,value", [
    *UNREAD, ("sw", "--h", "abc"), ("verify", "--samp", "1"), ("count", "--dil", "1"),
])
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag, value):
    # count needs its --dilation, so that the flag under test is the only fault
    needs = ("--dilation", FLAG_VALUES["--dilation"]) if command == "count" else ()
    code, out, err = run(capsys, command, GRAPHS / "sigma_2_5_7.graph", *needs, flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("count", GRAPHS / "sigma_2_5_7.graph", "--dilation", "1,2"),
     "--dilation needs 5 comma separated rationals"),
    (("zeta", GRAPHS / "two_nodes_h3.graph", "--reduce", "v1,v1"),
     "live vertex set has repeats"),
])
def test_bad_flag_value_exits_2_with_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    # a command that exhausts memory ends as an input error, not with a
    # traceback and the exit code of a failed verification
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(swcore, "quadratic_check", exhausted)
    assert run(capsys, "verify", GRAPHS / "two_nodes_h3.graph", "--samples", "1") == (
        2, "", "error: out of memory in verify\n")


@pytest.mark.parametrize("text,message", [
    ("vertex a-b -2\n", "line 1, column 8: bad vertex id 'a-b'"),
    ("edge a\n", "line 1, column 1: expected 'edge <id> <id>'"),
    # int() reads both as integers: digit separators, non-ASCII digits
    ("vertex a -1_0\n", "line 1, column 10: bad euler number '-1_0'"),
    ("vertex a -\u0663\n", "line 1, column 10: bad euler number '-\u0663'"),
])
def test_bad_graph_line_exits_2_with_its_position(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    assert run(capsys, "sw", bad) == (2, "", f"error: bad graph file: {message}\n")


def test_sw_prints_each_class_as_it_is_formatted(tmp_path):
    # star(-2; -6,-9,-13), |H| = 1155.  Building every class's entry, and
    # duality's table of every class's cut, before the first line prints
    # peaks at 0.79 MB traced (Python 3.11); building each entry when its
    # class is reached, and printing it, at 0.24 MB; with duality's values
    # kept for the 64 non-zero classes only, and each class's key built as
    # it is reached, at 0.21 MB.  The first run builds the cached lattice,
    # so only the second, measured, run's own allocations count; the
    # collection before it frees what earlier calls left in cycles, which
    # would otherwise be freed, or not, inside it.
    star = tmp_path / "star.graph"
    star.write_text("vertex c -2\nvertex s0 -6\nvertex s1 -9\nvertex s2 -13\n"
                    "edge c s0\nedge c s1\nedge c s2\n")
    argv = ["sw", str(star), "--method", "duality", "--format", "json-lines"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 400_000


def test_vector_flag_starting_with_a_minus_sign(capsys):
    # argparse reads a separate value that starts with "-" as a flag, so such
    # a vector is passed as --flag=value
    two_nodes = GRAPHS / "two_nodes_h3.graph"
    rep = "0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3"
    shifted = "-1," + rep[2:]
    code, out, err = run(capsys, "polypart", two_nodes, "--h", shifted)
    assert (code, out) == (2, "") and "argument --h: expected one argument" in err
    _, want, _ = run(capsys, "polypart", two_nodes, "--h", rep)
    assert run(capsys, "polypart", two_nodes, f"--h={shifted}") == (0, want, "")
    sigma = GRAPHS / "sigma_2_5_7.graph"
    code, out, err = run(capsys, "count", sigma, "--dilation", "-1,-1,-1,-1,-1")
    assert (code, out) == (2, "") and "argument --dilation: expected one argument" in err
    assert run(capsys, "count", sigma, "--dilation=-1,-1,-1,-1,-1") == (0, "count = 0\n", "")


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


def test_verify_sums_each_counting_walk_state_once(capsys, monkeypatch):
    # Machine-independent cost of verify's counting functions: one floor
    # sum per residue of a closed-form leaf and per envelope piece of more
    # than one step.  Summing each walk state (level, slack, class) once
    # takes 5,884 on three_nodes_h1, where a walk that sums every leaf
    # takes 14,302.
    calls = 0
    floor_sum = counting.floor_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return floor_sum(*args)

    monkeypatch.setattr(counting, "floor_sum", counted)
    code, out, _ = run(capsys, "verify", GRAPHS / "three_nodes_h1.graph",
                       "--seed", "20240914", "--samples", "1")
    assert code == 0 and "FAIL" not in out
    assert 0 < calls <= 5_884


def test_usage_errors(capsys):
    assert main(["frobnicate", "x.graph"]) == 2
    code, _, err = run(capsys, "sw", "no_such_file.graph")
    assert code == 2 and "No such file" in err


def test_bad_graph_file(capsys, tmp_path):
    bad = tmp_path / "syntax.graph"
    bad.write_text("vertex a -2\nedge a ghost\n")
    code, _, err = run(capsys, "sw", bad)
    assert code == 2 and "unknown vertex" in err


def test_graph_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "binary.graph"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "sw", bad)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad graph file: ") and "Traceback" not in err


def test_non_definite_graph_is_rejected(capsys, tmp_path):
    # det(-I) = 3 > 0, but -I is not positive definite
    bad = tmp_path / "indefinite.graph"
    bad.write_text("vertex a 2\nvertex b 2\nedge a b\n")
    for command in ("sw", "invariants"):
        code, out, err = run(capsys, command, bad)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not negative definite" in err


@pytest.mark.parametrize("argv", [
    ("invariants",), ("sw",), ("verify", "--samples", "1"), ("polypart",),
    ("zeta", "--box", "2"), ("count", "--dilation", "1,1,1")])
def test_graph_with_a_cycle_exits_2(capsys, tmp_path, argv):
    triangle = tmp_path / "triangle.graph"
    triangle.write_text(TRIANGLE)
    code, out, err = run(capsys, argv[0], triangle, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: graph is not a tree: 3 edges for 3 vertices\n"


def test_validate_fails_a_graph_with_a_cycle(capsys, tmp_path):
    triangle = tmp_path / "triangle.graph"
    triangle.write_text(TRIANGLE)
    code, out, _ = run(capsys, "validate", triangle)
    assert code == 1
    assert "check tree: FAIL (3 edges for 3 vertices)" in out.splitlines()


NOT_VALIDATED = "graph is not a valid negative definite plumbing tree\n"


# validate checks definiteness on trees only, and names the vertex whose
# branch is not definite; invariants rejects the graph at the first check
# it fails.
@pytest.mark.parametrize("text, checks, error", [
    (TRIANGLE, ("connected: pass", "tree: FAIL (3 edges for 3 vertices)",
                "negative definite: FAIL (not checked)"),
     "graph is not a tree: 3 edges for 3 vertices"),
    ("vertex a -2\nvertex b -2\n",
     ("connected: FAIL (graph is disconnected)", "tree: FAIL (0 edges for 2 vertices)",
      "negative definite: FAIL (not checked)"),
     "graph is disconnected"),
    ("vertex a 0\n", ("connected: pass", "tree: pass",
                      "negative definite: FAIL (not negative definite on the branch at vertex a)"),
     "intersection matrix is not negative definite on the branch at vertex a"),
], ids=["triangle", "forest", "zero"])
def test_validate_and_invariants_on_invalid_graphs(capsys, tmp_path, text, checks, error):
    path = tmp_path / "invalid.graph"
    path.write_text(text)
    assert run(capsys, "validate", path) == (
        1, "".join(f"check {c}\n" for c in checks), NOT_VALIDATED)
    assert run(capsys, "invariants", path) == (2, "", f"error: {error}\n")


def test_reduce_unknown_vertex(capsys):
    code, _, err = run(capsys, "zeta", GRAPHS / "two_nodes_h3.graph", "--reduce", "ZZ")
    assert code == 2
    assert err.startswith("error:") and "'ZZ'" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("zeta",), ("polypart",), ("count", "--dilation", "70,35,14,20,10")])
def test_reduce_empty_exits_2(capsys, argv):
    # An empty --reduce is an error, not the default live set
    code, out, err = run(capsys, argv[0], GRAPHS / "sigma_2_5_7.graph", *argv[1:],
                         "--reduce", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: --reduce") and "Traceback" not in err


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
    real = swcore.sw_via_lattice

    def crooked(g):
        values = real(g)
        values[lattice_of(g).zero_class] = 18
        return values

    monkeypatch.setattr(swcore, "sw_via_lattice", crooked)


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


def test_sw_exit_code_counts_the_last_class(capsys, monkeypatch):
    # the exit code is taken from the entries as they are printed, so a
    # disagreement on the last class still gives exit 1, after every line
    from plumbsw import swcore
    real = swcore.sw_via_lattice

    def crooked(g):
        values = real(g)
        values[all_classes(g)[-1]] += 1
        return values

    monkeypatch.setattr(swcore, "sw_via_lattice", crooked)
    graph = GRAPHS / "two_nodes_h3.graph"
    code, out, _ = run(capsys, "sw", graph)
    assert code == 1
    assert out.splitlines() == [
        "h=(0,0,0,0,0,0,0,0,0,0) -sw_norm=5 agree=true",
        "h=(0,0,1/3,1/3,2/3,2/3,0,0,2/3,1/3) -sw_norm=3 agree=true",
        "h=(0,0,2/3,2/3,1/3,1/3,0,0,1/3,2/3) -sw_norm=? agree=false"
        " duality=3 polypart=3 division=3 lattice=4"]
    code, out, _ = run(capsys, "sw", graph, "--format", "json-lines")
    assert code == 1
    assert [json.loads(line)["agree"] for line in out.splitlines()] == [True, True, False]


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
    real = decomp.polypart_division

    def crooked(*args):
        return dict.fromkeys(real(*args), {})

    monkeypatch.setattr(swcore, "polypart_division", crooked)
    # verify runs the scaled cores of inclusion_exclusion_check and Q
    monkeypatch.setattr(counting, "_inclusion_exclusion", lambda *args: False)
    monkeypatch.setattr(swcore, "_cut_sum", lambda *args: 10 ** 6)
    code, out, _ = run(capsys, "verify", star, "--samples", "2", "--seed", "3")
    lines = out.splitlines()
    assert code == 1
    assert lines[2] == "FAIL inclusion-exclusion: subset=l3 x=(171,57,43,173/5,172/5)"
    mismatch = ("h=(0,0,0,0,0) duality=17 polypart=? "
                f"({swcore._POLYPART_MISMATCH}) division=0 lattice=18")
    assert lines[3] == "FAIL division-vs-duality: " + mismatch
    assert lines[4] == "FAIL route-agreement: " + mismatch
    assert lines[5] == "FAIL quadratic-consistency: l'=(208,70,53,213/5,212/5)"


def test_python_m_plumbsw_exits_with_the_cli_code(capsys, monkeypatch, tmp_path):
    for argv, want in ((["sw", str(GRAPHS / "sigma_2_5_7.graph")], 0),
                       (["sw", str(tmp_path / "missing.graph")], 2)):
        assert main(argv) == want
        monkeypatch.setattr(sys, "argv", ["plumbsw", *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("plumbsw", run_name="__main__")
        assert exit_info.value.code == want


@pytest.mark.parametrize("graph, argv", [
    (support.brieskorn(2, 3, 1201), ("invariants",)),
    (parse_graph("vertex a -20000"), ("sw", "--method", "duality")),
], ids=["invariants", "sw-duality"])
def test_closed_standard_output_exits_2_without_a_traceback(tmp_path, graph, argv):
    # each command prints well over the 64 KB a pipe buffers, so it is still
    # writing when the reader closes its end
    path = tmp_path / "big.graph"
    path.write_text("".join(f"vertex {v} {e}\n" for v, e in zip(graph.ids, graph.eulers))
                    + "".join(f"edge {a} {b}\n" for a, b in sorted(graph.edges)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen([sys.executable, "-m", "plumbsw", argv[0], str(path), *argv[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_process_with_no_standard_output_exits_0():
    # with file descriptor 1 closed, sys.stdout is None and print writes nothing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-m", "plumbsw", "invariants",
                          str(GRAPHS / "sigma_2_5_7.graph")],
                         preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                         env=env, timeout=60)
    assert (out.returncode, out.stderr) == (0, b"")


def golden_block(argv, path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[2:]])
    stderr = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return f"$ plumbsw {' '.join(argv)}\n{out.getvalue()}{stderr}exit {code}\n"


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
        path = ROOT / name if "/" in name else GRAPHS / name
        blocks.append(golden_block([command, name, *options, "--format", fmt], path))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_built().items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        for command, name, *options, formats in GOLDEN_BUILT:
            for fmt in formats:
                blocks.append(golden_block([command, name, *options, "--format", fmt],
                                           Path(tmp) / name))
    return "".join(blocks)


def test_golden_graph_texts_parse_to_their_graphs():
    built = golden_built()
    for i, g in enumerate(support.corpus()):
        assert parse_graph(built[f"corpus_{i:02}.graph"]) == g
    assert parse_graph(built["caterpillar_2.graph"]) == support.caterpillar(2)
    assert parse_graph(built["brieskorn_2_3_301.graph"]) == support.brieskorn(2, 3, 301)


def test_hub_tree_33_file_is_the_support_tree():
    # the graph that CI runs the installed `plumbsw sw` and `polypart` on
    assert parse_graph(HUB33.read_text()) == support.hub_tree(33)


def test_d4_file_is_the_support_graph():
    g = parse_graph(D4.read_text())
    assert g == support.star(-2, (-2, -2, -2))
    # H = (Z/2)^2: two levels of the echelon basis, each of order 2
    assert [step for _, step, _ in lattice_of(g).class_levels] == [2, 2]


def test_golden_cli_output():
    want = GOLDEN.read_text(encoding="utf-8")
    assert golden_transcript().splitlines() == want.splitlines()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_transcript(), encoding="utf-8")
