"""The package's loading contract and public surface.

Every submodule is registered in ``sys.modules`` at import but compiled and
executed on first use, so a command compiles only the modules it runs; the
benchmark's tracer still finds every module it binds in ``sys.modules``."""
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import plumbsw
from plumbsw import cli, polytopes, swcore

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
GRAPH = ROOT / "graphs" / "three_nodes_h1.graph"
# |H| = 3: its raw invariants are not integers
GRAPH_H3 = ROOT / "graphs" / "two_nodes_h3.graph"

ROUTE_MODULES = ("counting", "decomp", "polytopes", "series", "swcore")

# The names ``from plumbsw import *`` bound before the submodules were
# registered lazily.
PUBLIC = [
    "Box", "Cobox", "Decomposition", "FactoredRatFunc", "GraphFormatError",
    "HClass", "InapplicableError", "LatticeError", "PlumbingGraph",
    "PolytopeQuery", "Q", "QuadraticReport", "RatFunc", "TruncatedSeries",
    "WindowError", "all_classes", "canonical_cycle", "class_of",
    "count", "counting", "decomp", "e_star",
    "equivariant_split", "euclid_divide", "evaluate_at_one", "graph",
    "inclusion_exclusion_check", "iter_classes", "l_top",
    "lattice", "parse_graph", "polypart_dual", "polytopes", "q",
    "quadratic_check", "reduce", "series", "sw_norm_via_duality",
    "sw_norm_via_polypart", "sw_raw", "sw_report", "sw_via_lattice",
    "sw_via_topological_polytope", "swcore", "taylor", "taylor_infinity",
    "validate", "zeta",
]

# In a fresh interpreter: record every plumbsw source file compiled, and
# whether argparse had been imported by then, import the command line as
# perfbench/child.py does, run one command, and report which of the
# modules in ``stdlib`` are loaded when it ends.  The
# bytecode cache points at an empty directory, so every module executed is
# compiled from source, as on a host that writes no __pycache__.
LOADING_SCRIPT = """
import contextlib, io, json, os, sys
from importlib.machinery import SourceFileLoader

sys.pycache_prefix = sys.argv[1]
sys.dont_write_bytecode = True
compiled = []
source_to_code = SourceFileLoader.source_to_code

def recording(self, data, path, *args, **kwargs):
    if os.sep + "plumbsw" + os.sep in path:
        compiled.append((os.path.basename(path), "argparse" in sys.modules))
    return source_to_code(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = recording
from plumbsw import cli
registered = sorted(name for name in sys.modules if name.startswith("plumbsw."))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
stdlib = {name: name in sys.modules for name in ("fractions", "decimal")}
print(json.dumps({"registered": registered, "compiled": compiled, "code": code,
                  "stdlib": stdlib}))
"""


def run_fresh(tmp_path, *argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", LOADING_SCRIPT, str(tmp_path), *argv],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(out.stdout)


def entry_point_modules():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return list(child.ENTRY_POINTS)


@pytest.mark.parametrize("command", ["invariants", "validate"])
def test_lattice_commands_compile_only_the_modules_they_run(command, tmp_path):
    run = run_fresh(tmp_path, command, str(GRAPH))
    assert run["code"] == 0
    # the tracer looks up every module it binds right after importing cli
    for modname in entry_point_modules():
        assert f"plumbsw.{modname}" in run["registered"]
    assert sorted(name for name, _ in run["compiled"]) == [
        "__init__.py", "cli.py", "graph.py", "lattice.py"]


@pytest.mark.parametrize("command", ["sw", "zeta"])
def test_route_commands_compile_every_module_before_the_parser(command, tmp_path):
    run = run_fresh(tmp_path, command, str(GRAPH))
    assert run["code"] == 0
    want = ["__init__.py", "cli.py", "graph.py", "lattice.py",
            *(f"{name}.py" for name in ROUTE_MODULES)]
    assert sorted(name for name, _ in run["compiled"]) == sorted(want)
    # compiled before argparse is imported, a module's compile memory is
    # reused by the parser rather than added to the process's peak
    assert not any(after_argparse for _, after_argparse in run["compiled"])


@pytest.mark.parametrize("argv", [
    ["sw"], *(["sw", "--method", m] for m in swcore.ROUTES), ["invariants"], ["validate"],
    ["sw", "--format", "json-lines"], ["invariants", "--format", "json-lines"],
    ["verify"], ["verify", "--format", "json-lines"], ["verify", "--samples", "2"]],
    ids=" ".join)
def test_commands_on_scaled_integers_load_no_fractions(argv, tmp_path):
    # sw, invariants, validate and verify run and print scaled integers
    # only: neither fractions nor the decimal module it imports is loaded in
    # the process
    run = run_fresh(tmp_path, argv[0], str(GRAPH_H3), *argv[1:])
    assert run["code"] == 0
    assert run["stdlib"] == {"fractions": False, "decimal": False}


def test_each_command_is_a_route_command_or_runs_only_the_lattice():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    assert set(cli.ROUTE_COMMANDS) | {"validate", "invariants"} == set(commands)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from plumbsw import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    assert sorted(plumbsw.__all__) == PUBLIC


def test_each_public_name_is_the_object_its_module_defines():
    for name in PUBLIC:
        value = getattr(plumbsw, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"plumbsw.{name}"]
        else:
            assert value.__module__.startswith("plumbsw.")
            assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'sw_norm'"):
        plumbsw.sw_norm
    assert not hasattr(plumbsw, "ROUTES")


def test_flag_choices_are_the_module_constants():
    flags = cli.FLAGS
    assert list(flags["--method"]["choices"]) == [*swcore.ROUTES, "all"]
    assert flags["--shape"]["choices"] == polytopes.SHAPES
    assert flags["--boundary"]["choices"] == polytopes.BOUNDARIES
    assert flags["--positivity"]["choices"] == polytopes.POSITIVITIES


HELP = {
    "sw": """\
usage: plumbsw sw [-h] [--format {text,json-lines}]
                  [--method {duality,polypart,division,lattice,all}]
                  graph

positional arguments:
  graph                 path to a graph file

options:
  -h, --help            show this help message and exit
  --format {text,json-lines}
  --method {duality,polypart,division,lattice,all}
""",
    "count": """\
usage: plumbsw count [-h] [--format {text,json-lines}] --dilation DILATION
                     [--reduce REDUCE] [--h H] [--shape {convex,concave}]
                     [--boundary {closed,open}]
                     [--positivity {nonneg,positive}]
                     graph

positional arguments:
  graph                 path to a graph file

options:
  -h, --help            show this help message and exit
  --format {text,json-lines}
  --dilation DILATION   dilation vector, comma separated rationals; write
                        --dilation=VALUE when it starts with a minus sign
  --reduce REDUCE       comma separated vertex ids to keep live
  --h H                 dual lattice representative, comma separated
                        rationals; write --h=VALUE when it starts with a minus
                        sign
  --shape {convex,concave}
  --boundary {closed,open}
  --positivity {nonneg,positive}
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, "--help"]) == 0
    assert out.getvalue() == HELP[command]
