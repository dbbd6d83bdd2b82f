"""The benchmark's tracer binds its entry points by name: each one must stay
a callable attribute of its plumbsw module."""
import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_traced_entry_point_is_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.ENTRY_POINTS
    for modname, names in child.ENTRY_POINTS.items():
        module = importlib.import_module(f"plumbsw.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"plumbsw.{modname}.{name}"
