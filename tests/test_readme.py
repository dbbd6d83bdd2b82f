"""The README's library example runs and prints what its comments say."""
import ast
import re
from pathlib import Path

from plumbsw.lattice import lattice_of

ROOT = Path(__file__).resolve().parent.parent


def run_readme_example():
    """Run the README's fenced python block from the repo root, statement by
    statement: the names it binds, and the value of each bare expression
    keyed by its source text."""
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    names, values = {}, {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
    return names, values


def test_readme_library_example(monkeypatch):
    monkeypatch.chdir(ROOT)
    names, values = run_readme_example()
    assert names["zk"] == (12, 6, 3, 4, 2)
    assert values["taylor(f, Box((15,))).terms"] == {(0,): 1, (10,): 1, (14,): 1}
    assert names["dec"].poly == {(1,): 1, (11,): 1}
    assert list(values["sw_norm_via_duality(g)"].values()) == [2]
    polys = values['polypart_dual(g, ["E1"])']
    assert polys == {lattice_of(names["g"]).zero_class: names["dec"].poly}
    assert values["all(e.agree for e in sw_report(g))"] is True
