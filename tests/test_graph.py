import random

import pytest

from plumbsw.graph import (GraphFormatError, PlumbingGraph, classify_vertices,
                           parse_graph, validate)

SIGMA = """
vertex E1 -1
vertex E2 -2
vertex E3 -5
vertex E4 -4
vertex E5 -2
edge E2 E1
edge E1 E3
edge E1 E4
edge E4 E5
"""


def test_parse_sigma257_order_and_edges():
    g = parse_graph(SIGMA)
    assert g.ids == ("E1", "E2", "E3", "E4", "E5")
    assert g.eulers == (-1, -2, -5, -4, -2)
    assert g.edges == frozenset({("E1", "E2"), ("E1", "E3"), ("E1", "E4"), ("E4", "E5")})


def test_parse_single_vertex():
    g = parse_graph("vertex a -2")
    assert g.ids == ("a",) and g.eulers == (-2,) and not g.edges


def test_parse_comments_and_blank_lines():
    g = parse_graph("# heading\n\nvertex a -2\n  # indented comment\nvertex b -3\nedge a b\n")
    assert g.n == 2 and len(g.edges) == 1


@pytest.mark.parametrize("text,fragment", [
    ("vertex a -2\nedge a b\n", "unknown vertex"),
    ("vertex a -2\nvertex a -3\n", "duplicate"),
    ("vertex a -2\nvertex b -3\nedge a b\nedge b a\n", "duplicate edge"),
    ("vertex a -2\nedge a a\n", "self loop"),
    ("vertex a two\n", "bad euler"),
    ("vertx a -2\n", "unknown directive"),
    ("vertex a -2 extra\n", "expected"),
    ("", "no vertices"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("vertex a -2\nvertex b -3\nbogus x y\n")
    assert "line 3" in str(err.value)


def test_validate_sigma257_all_pass():
    assert validate(parse_graph(SIGMA)).ok


def test_validate_degenerate_pair_fails_definiteness():
    # 2x2 oracle by hand: det(-I) = 1*1 - 1*1 = 0, so -I is not definite.
    a, b, off = 1, 1, 1
    assert a * b - off * off == 0
    g = parse_graph("vertex a -1\nvertex b -1\nedge a b\n")
    rep = validate(g)
    failed = {name for name, ok, _ in rep.checks if not ok}
    assert failed == {"negative definite"}


def test_validate_disconnected_fails():
    g = parse_graph("vertex a -2\nvertex b -2\n")
    rep = validate(g)
    assert not rep.ok
    assert "connected" in {name for name, ok, _ in rep.checks if not ok}


def test_validate_order_independent():
    rng = random.Random(5)
    g = parse_graph(SIGMA)
    base = [(name, ok) for name, ok, _ in validate(g).checks]
    order = list(range(g.n))
    for _ in range(5):
        rng.shuffle(order)
        permuted = PlumbingGraph(tuple(g.ids[i] for i in order),
                                 tuple(g.eulers[i] for i in order), g.edges)
        assert [(name, ok) for name, ok, _ in validate(permuted).checks] == base


def test_classify_sigma257():
    g = parse_graph(SIGMA)
    nodes, ends, val = classify_vertices(g)
    assert nodes == ("E1",)
    assert ends == ("E2", "E3", "E5")
    assert val["E4"] == 2


def test_classify_single_vertex():
    nodes, ends, val = classify_vertices(parse_graph("vertex a -2"))
    assert nodes == () and ends == () and val["a"] == 0


def test_classify_two_node_example(two_nodes):
    nodes, ends, _ = classify_vertices(two_nodes)
    assert nodes == ("v1", "v2")
    assert ends == ("w1", "w2", "w3", "w4")


def test_tree_valency_identity(corpus30, sigma257, two_nodes, three_nodes):
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        _, _, val = classify_vertices(g)
        assert sum(val[v] - 2 for v in g.ids) == -2
