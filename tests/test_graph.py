import random

import pytest

from plumbsw.graph import GraphFormatError, PlumbingGraph, parse_graph, validate
from plumbsw.lattice import Lattice

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


def test_parse_signed_and_padded_euler_numbers():
    assert parse_graph("vertex a +3\nvertex b -007\n").eulers == (3, -7)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# heading\n\nvertex a -2\n  # indented comment\nvertex b -3\nedge a b\n")
    assert g.n == 2 and len(g.edges) == 1


@pytest.mark.parametrize("text,fragment", [
    ("vertex a -2\nedge a b\n", "unknown vertex"),
    ("vertex a -2\nvertex a -3\n", "duplicate"),
    ("vertex a -2\nvertex b -3\nedge a b\nedge b a\n", "duplicate edge"),
    ("vertex a -2\nedge a a\n", "self loop"),
    ("vertex a two\n", "bad euler"),
    ("vertex a -1_0\n", "bad euler"),
    ("vertex a -\u0663\n", "bad euler"),
    ("vertex a +-3\n", "bad euler"),
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
    # every failing check says why: a triangle beside an isolated vertex has
    # n - 1 = 3 edges, so its one extra component costs a cycle; the forest
    # a-b, c has one edge too few
    for text, detail in (
            ("vertex a -2\nvertex b -2\n", "0 edges for 2 vertices"),
            ("vertex a -3\nvertex b -3\nvertex c -3\nvertex d -2\n"
             "edge a b\nedge b c\nedge a c\n",
             "3 edges for 4 vertices on a disconnected graph, so it has a cycle"),
            ("vertex a -2\nvertex b -2\nvertex c 1\nedge a b\n", "1 edge for 3 vertices")):
        rep = validate(parse_graph(text))
        assert not rep.ok
        assert rep.checks == (("connected", False, "graph is disconnected"),
                              ("tree", False, detail),
                              ("negative definite", False, "not checked"))
        assert (rep.error, rep.rooting, rep.elimination) == ("graph is disconnected", None, None)


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


# Nodes (valency >= 3), ends (valency 1) and valencies as the lattice reads
# them off the elimination along the tree.

def nodes_and_ends(g):
    lat = Lattice(g)
    return tuple(g.ids[i] for i in lat.node_idx), tuple(g.ids[i] for i in lat.end_idx)


def test_classify_sigma257():
    g = parse_graph(SIGMA)
    assert nodes_and_ends(g) == (("E1",), ("E2", "E3", "E5"))
    assert Lattice(g).deltas[g.index("E4")] == 2


def test_classify_single_vertex():
    g = parse_graph("vertex a -2")
    assert nodes_and_ends(g) == ((), ())
    assert Lattice(g).deltas == (0,)


def test_classify_two_node_example(two_nodes):
    assert nodes_and_ends(two_nodes) == (("v1", "v2"), ("w1", "w2", "w3", "w4"))


def test_tree_valency_identity(corpus30, sigma257, two_nodes, three_nodes):
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        assert sum(Lattice(g).mults) == -2
