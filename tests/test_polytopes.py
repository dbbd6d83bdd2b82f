import random
from dataclasses import replace
from fractions import Fraction
from math import floor

import pytest

import support
from plumbsw.graph import parse_graph
from plumbsw.lattice import all_classes, class_of, e_star, lattice_of
from plumbsw.polytopes import (InapplicableError, PolytopeError, PolytopeQuery,
                               count, node_multiset, sw_via_lattice,
                               sw_via_topological_polytope)
from plumbsw.swcore import sw_norm_via_duality
from support import vec_add


def _estar_sum(g, vs):
    acc = tuple(Fraction(0) for _ in range(g.n))
    for v in vs:
        acc = vec_add(acc, e_star(g, v))
    return acc


SEVEN = [(("v1",), 0), (("v2",), 0), (("v3",), 0), (("v1", "v2"), 1),
         (("v2", "v3"), 0), (("v1", "v3"), 1), (("v1", "v2", "v3"), 15)]


def test_three_node_counts(three_nodes):
    for subset, expected in SEVEN:
        dil = _estar_sum(three_nodes, subset)
        fiber = class_of(three_nodes, dil)
        got = count(three_nodes, PolytopeQuery("concave", subset, dil,
                                               "closed", "positive", fiber))
        assert got == expected, subset


def test_zero_dilation_positive_count_is_zero(sigma257, three_nodes):
    for g in (sigma257, three_nodes):
        nodes = tuple(g.ids[i] for i in lattice_of(g).node_idx)
        zero = tuple(Fraction(0) for _ in range(g.n))
        for shape in ("convex", "concave"):
            q = PolytopeQuery(shape, nodes, zero, "closed", "positive")
            assert count(g, q) == 0


def test_brieskorn_center_count_against_triple_loop():
    for (p, q, r) in [(2, 3, 5), (2, 5, 7), (3, 4, 5)]:
        g = support.brieskorn(p, q, r)
        lat = lattice_of(g)
        center = "c"
        ci = g.index(center)
        coeffs = [e_star(g, g.ids[e])[ci] for e in lat.end_idx]
        assert sorted(int(x) for x in coeffs) == sorted({p * q, q * r, p * r})
        dil = e_star(g, center)
        assert int(dil[ci]) == p * q * r
        # independent triple loop
        cap = p * q * r
        naive = 0
        a, b, c = (int(x) for x in coeffs)
        for x1 in range(cap // a + 1):
            for x2 in range((cap - a * x1) // b + 1):
                naive += (cap - a * x1 - b * x2) // c + 1
        got = count(g, PolytopeQuery("convex", (center,), dil, "closed", "nonneg"))
        assert got == naive


def test_single_constraint_knapsack_oracle(corpus30):
    def knapsack(weights, cap):
        if not weights:
            return 1 if cap >= 0 else 0
        w, rest = weights[0], weights[1:]
        total = 0
        k = 0
        while k * w <= cap:
            total += knapsack(rest, cap - k * w)
            k += 1
        return total

    rng = random.Random(6)
    graphs = [g for g in corpus30 if 2 <= len(lattice_of(g).end_idx) <= 5][:4]
    for g in graphs:
        lat = lattice_of(g)
        v = rng.choice(g.ids)
        vi = g.index(v)
        d = lat.h_order
        weights = [lat.sestar[e][vi] for e in lat.end_idx]
        cap = rng.randint(10, 60)
        got = count(g, PolytopeQuery("convex", (v,),
                                     tuple(Fraction(cap) if i == vi else Fraction(10 ** 6)
                                           for i in range(g.n)),
                                     "closed", "nonneg"))
        assert got == knapsack(weights, cap * d)
        # a cap off the 1/|H| grid (|H| <= 12 here) cuts at floor(cap d)
        off = cap + Fraction(11, 13)
        assert (off * d).denominator != 1
        got = count(g, PolytopeQuery("convex", (v,),
                                     tuple(off if i == vi else Fraction(10 ** 6)
                                           for i in range(g.n)),
                                     "closed", "nonneg"))
        assert got == knapsack(weights, floor(off * d))


def test_count_rejects_dilation_of_wrong_length(two_nodes):
    # two_nodes_h3 has 10 vertices
    for n in (12, 3):
        query = PolytopeQuery("concave", ("v1", "v2"), (39,) * n)
        with pytest.raises(PolytopeError, match=f"dilation has {n} entries for 10 vertices"):
            count(two_nodes, query)


def test_count_monotone_in_dilation(two_nodes):
    lat = lattice_of(two_nodes)
    base = _estar_sum(two_nodes, ("v1",))
    bigger = vec_add(base, e_star(two_nodes, "v2"))
    for shape in ("convex", "concave"):
        small = count(two_nodes, PolytopeQuery(shape, ("v1", "v2"), base))
        large = count(two_nodes, PolytopeQuery(shape, ("v1", "v2"), bigger))
        assert small <= large


def test_fiber_partition(two_nodes):
    star = support.star(-2, (-3, -5, -7))
    cases = [(two_nodes, ("v1", "v2"), _estar_sum(two_nodes, ("v1", "v2"))),
             (star, ("c",), e_star(star, "c"))]
    for g, live, dil in cases:
        for shape in ("convex", "concave"):
            for boundary, positivity in (("closed", "nonneg"), ("open", "positive")):
                query = PolytopeQuery(shape, live, dil, boundary, positivity)
                whole = count(g, query)
                split = sum(count(g, replace(query, fiber=h)) for h in all_classes(g))
                assert whole == split > 0


def test_inclusion_property(three_nodes):
    # points of a single-vertex polytope at a node-supported dilation lie
    # in the concave polytope of the support
    g = three_nodes
    lat = lattice_of(g)
    dil = _estar_sum(g, ("v1", "v3"))
    support_set = ("v1", "v3")
    d = lat.h_order
    sdil = lat.scaled(dil)
    caps = []
    for e in lat.end_idx:
        caps.append(max(sdil[g.index(v)] // lat.sestar[e][g.index(v)]
                        for v in support_set) + 1)
    import itertools
    for v in g.ids:
        vi = g.index(v)
        for x in itertools.product(*(range(c + 1) for c in caps)):
            lhs = sum(c * lat.sestar[e][vi] for c, e in zip(x, lat.end_idx))
            if lhs <= sdil[vi]:
                assert any(
                    sum(c * lat.sestar[e][g.index(w)] for c, e in zip(x, lat.end_idx))
                    <= sdil[g.index(w)] for w in support_set), (v, x)


def test_node_multiset(three_nodes, two_nodes):
    assert node_multiset(three_nodes) == (("v1", 1), ("v2", 1), ("v3", 1))
    assert node_multiset(two_nodes) == (("v1", 1), ("v2", 1))


def test_sw_via_lattice_values(sigma257, two_nodes, three_nodes):
    assert sw_via_lattice(sigma257) == {lattice_of(sigma257).zero_class: 2}
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    h2 = class_of(two_nodes, vec_add(h1.rep, h1.rep))
    assert sw_via_lattice(two_nodes) == {zero: 5, h1: 3, h2: 3}
    assert sw_via_lattice(three_nodes)[lattice_of(three_nodes).zero_class] == 13


def test_sw_via_lattice_needs_nodes():
    g = support.chain([-2, -3, -2])
    with pytest.raises(PolytopeError):
        sw_via_lattice(g)


@pytest.mark.parametrize("field", ["shape", "boundary", "positivity"])
def test_query_rejects_an_unknown_convention(field):
    query = PolytopeQuery("concave", ("E1",), (1,) * 5)
    with pytest.raises(PolytopeError, match=f"{field} must be one of"):
        replace(query, **{field: "bogus"})


def test_topological_polytope_needs_nodes():
    g = parse_graph("vertex a -2")
    with pytest.raises(PolytopeError, match="no nodes"):
        sw_via_topological_polytope(g, lattice_of(g).zero_class)


def test_topological_polytope_route(sigma257):
    h0 = lattice_of(sigma257).zero_class
    assert sw_via_topological_polytope(sigma257, h0) == 2


def test_topological_polytope_brieskorn_agreement():
    g = support.brieskorn(2, 3, 7)
    h0 = lattice_of(g).zero_class
    assert sw_via_topological_polytope(g, h0) == sw_via_lattice(g)[h0] == \
        sw_norm_via_duality(g)[h0]


def test_topological_polytope_inapplicable_for_six_legs():
    g = support.star(-4, [-2] * 6)
    assert lattice_of(g).h_order > 0
    with pytest.raises(InapplicableError):
        sw_via_topological_polytope(g, lattice_of(g).zero_class)


def test_topological_polytope_on_corpus_where_applicable(corpus30):
    hit = 0
    for g in corpus30:
        lat = lattice_of(g)
        if not lat.node_idx:
            continue
        lattice = sw_via_lattice(g)
        for h in all_classes(g):
            try:
                top = sw_via_topological_polytope(g, h)
            except InapplicableError:
                break
            assert top == lattice[h]
            hit += 1
    assert hit > 0

