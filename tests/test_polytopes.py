import random
from dataclasses import replace
from fractions import Fraction

import pytest

import support
from plumbsw.lattice import (all_classes, class_add, class_of, e_star,
                             lattice_of, vec_add)
from plumbsw.polytopes import (InapplicableError, PolytopeError, PolytopeQuery,
                               count, ends_through, lambda_ratio, linear_form,
                               node_multiset, sw_via_lattice,
                               sw_via_topological_polytope)
from plumbsw.swcore import sw_norm_via_duality


def test_linear_form_two_nodes(two_nodes):
    # coefficients (33,6,22,4) at v1 and (6,33,4,22) at v2
    assert linear_form(two_nodes, "v1", (1, 0, 0, 0)) == 33
    assert linear_form(two_nodes, "v1", (1, 1, 1, 1)) == 33 + 6 + 22 + 4
    assert linear_form(two_nodes, "v2", (2, 1, 0, 3)) == 12 + 33 + 66
    assert linear_form(two_nodes, "v1", (0, 0, 0, 0)) == 0


def test_linear_form_three_nodes(three_nodes):
    # printed tuples in end order (u1, e1, e2, u4, e3)
    coeffs = {"v1": (93, 62, 42, 36, 24),
              "v2": (42, 28, 21, 18, 12),
              "v3": (36, 24, 18, 21, 14)}
    for v, tup in coeffs.items():
        for k in range(5):
            unit = tuple(int(i == k) for i in range(5))
            assert linear_form(three_nodes, v, unit) == tup[k]


def test_linear_form_dimension_mismatch(two_nodes):
    with pytest.raises(Exception):
        linear_form(two_nodes, "v1", (1, 2, 3))


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
        coeffs = [lat.estar[e][ci] for e in lat.end_idx]
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
    assert sw_via_lattice(sigma257, lattice_of(sigma257).zero_class) == 2
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    h2 = class_add(h1, h1)
    assert sw_via_lattice(two_nodes, zero) == 5
    assert sw_via_lattice(two_nodes, h1) == 3
    assert sw_via_lattice(two_nodes, h2) == 3
    assert sw_via_lattice(three_nodes, lattice_of(three_nodes).zero_class) == 13


def test_sw_via_lattice_needs_nodes():
    g = support.chain([-2, -3, -2])
    with pytest.raises(PolytopeError):
        sw_via_lattice(g, lattice_of(g).zero_class)


def test_topological_polytope_route(sigma257):
    h0 = lattice_of(sigma257).zero_class
    assert sw_via_topological_polytope(sigma257, h0) == 2


def test_topological_polytope_brieskorn_agreement():
    g = support.brieskorn(2, 3, 7)
    h0 = lattice_of(g).zero_class
    assert sw_via_topological_polytope(g, h0) == sw_via_lattice(g, h0) == \
        sw_norm_via_duality(g, h0)


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
        for h in all_classes(g):
            try:
                top = sw_via_topological_polytope(g, h)
            except InapplicableError:
                break
            assert top == sw_via_lattice(g, h)
            hit += 1
    assert hit > 0


def test_lambda_identity(two_nodes, three_nodes):
    assert lambda_ratio(two_nodes, "v1", "v1") == 1
    prod = lambda_ratio(two_nodes, "v1", "v2") * lambda_ratio(two_nodes, "v2", "v1")
    assert prod == Fraction(66 * 66, 12 * 12)
    l12 = lambda_ratio(three_nodes, "v1", "v2")
    l23 = lambda_ratio(three_nodes, "v2", "v3")
    assert lambda_ratio(three_nodes, "v1", "v3") == l12 * l23


def test_lambda_rejects_non_nodes(two_nodes):
    with pytest.raises(PolytopeError):
        lambda_ratio(two_nodes, "v1", "w1")


def test_ends_through(two_nodes):
    assert set(ends_through(two_nodes, "v1")) == {"w1", "w3"}
    assert set(ends_through(two_nodes, "v2")) == {"w2", "w4"}
