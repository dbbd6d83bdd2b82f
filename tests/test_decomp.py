import random
import re
from fractions import Fraction

import pytest

import support
from plumbsw.decomp import (DivisionError, divide_component, euclid_divide,
                            evaluate_at_one, f_h, polypart_dual)
from plumbsw.graph import PlumbingGraph, parse_graph
from plumbsw.lattice import all_classes, class_of, e_star, format_vec, lattice_of
from plumbsw.series import (Box, RatFunc, _split_terms, equivariant_split,
                            off_live_canon, reduce, taylor, zeta)
from plumbsw.swcore import duality_cut_vertices


def ilive(m):
    return {tuple(int(x) for x in e): c for e, c in m.items()}


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _one_minus(exp):
    zero = tuple(0 for _ in exp)
    return {zero: 1, tuple(exp): -1}


def test_divide_sigma257_matches_printed_decomposition(sigma257):
    h0 = lattice_of(sigma257).zero_class
    dec = euclid_divide(f_h(sigma257, h0, ["E1"]))
    assert ilive(dec.poly_live()) == {(1,): 1, (11,): 1}
    # negative part equals (1 - t + t^15 + t^21)/((1-t^14)(1-t^10)):
    # cross multiply against our denominator (1-t^35)(1-t^14)(1-t^10)
    neg_live = {}
    lat = lattice_of(sigma257)
    for b, c in dec.neg.numerator.items():
        e = (int(lat.unscaled(b)[0]),)
        neg_live[e] = neg_live.get(e, 0) + c
    printed = {(0,): 1, (1,): -1, (15,): 1, (21,): 1}
    assert _poly_mul(neg_live, {(0,): 1}) == _poly_mul(printed, _one_minus((35,)))


def test_divide_pure_denominator():
    g = parse_graph("vertex a -1")
    lat = lattice_of(g)
    R = RatFunc(lat, {lat.scaled((Fraction(0),)): 1}, (lat.scaled((Fraction(1),)),), (0,))
    dec = euclid_divide(R)
    assert dec.poly == {}
    assert {lat.unscaled(b) for b in dec.neg.numerator} == {(Fraction(0),)}


def test_divide_pure_monomial():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    lat = lattice_of(g)
    R = RatFunc(lat, {lat.scaled((Fraction(2), Fraction(3))): 1}, (), (0, 1))
    dec = euclid_divide(R)
    assert ilive(dec.poly_live()) == {(2, 3): 1}
    assert dec.neg.numerator == {}


def test_divide_rejects_bad_numerator():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    lat = lattice_of(g)
    with pytest.raises(ValueError):
        RatFunc(lat, {lat.scaled((Fraction(-1), Fraction(-1))): 1},
                (lat.scaled((Fraction(1), Fraction(1))),), (0, 1))


def test_certificate_side_conditions(sigma257, two_nodes):
    for g, live in ((sigma257, ("E1",)), (two_nodes, ("v1", "v2"))):
        for h in all_classes(g):
            dec = euclid_divide(f_h(g, h, live))
            sa = [tuple(a[i] for i in dec.active) for a in dec.denominator]
            for S, bucket in dec.by_s.items():
                for sb in bucket:
                    assert not all(x < 0 for x in sb)
                    for i in S:
                        assert all(x < y for x, y in zip(sb, sa[i]))


def test_polypart_dual_sigma257(sigma257):
    h0 = lattice_of(sigma257).zero_class
    dec = polypart_dual(sigma257, h0, ["E1"])
    assert ilive(dec.poly_live()) == {(1,): 1, (11,): 1}
    assert evaluate_at_one(dec.poly) == 2


def test_polypart_dual_two_nodes_printed(two_nodes):
    h0 = lattice_of(two_nodes).zero_class
    dec = polypart_dual(two_nodes, h0, ("v1", "v2"))
    assert ilive(dec.poly_live()) == {(1, -53): 1, (-53, 1): 1, (7, -20): 1,
                                      (-20, 7): 1, (13, 13): 1}
    assert evaluate_at_one(dec.poly) == 5


def test_polypart_exponents_never_strictly_negative(corpus30):
    for g in corpus30[:8]:
        live = duality_cut_vertices(g)
        active = [g.index(v) for v in live]
        for h in all_classes(g):
            dec = polypart_dual(g, h, live)
            for e in dec.poly:
                assert len(e) == len(active) and any(x >= 0 for x in e)


def test_dual_polypart_two_nodes_all_classes(two_nodes):
    # The dual polynomial part of h, the truncation of the series of class
    # [Z_K] - h below Z_K - E somewhere on the nodes, is P+_h reflected
    # through Z_K - E.
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    from plumbsw.lattice import class_add
    h2 = class_add(h1, h1)
    N = ("v1", "v2")
    assert ilive(support.reflected_polypart(two_nodes, zero, N)) == {
        (0, 0): 1, (33, 6): 1, (6, 33): 1, (66, 12): 1, (12, 66): 1}
    assert ilive(support.reflected_polypart(two_nodes, h1, N)) == {
        (4, 22): 1, (44, 8): 1, (10, 55): 1}
    assert ilive(support.reflected_polypart(two_nodes, h2, N)) == {
        (22, 4): 1, (8, 44): 1, (55, 10): 1}


def test_evaluate_at_one():
    assert evaluate_at_one({}) == 0
    assert evaluate_at_one({(Fraction(1),): 2, (Fraction(-3),): -1}) == 1


def test_chain_polynomial_part_vanishes():
    g = support.chain([-2, -2, -3, -2])
    for h in all_classes(g):
        dec = polypart_dual(g, h, g.ids)
        assert dec.poly == {}
        assert evaluate_at_one(dec.poly) == 0


def test_division_equals_duality_on_corpus(corpus30):
    for g in corpus30:
        live = duality_cut_vertices(g)
        for h in all_classes(g):
            div = euclid_divide(f_h(g, h, live))
            dual = polypart_dual(g, h, live)
            assert div.poly_live() == dual.poly_live()


def test_negative_part_has_negative_degree(sigma257, two_nodes, corpus30):
    rng = random.Random(41)
    picks = [(sigma257, ("E1",)), (two_nodes, ("v1", "v2"))]
    picks += [(g, duality_cut_vertices(g)) for g in rng.sample(corpus30, 4)]
    for g, live in picks:
        lat = lattice_of(g)
        for h in all_classes(g):
            dec = euclid_divide(f_h(g, h, live))
            if not dec.neg.numerator:
                continue
            for i in dec.active:
                top = max(b[i] for b in dec.neg.numerator)
                assert top < sum(a[i] for a in dec.neg.denominator)


def test_resummation_on_window(two_nodes):
    h0 = lattice_of(two_nodes).zero_class
    live = ("v1", "v2")
    fh = f_h(two_nodes, h0, live)
    box = Box((Fraction(30), Fraction(30)))
    whole = taylor(fh, box).terms
    dec = euclid_divide(fh)
    acc = dict(taylor(dec.neg, box).terms)
    for e, c in dec.poly.items():
        if box.contains(fh.lat.unscaled(e)):
            acc[e] = acc.get(e, 0) + c
    assert {e: c for e, c in acc.items() if c} == whole


def test_division_resums_exactly_on_corpus(corpus30):
    # poly * prod (1 - t^a) + neg.numerator is the numerator of the split
    # component, on scaled integers up to the off-live lattice shift; the
    # full exponents of poly are its live keys plus the residue.
    for g in corpus30:
        lat = lattice_of(g)
        live = duality_cut_vertices(g)
        split = equivariant_split(reduce(zeta(g), live))
        for h in all_classes(g):
            R = split[h]
            dec = euclid_divide(R)
            assert "neg" not in vars(dec)
            assert sorted(dec.neg.denominator) == sorted(R.denominator)
            canon = off_live_canon(lat, dec.active)
            total, want = {}, {}
            for e, c in dec.poly.items():
                full = list(dec.residue)
                for i, x in zip(dec.active, e):
                    full[i] = x
                part = {tuple(full): c}
                for a in dec.denominator:
                    grown = dict(part)
                    for b, cb in part.items():
                        key = tuple(x + y for x, y in zip(b, a))
                        grown[key] = grown.get(key, 0) - cb
                    part = grown
                for b, cb in part.items():
                    total[canon(b)] = total.get(canon(b), 0) + cb
            for acc, numerator in ((total, dec.neg.numerator), (want, R.numerator)):
                for b, c in numerator.items():
                    key = canon(b)
                    acc[key] = acc.get(key, 0) + c
            assert {b: c for b, c in total.items() if c} == {b: c for b, c in want.items() if c}


def test_live_division_matches_full_vector_reference(corpus30):
    # The kernel, fed as sw_report feeds it and through euclid_divide, against
    # the division on full Fraction vectors: same denominator order, same
    # buckets on the live coordinates, and the residue rebuilds the full ones.
    graphs = list(corpus30) + [support.sigma257(), support.two_nodes(),
                               support.three_nodes(), parse_graph(support.VALENCY4_TREE)]
    # two_nodes declared with an end first, so that sorting the denominators
    # by full vector alone would give another order than live part first
    g = support.two_nodes()
    ids = ("a2", "w4", "v2", "v1", "a3", "w3", "a1", "w1", "w2", "a4")
    graphs.append(PlumbingGraph(ids, tuple(g.eulers[g.index(v)] for v in ids), g.edges))
    for g in graphs:
        lat = lattice_of(g)
        live = duality_cut_vertices(g)
        active = tuple(sorted(g.index(v) for v in live))
        reduced = reduce(zeta(g), live)
        by_class, denom = _split_terms(lat, active, reduced.numerator, reduced.denominator)
        for h in all_classes(g):
            R = f_h(g, h, live)
            want_denom, want = support.reference_divide(
                lat, active, {lat.unscaled(b): c for b, c in R.numerator.items()},
                tuple(map(lat.unscaled, R.denominator)))
            want_live = {S: {tuple(b[i] for i in active): c for b, c in bucket.items()}
                         for S, bucket in want.items()}
            for dec in (divide_component(lat, active, by_class.get(h.key, {}),
                                         denom, h),
                        euclid_divide(R)):
                assert tuple(map(lat.unscaled, dec.denominator)) == want_denom
                got = {S: {lat.unscaled(b): c for b, c in bucket.items()}
                       for S, bucket in dec.by_s.items()}
                assert got == want_live
                assert dec.poly_live() == want_live.get(frozenset(), {})
                full = {}
                for S, bucket in dec.by_s.items():
                    full[S] = {}
                    for b, c in bucket.items():
                        e = list(dec.residue)
                        for i, x in zip(active, b):
                            e[i] = x
                        full[S][lat.unscaled(e)] = c
                assert full == want


def test_division_needs_one_component(two_nodes):
    live = ("v1", "v2")
    R = reduce(zeta(two_nodes), live)
    lat = R.lat
    bad = next(a for a in R.denominator if any(x % lat.h_order for x in a))
    with pytest.raises(DivisionError,
                       match=re.escape(format_vec(lat.unscaled(bad))) + " is not in L"):
        euclid_divide(R)
    parts = equivariant_split(R)
    zero, h1, _ = all_classes(two_nodes)
    b0, b1 = next(iter(parts[zero].numerator)), next(iter(parts[h1].numerator))
    mixed = RatFunc(R.lat, {b0: 1, b1: 1}, parts[zero].denominator, R.active)
    with pytest.raises(DivisionError, match=re.escape(format_vec(lat.unscaled(b1))) + " is off"):
        euclid_divide(mixed)
    for b in (b0, b1):
        euclid_divide(RatFunc(R.lat, {b: 1}, parts[zero].denominator, R.active))
