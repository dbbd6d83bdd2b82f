import random
import re
from types import SimpleNamespace
from fractions import Fraction

import pytest

import support
from support import neg, poly_live, residue
from plumbsw import decomp
from plumbsw.decomp import (DivisionError, divide_component, euclid_divide, evaluate_at_one,
                            polypart_division, polypart_dual)
from plumbsw.graph import PlumbingGraph, parse_graph
from plumbsw.lattice import LatticeError, all_classes, class_of, e_star, format_vec, lattice_of
from plumbsw.series import (Box, RatFunc, _split_classes, equivariant_split, live_indices,
                            reduce, taylor, zeta)
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
    dec = euclid_divide(equivariant_split(reduce(zeta(sigma257), ["E1"]))[h0])
    lat = lattice_of(sigma257)
    assert ilive(poly_live(lat, dec.poly)) == {(1,): 1, (11,): 1}
    # negative part equals (1 - t + t^15 + t^21)/((1-t^14)(1-t^10)):
    # cross multiply against our denominator (1-t^35)(1-t^14)(1-t^10)
    neg_live = {}
    for b, c in neg(dec).numerator.items():
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
    assert {lat.unscaled(b) for b in neg(dec).numerator} == {(Fraction(0),)}


def test_divide_pure_monomial():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    lat = lattice_of(g)
    R = RatFunc(lat, {lat.scaled((Fraction(2), Fraction(3))): 1}, (), (0, 1))
    dec = euclid_divide(R)
    assert ilive(poly_live(lat, dec.poly)) == {(2, 3): 1}
    assert neg(dec).numerator == {}


def test_divide_rejects_bad_numerator():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    lat = lattice_of(g)
    with pytest.raises(ValueError):
        RatFunc(lat, {lat.scaled((Fraction(-1), Fraction(-1))): 1},
                (lat.scaled((Fraction(1), Fraction(1))),), (0, 1))


def test_certificate_side_conditions(sigma257, two_nodes):
    for g, live in ((sigma257, ("E1",)), (two_nodes, ("v1", "v2"))):
        for R in equivariant_split(reduce(zeta(g), live)).values():
            dec = euclid_divide(R)
            sa = [tuple(a[i] for i in dec.active) for a in dec.denominator]
            for S, bucket in dec.by_s.items():
                for sb in bucket:
                    assert not all(x < 0 for x in sb)
                    for i in S:
                        assert all(x < y for x, y in zip(sb, sa[i]))


def test_polypart_dual_sigma257(sigma257):
    lat = lattice_of(sigma257)
    poly = polypart_dual(sigma257, ["E1"])[lat.zero_class]
    assert ilive(poly_live(lat, poly)) == {(1,): 1, (11,): 1}
    assert evaluate_at_one(poly) == 2


def test_polypart_dual_two_nodes_printed(two_nodes):
    lat = lattice_of(two_nodes)
    poly = polypart_dual(two_nodes, ("v1", "v2"))[lat.zero_class]
    assert ilive(poly_live(lat, poly)) == {(1, -53): 1, (-53, 1): 1, (7, -20): 1,
                                           (-20, 7): 1, (13, 13): 1}
    assert evaluate_at_one(poly) == 5


def test_polypart_exponents_never_strictly_negative(corpus30):
    for g in corpus30[:8]:
        live = duality_cut_vertices(g)
        active = [g.index(v) for v in live]
        for poly in polypart_dual(g, live).values():
            for e, c in poly.items():
                assert len(e) == len(active) and any(x >= 0 for x in e) and c


def test_dual_polypart_two_nodes_all_classes(two_nodes):
    # The dual polynomial part of h, the truncation of the series of class
    # [Z_K] - h below Z_K - E somewhere on the nodes, is P+_h reflected
    # through Z_K - E.
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    h2 = class_of(two_nodes, support.vec_add(h1.rep, h1.rep))
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
    # every class's P+ is zero, so both constructions return the empty table
    g = support.chain([-2, -2, -3, -2])
    assert polypart_dual(g, g.ids) == {}
    assert polypart_division(g, g.ids) == {}


def test_division_equals_duality_on_corpus(corpus30):
    for g in corpus30:
        live = duality_cut_vertices(g)
        split = equivariant_split(reduce(zeta(g), live))
        duals = polypart_dual(g, live)
        assert all(duals.values())
        for h in all_classes(g):
            assert euclid_divide(split[h]).poly == duals.get(h, {})


def test_negative_part_has_negative_degree(sigma257, two_nodes, corpus30):
    rng = random.Random(41)
    picks = [(sigma257, ("E1",)), (two_nodes, ("v1", "v2"))]
    picks += [(g, duality_cut_vertices(g)) for g in rng.sample(corpus30, 4)]
    for g, live in picks:
        for R in equivariant_split(reduce(zeta(g), live)).values():
            part = neg(euclid_divide(R))
            if not part.numerator:
                continue
            for i in part.active:
                top = max(b[i] for b in part.numerator)
                assert top < sum(a[i] for a in part.denominator)


def test_resummation_on_window(two_nodes):
    h0 = lattice_of(two_nodes).zero_class
    live = ("v1", "v2")
    fh = equivariant_split(reduce(zeta(two_nodes), live))[h0]
    box = Box((Fraction(30), Fraction(30)))
    whole = taylor(fh, box).terms
    dec = euclid_divide(fh)
    acc = dict(taylor(neg(dec), box).terms)
    for e, c in dec.poly.items():
        if all(x <= b for x, b in zip(fh.lat.unscaled(e), box.bound)):
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
            assert sorted(neg(dec).denominator) == sorted(R.denominator)

            def canon(b):
                # the off-live coordinates reduced mod |H|: a lattice shift
                # the live variables do not see
                return tuple(x if i in dec.active else x % lat.h_order for i, x in enumerate(b))

            total, want = {}, {}
            for e, c in dec.poly.items():
                full = list(residue(dec))
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
            for acc, numerator in ((total, neg(dec).numerator), (want, R.numerator)):
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
        terms, denom = _split_classes(lat, active, reduced.numerator, reduced.denominator)
        split = equivariant_split(reduced)
        for h in all_classes(g):
            R = split[h]
            want_denom, want = support.reference_divide(
                lat, active, {lat.unscaled(b): c for b, c in R.numerator.items()},
                tuple(map(lat.unscaled, R.denominator)))
            want_live = {S: {tuple(b[i] for i in active): c for b, c in bucket.items()}
                         for S, bucket in want.items()}
            for dec in (divide_component(lat, active, terms(h.key), denom, h),
                        euclid_divide(R)):
                assert tuple(map(lat.unscaled, dec.denominator)) == want_denom
                got = {S: {lat.unscaled(b): c for b, c in bucket.items()}
                       for S, bucket in dec.by_s.items()}
                assert got == want_live
                assert poly_live(lat, dec.poly) == want_live.get(frozenset(), {})
                full = {}
                for S, bucket in dec.by_s.items():
                    full[S] = {}
                    for b, c in bucket.items():
                        e = list(residue(dec))
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
    # an untagged numerator whose first exponent is not in L' has no class
    off = (1,) + (0,) * (lat.n - 1)
    with pytest.raises(LatticeError, match=r"^\(1/3,0,0,0,0,0,0,0,0,0\) is not in the dual"):
        euclid_divide(RatFunc(R.lat, {off: 1}, parts[zero].denominator, R.active))


def test_polypart_division_rejects_what_the_certificate_rejects(two_nodes, monkeypatch):
    # divide_component takes one split component and rejects a denominator
    # outside L; polypart_division divides the unsplit function, whose
    # denominators lie outside L, over Z[H].  Both reject a term strictly
    # negative on every live coordinate with the same message.
    live = ("v1", "v2")
    R = reduce(zeta(two_nodes), live)
    lat, active = R.lat, R.active
    _, h1, _ = all_classes(two_nodes)
    d = lat.h_order
    assert any(x % d for a in R.denominator for x in a)
    with pytest.raises(DivisionError, match=" is not in L"):
        divide_component(lat, active, {(0, 0): 1}, R.denominator, h1)
    assert polypart_division(two_nodes, live) == polypart_dual(two_nodes, live)
    # a term of class h1, strictly negative on both live coordinates
    bad = tuple(k - d if i in active else k for i, k in enumerate(h1.key))
    messages = []
    with pytest.raises(DivisionError, match=" strictly negative") as info:
        divide_component(lat, active, {tuple(bad[i] for i in active): 1},
                         equivariant_split(R)[h1].denominator, h1)
    messages.append(str(info.value))
    monkeypatch.setattr(decomp, "zeta", lambda g: SimpleNamespace(
        expanded=lambda: ({bad: 1}, R.denominator)))
    with pytest.raises(DivisionError, match=" strictly negative") as info:
        polypart_division(two_nodes, live)
    messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_polypart_division_equals_certificate_polypart(corpus30):
    # P+ is unique, so the one division over Z[H] finds the S = {} bucket of
    # every split component's certificate, and the duality construction finds
    # the same plain polynomial.  corpus30 holds graphs without nodes.
    graphs = [*corpus30, parse_graph(support.VALENCY4_TREE)]
    graphs += [support.hub_tree(seed) for seed in support.HUB_SEEDS]
    for g in graphs:
        lat = lattice_of(g)
        live = duality_cut_vertices(g)
        active = live_indices(g, live)
        terms_of, denom = _split_classes(lat, active, *zeta(g).expanded())
        got = polypart_division(g, live)
        duals = polypart_dual(g, live)
        # both tables hold the classes whose P+ is non-zero, and only those
        assert got.keys() == duals.keys() <= set(all_classes(g))
        for h in all_classes(g):
            want = divide_component(lat, active, terms_of(h.key), denom, h)
            assert type(got.get(h, {})) is type(want.poly) is type(duals.get(h, {})) is dict
            assert got.get(h, {}) == want.poly == duals.get(h, {}), (g, h)
            assert all(got.get(h, {}).values())
            assert (h in got) == bool(want.poly)


def test_polypart_division_equals_duality_on_large_h():
    # one node, |H| = 1155 and 988: the division over Z[H] against the
    # expansion at infinity alone, where dividing each split component takes
    # seconds per graph
    for g in (support.star(-2, (-6, -9, -13)), support.star(-3, (-5, -7, -11))):
        live = duality_cut_vertices(g)
        assert lattice_of(g).h_order in (988, 1155)
        assert polypart_division(g, live) == polypart_dual(g, live)
