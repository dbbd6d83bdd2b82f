import random
from fractions import Fraction

import pytest

import support
from plumbsw import swcore
from plumbsw.counting import Q
from plumbsw.graph import parse_graph
from plumbsw.lattice import (all_classes, class_of, e_star, lattice_of,
                             pairing, vec_add, vec_scale, vec_sub)
from plumbsw.polytopes import sw_via_lattice_all
from plumbsw.swcore import (QuadraticReport, RouteDisagreement, dual_class,
                            duality_cut_vertices, quadratic_check, sw_norm_via_division,
                            sw_norm_via_duality, sw_norm_via_duality_all,
                            sw_norm_via_polypart, sw_raw, sw_report, sw_shift)


def test_duality_route_values(sigma257, two_nodes):
    assert sw_norm_via_duality(sigma257, lattice_of(sigma257).zero_class) == 2
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    from plumbsw.lattice import class_add
    h2 = class_add(h1, h1)
    assert sw_norm_via_duality(two_nodes, zero) == 5
    assert sw_norm_via_duality(two_nodes, h1) == 3
    assert sw_norm_via_duality(two_nodes, h2) == 3


def test_polypart_route_values(sigma257, two_nodes):
    assert sw_norm_via_polypart(sigma257, lattice_of(sigma257).zero_class) == 2
    zero = lattice_of(two_nodes).zero_class
    assert sw_norm_via_polypart(two_nodes, zero) == 5
    assert sw_norm_via_division(two_nodes, zero) == 5


def test_chain_fallback_uses_all_vertices():
    g = support.chain([-2, -3, -2])
    assert duality_cut_vertices(g) == g.ids
    for h in all_classes(g):
        assert sw_norm_via_duality(g, h) == sw_norm_via_polypart(g, h) == 0


def test_sw_raw_shift_sigma257(sigma257):
    lat = lattice_of(sigma257)
    h0 = lat.zero_class
    # oracle: K = -Z_K, (K^2 + 5)/8 with K^2 = (Z_K, Z_K) = -5
    assert pairing(sigma257, lat.z_k, lat.z_k) == -5
    assert sw_shift(sigma257, h0) == 0
    assert sw_raw(sigma257, h0, 2) == -2


def test_sw_raw_shift_with_nontrivial_rep(two_nodes):
    lat = lattice_of(two_nodes)
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    # oracle: direct pairing arithmetic on K + 2 r_h
    v = vec_add(vec_scale(-1, lat.z_k), vec_scale(2, h1.rep))
    expected = (pairing(two_nodes, v, v) + 10) / 8
    assert sw_shift(two_nodes, h1) == expected
    assert sw_raw(two_nodes, h1, 3) == -3 - expected
    for g in (two_nodes, support.star(-2, (-3, -5, -7))):
        lat = lattice_of(g)
        for h in all_classes(g):
            v = vec_add(vec_scale(-1, lat.z_k), vec_scale(2, h.rep))
            assert sw_shift(g, h) == (pairing(g, v, v) + g.n) / 8


def test_quadratic_check_examples(sigma257, two_nodes):
    assert quadratic_check(sigma257, samples=5, seed=1).ok
    assert quadratic_check(two_nodes, samples=5, seed=1).ok


def test_quadratic_identity_per_class(two_nodes):
    # deep sample targeted at each class: l' = Z_K + positive combination
    g = two_nodes
    lat = lattice_of(g)
    want = {h: None for h in all_classes(g)}
    rng = random.Random(3)
    while any(v is None for v in want.values()):
        lp = list(lat.z_k)
        for i in range(g.n):
            lp = vec_add(lp, vec_scale(rng.randint(1, 3), lat.estar[i]))
        h = class_of(g, tuple(lp))
        if want[h] is None:
            want[h] = tuple(lp)
    for h, lp in want.items():
        lhs = -Q(g, h, g.ids, lp)
        v = vec_add(vec_scale(-1, lat.z_k), vec_scale(2, lp))
        rhs = (pairing(g, v, v) + g.n) / 8 + sw_raw(g, h, sw_norm_via_duality(g, h))
        assert lhs == rhs


def test_quadratic_minimal_sample_random_tree(corpus30):
    g = next(g for g in corpus30 if g.n == 4)
    lat = lattice_of(g)
    lp = list(lat.z_k)
    for i in range(g.n):
        lp = vec_add(lp, vec_scale(1, lat.estar[i]))
    h = class_of(g, tuple(lp))
    lhs = -Q(g, h, g.ids, lp)
    v = vec_add(vec_scale(-1, lat.z_k), vec_scale(2, lp))
    rhs = (pairing(g, v, v) + g.n) / 8 + sw_raw(g, h, sw_norm_via_duality(g, h))
    assert lhs == rhs


def test_report_all_routes_agree(sigma257, two_nodes):
    for g, values in ((sigma257, [2]), (two_nodes, [5, 3, 3])):
        rep = sw_report(g)
        assert rep.agree
        assert [e.sw_norm_neg for e in rep.entries] == values
        for e in rep.entries:
            assert set(e.values) == {"duality", "polypart", "division", "lattice"}
            assert e.raw == Fraction(-e.sw_norm_neg) - sw_shift(g, e.h)


def test_report_marks_lattice_not_applicable():
    g = support.chain([-2, -2, -2])
    rep = sw_report(g)
    assert rep.agree
    for e in rep.entries:
        assert "lattice" in e.errors and "not applicable" in e.errors["lattice"]
        assert e.sw_norm_neg == 0


def test_report_refuses_contested_value(monkeypatch, sigma257):
    monkeypatch.setattr(swcore, "sw_norm_via_duality_all",
                        lambda g: dict.fromkeys(all_classes(g), 17))
    rep = sw_report(sigma257)
    assert not rep.agree
    assert rep.entries[0].sw_norm_neg is None
    assert rep.entries[0].raw is None


def test_batched_routes_match_per_class_counts():
    # one node, |H| = 139: one walk answers every class
    g = support.star(-2, (-3, -5, -7))
    lat = lattice_of(g)
    assert 50 <= lat.h_order <= 200
    cut = duality_cut_vertices(g)
    duality = sw_norm_via_duality_all(g)
    lattice = sw_via_lattice_all(g)
    assert list(duality) == list(lattice) == list(all_classes(g))
    for h in all_classes(g):
        want = Q(g, dual_class(g, h), cut, vec_sub(lat.z_k, h.rep))
        assert duality[h] == want == lattice[h]


def test_report_divides_once_per_class(monkeypatch, two_nodes):
    real = swcore.euclid_divide
    tags = []

    def counted(R):
        tags.append(R.htag)
        return real(R)

    monkeypatch.setattr(swcore, "euclid_divide", counted)
    assert sw_report(two_nodes).agree
    assert tags == list(all_classes(two_nodes))


def test_report_splits_once_per_graph(monkeypatch, two_nodes):
    real = swcore.equivariant_split
    calls = []

    def counted(R):
        calls.append(R.active)
        return real(R)

    monkeypatch.setattr(swcore, "equivariant_split", counted)
    assert sw_report(two_nodes).agree
    assert len(calls) == 1
    for method in ("duality", "lattice"):
        assert sw_report(two_nodes, (method,)).agree
    assert len(calls) == 1


def test_polypart_route_detects_division_mismatch(monkeypatch, sigma257):
    from plumbsw import decomp
    h0 = lattice_of(sigma257).zero_class
    real = decomp.euclid_divide

    def crooked(R):
        dec = real(R)
        dec.poly = {}
        dec.by_s = {k: v for k, v in dec.by_s.items() if k}
        return dec

    monkeypatch.setattr(swcore, "euclid_divide", crooked)
    with pytest.raises(RouteDisagreement):
        sw_norm_via_polypart(sigma257, h0)
    entry, = sw_report(sigma257).entries
    assert "polypart" in entry.errors and "polypart" not in entry.values
    assert not entry.agree


def test_route_agreement_on_corpus(corpus30):
    for g in corpus30:
        lat = lattice_of(g)
        for h in all_classes(g):
            a = sw_norm_via_duality(g, h)
            b = sw_norm_via_polypart(g, h)
            assert a == b
            if lat.node_idx:
                from plumbsw.polytopes import sw_via_lattice
                assert a == sw_via_lattice(g, h)


# Seeds of ``support.hub_tree`` whose trees have a class on which the lattice
# route, summed without the binomial weights of its nodes, disagrees with the
# other routes: 14 with a hub of valency 4, 14 of valency 5, 8 of valency 6.
HUB_SEEDS = (0, 3, 14, 34, 74, 113, 114, 146, 164, 168, 189, 191, 196, 210, 235, 246,
             249, 258, 262, 275, 278, 281, 350, 371, 385, 395, 400, 421, 439, 493,
             516, 527, 550, 572, 573, 586)


def test_route_agreement_on_high_valency_nodes():
    graphs = [parse_graph(support.VALENCY4_TREE), support.star(-1, (-3, -4, -5, -5))]
    graphs += [support.hub_tree(seed) for seed in HUB_SEEDS]
    valencies = set()
    for g in graphs:
        lat = lattice_of(g)
        assert lat.h_order <= 60
        valencies.add(max(lat.deltas))
        rep = sw_report(g)
        for e in rep.entries:
            assert not e.errors, (g, e)
            assert len(set(e.values.values())) == 1 and len(e.values) == 4, (g, e)
    assert valencies == {4, 5, 6}


def test_quadratic_check_deterministic(sigma257):
    r1 = quadratic_check(sigma257, samples=4, seed=9)
    r2 = quadratic_check(sigma257, samples=4, seed=9)
    assert [s.lprime for s in r1.samples] == [s.lprime for s in r2.samples]
    assert isinstance(r1, QuadraticReport)
