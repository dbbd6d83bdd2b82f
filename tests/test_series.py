import random
from fractions import Fraction
from math import comb

import pytest

import support
from plumbsw.decomp import euclid_divide, f_h
from plumbsw.graph import parse_graph
from plumbsw.lattice import all_classes, e_star, lattice_of, rho
from plumbsw.series import (Box, Cobox, RatFunc, WindowError, coeff,
                            equivariant_split, reduce, taylor,
                            taylor_infinity, zeta)
from plumbsw.swcore import duality_cut_vertices


def live_map(ts):
    # terms are keyed by live scaled exponents; integral coordinates here
    return {tuple(x // ts.d for x in e): c for e, c in ts.terms.items()}


def live_ints(R, e):
    """The live coordinates of a scaled exponent of R, as integers."""
    return tuple(int(x) for x in R.lat.unscaled(e[i] for i in R.active))


def test_zeta_factors_sigma257(sigma257):
    F = zeta(sigma257)
    by_exp = {tuple(int(x) for x in a): m for a, m in F.factors}
    assert by_exp == {
        (70, 35, 14, 20, 10): 1,
        (35, 18, 7, 10, 5): -1,
        (14, 7, 3, 4, 2): -1,
        (10, 5, 2, 3, 2): -1,
    }
    zero = tuple(Fraction(0) for _ in range(5))
    assert F.prefactor == {zero: 1}


def test_zeta_single_vertex():
    g = parse_graph("vertex a -2")
    F = zeta(g)
    assert len(F.factors) == 1
    a, m = F.factors[0]
    assert F.lat.unscaled(a) == (Fraction(1, 2),) and m == -2


def test_zeta_two_nodes(two_nodes):
    F = zeta(two_nodes)
    lat = lattice_of(two_nodes)
    got = {lat.sestar.index(a): m for a, m in F.factors}
    assert got == {two_nodes.index("v1"): 1, two_nodes.index("v2"): 1,
                   two_nodes.index("w1"): -1, two_nodes.index("w2"): -1,
                   two_nodes.index("w3"): -1, two_nodes.index("w4"): -1}


def test_reduce_sigma257_to_node(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    num = {live_ints(R, b)[0]: c for b, c in R.numerator.items()}
    assert num == {0: 1, 70: -1}
    assert sorted(live_ints(R, a)[0] for a in R.denominator) == [10, 14, 35]


def test_reduce_full_set_keeps_everything(sigma257):
    R = reduce(zeta(sigma257), sigma257.ids)
    assert R.active == tuple(range(5))
    assert set(R.denominator) == {R.lat.scaled(e_star(sigma257, v)) for v in ("E2", "E3", "E5")}


def test_reduce_two_nodes(two_nodes):
    R = reduce(zeta(two_nodes), ["v1", "v2"])
    num = {live_ints(R, b): c for b, c in R.numerator.items()}
    assert num == {(0, 0): 1, (66, 12): -1, (12, 66): -1, (78, 78): 1}
    dens = sorted(live_ints(R, a) for a in R.denominator)
    assert dens == [(4, 22), (6, 33), (22, 4), (33, 6)]


def test_reduce_rejects_empty():
    with pytest.raises(ValueError):
        reduce(zeta(support.sigma257()), [])


def test_coeff_basics(sigma257, two_nodes):
    assert coeff(sigma257, [0] * 5) == 1
    assert coeff(two_nodes, [0] * 10) == 1
    # unique full exponents under the live values 10 and 14
    assert coeff(sigma257, e_star(sigma257, "E5")) == 1
    assert coeff(sigma257, e_star(sigma257, "E3")) == 1


def test_coeff_exhaustive_oracle(sigma257):
    # z(E3*) by brute force over all decompositions k*E1* + sum x_e E_e*
    lat = lattice_of(sigma257)
    target = e_star(sigma257, "E3")
    cols = {v: e_star(sigma257, v) for v in ("E1", "E2", "E3", "E5")}
    total = 0
    for k in range(2):          # node multiplicity bound: valency - 2 = 1
        for x2 in range(15):
            for x3 in range(15):
                for x5 in range(15):
                    acc = [k * cols["E1"][i] + x2 * cols["E2"][i]
                           + x3 * cols["E3"][i] + x5 * cols["E5"][i]
                           for i in range(5)]
                    if tuple(acc) == tuple(target):
                        total += (-1) ** k
    assert total == 1
    assert coeff(sigma257, target) == 1


def test_coeff_off_cone_is_zero(sigma257):
    assert coeff(sigma257, (1, 0, 0, 0, 0)) == 0
    assert coeff(sigma257, (-1, -1, -1, -1, -1)) == 0


def test_taylor_one_variable_example():
    # t^2/(1-t) at the origin and at infinity
    g = parse_graph("vertex a -1")
    lat = lattice_of(g)
    R = RatFunc(lat, {lat.scaled((Fraction(2),)): 1}, (lat.scaled((Fraction(1),)),), (0,))
    ts = taylor(R, Box((Fraction(5),)))
    assert live_map(ts) == {(2,): 1, (3,): 1, (4,): 1, (5,): 1}
    ti = taylor_infinity(R, Cobox((Fraction(-1),)))
    assert live_map(ti) == {(1,): -1, (0,): -1, (-1,): -1}


def test_taylor_sigma257_series_start(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    ts = taylor(R, Box((15,)))
    assert live_map(ts) == {(0,): 1, (10,): 1, (14,): 1}
    assert ts.coeff_at((7,)) == 0
    with pytest.raises(WindowError):
        ts.coeff_at((16,))


def test_window_kind_is_enforced(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    with pytest.raises(WindowError):
        taylor(R, Cobox((5,)))
    with pytest.raises(WindowError):
        taylor_infinity(R, Box((5,)))
    with pytest.raises(WindowError):
        taylor(R, Box((5, 5)))


def test_taylor_infinity_sigma257_both_routes(sigma257):
    w = Cobox((-3,))
    closed = taylor_infinity(zeta(sigma257), w, subset=["E1"])
    rewritten = taylor_infinity(reduce(zeta(sigma257), ["E1"]), w)
    assert live_map(closed) == {(11,): 1, (1,): 1, (-3,): 1}
    assert closed.terms == rewritten.terms


def test_taylor_constant_term_is_one(corpus30):
    for g in corpus30[:6]:
        ts = taylor(zeta(g), Box(tuple(Fraction(0) for _ in range(g.n))))
        assert ts.terms == {(0,) * g.n: 1}


def _naive_reduced_series(g, live_ids, bound):
    """Truncated multiplication of the factor series over the live
    coordinates; independent of the package's enumeration engine."""
    lat = lattice_of(g)
    live = [g.index(v) for v in live_ids]
    d = lat.h_order

    def clip(term_dict):
        return {e: c for e, c in term_dict.items()
                if all(x <= bound * d for x in e)}

    series = {tuple(0 for _ in live): 1}
    for i, mu in enumerate(lat.mults):
        if mu == 0:
            continue
        col = tuple(lat.sestar[i][j] for j in live)
        factor = {}
        k = 0
        while all(x == 0 for x in col) is False and all(k * x <= bound * d for x in col):
            if mu > 0:
                if k > mu:
                    break
                factor[tuple(k * x for x in col)] = (-1) ** k * comb(mu, k)
            else:
                factor[tuple(k * x for x in col)] = comb(k - mu - 1, -mu - 1)
            k += 1
        new = {}
        for e1, c1 in series.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                new[e] = new.get(e, 0) + c1 * c2
        series = clip(new)
    return {tuple(Fraction(x, d) for x in e): c for e, c in series.items() if c}


@pytest.mark.parametrize("live", [("E1",), ("E1", "E4"), ("E1", "E2", "E3", "E4", "E5")])
def test_taylor_matches_naive_multiplication(sigma257, live):
    bound = 24
    ts = taylor(reduce(zeta(sigma257), live), Box(tuple(Fraction(bound) for _ in live)))
    lat = lattice_of(sigma257)
    assert {lat.unscaled(e): c for e, c in ts.terms.items()} == \
        _naive_reduced_series(sigma257, live, bound)


def test_taylor_matches_naive_on_corpus(corpus30):
    for g in corpus30[:4]:
        live = g.ids
        ts = taylor(reduce(zeta(g), live), Box(tuple(Fraction(8) for _ in live)))
        lat = lattice_of(g)
        assert {lat.unscaled(e): c for e, c in ts.terms.items()} == \
            _naive_reduced_series(g, live, 8)


def test_equivariant_split_trivial_group(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    parts = equivariant_split(R)
    assert len(parts) == 1
    (h, part), = parts.items()
    assert h.rep == (0, 0, 0, 0, 0)
    # identical as reduced rational functions: live numerator and denominator
    def live_num(S):
        return {live_ints(S, b): c for b, c in S.numerator.items()}
    assert live_num(part) == live_num(R)
    assert part.denominator == R.denominator


def test_equivariant_split_star_points(two_nodes):
    # the seven nonnegative end tuples in the class-0 fiber below the cut
    # carry coefficient one each; merged on the node coordinates they give
    # 1, t^(33,6), t^(6,33), 2 t^(66,12), 2 t^(12,66)
    lat = lattice_of(two_nodes)
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0),
           (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    merged = {}
    for x in pts:
        full = [Fraction(0)] * 10
        for c, e in zip(x, lat.end_idx):
            for r in range(10):
                full[r] += c * lat.estar[e][r]
        assert rho(two_nodes, x) == lat.zero_class
        assert coeff(two_nodes, full) == 1
        live = (int(full[two_nodes.index("v1")]), int(full[two_nodes.index("v2")]))
        merged[live] = merged.get(live, 0) + 1
    assert merged == {(0, 0): 1, (33, 6): 1, (6, 33): 1, (66, 12): 2, (12, 66): 2}


def test_equivariant_split_resums(two_nodes):
    R = reduce(zeta(two_nodes), ["v1", "v2"])
    parts = equivariant_split(R)
    assert len(parts) == 3
    box = Box((Fraction(40), Fraction(40)))
    whole = taylor(R, box).terms
    acc = {}
    for part in parts.values():
        for e, c in taylor(part, box).terms.items():
            acc[e] = acc.get(e, 0) + c
    acc = {e: c for e, c in acc.items() if c}
    assert acc == whole


def test_equivariant_split_resums_on_corpus(corpus30):
    rng = random.Random(11)
    for g in rng.sample(corpus30, 5):
        lat = lattice_of(g)
        live = support.random.Random(1).sample(g.ids, min(2, g.n))
        R = reduce(zeta(g), live)
        parts = equivariant_split(R)
        box = Box(tuple(Fraction(6) for _ in live))
        whole = taylor(R, box).terms
        acc = {}
        for part in parts.values():
            for e, c in taylor(part, box).terms.items():
                acc[e] = acc.get(e, 0) + c
        assert {e: c for e, c in acc.items() if c} == whole


def test_split_rejects_tagged(two_nodes):
    R = reduce(zeta(two_nodes), ["v1", "v2"])
    tagged = equivariant_split(R)[lattice_of(two_nodes).zero_class]
    with pytest.raises(ValueError):
        equivariant_split(tagged)


def test_gorenstein_symmetry_windows(corpus30, sigma257, two_nodes):
    # closed-form expansion at infinity against the independent rewriting
    # route, on a window two steps deep
    for g in [sigma257, two_nodes] + list(corpus30[:6]):
        lat = lattice_of(g)
        for live in ({tuple(g.ids)} | {tuple(g.ids[i] for i in lat.node_idx)} - {()}):
            active = sorted(g.index(v) for v in live)
            w = Cobox(tuple(lat.z_k_me[i] - 2 for i in active))
            a = taylor_infinity(zeta(g), w, subset=live)
            b = taylor_infinity(reduce(zeta(g), live), w)
            assert a.terms == b.terms


def test_nonzero_coeff_lands_in_positive_cone(corpus30):
    # supports of the series: the zero exponent or strictly positive vectors
    rng = random.Random(23)
    for g in corpus30[:5]:
        lat = lattice_of(g)
        box = Box(tuple(Fraction(6) for _ in range(g.n)))
        for e, c in taylor(zeta(g), box).terms.items():
            e = lat.unscaled(e)
            assert c == coeff(g, e)
            assert all(x == 0 for x in e) or all(x > 0 for x in e)


def test_window_bound_off_the_grid_keeps_only_window_terms(two_nodes):
    # |H| = 3, so 7/6 and -1/6 are off the 1/3 grid: a cobox bound rounds up
    # and a box bound down, never toward zero.
    lat = lattice_of(two_nodes)
    live = ("v1", "v2")
    w = Cobox((Fraction(7, 6), Fraction(7, 6)))
    closed = taylor_infinity(zeta(two_nodes), w, subset=live)
    rewritten = taylor_infinity(reduce(zeta(two_nodes), live), w)
    assert closed.terms == rewritten.terms
    assert len(closed.terms) == 9
    neg = euclid_divide(f_h(two_nodes, lat.zero_class, live)).neg
    origin = taylor(neg, Box((40, Fraction(-1, 6))))
    assert {lat.unscaled(e): c for e, c in origin.terms.items()} == {(1, -53): -1, (7, -20): -1}
    for ts in (closed, rewritten, origin):
        for e, c in ts.terms.items():
            assert ts.window.contains(lat.unscaled(e))
            assert ts.coeff_at(lat.unscaled(e)) == c


def test_expansions_and_division_build_no_fraction_per_term(monkeypatch):
    # Exponents stay scaled integers from the zeta function to the series
    # terms and the division certificate.  The only Fraction objects are
    # those of the window bounds, two per live coordinate, however many terms
    # the expansion has.
    real = Fraction.__new__
    built = 0

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    def fractions_in(fn, *args, **kwargs):
        nonlocal built
        built = 0
        monkeypatch.setattr(Fraction, "__new__", counted)
        try:
            result = fn(*args, **kwargs)
        finally:
            monkeypatch.undo()
        return built, result

    for g in (support.sigma257(), support.two_nodes(), support.three_nodes()):
        lat = lattice_of(g)
        F = zeta(g)
        for live in {tuple(g.ids), tuple(duality_cut_vertices(g))}:
            n_live = len(live)
            R = reduce(F, live)
            box = Box(tuple(Fraction(30) for _ in live))
            active = sorted(g.index(v) for v in live)
            cobox = Cobox(tuple(lat.z_k_me[i] - 2 for i in active))
            for run in ((taylor, R, box), (taylor_infinity, R, cobox)):
                count, ts = fractions_in(*run)
                assert count <= 2 * n_live
                assert ts.terms
            count, ts = fractions_in(taylor_infinity, F, cobox, subset=live)
            assert count <= 2 * n_live
            assert ts.terms
        live = duality_cut_vertices(g)
        for h in all_classes(g):
            count, dec = fractions_in(lambda: euclid_divide(f_h(g, h, live)))
            assert count == 0
            assert dec.by_s
