import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from support import neg, z_k_minus_e
from plumbsw import series
from plumbsw.decomp import euclid_divide
from plumbsw.graph import parse_graph
from plumbsw.lattice import all_classes, class_of, e_star, lattice_of
from plumbsw.series import (Box, Cobox, RatFunc, WindowError, _split_classes, _tally,
                            equivariant_split, live_indices, reduce, taylor, taylor_infinity,
                            zeta)
from plumbsw.swcore import duality_cut_vertices

HUB33 = Path(__file__).resolve().parent / "data" / "hub_tree_33.graph"


def live_map(ts):
    # terms are keyed by live scaled exponents; integral coordinates here
    return {tuple(x // ts.d for x in e): c for e, c in ts.terms.items()}


def full_series(g, bound):
    """The Poincare series z(l') at every l' <= bound: the expansion at the
    origin of the zeta function reduced to every vertex, keyed by l' as
    ``Fraction`` vectors."""
    lat = lattice_of(g)
    ts = taylor(reduce(zeta(g), g.ids), Box(tuple(bound)))
    return {lat.unscaled(e): c for e, c in ts.terms.items()}


def in_window(window, e) -> bool:
    """Whether the live exponent e (coordinates) lies in the window: at or
    below a box's bound everywhere, at or above a cobox's somewhere."""
    if isinstance(window, Box):
        return all(x <= b for x, b in zip(e, window.bound))
    return any(x >= b for x, b in zip(e, window.bound))


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
    assert full_series(sigma257, [0] * 5) == {(0,) * 5: 1}
    assert full_series(two_nodes, [0] * 10) == {(0,) * 10: 1}
    # unique full exponents under the live values 10 and 14
    z = full_series(sigma257, e_star(sigma257, "E3"))
    assert z[e_star(sigma257, "E5")] == 1
    assert z[e_star(sigma257, "E3")] == 1


def test_coeff_exhaustive_oracle(sigma257):
    # z(E3*) by brute force over all decompositions k*E1* + sum x_e E_e*,
    # and every coefficient of the full-variable expansion up to E3*,
    # absent terms included, against the same count (|H| = 1)
    target = e_star(sigma257, "E3")
    assert support.zeta_coeff(sigma257, target) == 1
    z = full_series(sigma257, target)
    assert z[target] == 1
    nonzero = 0
    for e in product(*(range(int(b) + 1) for b in target)):
        want = support.zeta_coeff(sigma257, e)
        assert z.get(e, 0) == want
        nonzero += want != 0
    assert nonzero == len(z)


def test_coeff_off_cone_is_zero(sigma257):
    assert support.zeta_coeff(sigma257, (1, 0, 0, 0, 0)) == 0
    assert support.zeta_coeff(sigma257, (-1, -1, -1, -1, -1)) == 0
    assert full_series(sigma257, (1, 0, 0, 0, 0)) == {(0,) * 5: 1}
    assert full_series(sigma257, (-1, -1, -1, -1, -1)) == {}


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


def test_window_kind_is_enforced(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    with pytest.raises(WindowError):
        taylor(R, Cobox((5,)))
    with pytest.raises(WindowError):
        taylor_infinity(R, Box((5,)))
    with pytest.raises(WindowError):
        taylor(R, Box((5, 5)))


def test_ratfunc_checks_its_live_set_and_denominator(sigma257):
    lat = lattice_of(sigma257)
    one = {(0,) * lat.n: 1}
    with pytest.raises(ValueError, match="active coordinate set must be non-empty"):
        RatFunc(lat, one, (), ())
    flat = list(lat.sestar[0])
    flat[1] = 0
    with pytest.raises(ValueError, match="not strictly positive on live coordinates"):
        RatFunc(lat, one, (tuple(flat),), (0, 1))


@st.composite
def walks(draw):
    """One or two starts with non-zero coefficients (negative coordinates
    allowed, as ``taylor_infinity`` walks), factors mixing polynomials with
    series of multiplicity 1 and 2, and a cut under either quantifier,
    possibly with no bounds."""
    n = draw(st.integers(1, 3))
    coords = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple)
    factor = st.one_of(
        st.tuples(coords, st.lists(st.integers(-2, 2), min_size=1, max_size=4).map(tuple)),
        st.tuples(coords, st.sampled_from((1, 2))))
    factors = draw(st.lists(factor, max_size=4))
    start = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    starts = draw(st.lists(st.tuples(start, st.sampled_from((-2, -1, 1, 2))),
                           min_size=1, max_size=2))
    bounded = draw(st.lists(st.integers(0, n - 1), unique=True))
    bounds = tuple((i, draw(st.integers(-3, 8))) for i in sorted(bounded))
    quantifier = draw(st.sampled_from((any, all)))
    # a series factor under the empty cut passed by all is infinite
    assume(bounds or quantifier is any
           or all(isinstance(info, tuple) for _, info in factors))
    return starts, factors, (bounds, quantifier)


def brute_walk(starts, factors, cut):
    """Every visit (weight, point) of the expansion that passes the cut, in
    a list, over a box of steps: a series step k >= max c - min start is
    past every bound, as each factor entry is at least 1 on the bounded
    coordinates."""
    bounds, quantifier = cut
    box = max([c for _, c in bounds], default=0) - min(min(s) for s, _ in starts)
    ranges = [range(len(info)) if isinstance(info, tuple) else range(max(box, 0))
              for _, info in factors]
    out = []
    for start, coef in starts:
        for ks in product(*ranges):
            point, weight = list(start), coef
            for (a, info), k in zip(factors, ks):
                point = [x + k * y for x, y in zip(point, a)]
                weight *= info[k] if isinstance(info, tuple) else comb(k + info - 1, info - 1)
            if quantifier(point[i] < c for i, c in bounds):
                out.append((weight, tuple(point)))
    return out


def tagged(starts, factors):
    """The walk with one more coordinate per start and per factor, which no
    bound reads: each start and each factor exponent has a 1 on its own
    one, so the point of a visit ends in the start's one-hot tag and the
    factor step counts, and no two visits share a point."""
    tags = len(starts) + len(factors)

    def onehot(j):
        return tuple(int(i == j) for i in range(tags))

    return ([(s + onehot(j), c) for j, (s, c) in enumerate(starts)],
            [(a + onehot(len(starts) + j), info) for j, (a, info) in enumerate(factors)])


@settings(max_examples=80, deadline=None)
@given(walks())
@example(([((0, -1), 1)], [((1, 2), (1, -2, 0, 1)), ((2, 1), (1, 1))], ((), all)))
@example(([((0, -1), 1)], [((1, 2), 2)], ((), any)))
# two starts reach (1, 1): the point sums both
@example(([((0, -1), 1), ((1, 1), 2)], [((1, 2), 1)], (((0, 3),), all)))
# the two visits of (1, 1) cancel, and the zero sum is dropped
@example(([((0, 0), 1), ((1, 1), 1)], [((1, 1), (1, -1))], ((), all)))
def test_walk_visits_what_brute_force_enumerates(walk):
    starts, factors, cut = walk
    # tagged, every visit has a point of its own: a tally per visit catches
    # a point walked twice whatever the weights
    visits = brute_walk(*tagged(starts, factors), cut)
    assert len({e for _, e in visits}) == len(visits)
    assert _tally(*tagged(starts, factors), cut, lambda e: e) == {e: w for w, e in visits if w}
    sums = Counter()
    for w, e in brute_walk(starts, factors, cut):
        sums[e] += w
    assert _tally(starts, factors, cut, lambda e: e) == {e: w for e, w in sums.items() if w}


def test_walk_raises_instead_of_looping():
    # a zero factor entry on a bounded coordinate, and a series factor under
    # the empty cut, have no finite step count
    with pytest.raises(ZeroDivisionError):
        _tally([((0, 0), 1)], [((1, 0), 1)], (((1, 5),), all), lambda e: e)
    with pytest.raises(TypeError):
        _tally([((0,), 1)], [((1,), 1)], ((), all), lambda e: e)


def test_taylor_infinity_of_a_reduced_function_takes_no_subset(sigma257):
    R = reduce(zeta(sigma257), ["E1"])
    with pytest.raises(ValueError, match="carry their own live set"):
        taylor_infinity(R, Cobox((-3,)), subset=["E1"])


def test_taylor_infinity_sigma257_both_routes(sigma257):
    w = Cobox((-3,))
    closed = taylor_infinity(zeta(sigma257), w, subset=["E1"])
    rewritten = taylor_infinity(reduce(zeta(sigma257), ["E1"]), w)
    assert live_map(closed) == {(11,): 1, (1,): 1, (-3,): 1}
    assert closed.terms == rewritten.terms


def test_repeated_denominator_is_walked_once_per_term(monkeypatch):
    # one vertex of Euler number -400: the reduced function is 1/(1 - t^a)^2,
    # a = E* = 1/400, with a twice in its denominator.  Walked as one series
    # with binomial weights, each expansion reaches each of its terms once;
    # walked once per copy of a, they took 721,801 and 321,201 leaves.
    R = reduce(zeta(parse_graph("vertex a -400")), ["a"])
    walked = []
    tally = series._tally

    def counted(starts, factors, cut, key):
        return tally(starts, factors, cut, lambda e: walked.append(e) or key(e))

    monkeypatch.setattr(series, "_tally", counted)
    ts = taylor(R, Box((Fraction(3),)))
    assert ts.terms == {(k,): k + 1 for k in range(1201)}
    assert len(walked) == len(ts.terms)
    walked.clear()
    # the window of verify's Gorenstein check: Z_K - 3 = -802/400
    ti = taylor_infinity(R, Cobox((Fraction(-802, 400),)))
    assert ti.terms == {(-k - 2,): k + 1 for k in range(801)}
    assert len(walked) == len(ti.terms)


def test_taylor_constant_term_is_one(corpus30):
    for g in corpus30[:6]:
        ts = taylor(reduce(zeta(g), g.ids), Box(tuple(Fraction(0) for _ in range(g.n))))
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
        full = support.end_combination(two_nodes, x)
        assert class_of(two_nodes, full) == lat.zero_class
        assert support.zeta_coeff(two_nodes, full) == 1
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


def _naive_split(lat, active, num, denom):
    """The H-components of num / prod (1 - t^a) by their definition: the
    numerator convolved with sum_{j<k} t^{ja} as a plain dict of full
    scaled exponents, k the least k >= 1 with k a in L, the off-live
    coordinates reduced mod |H| after each factor (a lattice shift the live
    variables do not see), then grouped by class key and live exponent."""
    d = lat.h_order
    terms = dict(num)
    denominator = []
    for a in denom:
        k = next(k for k in range(1, d + 1) if all(k * x % d == 0 for x in a))
        denominator.append(tuple(k * x for x in a))
        grown = {}
        for e, c in terms.items():
            for j in range(k):
                f = tuple(x + j * y if i in active else (x + j * y) % d
                          for i, (x, y) in enumerate(zip(e, a)))
                grown[f] = grown.get(f, 0) + c
        terms = {e: c for e, c in grown.items() if c}
    by_class = {}
    for e, c in terms.items():
        bucket = by_class.setdefault(tuple(x % d for x in e), {})
        live = tuple(e[i] for i in active)
        bucket[live] = bucket.get(live, 0) + c
    return {key: {e: c for e, c in bucket.items() if c} for key, bucket in by_class.items()}, \
        tuple(denominator)


def test_split_classes_matches_naive_expansion(corpus30):
    # each class's terms, built on demand from the partial product, against
    # the whole product multiplied out factor by factor; the shipped graphs
    # also on all their vertices
    graphs = [(g, duality_cut_vertices(g)) for g in (
        support.sigma257(), support.two_nodes(), support.three_nodes(),
        parse_graph(support.VALENCY4_TREE), parse_graph(HUB33.read_text()), *corpus30)]
    graphs += [(g, g.ids) for g in (support.sigma257(), support.two_nodes(),
                                    support.three_nodes())]
    for g, live in graphs:
        lat = lattice_of(g)
        active = live_indices(g, live)
        num, denom = zeta(g).expanded()
        want, want_denom = _naive_split(lat, active, num, denom)
        terms, got_denom = _split_classes(lat, active, num, denom)
        assert got_denom == want_denom
        assert set(want) <= {h.key for h in all_classes(g)}
        for h in all_classes(g):
            assert terms(h.key) == want.get(h.key, {}), (g, h)


def test_gorenstein_symmetry_windows(corpus30, sigma257, two_nodes):
    # closed-form expansion at infinity against the independent rewriting
    # route, on a window two steps deep
    for g in [sigma257, two_nodes] + list(corpus30[:6]):
        lat = lattice_of(g)
        for live in ({tuple(g.ids)} | {tuple(g.ids[i] for i in lat.node_idx)} - {()}):
            active = sorted(g.index(v) for v in live)
            w = Cobox(tuple(z_k_minus_e(g)[i] - 2 for i in active))
            a = taylor_infinity(zeta(g), w, subset=live)
            b = taylor_infinity(reduce(zeta(g), live), w)
            assert a.terms == b.terms


def test_nonzero_coeff_lands_in_positive_cone(corpus30):
    # supports of the series: the zero exponent or strictly positive vectors
    rng = random.Random(23)
    for g in corpus30[:5]:
        lat = lattice_of(g)
        box = Box(tuple(Fraction(6) for _ in range(g.n)))
        for e, c in taylor(reduce(zeta(g), g.ids), box).terms.items():
            e = lat.unscaled(e)
            assert c == support.zeta_coeff(g, e)
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
    dec = euclid_divide(equivariant_split(reduce(zeta(two_nodes), live))[lat.zero_class])
    origin = taylor(neg(dec), Box((40, Fraction(-1, 6))))
    assert {lat.unscaled(e): c for e, c in origin.terms.items()} == {(1, -53): -1, (7, -20): -1}
    for ts in (closed, rewritten, origin):
        for e in ts.terms:
            assert in_window(ts.window, lat.unscaled(e))


def test_window_rejects_bound_of_wrong_length(two_nodes):
    live = ("v1", "v2")
    R = reduce(zeta(two_nodes), live)
    assert taylor(R, Box((Fraction(40), Fraction(40)))).terms[0, 0] == 1
    for bad in ((0,), (0, 0, 99)):
        with pytest.raises(WindowError, match="window bound must match"):
            taylor(R, Box(bad))
        for obj, subset in ((R, None), (zeta(two_nodes), live)):
            with pytest.raises(WindowError, match="window bound must match"):
                taylor_infinity(obj, Cobox(bad), subset)


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
            cobox = Cobox(tuple(z_k_minus_e(g)[i] - 2 for i in active))
            for run in ((taylor, R, box), (taylor_infinity, R, cobox)):
                count, ts = fractions_in(*run)
                assert count <= 2 * n_live
                assert ts.terms
            count, ts = fractions_in(taylor_infinity, F, cobox, subset=live)
            assert count <= 2 * n_live
            assert ts.terms
        count, split = fractions_in(equivariant_split, reduce(F, duality_cut_vertices(g)))
        assert count == 0
        assert list(split) == list(all_classes(g))
        for R in split.values():
            count, dec = fractions_in(euclid_divide, R)
            assert count == 0
            assert dec.by_s
