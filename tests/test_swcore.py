import gc
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

import support
from support import anti_duals, vec_add, vec_scale, vec_sub
from plumbsw import counting, decomp, lattice, series, swcore
from plumbsw.cli import DEFAULT_SEED
from plumbsw.counting import Q
from plumbsw.decomp import evaluate_at_one
from plumbsw.graph import parse_graph
from plumbsw.lattice import (Lattice, all_classes, canonical_cycle, class_of,
                             e_star, lattice_of, pairing)
from plumbsw.polytopes import sw_via_lattice
from plumbsw.series import RatFunc, _split_classes, live_indices, zeta
from plumbsw.swcore import (QuadraticReport, RouteDisagreement, duality_cut_vertices,
                            quadratic_check, sw_norm_via_division, sw_norm_via_duality,
                            sw_norm_via_polypart, sw_raw, sw_report)


def raw_scale(g):
    """8 |H|^2: sw_raw returns the raw invariant times it, an integer."""
    return 8 * lattice_of(g).h_order ** 2


def shift(g, h):
    """((K + 2 r_h)^2 + |V|)/8 times 8 |H|^2, read off sw_raw at sw_norm = 0."""
    return -sw_raw(g, h, 0)


def split_polyparts(g):
    """P+ of every class's split component, divided with its certificate,
    in class order."""
    lat = lattice_of(g)
    active = live_indices(g, duality_cut_vertices(g))
    terms, denom = _split_classes(lat, active, *zeta(g).expanded())
    return [decomp.divide_component(lat, active, terms(h.key), denom, h).poly
            for h in all_classes(g)]


def count_divisions(monkeypatch):
    """Count the calls of the division kernel and of the split."""
    calls = {"divide": 0, "split": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(decomp, "_divide", counted("divide", decomp._divide))
    monkeypatch.setattr(series, "_split_classes", counted("split", series._split_classes))
    return calls


def test_duality_route_values(sigma257, two_nodes):
    assert sw_norm_via_duality(sigma257) == {lattice_of(sigma257).zero_class: 2}
    zero = lattice_of(two_nodes).zero_class
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    h2 = class_of(two_nodes, vec_add(h1.rep, h1.rep))
    assert sw_norm_via_duality(two_nodes) == {zero: 5, h1: 3, h2: 3}


def test_polypart_route_values(sigma257, two_nodes):
    assert sw_norm_via_polypart(sigma257) == {lattice_of(sigma257).zero_class: 2}
    zero = lattice_of(two_nodes).zero_class
    assert sw_norm_via_polypart(two_nodes)[zero] == 5
    assert sw_norm_via_division(two_nodes)[zero] == 5


def test_chain_fallback_uses_all_vertices():
    g = support.chain([-2, -3, -2])
    assert duality_cut_vertices(g) == g.ids
    duality, polypart = sw_norm_via_duality(g), sw_norm_via_polypart(g)
    assert [(duality[h], polypart[h]) for h in all_classes(g)] == [(0, 0)] * 8


def test_sw_raw_shift_sigma257(sigma257):
    lat = lattice_of(sigma257)
    h0 = lat.zero_class
    zk = canonical_cycle(sigma257)
    # oracle: K = -Z_K, (K^2 + 5)/8 with K^2 = (Z_K, Z_K) = -5
    assert pairing(sigma257, zk, zk) == -5
    assert shift(sigma257, h0) == 0
    assert raw_scale(sigma257) == 8
    assert type(sw_raw(sigma257, h0, 2)) is int
    assert sw_raw(sigma257, h0, 2) == -2 * 8


def test_sw_raw_shift_with_nontrivial_rep(two_nodes):
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    # oracle: direct pairing arithmetic on K + 2 r_h
    v = vec_add(vec_scale(-1, canonical_cycle(two_nodes)), vec_scale(2, h1.rep))
    expected = (pairing(two_nodes, v, v) + 10) / 8
    scale = raw_scale(two_nodes)
    assert scale == 8 * 3 ** 2
    assert type(shift(two_nodes, h1)) is int
    assert shift(two_nodes, h1) == expected * scale
    assert sw_raw(two_nodes, h1, 3) == (-3 - expected) * scale
    for g in (two_nodes, support.star(-2, (-3, -5, -7))):
        zk = canonical_cycle(g)
        for h in all_classes(g):
            v = vec_add(vec_scale(-1, zk), vec_scale(2, h.rep))
            assert shift(g, h) == (pairing(g, v, v) + g.n) / 8 * raw_scale(g)


def test_quadratic_check_examples(sigma257, two_nodes):
    assert quadratic_check(sigma257, samples=5, seed=1).ok
    assert quadratic_check(two_nodes, samples=5, seed=1).ok


def test_quadratic_identity_per_class(two_nodes):
    # deep sample targeted at each class: l' = Z_K + positive combination
    g = two_nodes
    zk, estar = canonical_cycle(g), anti_duals(g)
    want = {h: None for h in all_classes(g)}
    rng = random.Random(3)
    while any(v is None for v in want.values()):
        lp = list(zk)
        for i in range(g.n):
            lp = vec_add(lp, vec_scale(rng.randint(1, 3), estar[i]))
        h = class_of(g, tuple(lp))
        if want[h] is None:
            want[h] = tuple(lp)
    duality = sw_norm_via_duality(g)
    scale = raw_scale(g)
    for h, lp in want.items():
        lhs = -Q(g, h, g.ids, lp) * scale
        v = vec_add(vec_scale(-1, zk), vec_scale(2, lp))
        rhs = (pairing(g, v, v) + g.n) / 8 * scale + sw_raw(g, h, duality[h])
        assert lhs == rhs


def test_quadratic_minimal_sample_random_tree(corpus30):
    g = next(g for g in corpus30 if g.n == 4)
    zk, estar = canonical_cycle(g), anti_duals(g)
    lp = list(zk)
    for i in range(g.n):
        lp = vec_add(lp, vec_scale(1, estar[i]))
    h = class_of(g, tuple(lp))
    scale = raw_scale(g)
    lhs = -Q(g, h, g.ids, lp) * scale
    v = vec_add(vec_scale(-1, zk), vec_scale(2, lp))
    rhs = (pairing(g, v, v) + g.n) / 8 * scale + sw_raw(g, h, sw_norm_via_duality(g)[h])
    assert lhs == rhs


def test_report_all_routes_agree(sigma257, two_nodes):
    for g, values in ((sigma257, [2]), (two_nodes, [5, 3, 3])):
        entries = tuple(sw_report(g))
        assert all(e.agree for e in entries)
        assert [e.sw_norm_neg for e in entries] == values
        for e in entries:
            assert set(e.values) == {"duality", "polypart", "division", "lattice"}
            assert type(e.raw) is int
            assert e.raw == -e.sw_norm_neg * raw_scale(g) - shift(g, e.h)


def test_report_marks_lattice_not_applicable():
    g = support.chain([-2, -2, -2])
    entries = tuple(sw_report(g))
    assert all(e.agree for e in entries)
    for e in entries:
        assert "lattice" in e.errors and "not applicable" in e.errors["lattice"]
        assert e.sw_norm_neg == 0


def test_report_refuses_contested_value(monkeypatch, sigma257):
    monkeypatch.setattr(swcore, "polypart_dual",
                        lambda g, subset: {h: {(0,): 17} for h in all_classes(g)})
    entry, = sw_report(sigma257)
    assert entry.values["duality"] == 17
    assert not entry.agree
    assert entry.sw_norm_neg is None
    assert entry.raw is None


def assert_duality_is_q_per_class(g):
    """Each class's duality value is Q of its dual class at its own cut
    Z_K - r_h, and the lattice route's value."""
    lat = lattice_of(g)
    cut = duality_cut_vertices(g)
    duality = sw_norm_via_duality(g)
    lattice = sw_via_lattice(g)
    for h in all_classes(g):
        dual = lat.class_at([z - k for z, k in zip(lat.sz_k, h.key)])
        want = Q(g, dual, cut, vec_sub(canonical_cycle(g), h.rep))
        assert duality[h] == want == lattice[h], h


def test_batched_routes_match_per_class_counts():
    # one node, |H| = 139, and two nodes, |H| = 133: one walk answers every
    # class
    for g in (support.star(-2, (-3, -5, -7)), support.caterpillar(2)):
        assert 50 <= lattice_of(g).h_order <= 200
        assert_duality_is_q_per_class(g)


def test_duality_counts_points_on_z_k_minus_e():
    # valency 5, |H| = 8: a class's value takes walk points that equal
    # Z_K - E on the node, so the cut at infinity keeps them (l'_i <= (Z_K - E)_i)
    assert_duality_is_q_per_class(support.star(-2, (-2, -2, -2, -4, -5)))


def test_duality_walks_only_the_points_it_counts(monkeypatch):
    # every class's cut Z_K - r_h meets its 1/|H| grid where Z_K - E does,
    # so the duality route walks polypart's cut at infinity and no point
    # that counts for no class: on caterpillar(3), |H| = 1261, the looser
    # cut Z_K reaches 57,868 points
    g = support.caterpillar(3)
    real, keyed = series._tally, []

    def counted(starts, factors, cut, key):
        keyed.append(0)

        def wrapped(e):
            keyed[-1] += 1
            return key(e)

        return real(starts, factors, cut, wrapped)

    monkeypatch.setattr(series, "_tally", counted)
    duality = sw_norm_via_duality(g)
    polys = decomp.polypart_dual(g, duality_cut_vertices(g))
    assert keyed == [919, 919]
    assert all(duality[h] == evaluate_at_one(p) for h, p in polys.items())


def test_report_walks_the_cut_at_infinity_once(monkeypatch):
    # duality and polypart read P+(1) off one table, from one walk at
    # infinity; caterpillar(3), |H| = 1261, with all four routes
    g = support.caterpillar(3)
    real, walks = series._infinity_tally, []

    def counted(*args):
        walks.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "plumbsw" and getattr(module, "_infinity_tally", None) is real:
            monkeypatch.setattr(module, "_infinity_tally", counted)
    assert all(e.agree and len(e.values) == 4 for e in sw_report(g))
    assert len(walks) == 1


@pytest.mark.parametrize("table", ["polypart_dual", "polypart_division"])
def test_each_route_reads_its_own_table(monkeypatch, two_nodes, table):
    # an extra term in one class's P+ moves the route that reads that table,
    # duality or division, and not the other; polypart, which compares the
    # two tables, reports the mismatch at that class
    g = two_nodes
    want = {e.h: e.sw_norm_neg for e in sw_report(g)}
    h0 = all_classes(g)[1]
    real = getattr(swcore, table)

    def perturbed(g, subset):
        polys = real(g, subset)
        polys.setdefault(h0, {})[(10 ** 6,) * len(subset)] = 1
        return polys

    monkeypatch.setattr(swcore, table, perturbed)
    moved, kept = ("duality", "division") if table == "polypart_dual" else ("division", "duality")
    for e in sw_report(g):
        assert e.values[kept] == e.values["lattice"] == want[e.h]
        if e.h == h0:
            assert e.values[moved] == want[e.h] + 1
            assert e.errors == {"polypart": swcore._POLYPART_MISMATCH}
            assert not e.agree
        else:
            assert e.values[moved] == e.values["polypart"] == want[e.h]
            assert e.agree and not e.errors
    assert sw_norm_via_duality(g)[h0] == want[h0] + (moved == "duality")
    assert sw_norm_via_division(g)[h0] == want[h0] + (moved == "division")
    with pytest.raises(RouteDisagreement, match=re.escape(f"h={h0}: ")):
        sw_norm_via_polypart(g)


def test_polypart_route_names_the_first_class_that_differs(monkeypatch):
    # star(-2; -3,-5,-7), |H| = 139, four classes of non-zero P+: against an
    # empty division table each differs, and the smallest key is named,
    # which is not the first of the set of classes
    g = support.star(-2, (-3, -5, -7))
    first = min(decomp.polypart_dual(g, duality_cut_vertices(g)))
    monkeypatch.setattr(swcore, "polypart_division", lambda g, subset: {})
    with pytest.raises(RouteDisagreement, match=re.escape(f"h={first}: ")):
        sw_norm_via_polypart(g)


def test_report_divides_once_per_class(monkeypatch, two_nodes):
    # each class's division value is its own P+(1), and that P+ is the one
    # its split component's certificate holds
    real = swcore.polypart_division
    divided = []

    def recorded(g, subset):
        divided.append(real(g, subset))
        return divided[-1]

    monkeypatch.setattr(swcore, "polypart_division", recorded)
    entries = tuple(sw_report(two_nodes))
    assert all(e.agree for e in entries) and len(divided) == 1
    polys = divided[0]
    assert list(polys.values()) == split_polyparts(two_nodes)
    assert [e.h for e in entries] == list(polys)
    for e in entries:
        assert e.values["division"] == evaluate_at_one(polys[e.h])


def test_report_divides_once_per_graph_and_never_splits(monkeypatch, two_nodes):
    calls = count_divisions(monkeypatch)
    assert all(e.agree for e in sw_report(two_nodes))
    assert calls == {"divide": 1, "split": 0}
    for method in ("duality", "lattice"):
        assert all(e.agree for e in sw_report(two_nodes, (method,)))
    assert calls == {"divide": 1, "split": 0}


def test_report_builds_no_ratfunc(monkeypatch, two_nodes):
    real = RatFunc.__post_init__
    built = []

    def counted(self):
        built.append(self.htag)
        real(self)

    monkeypatch.setattr(RatFunc, "__post_init__", counted)
    for g in (two_nodes, parse_graph(support.VALENCY4_TREE)):
        assert all(e.agree for e in sw_report(g))
    # the division route divides the split terms as sw_report does
    assert sw_norm_via_division(two_nodes) == {e.h: e.sw_norm_neg
                                               for e in sw_report(two_nodes)}
    assert built == []


def test_report_builds_one_fraction_per_class(monkeypatch):
    # Classes are scaled integer keys and the raw invariant is an integer
    # over 8 |H|^2, so sw_report builds fewer Fractions than one per class:
    # none at all, lattice included.  |H| = 1155.
    g = support.star(-2, (-6, -9, -13))
    real = Fraction.__new__
    built = 0

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    entries = list(sw_report(g, ("duality",)))
    monkeypatch.undo()
    assert len(entries) == 1155 and all(e.agree for e in entries)
    assert built == 0


def test_lattice_and_routes_build_no_fraction(monkeypatch):
    # The lattice holds scaled integers only, and the duality and lattice
    # routes cut and tally on them: no Fraction in the build, nor in either
    # all-classes route once the lattice is built.
    real = Fraction.__new__
    built = 0

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    def fractions_in(fn, g):
        nonlocal built
        built = 0
        monkeypatch.setattr(Fraction, "__new__", counted)
        try:
            fn(g)
        finally:
            monkeypatch.undo()
        return built

    graphs = [support.sigma257(), support.two_nodes(), support.three_nodes(),
              support.brieskorn(2, 3, 301)]
    for g in graphs:
        assert fractions_in(Lattice, g) == 0
        lattice_of(g)
        assert fractions_in(sw_via_lattice, g) == 0
        assert fractions_in(sw_norm_via_duality, g) == 0


def test_polypart_route_detects_division_mismatch(monkeypatch, sigma257):
    h0 = lattice_of(sigma257).zero_class
    real = swcore.polypart_division

    def crooked(*args):
        polys = real(*args)
        assert polys[h0]
        return dict.fromkeys(polys, {})

    monkeypatch.setattr(swcore, "polypart_division", crooked)
    with pytest.raises(RouteDisagreement, match=re.escape(f"h={h0}: ")):
        sw_norm_via_polypart(sigma257)
    entry, = sw_report(sigma257)
    assert "polypart" in entry.errors and "polypart" not in entry.values
    assert not entry.agree


def test_division_routes_divide_each_class_once(monkeypatch, two_nodes):
    # one division answers every class, with the P+(1) of its component
    want = [evaluate_at_one(poly) for poly in split_polyparts(two_nodes)]
    calls = count_divisions(monkeypatch)
    for route in (sw_norm_via_division, sw_norm_via_polypart):
        values = route(two_nodes)
        assert list(values) == list(all_classes(two_nodes))
        assert list(values.values()) == want
    assert calls == {"divide": 2, "split": 0}


def test_route_agreement_on_corpus(corpus30):
    for g in corpus30:
        duality = sw_norm_via_duality(g)
        polypart = sw_norm_via_polypart(g)
        lattice = sw_via_lattice(g) if lattice_of(g).node_idx else None
        for h in all_classes(g):
            assert polypart[h] == duality[h]
            if lattice is not None:
                assert lattice[h] == duality[h]


def test_route_agreement_on_high_valency_nodes():
    graphs = [parse_graph(support.VALENCY4_TREE), support.star(-1, (-3, -4, -5, -5))]
    graphs += [support.hub_tree(seed) for seed in support.HUB_SEEDS]
    # valency 4, |H| = 36: dividing every split component takes 1,197,909
    # heap pushes here, the one division over Z[H] that sw_report runs 6,966
    graphs.append(support.hub_tree(33))
    valencies = set()
    for g in graphs:
        lat = lattice_of(g)
        assert lat.h_order <= 60
        valencies.add(max(lat.deltas))
        for e in sw_report(g):
            assert not e.errors, (g, e)
            assert len(set(e.values.values())) == 1 and len(e.values) == 4, (g, e)
    assert valencies == {4, 5, 6}


def test_report_runs_its_routes_when_called(monkeypatch, two_nodes):
    # the routes run in the call, and each entry is built when it is reached
    ran = []
    monkeypatch.setattr(swcore, "polypart_dual", lambda g, subset: ran.append(g) or {
        h: {(0, 0): 4} for h in all_classes(g)})
    monkeypatch.setattr(swcore, "sw_raw", lambda g, h, norm: ran.append(h) or norm)
    entries = sw_report(two_nodes, ("duality",))
    assert ran == [two_nodes]
    first = next(entries)
    assert ran == [two_nodes, first.h] and first.raw == 4
    assert [e.h for e in entries] == list(all_classes(two_nodes))[1:]


def test_report_rejects_unknown_or_no_route(two_nodes):
    # raised by the call itself, before any entry is asked for
    with pytest.raises(ValueError, match="unknown route 'dualty'"):
        sw_report(two_nodes, ("dualty",))
    with pytest.raises(ValueError, match="unknown route 'dualty'"):
        sw_report(two_nodes, ("duality", "dualty"))
    with pytest.raises(ValueError, match="no route requested"):
        sw_report(two_nodes, ())


def test_quadratic_check_deterministic(sigma257):
    r1 = quadratic_check(sigma257, samples=4, seed=9)
    r2 = quadratic_check(sigma257, samples=4, seed=9)
    assert [s.lprime for s in r1.samples] == [s.lprime for s in r2.samples]
    assert isinstance(r1, QuadraticReport)


def test_full_variable_count_keeps_memory_flat(three_nodes, monkeypatch):
    # The counting walk memoizes only levels deeper than the number of live
    # coordinates, so the full-variable Q of quadratic_check stores no walk
    # state: about 10 KB here, where memoizing every level takes megabytes.
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            value = counting.Q(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return value

    monkeypatch.setattr(swcore, "Q", traced)
    assert quadratic_check(three_nodes, samples=1, seed=DEFAULT_SEED).ok
    assert len(peaks) == 1 and peaks[0] < 100_000


def test_division_report_holds_one_class_at_a_time():
    # The valency-4 reproducer (|H| = 7, 2 live nodes): multiplying out the
    # split of every class at once peaked at 1.83 MB under tracemalloc.
    # Each class's terms are built, divided and dropped in turn, and the
    # whole division route stays below 1 MB.
    g = parse_graph(support.VALENCY4_TREE)
    all_classes(g)
    tracemalloc.start()
    try:
        entries = tuple(sw_report(g, ("division",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries) == 7
    assert peak < 1_000_000


def test_duality_and_lattice_reports_keep_no_table_of_classes(monkeypatch):
    # star(-2; -6,-9,-13), |H| = 1155, of which 64 classes are non-zero.
    # From cold caches, a cached tuple of every class and each route's value
    # on every class peaked at 0.49-0.50 MB traced (Python 3.11); walking
    # the classes from the echelon basis, with tables of the non-zero values
    # only, at 0.17 MB (duality) and 0.05 MB (lattice).  Neither run
    # enumerates H into a table.
    g = support.star(-2, (-6, -9, -13))

    def refuse(g):
        raise AssertionError("all_classes was called")

    peaks = {}
    for method in ("duality", "lattice"):
        lattice.lattice_of.cache_clear()
        lattice.all_classes.cache_clear()
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "plumbsw" and hasattr(module, "all_classes"):
                    patch.setattr(module, "all_classes", refuse)
            gc.collect()
            tracemalloc.start()
            try:
                assert sum(e.agree for e in sw_report(g, (method,))) == 1155
                peaks[method] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert all(peak < 250_000 for peak in peaks.values()), peaks
