"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with ``pytest tests/test_acceptance.py -s`` to see them).
All checks are exact; the runtime budgets are asserted."""
import random
import time
from fractions import Fraction

import support
from support import anti_duals, vec_add, vec_scale, z_k_minus_e
from plumbsw.counting import inclusion_exclusion_check
from plumbsw.decomp import euclid_divide, evaluate_at_one, poly_live, polypart_dual
from plumbsw.lattice import all_classes, canonical_cycle, class_of, e_star, l_top, lattice_of
from plumbsw.polytopes import (PolytopeQuery, count, sw_via_lattice,
                               sw_via_topological_polytope)
from plumbsw.series import Cobox, equivariant_split, reduce, taylor_infinity, zeta
from plumbsw.swcore import (duality_cut_vertices, quadratic_check,
                            sw_norm_via_division, sw_norm_via_duality,
                            sw_norm_via_polypart)

SIGMA257_NEG_INV = [
    [70, 35, 14, 20, 10],
    [35, 18, 7, 10, 5],
    [14, 7, 3, 4, 2],
    [20, 10, 4, 6, 3],
    [10, 5, 2, 3, 2],
]


class budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def ilive(m):
    return {tuple(int(x) for x in e): c for e, c in m.items()}


def test_criterion_1_sigma_2_5_7():
    with budget("1 sigma(2,5,7)", 1.0):
        g = support.sigma257()
        assert [[int(x) for x in e_star(g, v)] for v in g.ids] == SIGMA257_NEG_INV
        assert tuple(int(x) for x in canonical_cycle(g)) == (12, 6, 3, 4, 2)

        R = reduce(zeta(g), ["E1"])
        lat = lattice_of(g)
        num = {int(lat.unscaled(b)[0]): c for b, c in R.numerator.items()}
        assert num == {0: 1, 70: -1}
        assert sorted(int(lat.unscaled(a)[0]) for a in R.denominator) == [10, 14, 35]

        h0 = lattice_of(g).zero_class
        div = euclid_divide(equivariant_split(R)[h0])
        dual = polypart_dual(g, ["E1"])[h0]
        assert ilive(poly_live(lat, div.poly)) == ilive(poly_live(lat, dual)) == {
            (1,): 1, (11,): 1}

        assert sw_norm_via_duality(g) == {h0: 2}
        assert sw_norm_via_polypart(g) == {h0: 2}
        assert sw_norm_via_division(g) == {h0: 2}
        assert sw_via_lattice(g) == {h0: 2}
        assert sw_via_topological_polytope(g, h0) == 2


def test_criterion_2_two_node_example():
    with budget("2 two nodes, H=Z3", 30.0):
        g = support.two_nodes()
        lat = lattice_of(g)
        assert lat.h_order == 3
        zero = lat.zero_class
        zk = canonical_cycle(g)
        assert class_of(g, zk) == zero

        iv1, iv2 = g.index("v1"), g.index("v2")
        assert (zk[iv1], zk[iv2]) == (14, 14)
        lt = l_top(g)
        assert (lt[iv1], lt[iv2]) == (78, 78)

        # node linear forms over the ends, exactly in declared end order
        # (and hence in particular up to end-coordinate permutation)
        ends = [g.ids[i] for i in lat.end_idx]
        forms = {v: tuple(int(e_star(g, w)[g.index(v)]) for w in ends)
                 for v in ("v1", "v2")}
        assert forms == {"v1": (33, 6, 22, 4), "v2": (6, 33, 4, 22)}

        h1 = class_of(g, e_star(g, "w3"))
        h2 = class_of(g, vec_add(h1.rep, h1.rep))
        N = ("v1", "v2")
        assert ilive(support.reflected_polypart(g, zero, N)) == {
            (0, 0): 1, (33, 6): 1, (6, 33): 1, (66, 12): 1, (12, 66): 1}
        assert ilive(support.reflected_polypart(g, h1, N)) == {
            (4, 22): 1, (44, 8): 1, (10, 55): 1}
        assert ilive(support.reflected_polypart(g, h2, N)) == {
            (22, 4): 1, (8, 44): 1, (55, 10): 1}
        assert ilive(poly_live(lattice_of(g), polypart_dual(g, N)[zero])) == {
            (1, -53): 1, (-53, 1): 1, (7, -20): 1, (-20, 7): 1, (13, 13): 1}

        want = {zero: 5, h1: 3, h2: 3}
        assert sw_norm_via_duality(g) == want
        assert sw_norm_via_polypart(g) == want
        assert sw_via_lattice(g) == want


def test_criterion_3_three_node_example():
    with budget("3 three nodes, counts", 60.0):
        g = support.three_nodes()
        lat = lattice_of(g)
        order = [("v1",), ("v2",), ("v3",), ("v1", "v2"), ("v2", "v3"),
                 ("v1", "v3"), ("v1", "v2", "v3")]
        got = []
        for subset in order:
            dil = [Fraction(0)] * g.n
            for v in subset:
                dil = vec_add(dil, e_star(g, v))
            fiber = class_of(g, dil)
            got.append(count(g, PolytopeQuery("concave", subset, tuple(dil),
                                              "closed", "positive", fiber)))
        assert got == [0, 0, 0, 1, 0, 1, 15]
        assert sw_via_lattice(g)[lat.zero_class] == 13


def test_criterion_4_property_suite():
    with budget("4 randomized property suite", 600.0):
        graphs = support.corpus()
        assert len(graphs) >= 30
        assert all(g.n <= 8 and lattice_of(g).h_order <= 12 for g in graphs)
        rng = random.Random(support.CORPUS_SEED)
        for k, g in enumerate(graphs):
            lat = lattice_of(g)
            estar, zkme = anti_duals(g), z_k_minus_e(g)
            cut = duality_cut_vertices(g)

            # (f) canonical cycle identity
            acc = [Fraction(0)] * g.n
            for i, mu in enumerate(lat.mults):
                acc = vec_add(acc, vec_scale(mu, estar[i]))
            assert tuple(acc) == zkme

            # (a) coefficient symmetry through the expansion at infinity
            for live in {tuple(g.ids), tuple(cut)}:
                active = sorted(g.index(v) for v in live)
                w = Cobox(tuple(zkme[i] - 2 for i in active))
                closed_form = taylor_infinity(zeta(g), w, subset=live)
                rewritten = taylor_infinity(reduce(zeta(g), live), w)
                assert closed_form.terms == rewritten.terms

            # (b) inclusion-exclusion at random cuts and classes
            for _ in range(3):
                size = rng.randint(1, min(3, g.n))
                subset = tuple(sorted(rng.sample(g.ids, size)))
                x = [Fraction(0)] * g.n
                for i in range(g.n):
                    x = vec_add(x, vec_scale(rng.randint(0, 2), estar[i]))
                h = class_of(g, x)
                assert inclusion_exclusion_check(g, h, subset, x)

            # (c) division vs duality and (d) route agreement, every class
            duality = sw_norm_via_duality(g)
            duals = polypart_dual(g, cut)
            split = equivariant_split(reduce(zeta(g), cut))
            lattice = sw_via_lattice(g) if lat.node_idx else None
            # the P+ table holds the classes whose P+ is non-zero only
            assert all(duals.values())
            for h in all_classes(g):
                a = duality[h]
                div = euclid_divide(split[h])
                assert div.poly == duals.get(h, {})
                assert evaluate_at_one(div.poly) == a
                if lattice is not None:
                    assert lattice[h] == a

            # (e) quadratic consistency on deep samples
            assert quadratic_check(g, samples=3, seed=1000 + k).ok


def test_criterion_5_brieskorn_family():
    for pqr in [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5)]:
        with budget(f"5 brieskorn {pqr}", 30.0):
            g = support.brieskorn(*pqr)
            h0 = lattice_of(g).zero_class
            top = sw_via_topological_polytope(g, h0)
            # the route tables hold non-zero classes only: read each class
            assert all_classes(g) == (h0,)
            for route in (sw_norm_via_duality, sw_norm_via_polypart, sw_via_lattice):
                assert route(g)[h0] == top
