"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with ``pytest tests/test_acceptance.py -s`` to see them).
All checks are exact; the runtime budgets are asserted."""
import random
import time
from fractions import Fraction

import support
from plumbsw.counting import inclusion_exclusion_check
from plumbsw.decomp import euclid_divide, evaluate_at_one, f_h, polypart_dual
from plumbsw.lattice import (all_classes, canonical_cycle, class_add,
                             class_of, e_star, intersection_data, l_top,
                             lattice_of, vec_add, vec_scale)
from plumbsw.polytopes import (PolytopeQuery, count, sw_via_lattice,
                               sw_via_topological_polytope)
from plumbsw.series import Cobox, reduce, taylor_infinity, zeta
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
        _, neg_inv, _ = intersection_data(g)
        assert [[int(x) for x in row] for row in neg_inv] == SIGMA257_NEG_INV
        assert tuple(int(x) for x in canonical_cycle(g)) == (12, 6, 3, 4, 2)

        R = reduce(zeta(g), ["E1"])
        lat = lattice_of(g)
        num = {int(lat.unscaled(b)[0]): c for b, c in R.numerator.items()}
        assert num == {0: 1, 70: -1}
        assert sorted(int(lat.unscaled(a)[0]) for a in R.denominator) == [10, 14, 35]

        h0 = lattice_of(g).zero_class
        div = euclid_divide(f_h(g, h0, ["E1"]))
        dual = polypart_dual(g, h0, ["E1"])
        assert ilive(div.poly_live()) == ilive(dual.poly_live()) == {(1,): 1, (11,): 1}

        assert sw_norm_via_duality(g, h0) == 2
        assert sw_norm_via_polypart(g, h0) == 2
        assert sw_norm_via_division(g, h0) == 2
        assert sw_via_lattice(g, h0) == 2
        assert sw_via_topological_polytope(g, h0) == 2


def test_criterion_2_two_node_example():
    with budget("2 two nodes, H=Z3", 30.0):
        g = support.two_nodes()
        lat = lattice_of(g)
        assert lat.h_order == 3
        zero = lat.zero_class
        assert class_of(g, lat.z_k) == zero

        iv1, iv2 = g.index("v1"), g.index("v2")
        assert (lat.z_k[iv1], lat.z_k[iv2]) == (14, 14)
        lt = l_top(g)
        assert (lt[iv1], lt[iv2]) == (78, 78)

        # node linear forms over the ends, exactly in declared end order
        # (and hence in particular up to end-coordinate permutation)
        ends = [g.ids[i] for i in lat.end_idx]
        forms = {v: tuple(int(lat.estar[g.index(w)][g.index(v)]) for w in ends)
                 for v in ("v1", "v2")}
        assert forms == {"v1": (33, 6, 22, 4), "v2": (6, 33, 4, 22)}

        h1 = class_of(g, e_star(g, "w3"))
        h2 = class_add(h1, h1)
        N = ("v1", "v2")
        assert ilive(support.reflected_polypart(g, zero, N)) == {
            (0, 0): 1, (33, 6): 1, (6, 33): 1, (66, 12): 1, (12, 66): 1}
        assert ilive(support.reflected_polypart(g, h1, N)) == {
            (4, 22): 1, (44, 8): 1, (10, 55): 1}
        assert ilive(support.reflected_polypart(g, h2, N)) == {
            (22, 4): 1, (8, 44): 1, (55, 10): 1}
        assert ilive(polypart_dual(g, zero, N).poly_live()) == {
            (1, -53): 1, (-53, 1): 1, (7, -20): 1, (-20, 7): 1, (13, 13): 1}

        for h, want in ((zero, 5), (h1, 3), (h2, 3)):
            assert sw_norm_via_duality(g, h) == want
            assert sw_norm_via_polypart(g, h) == want
            assert sw_via_lattice(g, h) == want


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
        assert sw_via_lattice(g, lat.zero_class) == 13


def test_criterion_4_property_suite():
    with budget("4 randomized property suite", 600.0):
        graphs = support.corpus()
        assert len(graphs) >= 30
        assert all(g.n <= 8 and lattice_of(g).h_order <= 12 for g in graphs)
        rng = random.Random(support.CORPUS_SEED)
        for k, g in enumerate(graphs):
            lat = lattice_of(g)
            cut = duality_cut_vertices(g)

            # (f) canonical cycle identity
            acc = [Fraction(0)] * g.n
            for i, mu in enumerate(lat.mults):
                acc = vec_add(acc, vec_scale(mu, lat.estar[i]))
            assert tuple(acc) == lat.z_k_me

            # (a) coefficient symmetry through the expansion at infinity
            for live in {tuple(g.ids), tuple(cut)}:
                active = sorted(g.index(v) for v in live)
                w = Cobox(tuple(lat.z_k_me[i] - 2 for i in active))
                closed_form = taylor_infinity(zeta(g), w, subset=live)
                rewritten = taylor_infinity(reduce(zeta(g), live), w)
                assert closed_form.terms == rewritten.terms

            # (b) inclusion-exclusion at random cuts and classes
            for _ in range(3):
                size = rng.randint(1, min(3, g.n))
                subset = tuple(sorted(rng.sample(g.ids, size)))
                x = [Fraction(0)] * g.n
                for i in range(g.n):
                    x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
                h = class_of(g, x)
                assert inclusion_exclusion_check(g, h, subset, x)

            # (c) division vs duality and (d) route agreement, every class
            for h in all_classes(g):
                a = sw_norm_via_duality(g, h)
                dual = polypart_dual(g, h, cut)
                div = euclid_divide(f_h(g, h, cut))
                assert div.poly_live() == dual.poly_live()
                assert evaluate_at_one(dual.poly) == a
                if lat.node_idx:
                    assert sw_via_lattice(g, h) == a

            # (e) quadratic consistency on deep samples
            assert quadratic_check(g, samples=3, seed=1000 + k).ok


def test_criterion_5_brieskorn_family():
    for pqr in [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5)]:
        with budget(f"5 brieskorn {pqr}", 30.0):
            g = support.brieskorn(*pqr)
            h0 = lattice_of(g).zero_class
            top = sw_via_topological_polytope(g, h0)
            assert top == sw_norm_via_duality(g, h0)
            assert top == sw_norm_via_polypart(g, h0)
            assert top == sw_via_lattice(g, h0)
