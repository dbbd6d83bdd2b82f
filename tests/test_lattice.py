import random
import re
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from plumbsw import lattice
from plumbsw.graph import (PlumbingGraph, parse_graph, rooting, tree_adjugate, tree_elimination,
                           validate)
from plumbsw.lattice import (Lattice, LatticeError, all_classes, canonical_cycle, class_of,
                             e_star, format_vec, iter_classes, l_top, lattice_of)
from support import (anti_duals, definite_adjugate, end_combination, intersection_matrix,
                     neg_intersection_matrix, vec_add, vec_scale, z_k_minus_e)

SIGMA257_NEG_INV = [
    [70, 35, 14, 20, 10],
    [35, 18, 7, 10, 5],
    [14, 7, 3, 4, 2],
    [20, 10, 4, 6, 3],
    [10, 5, 2, 3, 2],
]


def _det_oracle(m):
    # cofactor expansion; independent of the solver under test
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det_oracle(minor)
    return total


def _random_symmetric(rng, n, definite):
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if not definite:
        return [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)]


def test_definite_adjugate_on_positive_definite_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _random_symmetric(rng, n, definite=True)
        det, adj = definite_adjugate(m)
        assert det == _det_oracle(m)
        for i in range(n):
            for j in range(n):
                assert sum(m[i][k] * adj[k][j] for k in range(n)) == (det if i == j else 0)


def test_definite_adjugate_names_first_bad_minor():
    rng = random.Random(8)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        m = _random_symmetric(rng, n, definite=False)
        minors = [_det_oracle([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        bad = next((k for k, minor in enumerate(minors, start=1) if minor <= 0), None)
        result = definite_adjugate(m)
        if bad is None:
            assert result[0] == minors[-1]
        else:
            seen.add(bad)
            assert result == f"leading principal minor {bad} is not positive"
    assert len(seen) >= 3
    # validate names the vertex whose branch fails, seen from the first
    # vertex: b's alone (minor 1 above), or a's, the whole tree (minor 2)
    for text, v in (("vertex a 2\nvertex b 2\nedge a b\n", "b"),
                    ("vertex a -1\nvertex b -1\nedge a b\n", "a")):
        check = dict((name, (ok, detail)) for name, ok, detail in
                     validate(parse_graph(text)).checks)["negative definite"]
        assert check == (False, f"not negative definite on the branch at vertex {v}")


def branch(g, v):
    """v and the vertices beyond it, seen from the first declared vertex."""
    if v == g.ids[0]:
        return set(g.ids)
    reached = {g.ids[0]}
    stack = [g.ids[0]]
    while stack:
        u = stack.pop()
        for w in (b if a == u else a for a, b in g.edges if u in (a, b)):
            if w != v and w not in reached:
                reached.add(w)
                stack.append(w)
    return set(g.ids) - reached


@st.composite
def long_leg_trees(draw):
    """A random tree of up to 8 vertices with up to four legs (chains) of
    up to 50 vertices hung from it, at most 60 vertices in all, declared
    in a shuffled order.  Euler numbers are -2 to -4, but for up to three
    vertices of -1 or 0, which make some of the trees not negative
    definite."""
    core = draw(st.integers(1, 8))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, core)]
    for at, length in draw(st.lists(st.tuples(st.integers(0, core - 1),
                                              st.integers(1, 50)), max_size=4)):
        for _ in range(min(length, 60 - len(parent))):
            parent.append(at)
            at = len(parent) - 1
    n = len(parent)
    eulers = draw(st.lists(st.sampled_from((-2, -2, -2, -3, -4)), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        eulers[i] = draw(st.sampled_from((-1, -1, 0)))
    perm = draw(st.permutations(range(n)))
    ids = tuple(f"v{i}" for i in perm)
    return PlumbingGraph(ids, tuple(eulers[i] for i in perm), frozenset(
        (f"v{p}", f"v{i}") for i, p in enumerate(parent) if p is not None))


@settings(max_examples=60, deadline=None)
@given(long_leg_trees())
def test_tree_elimination_equals_bareiss(g):
    ref = definite_adjugate(neg_intersection_matrix(g))
    elim = tree_elimination(g, *rooting(g))
    if isinstance(ref, str):
        v = re.fullmatch(r"not negative definite on the branch at vertex (\w+)", elim)[1]
        assert isinstance(definite_adjugate(neg_intersection_matrix(g, branch(g, v))), str)
        with pytest.raises(LatticeError, match=f"^intersection matrix is {elim}$"):
            Lattice(g)
    else:
        d, steps = elim
        assert (d, tree_adjugate(steps)) == ref
        lat = Lattice(g)
        assert (lat.h_order, lat.sestar) == ref


@settings(max_examples=60, deadline=None)
@given(long_leg_trees())
def test_lattice_reads_the_tree_and_z_k_off_the_elimination(g):
    # the valencies against a second reader of the graph, Z_K against the
    # dense product -adj(-I) (e + 2), and the edges against the graph's own
    ref = definite_adjugate(neg_intersection_matrix(g))
    assume(not isinstance(ref, str))
    lat = Lattice(g)
    nodes, ends, val = support.classify_vertices(g)
    assert lat.deltas == tuple(val[v] for v in g.ids)
    assert lat.mults == tuple(val[v] - 2 for v in g.ids)
    assert lat.node_idx == tuple(map(g.index, nodes))
    assert lat.end_idx == tuple(map(g.index, ends))
    rhs = [e + 2 for e in g.eulers]
    assert lat.sz_k == tuple(-sum(map(mul, row, rhs)) for row in ref[1])
    assert len(lat.edge_idx) == len(g.edges)
    assert {frozenset(g.ids[i] for i in e) for e in lat.edge_idx} == set(map(frozenset, g.edges))


def test_neg_inverse_matches_printed_matrix(sigma257):
    assert [[int(x) for x in e_star(sigma257, v)] for v in sigma257.ids] == SIGMA257_NEG_INV


def test_h_order_sigma257_via_determinant_oracle(sigma257):
    assert _det_oracle(neg_intersection_matrix(sigma257)) == 1
    assert lattice_of(sigma257).h_order == 1


def test_h_order_two_nodes(two_nodes):
    assert lattice_of(two_nodes).h_order == 3


def test_e_star_column_and_duality(sigma257):
    assert tuple(int(x) for x in e_star(sigma257, "E1")) == (70, 35, 14, 20, 10)
    n, lat = sigma257.n, lattice_of(sigma257)
    for v in sigma257.ids:
        col = e_star(sigma257, v)
        assert all(x > 0 for x in col)
        for j, w in enumerate(sigma257.ids):
            unit = tuple(Fraction(int(k == j)) for k in range(n))
            expected = -1 if v == w else 0
            assert lat.form(col, unit) == expected


def test_e_star_unknown_vertex(sigma257):
    with pytest.raises(KeyError):
        e_star(sigma257, "nope")


def test_pairing_diagonal_is_euler(sigma257, two_nodes):
    for g in (sigma257, two_nodes):
        for j, e in enumerate(g.eulers):
            unit = tuple(Fraction(int(k == j)) for k in range(g.n))
            assert lattice_of(g).form(unit, unit) == e


def test_form_and_image_refuse_a_vector_of_the_wrong_length(sigma257):
    lat = lattice_of(sigma257)
    for x, y in (((1, 2), (1, 2, 3, 4, 5)), ((1, 2, 3, 4, 5), (1, 2)), ((0,) * 6, (0,) * 5)):
        with pytest.raises(LatticeError, match=r"^a vector of [26] entries for 5 vertices$"):
            lat.form(x, y)
    for x in ((), (1, 2), (0,) * 6):
        with pytest.raises(LatticeError, match=f"^a vector of {len(x)} entries for 5 vertices$"):
            lat.image(x)


def test_pairing_zk_regression(sigma257):
    zk = canonical_cycle(sigma257)
    imat = intersection_matrix(sigma257)
    # oracle: plain matrix product x^T I x
    ix = [sum(imat[i][j] * zk[j] for j in range(5)) for i in range(5)]
    byhand = sum(zk[i] * ix[i] for i in range(5))
    assert byhand == -5
    assert lattice_of(sigma257).form(zk, zk) == -5


def test_canonical_cycle_values(sigma257, two_nodes):
    assert tuple(int(x) for x in canonical_cycle(sigma257)) == (12, 6, 3, 4, 2)
    lat = lattice_of(two_nodes)
    zk = canonical_cycle(two_nodes)
    iv1, iv2 = two_nodes.index("v1"), two_nodes.index("v2")
    assert (zk[iv1], zk[iv2]) == (14, 14)
    lt = l_top(two_nodes)
    assert (lt[iv1], lt[iv2]) == (78, 78)
    assert lat.h_order == 3


def test_canonical_cycle_single_minus_two():
    g = parse_graph("vertex a -2")
    assert canonical_cycle(g) == (Fraction(0),)


def test_adjunction_relations(corpus30):
    for g in corpus30[:8]:
        zk = canonical_cycle(g)
        for j, e in enumerate(g.eulers):
            unit = tuple(Fraction(int(k == j)) for k in range(g.n))
            assert lattice_of(g).form(zk, unit) == e + 2


def test_zk_identity_everywhere(corpus30, sigma257, two_nodes, three_nodes):
    # Z_K - E equals the weighted sum of anti-duals with weights valency - 2
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        lat = lattice_of(g)
        estar = anti_duals(g)
        acc = [Fraction(0)] * g.n
        for i, mu in enumerate(lat.mults):
            acc = vec_add(acc, vec_scale(mu, estar[i]))
        assert tuple(acc) == z_k_minus_e(g)


def test_l_top_node_form(corpus30, sigma257, two_nodes, three_nodes):
    # alternative evaluation over the nodes only (graphs with >= 2 vertices)
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        lat = lattice_of(g)
        estar = anti_duals(g)
        acc = [Fraction(0)] * g.n
        for i in lat.node_idx:
            acc = vec_add(acc, vec_scale(lat.mults[i], estar[i]))
        assert tuple(acc) == l_top(g)


def test_combination_matches_fraction_reference(corpus30, two_nodes):
    # the scaled sum_i c_i E*_i against the Fraction anti-duals, with negative
    # and repeated coefficients; no terms give the zero vector
    for g in list(corpus30[:10]) + [two_nodes]:
        lat = lattice_of(g)
        estar = anti_duals(g)
        terms = [(i, (-1) ** i * (i + 2)) for i in range(g.n)] + [(0, 3)]
        acc = [Fraction(0)] * g.n
        for i, c in terms:
            acc = vec_add(acc, vec_scale(c, estar[i]))
        assert lat.combination(terms) == lat.scaled(acc)
        assert lat.combination([]) == (0,) * g.n


def test_class_of_zero_and_errors(sigma257):
    zero = class_of(sigma257, [0] * 5)
    assert zero.rep == (0, 0, 0, 0, 0)
    with pytest.raises(LatticeError):
        class_of(sigma257, [Fraction(1, 3)] + [0] * 4)


def test_two_node_classes(two_nodes):
    zero = lattice_of(two_nodes).zero_class
    assert class_of(two_nodes, canonical_cycle(two_nodes)) == zero
    assert class_of(two_nodes, e_star(two_nodes, "v1")) == zero
    assert class_of(two_nodes, e_star(two_nodes, "v2")) == zero
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    assert h1 != zero
    assert set(all_classes(two_nodes)) == {zero, h1, class_of(two_nodes, vec_add(h1.rep, h1.rep))}


def test_rho_values(two_nodes):
    # rho(x), the class of sum_e x_e E*_e over the ends
    def rho(x):
        return class_of(two_nodes, end_combination(two_nodes, x))

    zero = lattice_of(two_nodes).zero_class
    assert rho((0, 0, 0, 0)) == zero
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    assert rho((0, 0, 1, 0)) == h1
    for pt in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0),
               (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]:
        assert rho(pt) == zero


def test_class_shift_invariance(corpus30):
    rng = random.Random(3)
    for g in corpus30[:6]:
        estar = anti_duals(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 3), estar[i]))
        shift = tuple(rng.randint(-2, 2) for _ in range(g.n))
        assert class_of(g, x) == class_of(g, vec_add(x, shift))


def test_class_group_structure(corpus30):
    for g in corpus30[:5]:
        classes = all_classes(g)
        assert len(classes) == lattice_of(g).h_order
        zero = lattice_of(g).zero_class
        for h in classes:
            minus = class_of(g, vec_scale(-1, h.rep))
            assert minus in classes
            assert class_of(g, vec_add(h.rep, minus.rep)) == zero
            assert class_of(g, vec_add(h.rep, zero.rep)) == h


def test_dual_coordinate_denominators_divide_h_order(corpus30):
    for g in corpus30[:10]:
        lat = lattice_of(g)
        for col in anti_duals(g) + (canonical_cycle(g), l_top(g)):
            assert all(lat.h_order % x.denominator == 0 for x in col)


def test_anti_dual_entries_strictly_positive(corpus30):
    for g in corpus30:
        for col in anti_duals(g):
            assert all(x > 0 for x in col)


def test_reachable_classes_exhaustively_small():
    # literal product-set check on a small chain: classes of all
    # combinations sum a_v E*_v with 0 <= a_v < |H|
    g = support.chain([-2, -3, -2])
    lat = lattice_of(g)
    estar = anti_duals(g)
    d = lat.h_order
    assert d == 8
    seen = set()
    for a0 in range(d):
        for a1 in range(d):
            for a2 in range(d):
                x = [Fraction(0)] * 3
                for c, i in ((a0, 0), (a1, 1), (a2, 2)):
                    x = vec_add(x, vec_scale(c, estar[i]))
                seen.add(class_of(g, x))
    assert len(seen) == d
    assert seen == set(all_classes(g))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=5, max_size=5),
       st.lists(st.integers(-30, 30), min_size=5, max_size=5))
def test_class_of_is_homomorphism(xs, ys):
    g = support.sigma257()
    estar = anti_duals(g)
    x = [Fraction(0)] * 5
    y = [Fraction(0)] * 5
    for i in range(5):
        x = vec_add(x, vec_scale(xs[i], estar[i]))
        y = vec_add(y, vec_scale(ys[i], estar[i]))
    assert class_of(g, vec_add(x, y)).rep == support.reference_class_add(class_of(g, x).rep,
                                                                         class_of(g, y).rep)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_class_rep_in_unit_box(xs):
    g = support.chain([-2, -3, -2])
    estar = anti_duals(g)
    x = [Fraction(0)] * 3
    for i in range(3):
        x = vec_add(x, vec_scale(xs[i], estar[i]))
    h = class_of(g, x)
    assert all(0 <= c < 1 for c in h.rep)
    assert class_of(g, h.rep) == h


def test_lattice_rejects_indefinite_and_disconnected():
    # det(-I) = 3 > 0 without -I being positive definite, and two
    # components, each negative definite
    for text in ("vertex a 2\nvertex b 2\nedge a b\n", "vertex a -2\nvertex b -2\n"):
        with pytest.raises(LatticeError):
            lattice_of(parse_graph(text))


def test_lattice_rejects_a_graph_with_a_cycle():
    # connected and negative definite, with 3 edges for 3 vertices: the tree
    # check of validate fails, definiteness is checked on trees only, and
    # the lattice refuses it
    g = parse_graph("vertex a -3\nvertex b -3\nvertex c -3\n"
                    "edge a b\nedge b c\nedge a c\n")
    assert validate(g).checks == (
        ("connected", True, ""), ("tree", False, "3 edges for 3 vertices"),
        ("negative definite", False, "not checked"))
    with pytest.raises(LatticeError, match="^graph is not a tree: 3 edges for 3 vertices$"):
        lattice_of(g)


# A refused graph's error, written from validate's first failing check.
REFUSALS = {"connected": "{}", "tree": "graph is not a tree: {}",
            "negative definite": "intersection matrix is {}"}


@settings(max_examples=120, deadline=None)
# random draws seldom split off a component while closing a cycle: this one
# leaves a triangle beside an isolated vertex, n - 1 edges and no tree
@example(0, 4, [("remove", 0, -1), ("add", 3, -1)])
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
       st.lists(st.tuples(st.sampled_from(("remove", "add", "euler")), st.integers(0, 99),
                          st.sampled_from((-1, 0))), max_size=3))
def test_lattice_builds_exactly_when_validate_passes(seed, n, mutations):
    """On random trees and on mutations of them (an edge removed, an edge
    added, an Euler number set to -1 or 0), the lattice builds exactly on
    the graphs validate passes, and refuses the others with the first
    failing check's text; every failing check has a detail."""
    g = support.random_graph(random.Random(seed), n)
    for kind, pick, euler in mutations:
        absent = [(a, b) for i, a in enumerate(g.ids) for b in g.ids[i + 1:]
                  if (a, b) not in g.edges]
        if kind == "remove" and g.edges:
            g = g._replace(edges=g.edges - {sorted(g.edges)[pick % len(g.edges)]})
        elif kind == "add" and absent:
            g = g._replace(edges=g.edges | {absent[pick % len(absent)]})
        elif kind == "euler":
            g = g._replace(eulers=tuple(euler if i == pick % n else e
                                        for i, e in enumerate(g.eulers)))
    report = validate(g)
    assert all(detail for _, passed, detail in report.checks if not passed)
    try:
        lat = lattice_of(g)
    except LatticeError as exc:
        assert not report.ok
        name, _, detail = next(check for check in report.checks if not check[1])
        assert str(exc) == REFUSALS[name].format(detail)
    else:
        assert report.ok
        assert report.elimination == tree_elimination(g, *rooting(g))
        assert lat.h_order == report.elimination[0]


def test_key_classes_match_fraction_reference(corpus30):
    """The scaled key layer against the Fraction formulas it replaced, on
    every class: the same order, reps, printed classes, sums and negations,
    and class_of on shifted vectors and off L'."""
    graphs = [*corpus30, support.sigma257(), support.two_nodes(), support.three_nodes(),
              support.star(-2, (-6, -9, -13))]
    rng = random.Random(8)
    for g in graphs:
        lat = lattice_of(g)
        d = lat.h_order
        zero = tuple(Fraction(0) for _ in range(g.n))
        gens = [support.reference_class_rep(g, col) for col in anti_duals(g)]
        seen, frontier = {zero}, [zero]
        while frontier:
            r = frontier.pop()
            for gen in gens:
                nxt = support.reference_class_add(r, gen)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        classes = all_classes(g)
        assert [h.rep for h in classes] == sorted(seen)
        partners = classes if d <= 12 else rng.sample(classes, 3)
        for h in classes:
            assert str(h) == format_vec(h.rep)
            assert class_of(g, vec_scale(-1, h.rep)).rep == support.reference_class_neg(h.rep)
            for k in partners:
                assert (class_of(g, vec_add(h.rep, k.rep)).rep
                        == support.reference_class_add(h.rep, k.rep))
            shift = [rng.randint(-3, 3) for _ in range(g.n)]
            shift[rng.randrange(g.n)] = -2
            shift[rng.randrange(g.n)] = 2
            x = vec_add(h.rep, shift)
            assert support.reference_class_rep(g, x) == h.rep
            assert class_of(g, x) == h
        # Off L': a coordinate outside (1/d)Z, and (for d > 1, on a vertex
        # with a neighbour) the coordinate 1/d, which only the L' check sees.
        for offset in (Fraction(1, 2 * d), Fraction(1, d)):
            if offset.denominator == 1:
                continue
            x = vec_add(classes[-1].rep, (offset,) + (0,) * (g.n - 1))
            for classify in (class_of, support.reference_class_rep):
                with pytest.raises(LatticeError, match="is not in the dual lattice"):
                    classify(g, x)


def in_dual_lattice(g, x) -> bool:
    """Whether ``class_of`` takes x: x lies on the 1/|H| grid
    (``Lattice.scaled``) and in L' (``Lattice.class_at``).  Off the grid
    or on it but outside L', the error text is the same."""
    try:
        class_of(g, x)
    except LatticeError as exc:
        assert str(exc) == f"{format_vec(x)} is not in the dual lattice"
        return False
    return True


def test_in_dual_lattice_matches_fraction_reference(corpus30):
    """The integer L' test against the Fraction formula it replaced, on
    vectors on and off the 1/|H| grid: anti-dual combinations shifted by
    integers (in L'), the same shifted by 1/|H| on one coordinate (on the
    grid, mostly not in L'), and random entries with other denominators."""
    graphs = [*corpus30, support.sigma257(), support.two_nodes(), support.three_nodes(),
              support.star(-2, (-6, -9, -13))]
    rng = random.Random(31)
    verdicts = set()
    for g in graphs:
        lat = lattice_of(g)
        d = lat.h_order
        for _ in range(12):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(g.n)]
            for col in anti_duals(g):
                x = vec_add(x, vec_scale(rng.randint(-2, 2), col))
            nudged = list(x)
            nudged[rng.randrange(g.n)] += Fraction(1, d)
            den = rng.choice([2, 3, 5, 7, 2 * d, d + 1])
            loose = [Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(g.n)]
            ints = [rng.randint(-9, 9) for _ in range(g.n)]
            for y in (x, nudged, loose, ints):
                want = support.reference_in_dual_lattice(g, y)
                assert in_dual_lattice(g, y) == want
                verdicts.add((want, all(c * d == int(c * d) for c in y)))
    assert verdicts == {(True, True), (False, True), (False, False)}
    g = support.sigma257()
    for x in ((0,) * 4, (0,) * 6):
        assert not in_dual_lattice(g, x)


# The four stars of the benchmark's wide-h workload, |H| = 988, 891, 656, 1155.
WIDE_H_STARS = ((-3, (-5, -7, -11)), (-2, (-3, -13, -15)), (-2, (-5, -6, -14)),
                (-2, (-6, -9, -13)))


def test_iter_classes_matches_bfs_reference(corpus30):
    stars = [support.star(c, legs) for c, legs in WIDE_H_STARS]
    assert [lattice_of(g).h_order for g in stars] == [988, 891, 656, 1155]
    graphs = [support.sigma257(), support.two_nodes(), support.three_nodes(),
              support.hub_tree(33), *corpus30, *stars]
    graphs += [support.d_graph(n) for n in range(4, 11)]
    graphs += [parse_graph(f"vertex a {-n}") for n in (1, 2, 12, 20000)]
    for g in graphs:
        keys = [h.key for h in iter_classes(g)]
        assert keys == support.reference_classes(g), g
        assert all_classes(g) == tuple(iter_classes(g))


def test_d_graph_classes_are_not_cyclic_for_even_n():
    # D_n: H = (Z/2)^2 for even n, where twice every class is 0 and the
    # basis needs two levels; Z/4 for odd n
    for n in range(4, 11):
        g = support.d_graph(n)
        lat = lattice_of(g)
        keys = [h.key for h in iter_classes(g)]
        assert lat.h_order == len(keys) == 4
        assert all(2 * k % 4 == 0 for key in keys for k in key) == (n % 2 == 0)
        if n % 2 == 0:
            assert len(lat.class_levels) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
def test_iter_classes_matches_bfs_on_random_trees(seed, n):
    g = support.random_graph(random.Random(seed), n)
    assume(validate(g).ok)
    assume(lattice_of(g).h_order <= 5000)
    assert [h.key for h in iter_classes(g)] == support.reference_classes(g)


def test_class_levels_refuse_anti_duals_that_span_too_few(monkeypatch):
    # Keep only some anti-duals: on D4 (H = (Z/2)^2) one end's spans 2 of the
    # 4 classes; on two_nodes_h3 (|H| = 3) v1's and v2's are the zero class.
    for g, kept, spanned in ((support.d_graph(4), ("c0",), 2),
                             (support.two_nodes(), ("v1", "v2"), 1)):
        lat = Lattice(g)
        lat.sestar = tuple(lat.sestar[g.index(v)] for v in kept)
        monkeypatch.setattr(lattice, "lattice_of", lambda _: lat)
        expected = f"^anti-duals span {spanned} classes, expected {lat.h_order}$"
        with pytest.raises(LatticeError, match=expected):
            iter_classes(g)


# Trees with a high-valency node or several nodes for the lattice
# arithmetic, which ``support.random_graph`` seldom draws: the hub trees (a
# node of valency 4 to 6), caterpillar(2) (two nodes, |H| = 133) and D4,
# whose H = (Z/2)^2 is not cyclic.
ARITHMETIC_GRAPHS = (*support.HUB_SEEDS, "caterpillar2", "d4")


@lru_cache(maxsize=None)
def arithmetic_graph(name):
    if name == "caterpillar2":
        return support.caterpillar(2)
    if name == "d4":
        return support.star(-2, (-2, -2, -2))
    return support.hub_tree(name)


def draw_graph(data):
    return arithmetic_graph(data.draw(st.sampled_from(ARITHMETIC_GRAPHS), label="graph"))


def draw_columns(data, lat):
    """Scaled L' vectors: anti-duals and integer combinations of them."""
    combinations = st.lists(st.integers(-5, 5), min_size=lat.n, max_size=lat.n).map(
        lambda cs: lat.combination(enumerate(cs)))
    return data.draw(st.lists(st.sampled_from(lat.sestar) | combinations, min_size=1,
                              max_size=4), label="cols")


def reference_class_moves(g, cols):
    """The class-step tables as the counting walk and the division built
    them by hand: the index of each class by key, and for each column a
    the index of h + a, and of h - a, by the index of h."""
    lat = lattice_of(g)
    d = lat.h_order
    classes = all_classes(g)
    index = {h.key: i for i, h in enumerate(classes)}
    ahead = [[index[tuple((c + y) % d for c, y in zip(h.key, a))] for h in classes]
             for a in cols]
    back = [[index[lat.class_key(map(sub, h.key, a))] for h in classes] for a in cols]
    return index, ahead, back


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_form_equals_the_dense_intersection_product(data):
    g = draw_graph(data)
    lat, m, n = lattice_of(g), intersection_matrix(g), g.n
    entries = data.draw(st.sampled_from(
        (st.integers(-60, 60), st.fractions(-60, 60, max_denominator=lat.h_order))))
    x, y = (data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))
    assert lat.image(y) == [sum(m[i][j] * y[j] for j in range(n)) for i in range(n)]
    want = sum(x[i] * m[i][j] * y[j] for i in range(n) for j in range(n))
    got = lat.form(x, y)
    assert got == want
    assert type(got) is (Fraction if isinstance(x[0], Fraction) else int)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_class_move_is_the_key_of_the_moved_vector(data):
    g = draw_graph(data)
    lat = lattice_of(g)
    key = data.draw(st.sampled_from(all_classes(g))).key
    for col in draw_columns(data, lat):
        assert lat.class_move(key, col) == lat.class_key(map(add, key, col))
        for k in (-1, 1, data.draw(st.integers(-3 * lat.h_order, 3 * lat.h_order))):
            moved = [c + k * y for c, y in zip(key, col)]
            assert lat.class_move(key, col, k) == lat.class_key(moved)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_moves_equal_the_hand_built_tables(data):
    g = draw_graph(data)
    cols = draw_columns(data, lattice_of(g))
    index, ahead, back = reference_class_moves(g, cols)
    # a walk that steps back passes the negated columns
    for steps, want in ((cols, ahead), ([[-y for y in a] for a in cols], back)):
        classes, got, moves = lattice_of(g).class_moves(steps)
        assert classes == all_classes(g)
        assert (got, moves) == (index, want)
