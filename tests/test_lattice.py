import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from plumbsw.graph import definite_adjugate, parse_graph, validate
from plumbsw.lattice import (LatticeError, all_classes,
                             canonical_cycle, class_add, class_neg, class_of,
                             e_star, format_vec, in_dual_lattice, intersection_data,
                             l_top, lattice_of, pairing, rho, vec_add, vec_scale)

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
    # validate prints the same text for a graph whose -I fails at minor 1 or 2
    for text, k in (("vertex a 2\nvertex b 2\nedge a b\n", 1),
                    ("vertex a -1\nvertex b -1\nedge a b\n", 2)):
        check = dict((name, (ok, detail)) for name, ok, detail in
                     validate(parse_graph(text)).checks)["negative definite"]
        assert check == (False, f"leading principal minor {k} is not positive")


def test_neg_inverse_matches_printed_matrix(sigma257):
    _, neg_inv, _ = intersection_data(sigma257)
    assert [[int(x) for x in row] for row in neg_inv] == SIGMA257_NEG_INV


def test_h_order_sigma257_via_determinant_oracle(sigma257):
    imat, _, h_order = intersection_data(sigma257)
    neg = [[-x for x in row] for row in imat]
    assert _det_oracle(neg) == 1
    assert h_order == 1


def test_h_order_two_nodes(two_nodes):
    assert intersection_data(two_nodes)[2] == 3


def test_e_star_column_and_duality(sigma257):
    assert tuple(int(x) for x in e_star(sigma257, "E1")) == (70, 35, 14, 20, 10)
    n = sigma257.n
    for v in sigma257.ids:
        col = e_star(sigma257, v)
        assert all(x > 0 for x in col)
        for j, w in enumerate(sigma257.ids):
            unit = tuple(Fraction(int(k == j)) for k in range(n))
            expected = -1 if v == w else 0
            assert pairing(sigma257, col, unit) == expected


def test_e_star_unknown_vertex(sigma257):
    with pytest.raises(KeyError):
        e_star(sigma257, "nope")


def test_pairing_diagonal_is_euler(sigma257, two_nodes):
    for g in (sigma257, two_nodes):
        for j, v in enumerate(g.ids):
            unit = tuple(Fraction(int(k == j)) for k in range(g.n))
            assert pairing(g, unit, unit) == g.euler(v)


def test_pairing_dimension_mismatch(sigma257):
    with pytest.raises(LatticeError):
        pairing(sigma257, (1, 2), (1, 2, 3, 4, 5))


def test_pairing_zk_regression(sigma257):
    zk = canonical_cycle(sigma257)
    imat = intersection_data(sigma257)[0]
    # oracle: plain matrix product x^T I x
    ix = [sum(imat[i][j] * zk[j] for j in range(5)) for i in range(5)]
    byhand = sum(zk[i] * ix[i] for i in range(5))
    assert byhand == -5
    assert pairing(sigma257, zk, zk) == -5


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
        for j, v in enumerate(g.ids):
            unit = tuple(Fraction(int(k == j)) for k in range(g.n))
            assert pairing(g, zk, unit) == g.euler(v) + 2


def test_zk_identity_everywhere(corpus30, sigma257, two_nodes, three_nodes):
    # Z_K - E equals the weighted sum of anti-duals with weights valency - 2
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        lat = lattice_of(g)
        acc = [Fraction(0)] * g.n
        for i, mu in enumerate(lat.mults):
            acc = vec_add(acc, vec_scale(mu, lat.estar[i]))
        assert tuple(acc) == lat.z_k_me


def test_l_top_node_form(corpus30, sigma257, two_nodes, three_nodes):
    # alternative evaluation over the nodes only (graphs with >= 2 vertices)
    for g in list(corpus30) + [sigma257, two_nodes, three_nodes]:
        lat = lattice_of(g)
        acc = [Fraction(0)] * g.n
        for i in lat.node_idx:
            acc = vec_add(acc, vec_scale(lat.mults[i], lat.estar[i]))
        assert tuple(acc) == lat.l_top


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
    assert set(all_classes(two_nodes)) == {zero, h1, class_add(h1, h1)}


def test_rho_values(two_nodes):
    zero = lattice_of(two_nodes).zero_class
    assert rho(two_nodes, (0, 0, 0, 0)) == zero
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    assert rho(two_nodes, (0, 0, 1, 0)) == h1
    for pt in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0),
               (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]:
        assert rho(two_nodes, pt) == zero


def test_rho_errors(two_nodes):
    with pytest.raises(LatticeError):
        rho(two_nodes, (1, 2, 3))
    with pytest.raises(LatticeError):
        rho(two_nodes, (-1, 0, 0, 0))


def test_class_shift_invariance(corpus30):
    rng = random.Random(3)
    for g in corpus30[:6]:
        lat = lattice_of(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 3), lat.estar[i]))
        shift = tuple(rng.randint(-2, 2) for _ in range(g.n))
        assert class_of(g, x) == class_of(g, vec_add(x, shift))


def test_class_group_structure(corpus30):
    for g in corpus30[:5]:
        classes = all_classes(g)
        assert len(classes) == lattice_of(g).h_order
        zero = lattice_of(g).zero_class
        for h in classes:
            assert class_add(h, class_neg(h)) == zero
            assert class_add(h, zero) == h


def test_dual_coordinate_denominators_divide_h_order(corpus30):
    for g in corpus30[:10]:
        lat = lattice_of(g)
        for col in lat.estar + (lat.z_k, lat.l_top):
            assert all(lat.h_order % x.denominator == 0 for x in col)


def test_anti_dual_entries_strictly_positive(corpus30):
    for g in corpus30:
        for col in lattice_of(g).estar:
            assert all(x > 0 for x in col)


def test_reachable_classes_exhaustively_small():
    # literal product-set check on a small chain: classes of all
    # combinations sum a_v E*_v with 0 <= a_v < |H|
    g = support.chain([-2, -3, -2])
    lat = lattice_of(g)
    d = lat.h_order
    assert d == 8
    seen = set()
    for a0 in range(d):
        for a1 in range(d):
            for a2 in range(d):
                x = [Fraction(0)] * 3
                for c, i in ((a0, 0), (a1, 1), (a2, 2)):
                    x = vec_add(x, vec_scale(c, lat.estar[i]))
                seen.add(class_of(g, x))
    assert len(seen) == d
    assert seen == set(all_classes(g))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=5, max_size=5),
       st.lists(st.integers(-30, 30), min_size=5, max_size=5))
def test_class_of_is_homomorphism(xs, ys):
    g = support.sigma257()
    lat = lattice_of(g)
    d = lat.h_order
    x = [Fraction(0)] * 5
    y = [Fraction(0)] * 5
    for i in range(5):
        x = vec_add(x, vec_scale(xs[i], lat.estar[i]))
        y = vec_add(y, vec_scale(ys[i], lat.estar[i]))
    assert class_of(g, vec_add(x, y)) == class_add(class_of(g, x), class_of(g, y))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_class_rep_in_unit_box(xs):
    g = support.chain([-2, -3, -2])
    lat = lattice_of(g)
    x = [Fraction(0)] * 3
    for i in range(3):
        x = vec_add(x, vec_scale(xs[i], lat.estar[i]))
    h = class_of(g, x)
    assert all(0 <= c < 1 for c in h.rep)
    assert class_of(g, h.rep) == h


def test_lattice_rejects_indefinite_and_disconnected():
    # det(-I) = 3 > 0 without -I being positive definite, and two
    # components whose anti-duals vanish on each other
    for text in ("vertex a 2\nvertex b 2\nedge a b\n", "vertex a -2\nvertex b -2\n"):
        with pytest.raises(LatticeError):
            lattice_of(parse_graph(text))


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
        gens = [support.reference_class_rep(g, col) for col in lat.estar]
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
            assert class_neg(h).rep == support.reference_class_neg(h.rep)
            for k in partners:
                assert class_add(h, k).rep == support.reference_class_add(h.rep, k.rep)
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
            for col in lat.estar:
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
        with pytest.raises(LatticeError, match="is not in the dual lattice"):
            class_of(g, x)
