import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import ceil, comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from support import anti_duals, vec_add, vec_scale
from plumbsw.counting import (Q, _cut_sum, _envelope, _inclusion_exclusion, floor_sum,
                              inclusion_exclusion_check, q)
from plumbsw.graph import parse_graph
from plumbsw.lattice import (Lattice, LatticeError, all_classes, canonical_cycle,
                             class_of, e_star, lattice_of)
from plumbsw.series import (Box, _zeta_factors, equivariant_split, reduce,
                            taylor, zeta)
from plumbsw.swcore import duality_cut_vertices


def _one_var_expansion_oracle(numer, denoms, degree):
    """Coefficients of (sum numer) / prod (1 - t^d) up to the given degree,
    by plain list convolution."""
    series = [0] * (degree + 1)
    for e, c in numer:
        if e <= degree:
            series[e] += c
    for d in denoms:
        out = series[:]
        for i in range(d, degree + 1):
            out[i] += out[i - d]
        series = out
    return series


def test_Q_sigma257_via_expansion_oracle(sigma257):
    # expand (1 - t^70)/((1-t^35)(1-t^14)(1-t^10)) to degree 11 and sum
    coeffs = _one_var_expansion_oracle([(0, 1), (70, -1)], [35, 14, 10], 11)
    assert sum(coeffs) == 2
    zk = canonical_cycle(sigma257)
    h0 = lattice_of(sigma257).zero_class
    assert Q(sigma257, h0, ["E1"], zk) == 2


def test_Q_nonpositive_cut_is_zero(corpus30):
    for g in corpus30[:5]:
        h0 = lattice_of(g).zero_class
        assert Q(g, h0, g.ids, tuple(Fraction(0) for _ in range(g.n))) == 0
        assert Q(g, h0, g.ids, tuple(Fraction(-3) for _ in range(g.n))) == 0


def test_Q_two_nodes_value(two_nodes):
    zk = canonical_cycle(two_nodes)
    h0 = lattice_of(two_nodes).zero_class
    assert Q(two_nodes, h0, ("v1", "v2"), zk) == 5


def test_q_equals_Q_for_single_coordinate(corpus30):
    rng = random.Random(31)
    for g in corpus30[:8]:
        estar = anti_duals(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), estar[i]))
        h = class_of(g, x)
        v = rng.choice(g.ids)
        assert q(g, h, (v,), x) == Q(g, h, (v,), x)


def test_q_two_nodes_dual_cut(two_nodes):
    # the modified counts at the dual cut: 3 and 3 on the single nodes
    # (exponents 0, t^(6,33), t^(12,66) resp. their mirrors), 1 on both,
    # recombining to the plain count 5 by inclusion-exclusion
    lat = lattice_of(two_nodes)
    zk = canonical_cycle(two_nodes)
    h0 = lat.zero_class
    assert q(two_nodes, h0, ("v1",), zk) == 3
    assert q(two_nodes, h0, ("v2",), zk) == 3
    assert q(two_nodes, h0, ("v1", "v2"), zk) == 1
    assert Q(two_nodes, h0, ("v1", "v2"), zk) == 3 + 3 - 1 == 5


def test_q_against_series_window_oracle(corpus30):
    # sum the h-part Taylor coefficients strictly below the cut; independent
    # of the cone walk used by q
    rng = random.Random(47)
    graphs = [g for g in corpus30 if 3 <= g.n <= 5][:3]
    for g in graphs:
        lat = lattice_of(g)
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        live = tuple(sorted(rng.sample(g.ids, 2)))
        x = list(zk)
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 1), estar[i]))
        h = class_of(g, x)
        parts = equivariant_split(reduce(zeta(g), live))
        active = [g.index(v) for v in live]
        box = Box(tuple(x[i] for i in active))
        total = 0
        for e, c in taylor(parts[h], box).terms.items():
            if all(ev < x[i] for ev, i in zip(lat.unscaled(e), active)):
                total += c
        assert q(g, h, live, x) == total


def test_class_mismatch_raises(two_nodes):
    h1 = class_of(two_nodes, e_star(two_nodes, "w3"))
    zk = canonical_cycle(two_nodes)  # class 0, so h1 is a genuine mismatch
    with pytest.raises(LatticeError):
        Q(two_nodes, h1, ("v1",), zk)
    with pytest.raises(LatticeError):
        q(two_nodes, h1, ("v1",), zk)
    # the scaled core checks its cut: in L', then of the requested class
    lat = lattice_of(two_nodes)
    off = (1,) + (0,) * (lat.n - 1)  # on the 1/|H| grid, not in L'
    with pytest.raises(LatticeError, match=r"^\(1/3,0,0,0,0,0,0,0,0,0\) is not in the dual"):
        _cut_sum(two_nodes, h1, ("v1",), off, any)
    with pytest.raises(LatticeError, match="is not in the dual"):
        _cut_sum(two_nodes, h1, ("v1",), lat.sz_k[1:], any)
    with pytest.raises(LatticeError, match="does not represent the requested class"):
        _cut_sum(two_nodes, h1, ("v1",), lat.sz_k, all)


def test_scaled_core_equals_the_rational_wrappers(corpus30):
    # Q, q and inclusion_exclusion_check scale their cut once and run the
    # core on it, which verify calls with the scaled cut directly
    rng = random.Random(36)
    for g in [*corpus30, support.hub_tree(33)]:
        lat = lattice_of(g)
        sx = lat.combination((i, rng.randint(0, 2)) for i in range(g.n))
        h, x = lat.class_at(sx), lat.unscaled(sx)
        for subset in (duality_cut_vertices(g), (rng.choice(g.ids),)):
            assert _cut_sum(g, h, subset, sx, any) == Q(g, h, subset, x)
            assert _cut_sum(g, h, subset, sx, all) == q(g, h, subset, x)
            assert _inclusion_exclusion(g, h, subset, sx)
            assert inclusion_exclusion_check(g, h, subset, x)


def test_inclusion_exclusion_single_vertex_trivial(corpus30):
    rng = random.Random(7)
    for g in corpus30[:4]:
        estar = anti_duals(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), estar[i]))
        h = class_of(g, x)
        assert inclusion_exclusion_check(g, h, (g.ids[0],), x)


def test_inclusion_exclusion_two_nodes(two_nodes):
    zk = canonical_cycle(two_nodes)
    h0 = lattice_of(two_nodes).zero_class
    parts = [q(two_nodes, h0, ("v1",), zk), q(two_nodes, h0, ("v2",), zk),
             q(two_nodes, h0, ("v1", "v2"), zk)]
    assert parts[0] + parts[1] - parts[2] == 5
    assert inclusion_exclusion_check(two_nodes, h0, ("v1", "v2"), zk)


def test_inclusion_exclusion_randomized(corpus30):
    rng = random.Random(2024)
    checked = 0
    while checked < 20:
        g = rng.choice(corpus30)
        estar = anti_duals(g)
        size = rng.randint(1, min(3, g.n))
        subset = tuple(sorted(rng.sample(g.ids, size)))
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), estar[i]))
        h = class_of(g, x)
        assert inclusion_exclusion_check(g, h, subset, x)
        checked += 1


def test_values_depend_only_on_live_cut(two_nodes):
    lat = lattice_of(two_nodes)
    zk = canonical_cycle(two_nodes)
    h0 = lat.zero_class
    # integral perturbation off the live coordinates keeps class and values
    shift = [0] * 10
    shift[two_nodes.index("a2")] = 3
    shift[two_nodes.index("w1")] = -2
    moved = vec_add(zk, tuple(Fraction(s) for s in shift))
    assert class_of(two_nodes, moved) == h0
    assert Q(two_nodes, h0, ("v1", "v2"), moved) == Q(two_nodes, h0, ("v1", "v2"), zk)
    assert q(two_nodes, h0, ("v1", "v2"), moved) == q(two_nodes, h0, ("v1", "v2"), zk)


def test_q_monotone_in_cut(corpus30):
    rng = random.Random(13)
    for g in corpus30[:5]:
        estar = anti_duals(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), estar[i]))
        h = class_of(g, x)
        subset = tuple(sorted(rng.sample(g.ids, min(2, g.n))))
        base = q(g, h, subset, x)
        for v in subset:
            bumped = list(x)
            bumped[g.index(v)] += 1
            assert q(g, h, subset, bumped) >= base


def test_enumeration_bound_certificate(sigma257):
    # every decomposition tuple contributing to Q stays within the stated
    # multiplicity bound, and the next shell is empty: checked by an
    # independent walk over decompositions of bounded total multiplicity
    g = sigma257
    lat = lattice_of(g)
    estar = anti_duals(g)
    zk = canonical_cycle(g)
    subset = ("E1",)
    active = [g.index(v) for v in subset]
    min_entry = min(min(col) for col in estar)
    bound = max(ceil(zk[i] / min_entry) for i in active)
    cols = list(estar)
    mults = lat.mults
    hits = []

    def walk(i, total, acc):
        if total > bound + 1:
            return
        if i == g.n:
            if any(acc[j] < zk[j] for j in active):
                hits.append(total)
            return
        top = mults[i] if mults[i] > 0 else bound + 1
        for k in range(top + 1):
            if total + k > bound + 1:
                break
            walk(i + 1, total + k,
                 tuple(a + k * c for a, c in zip(acc, cols[i])))

    walk(0, 0, tuple(Fraction(0) for _ in range(g.n)))
    assert hits and max(hits) <= bound


def _brute_cut_sum(g, h, subset, x, quantifier):
    """Sum of z(l') over [l'] = h passing the cut, from every exponent tuple
    of the zeta product in a box, with no walk and no runs: a term passes on
    a live coordinate j only if each k_v E*_v is below x there."""
    lat = lattice_of(g)
    d = lat.h_order
    sx = [int(c * d) for c in x]
    hkey = h.key
    active = [g.index(v) for v in subset]
    ranges = []
    for mu, col in zip(lat.mults, lat.sestar):
        if mu >= 0:
            ranges.append([(k, (-1) ** k * comb(mu, k)) for k in range(mu + 1)])
        else:
            top = max(ceil(sx[j] / col[j]) for j in active)
            ranges.append([(k, comb(k - mu - 1, -mu - 1)) for k in range(max(top, 0))])
    total = 0
    for combo in product(*ranges):
        e = [sum(k * col[r] for (k, _), col in zip(combo, lat.sestar)) for r in range(g.n)]
        if (quantifier(e[j] < sx[j] for j in active)
                and all((a - b) % d == 0 for a, b in zip(e, hkey))):
            weight = 1
            for _, w in combo:
                weight *= w
            total += weight
    return total


def _check_against_brute(g, x):
    """Q and q at x, on the duality cut and on every vertex, against the
    brute-force sum; returns the cuts checked."""
    h = class_of(g, x)
    cuts = (duality_cut_vertices(g), g.ids)
    for subset in cuts:
        assert Q(g, h, subset, x) == _brute_cut_sum(g, h, subset, x, any)
        assert q(g, h, subset, x) == _brute_cut_sum(g, h, subset, x, all)
    return len(cuts)


def test_run_collapsed_counts_match_brute_force_on_corpus(corpus30):
    rng = random.Random(59)
    for g in corpus30:
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        x = list(zk)
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 1), estar[i]))
        _check_against_brute(g, tuple(x))


def test_run_collapsed_counts_match_brute_force_with_modular_runs(two_nodes):
    # The run column's class has order > 1 and the runs from the origin are
    # longer than that order, so a run meets the class of x more than once
    # and the cyclic-subgroup count is exercised.
    star = support.star(-1, (-3, -4, -5, -5))
    for g in (two_nodes, star):
        lat = lattice_of(g)
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        d = lat.h_order
        col = _zeta_factors(lat)[-1][0]
        order = d // gcd(d, *col)
        assert d > 1 and order > 1
        for c in (0, 1, 2):
            x = tuple(z + c * e for z, e in zip(zk, estar[-1]))
            sx = lat.scaled(x)
            assert max(ceil(sx[j] / col[j]) for j in range(g.n)) > order
            _check_against_brute(g, x)


def test_run_free_and_node_free_counts_match_brute_force():
    # One vertex: the only series factor has multiplicity 2, so every run has
    # length 1.  A chain has no nodes and cuts on every vertex.
    for g in (parse_graph("vertex a -2"), support.chain((-2, -3, -2))):
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        for h in all_classes(g):
            for c in range(3):
                x = tuple(z + r + c * e for z, r, e in zip(zk, h.rep, estar[0]))
                _check_against_brute(g, x)


def test_counts_match_brute_force_when_b_leaves_the_subgroup_of_a():
    # The walk stops before the last factor a and sums the steps k along the
    # second-to-last factor b in closed form.  On these stars [b] is not a
    # multiple of [a] (H = Z2 x Z2, and |H| = 27 with [a] of order 9), so a
    # leaf's steps split into residues mod the order of [b] and only some of
    # them meet the class; the cuts make steps along b longer than that order.
    for g, shifts in ((support.star(-2, (-2, -2, -2)), (1, 3, 5)),
                      (support.star(-2, (-3, -3, -3)), (1,))):
        lat = lattice_of(g)
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        d = lat.h_order
        factors = _zeta_factors(lat)
        a, b = factors[-1][0], factors[-2][0]
        multiples_of_a = {tuple(k * x % d for x in a) for k in range(d)}
        assert tuple(x % d for x in b) not in multiples_of_a
        order_b = next(k for k in range(1, d + 1) if all(k * x % d == 0 for x in b))
        longest = 0
        for h in all_classes(g):
            for c in shifts:
                x = tuple(z + r + c * e for z, r, e in zip(zk, h.rep, estar[0]))
                sx = lat.scaled(x)
                longest = max(longest, *(ceil(sx[j] / b[j]) for j in range(g.n)))
                _check_against_brute(g, x)
        assert longest > order_b


def test_counts_match_brute_force_when_a_and_b_miss_classes():
    # [a] and [b] generate a subgroup of order 2 in H of order 4, so some
    # leaves lie in a class outside h - <[a], [b]>: none of their steps meets
    # the class h, and the walk's visitor must count nothing for them.
    g = support.star(-2, (-2, -2, -2, -3))
    lat = lattice_of(g)
    d = lat.h_order
    factors = _zeta_factors(lat)
    a, b = factors[-1][0], factors[-2][0]
    subgroup = {tuple((i * x + j * y) % d for x, y in zip(a, b))
                for i in range(d) for j in range(d)}
    assert d == 4 and len(subgroup) == 2
    zk = canonical_cycle(g)
    estar = anti_duals(g)
    for h in all_classes(g):
        _check_against_brute(g, tuple(z + r + e for z, r, e in zip(zk, h.rep, estar[0])))


# |H| > 1 with nodes (3, 5 and 4 classes), a chain (no node, every vertex an
# end) and one vertex (one series factor of multiplicity 2).  The stars and
# two_nodes walk 3 or 4 factors before the closed form, so live sets smaller
# than that memoize the deeper levels and larger ones memoize nothing.  On the
# star with H = Z2 x Z2, [a] and [b] miss classes, so states that differ only
# in their class have different sums; the first two explicit examples are two
# such cuts at Z_K + E*_c, on one and on two live vertices.  The third, on
# two_nodes at Z_K + E*_w1 with w1 and a2 live, has closed-form leaves with
# two or more residues and two or more envelope pieces, for Q and for q.
Z2_Z2_STAR = support.star(-2, (-2, -2, -2, -3))
TWO_NODES = support.two_nodes()
PROPERTY_GRAPHS = (TWO_NODES, support.star(-1, (-3, -4, -5, -5)),
                   Z2_Z2_STAR, support.chain((-2, -3, -2)), parse_graph("vertex a -2"))
STAR_X = vec_add(canonical_cycle(Z2_Z2_STAR), anti_duals(Z2_Z2_STAR)[0])
TWO_NODES_X = vec_add(canonical_cycle(TWO_NODES), anti_duals(TWO_NODES)[0])


@st.composite
def cuts(draw):
    g = draw(st.sampled_from(PROPERTY_GRAPHS))
    size = draw(st.integers(1, g.n))
    subset = tuple(sorted(draw(st.permutations(g.ids))[:size]))
    # Z_K, an anti-dual or their sum, shifted into any class: the brute
    # force grows fast with x
    zk = canonical_cycle(g)
    base = vec_add(draw(st.sampled_from(((0,) * g.n, zk))),
                   draw(st.sampled_from(((0,) * g.n, *anti_duals(g)))))
    return g, subset, vec_add(base, draw(st.sampled_from(all_classes(g))).rep)


@settings(max_examples=60, deadline=None)
@given(cuts())
@example((Z2_Z2_STAR, ("c",), STAR_X))
@example((Z2_Z2_STAR, ("c", "s2"), STAR_X))
@example((TWO_NODES, ("a2", "w1"), TWO_NODES_X))
def test_counts_match_brute_force_on_every_live_set_size(cut):
    g, subset, x = cut
    h = class_of(g, x)
    assert Q(g, h, subset, x) == _brute_cut_sum(g, h, subset, x, any)
    assert q(g, h, subset, x) == _brute_cut_sum(g, h, subset, x, all)


def test_counting_walk_reads_its_classes_off_one_step_table(monkeypatch):
    # The walk moves classes by index through Lattice.class_moves, which also
    # gives each leaf class its first step by stepping back along the last two
    # factors.  Once all_classes is cached (iter_classes steps with
    # class_move), Q and q build no class key of their own: with class_move
    # raising they still equal the brute force, on the Z2 x Z2 star, the
    # |H| = 27 star, one vertex and the chain.
    graphs = (Z2_Z2_STAR, support.star(-2, (-3, -3, -3)), parse_graph("vertex a -2"),
              support.chain((-2, -3, -2)))
    for g in graphs:
        all_classes(g)

    def no_class_move(*args):
        raise AssertionError("Lattice.class_move called")

    monkeypatch.setattr(Lattice, "class_move", no_class_move)
    checked = 0
    for g in graphs:
        zk = canonical_cycle(g)
        estar = anti_duals(g)
        for h in all_classes(g):
            checked += _check_against_brute(
                g, tuple(z + r + e for z, r, e in zip(zk, h.rep, estar[0])))
    assert checked == 2 * (4 + 27 + 2 + 8)


def test_floor_sum_matches_loop():
    rng = random.Random(83)
    cases = [(0, 5, 3, -7), (1, 1, 0, 0), (7, 1, -4, 9), (5, 3, 0, -1)]
    cases += [(rng.randint(0, 40), rng.randint(1, 30), rng.randint(-60, 60),
               rng.randint(-200, 200)) for _ in range(400)]
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def _envelope_loop(lines, n, widest):
    return sum(widest([(A + k * S) // D for A, S, D in lines]) for k in range(n))


def _widest_at(lines, k, widest):
    """The widest value of the lines at k, and the slope that stays widest
    among the lines that reach it."""
    return widest((Fraction(A + k * S, D), Fraction(S, D)) for A, S, D in lines)


def _pieces(lines, n, widest):
    """Pieces of the exact envelope on 0..n-1: the widest line at each k,
    ties going to the slope that stays widest, changes slope between
    pieces."""
    slopes = [_widest_at(lines, k, widest)[1] for k in range(n)]
    return 1 + sum(1 for k in range(1, n) if slopes[k] != slopes[k - 1])


def _envelope_sum(lines, n, widest):
    """The envelope sum of ``_envelope_loop`` from the pieces of
    ``_envelope``, as ``counting._cut_sum`` builds them: lines over one
    denominator, negated for min, by decreasing slope.  Checks on the way
    that each piece's line is widest at each of its k, and that a piece
    starts on the line that stays widest."""
    sgn = 1 if widest is max else -1
    denom = lcm(*(D for _, _, D in lines))
    lines = sorted(lines, key=lambda line: -sgn * line[1] * (denom // line[2]))
    starts = [sgn * A * (denom // D) for A, _, D in lines]
    slopes = [sgn * S * (denom // D) for _, S, D in lines]
    overtakers = [[s2 - s1 for s2 in slopes if s2 > s1] for s1 in slopes]
    total = k = 0
    for k0, end, i in _envelope(starts, slopes, overtakers, 0, n):
        assert k0 == k < end
        A, S, D = lines[i]
        assert _widest_at(lines, k0, widest)[1] == Fraction(S, D)
        for x in range(k0, end):
            assert _widest_at(lines, x, widest)[0] == Fraction(A + x * S, D)
        total += floor_sum(end - k0, D, S, A + k0 * S)
        k = end
    assert k == n
    return total


def test_envelope_pieces_match_loop():
    rng = random.Random(89)
    multi_piece = {max: 0, min: 0}
    for trial in range(600):
        widest = max if trial % 2 else min
        n = rng.choice([0, 1, 2, rng.randint(3, 40)])
        lines = []
        for _ in range(rng.randint(1, 6)):
            D = rng.randint(1, 12)
            S = rng.randint(-30, 30)
            if lines and rng.random() < 0.4:
                # through an integer point of an earlier line: a tie there
                A0, S0, D0 = rng.choice(lines)
                k0 = rng.randint(0, max(n, 1))
                num = A0 + k0 * S0
                lines.append((D * num - k0 * S * D0, S * D0, D * D0))
            else:
                lines.append((rng.randint(-300, 300), S, D))
        assert _envelope_sum(lines, n, widest) == _envelope_loop(lines, n, widest)
        if n and _pieces(lines, n, widest) >= 2:
            multi_piece[widest] += 1
    assert multi_piece[max] >= 30 and multi_piece[min] >= 30


def test_envelope_pieces_ties_at_integer_breakpoints():
    # Falling lines whose envelope changes line exactly at integers: at k = 3
    # and k = 6 for max, at k = 5 for min.  The last line is the third one
    # over another denominator.  Then two pairs of lines tied at k = 0, the
    # widest pair for max and the other for min: the piece there is on the
    # line that stays widest.
    for lines in ([(12, -4, 1), (9, -3, 1), (-3, -1, 1), (-6, -2, 2)],
                  [(12, -4, 1), (24, -2, 2), (-6, -1, 1), (-12, -6, 2)]):
        for widest in (max, min):
            for n in range(0, 12):
                assert _envelope_sum(lines, n, widest) == _envelope_loop(lines, n, widest)


def test_counting_walk_is_freed_when_it_returns():
    # hub_tree(33) with five live vertices: the walk memoizes its deepest
    # levels, about 0.4 MB here.  Its recursive closures must not hold each
    # other, or each call's memo stays alive as cyclic garbage until the next
    # full collection.  With collection off, further calls keep no more
    # memory than the first, and a collection then finds nothing.
    g = support.hub_tree(33)
    h, live, x = lattice_of(g).zero_class, g.ids[:5], (40,) * g.n
    want = Q(g, h, live, x)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert Q(g, h, live, x) == want
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            assert Q(g, h, live, x) == want
        kept = tracemalloc.get_traced_memory()[0] - first
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 100_000
