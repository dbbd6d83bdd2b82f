import random
from fractions import Fraction
from itertools import product
from math import ceil, comb, gcd

import pytest

import support
from plumbsw.counting import (Q, envelope_floor_sum, floor_sum,
                              inclusion_exclusion_check, q)
from plumbsw.graph import parse_graph
from plumbsw.lattice import (LatticeError, all_classes, canonical_cycle,
                             class_of, lattice_of, vec_add, vec_scale)
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
        lat = lattice_of(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
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
        live = tuple(sorted(rng.sample(g.ids, 2)))
        x = list(lat.z_k)
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 1), lat.estar[i]))
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
    h1 = class_of(two_nodes, lattice_of(two_nodes).estar[two_nodes.index("w3")])
    zk = canonical_cycle(two_nodes)  # class 0, so h1 is a genuine mismatch
    with pytest.raises(LatticeError):
        Q(two_nodes, h1, ("v1",), zk)
    with pytest.raises(LatticeError):
        q(two_nodes, h1, ("v1",), zk)


def test_inclusion_exclusion_single_vertex_trivial(corpus30):
    rng = random.Random(7)
    for g in corpus30[:4]:
        lat = lattice_of(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
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
        lat = lattice_of(g)
        size = rng.randint(1, min(3, g.n))
        subset = tuple(sorted(rng.sample(g.ids, size)))
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
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
        lat = lattice_of(g)
        x = [Fraction(0)] * g.n
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 2), lat.estar[i]))
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
    zk = canonical_cycle(g)
    subset = ("E1",)
    active = [g.index(v) for v in subset]
    min_entry = min(min(col) for col in lat.estar)
    bound = max(ceil(zk[i] / min_entry) for i in active)
    cols = list(lat.estar)
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
        lat = lattice_of(g)
        x = list(lat.z_k)
        for i in range(g.n):
            x = vec_add(x, vec_scale(rng.randint(0, 1), lat.estar[i]))
        _check_against_brute(g, tuple(x))


def test_run_collapsed_counts_match_brute_force_with_modular_runs(two_nodes):
    # The run column's class has order > 1 and the runs from the origin are
    # longer than that order, so a run meets the class of x more than once
    # and the cyclic-subgroup count is exercised.
    star = support.star(-1, (-3, -4, -5, -5))
    for g in (two_nodes, star):
        lat = lattice_of(g)
        d = lat.h_order
        col = _zeta_factors(lat)[-1][0]
        order = d // gcd(d, *col)
        assert d > 1 and order > 1
        for c in (0, 1, 2):
            x = tuple(z + c * e for z, e in zip(lat.z_k, lat.estar[-1]))
            sx = lat.scaled(x)
            assert max(ceil(sx[j] / col[j]) for j in range(g.n)) > order
            _check_against_brute(g, x)


def test_run_free_and_node_free_counts_match_brute_force():
    # One vertex: the only series factor has multiplicity 2, so every run has
    # length 1.  A chain has no nodes and cuts on every vertex.
    for g in (parse_graph("vertex a -2"), support.chain((-2, -3, -2))):
        lat = lattice_of(g)
        for h in all_classes(g):
            for c in range(3):
                x = tuple(z + r + c * e for z, r, e in zip(lat.z_k, h.rep, lat.estar[0]))
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
        d = lat.h_order
        factors = _zeta_factors(lat)
        a, b = factors[-1][0], factors[-2][0]
        multiples_of_a = {tuple(k * x % d for x in a) for k in range(d)}
        assert tuple(x % d for x in b) not in multiples_of_a
        order_b = next(k for k in range(1, d + 1) if all(k * x % d == 0 for x in b))
        longest = 0
        for h in all_classes(g):
            for c in shifts:
                x = tuple(z + r + c * e for z, r, e in zip(lat.z_k, h.rep, lat.estar[0]))
                sx = lat.scaled(x)
                longest = max(longest, *(ceil(sx[j] / b[j]) for j in range(g.n)))
                _check_against_brute(g, x)
        assert longest > order_b


def test_floor_sum_matches_loop():
    rng = random.Random(83)
    cases = [(0, 5, 3, -7), (1, 1, 0, 0), (7, 1, -4, 9), (5, 3, 0, -1)]
    cases += [(rng.randint(0, 40), rng.randint(1, 30), rng.randint(-60, 60),
               rng.randint(-200, 200)) for _ in range(400)]
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def _envelope_loop(lines, n, widest):
    return sum(widest([(A + k * S) // D for A, S, D in lines]) for k in range(n))


def _pieces(lines, n, widest):
    """Pieces of the exact envelope on 0..n-1: the widest line at each k,
    ties going to the slope that stays widest, changes slope between
    pieces."""
    slopes = [widest((Fraction(A + k * S, D), Fraction(S, D)) for A, S, D in lines)[1]
              for k in range(n)]
    return 1 + sum(1 for k in range(1, n) if slopes[k] != slopes[k - 1])


def test_envelope_floor_sum_matches_loop():
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
        assert envelope_floor_sum(lines, n, widest) == _envelope_loop(lines, n, widest)
        if n and _pieces(lines, n, widest) >= 2:
            multi_piece[widest] += 1
    assert multi_piece[max] >= 30 and multi_piece[min] >= 30


def test_envelope_floor_sum_ties_at_integer_breakpoints():
    # Falling lines whose envelope changes line exactly at integers: at k = 3
    # and k = 6 for max, at k = 5 for min.  The last line is the third one
    # over another denominator.
    lines = [(12, -4, 1), (9, -3, 1), (-3, -1, 1), (-6, -2, 2)]
    for widest in (max, min):
        for n in range(0, 12):
            assert envelope_floor_sum(lines, n, widest) == _envelope_loop(lines, n, widest)
