"""Counting functions of the equivariant Poincare series coefficients.

Q sums z(l') over Lipman-cone exponents of a fixed class that fail the cut
l' >= x on at least one live coordinate; q ("modified") sums over those
strictly below the cut on every live coordinate.  Both are finite exact
sums and satisfy the inclusion-exclusion relation tying Q to the q's of
the non-empty sub-cuts.

The cut is a vector of L', held scaled, as sx = d x, d = |H|, by the one
core ``_cut_sum`` and by ``_inclusion_exclusion``.  ``Q``, ``q`` and
``inclusion_exclusion_check`` take x as rationals and scale it once, by
``Lattice.scaled``; ``plumbsw verify`` and ``swcore.quadratic_check`` call
the cores with their scaled samples, and build no ``Fraction``.

``_cut_sum`` walks the cone by one recursion over (level, slack, class),
the class an index into ``all_classes``.  One class-step table,
``Lattice.class_moves``, moves that index along each walked factor and,
stepping back along the last two, gives each leaf class its first step in
closed form; the walk keys no table by class key.
"""
from __future__ import annotations

from itertools import combinations
from math import comb, gcd, lcm
from operator import add, floordiv

from .graph import PlumbingGraph
from .lattice import HClass, LatticeError, format_scaled, lattice_of
from .series import _zeta_factors, live_indices


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b)/m) for n >= 0 and m >= 1, any integer
    a and b, in O(log m) steps: the Euclid-like recursion of the AtCoder
    Library's ``floor_sum``, which swaps the roles of a and m."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _envelope(starts, slopes, overtakers, k: int, n: int) -> list:
    """The pieces (k0, end, i) of the upper envelope of the integer lines
    starts_i + x slopes_i over k <= x < n: line i is the widest for
    k0 <= x < end.

    The lines come in tie order, by decreasing slope, so that among tied
    values the first is the line that stays widest, and ``index`` of the
    maximum picks it.  overtakers[i] lists the gaps by which the slopes of
    the lines before line i exceed its own, for the prefix of lines of
    greater slope.  Line i's piece ends where the first of them is strictly
    wider, one floor division each.  The lines after the prefix stay at or
    below line i, so the next piece is on a line of the prefix, and only
    the prefix's values are computed again."""
    pieces = []
    values = [s + k * d for s, d in zip(starts, slopes)]
    while k < n:
        top = max(values)
        i = values.index(top)
        gaps = overtakers[i]
        end = n
        if gaps:
            end = min(n, k + 1 + min(map(floordiv, [top - v for v in values], gaps)))
        pieces.append((k, end, i))
        if end < n:
            values = [s + end * d for s, d in zip(starts, slopes[:len(gaps)])]
        k = end
    return pieces


def _cut_sum(g: PlumbingGraph, h: HClass, subset, sx, quantifier) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for ``quantifier`` (any
    or all) of the live v, the cut x given scaled, as sx = d x, d = |H|.
    ``LatticeError`` unless sx is in the dual lattice and of class h.

    The slack walk.  The walk holds a point e by its negative slack
    t = e - x on the live coordinates (scaled).  From e, the points e + k y
    along a column y pass the cut for k < ceil(-t_i / y_i) on any (max) or
    all (min) of the live i, so each level counts its steps in one pass,
    -min (any) or -max (all) of the t_i // y_i.

    Two-factor rule.  The last two walker factors are series 1/(1 - t^b)
    and 1/(1 - t^a) of multiplicity 1 (a graph with one vertex has one
    factor of multiplicity 2, fed as two equal ones).  The walk stops before
    both.  At each leaf e the closed form takes K, the number of steps k
    along b for which e + k b passes the cut, counted as at each level.
    From e + k b the points e + k b + j a pass exactly for j < run(k), the
    steps along a.  Such a point is in class h when k [b] + j [a] = h - [e].

    Let o be the order of [a], ob the least r > 0 with r [b] in <[a]>, and
    ob [b] = s [a].  The o * ob <= |H| classes h - r [b] - j [a] (r < ob,
    j < o) are distinct, and ``hits`` gives each its least solution
    (r0, j0), filled by walking back from h: o steps along -a per row, rows
    along -b, until a row starts on a class already met, h - ob [b] =
    h - s [a] of row 0.  The residues r = r0 + i ob below the order of [b]
    meet the class with j = j0 - i s (mod o), fixed along the residue.  So
    at step k = r + m ord[b] the count is floor((run(k) - 1 - j)/o) + 1,
    never negative as run(k) >= 1 and j < o.  With the lines
    y_i(k) = (-t_i - 1 - k b_i)/a_i, run(k) - 1 = floor(widest_i y_i(k)),
    and since y -> floor((y - j)/o) is non-decreasing the count is
    floor((y_i(k) - j)/o) + 1 = floor((-t_i - 1 - k b_i - j a_i)/(a_i o)) + 1
    for the line i widest at k, whatever the residue.

    One envelope per leaf.  So a leaf builds the pieces of the envelope of
    the y_i on r0 <= k < K once (``_envelope``), and each residue sums one
    ``floor_sum`` per piece over its steps k = r + m ord[b] there.  The
    lines compare as integers, times one denominator per walk (the lcm of
    the a_i) and negated for min.  The live coordinates are put in tie order
    once per walk, by decreasing slope: the first of tied values is then the
    line that stays widest, and a piece ends where one of the lines of wider
    slope, listed once per walk, becomes strictly wider.  A leaf looks only
    at residues r < K, and builds no piece before r0.  The level above the
    leaves calls a leaf only when its class has a hit and r0 < K, so a leaf
    that counts nothing costs no call.

    The walk state.  Below a point, both the rest of the walk and the
    closed form at its leaves depend only on the factor level, the point's
    slack t (its live coordinates, as x is fixed) and its class.  So the
    walk is one recursion, ``walk``, over that state returning the sum of
    its subtree, and the class is an index into ``all_classes``.  One step
    table, ``Lattice.class_moves`` over the walked factors and the back
    steps -a and -b, built once per walk, advances the index along each
    factor and fills ``hits``; no table is keyed by class key.  The walk
    memoizes the levels deeper than the number m of live coordinates,
    leaves included, where distinct prefixes meet in one state.  A prefix
    of at most m factors has no more step counts than there are live
    coordinates, so distinct prefixes seldom meet there, and a memo would
    mostly hold entries never read.  The full-variable cut walks fewer than
    m = n factors, so it memoizes nothing and keeps memory linear in the
    walk depth.

    Everything is finite because a and b are strictly positive on the
    bounded coordinates: K and every run are finite ceiling divisions, the
    lines fall strictly, and every piece of their envelope is a bounded
    ``floor_sum``."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    if not lat.in_dual(sx):
        raise LatticeError(f"{format_scaled(sx, lat.h_order)} is not in the dual lattice")
    if lat.class_at(sx) != h:
        raise LatticeError("cut vector does not represent the requested class")
    factors = _zeta_factors(lat)
    a, mult = factors.pop()
    factors += [(a, 1)] * (mult - 1)
    b = factors.pop()[0]

    # The walk runs on the live coordinates only, in the tie order of their
    # lines.  At a leaf of slack t, line i is (t_i + 1 + k b_i) * ups_i:
    # y_i(k) times denom, negated for min, so every envelope is an upper one.
    sgn = 1 if quantifier is any else -1
    fold = min if quantifier is any else max
    denom = lcm(*(a[i] for i in active))
    live = sorted(active, key=lambda i: sgn * b[i] * (denom // a[i]))
    m = len(live)
    a_live = tuple(a[i] for i in live)
    b_live = tuple(b[i] for i in live)
    ups = [-sgn * (denom // ai) for ai in a_live]
    slopes = [bi * up for bi, up in zip(b_live, ups)]
    overtakers = [[s2 - s1 for s2 in slopes if s2 > s1] for s1 in slopes]
    # the step table of the walked factors and of the back steps -a and -b
    classes, index, moves = lat.class_moves(
        [col for col, _ in factors] + [[-y for y in a], [-y for y in b]])
    back_a, back_b = moves[-2:]
    # hits: class index -> the least (r0, j0) with h - c = r0 [b] + j0 [a],
    # or None when the two last factors do not reach h from c
    hits = [None] * len(classes)
    r, row = 0, index[h.key]
    while hits[row] is None:
        c, j = row, 0
        while hits[c] is None:
            hits[c] = (r, j)
            c, j = back_a[c], j + 1
        r, row = r + 1, back_b[row]
    o, ob, s = j, r, hits[row][1]
    order_b = ob * (o // gcd(o, s))
    walked = [(tuple(col[i] for i in live), info) for col, info in factors]
    last = len(factors)
    memo: dict[tuple, int] = {}

    def leaf(t, r, j):
        K = -fold(map(floordiv, t, b_live))
        pieces = _envelope([(ti + 1) * up for ti, up in zip(t, ups)],
                           slopes, overtakers, r, K)
        count = 0
        while r < K and r < order_b:
            for k0, k1, i in pieces:
                k = r if k0 <= r else k0 + (r - k0) % order_b
                if k < k1:
                    n = (k1 - 1 - k) // order_b + 1
                    ai, bi = a_live[i], b_live[i]
                    first = -t[i] - 1 - j * ai - k * bi
                    count += (n + floor_sum(n, ai * o, -order_b * bi, first) if n > 1
                              else 1 + first // (ai * o))
            r += ob
            j = (j - s) % o
        return count

    def walk(fi, t, cls):
        if fi > m and (total := memo.get((fi, t, cls))) is not None:
            return total
        if fi == last:
            # the level above calls a leaf only when it counts; a walk with
            # no walked factor is one leaf, which may not
            hit = hits[cls]
            total = 0 if hit is None else leaf(t, *hit)
        else:
            col, info = walked[fi]
            move = moves[fi]
            n = -fold(map(floordiv, t, col))
            finite = isinstance(info, tuple)
            final = fi + 1 == last
            total, u, c = 0, t, cls
            for k in range(min(n, len(info)) if finite else n):
                # one level above the leaves, step past each leaf that counts
                # nothing: its class is not met (no hit), or r0 >= K
                if not final or (hit := hits[c]) is not None and hit[0] < -fold(
                        map(floordiv, u, b_live)):
                    w = info[k] if finite else comb(k + info - 1, info - 1)
                    total += w * walk(fi + 1, u, c)
                u = tuple(map(add, u, col))
                c = move[c]
        if fi > m:
            memo[fi, t, cls] = total
        return total

    # all_classes is sorted by key, so the zero class is index 0
    total = walk(0, tuple(-sx[i] for i in live), 0)
    # walk holds itself through its closure: empty its cell, so the memo and
    # the step tables are freed on return, not at the next full collection
    del walk
    return total


def Q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for at least one live v."""
    return _cut_sum(g, h, subset, lattice_of(g).scaled(x), any)


def q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for every live v."""
    return _cut_sum(g, h, subset, lattice_of(g).scaled(x), all)


def inclusion_exclusion_check(g: PlumbingGraph, h: HClass, subset, x) -> bool:
    """Q equals the alternating sum of q over the non-empty sub-cuts."""
    return _inclusion_exclusion(g, h, subset, lattice_of(g).scaled(x))


def _inclusion_exclusion(g: PlumbingGraph, h: HClass, subset, sx) -> bool:
    """``inclusion_exclusion_check`` at the cut given scaled, sx = d x."""
    ids = tuple(subset)
    rhs = 0
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            rhs += (-1) ** (size + 1) * _cut_sum(g, h, sub, sx, all)
    return _cut_sum(g, h, ids, sx, any) == rhs
