"""Counting functions of the equivariant Poincare series coefficients.

Q sums z(l') over Lipman-cone exponents of a fixed class that fail the cut
l' >= x on at least one live coordinate; q ("modified") sums over those
strictly below the cut on every live coordinate.  Both are finite exact
sums and satisfy the inclusion-exclusion relation tying Q to the q's of
the non-empty sub-cuts.
"""
from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from operator import add

from .graph import PlumbingGraph
from .lattice import HClass, LatticeError, all_classes, class_of, lattice_of
from .series import _steps, _zeta_factors, live_indices


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


def envelope_floor_sum(lines, n: int, widest) -> int:
    """sum_{k=0}^{n-1} widest_i floor((A_i + k S_i)/D_i) over the lines
    (A_i, S_i, D_i), D_i >= 1, for ``widest`` max or min.

    floor is monotone, so each term is the floor of the upper (max) or lower
    (min) envelope of the lines.  The pieces of that envelope come in order
    of slope: from the line widest at k (ties go to the slope that stays
    widest), the piece ends at the first integer where a line of wider slope
    is strictly wider.  Each piece is one ``floor_sum``."""
    if n == 1:
        return widest([A // D for A, _, D in lines])
    sgn = 1 if widest is max else -1
    total = k = 0
    while k < n:
        A, S, D = lines[0]
        for A2, S2, D2 in lines[1:]:
            c = (A2 + k * S2) * D - (A + k * S) * D2
            if sgn * c > 0 or (c == 0 and sgn * (S2 * D - S * D2) > 0):
                A, S, D = A2, S2, D2
        end = n
        for A2, S2, D2 in lines:
            p = sgn * (S2 * D - S * D2)
            if p > 0:
                # line 2 is strictly wider once x p > sgn (A D2 - A2 D)
                end = min(end, sgn * (A * D2 - A2 * D) // p + 1)
        total += floor_sum(end - k, D, S, A + k * S)
        k = end
    return total


def _cut_sum(g: PlumbingGraph, h: HClass, subset, x, quantifier) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for ``quantifier`` (any
    or all) of the live v.

    Two-factor rule.  The last two walker factors are series 1/(1 - t^b)
    and 1/(1 - t^a) of multiplicity 1 (a graph with one vertex has one
    factor of multiplicity 2, fed as two equal ones).  The walk stops before
    both.  At each leaf e the closed form takes K, the number of steps k
    along b for which e + k b passes the cut, from ``series._steps`` as each
    walk level does.  From e + k b the points e + k b + j a pass exactly
    for j < run(k), ``_steps`` along a.  Such a point is in class h when
    k [b] + j [a] = h - [e].

    Let o be the order of [a], ob the least r > 0 with r [b] in <[a]>, and
    ob [b] = s [a].  A per-walk table of the o * ob <= |H| classes
    h - r [b] - j [a] (r < ob, j < o) gives each leaf class its least
    solution (r0, j0).  The residues r = r0 + i ob below the order of [b]
    meet the class with j = j0 - i s (mod o), fixed along the residue.  So
    at step k = r + m ord[b] the count is floor((run(k) - 1 - j)/o) + 1,
    never negative as run(k) >= 1 and j < o.  The nested floors fold into
    widest_i floor((c_i - e_i - 1 - j a_i - r b_i - m ord[b] b_i)/(a_i o))
    + 1: the floor of an envelope of lines in m, summed by
    ``envelope_floor_sum``.  A leaf looks only at residues r < K, so it
    never costs more steps than the K points along b it stands for.

    The walk state.  Below a point, both the rest of the walk and the
    closed form at its leaves depend only on the factor level, the point's
    live coordinates (each level's ``_steps`` reads only those) and its
    class.  So the walk is a recursion over that state returning the sum of
    its subtree, and the class is an index into ``all_classes``, advanced
    by a step table per factor built once per walk.  It memoizes the levels
    deeper than the number m of live coordinates, where distinct prefixes
    meet in one state.  A prefix of at most m factors has no more step
    counts than there are live coordinates, so distinct prefixes seldom
    meet there, and a memo would mostly hold entries never read.  The full-variable cut walks
    fewer than m = n factors, so it memoizes nothing and keeps memory
    linear in the walk depth.

    Everything is finite because a and b are strictly positive on the
    bounded coordinates: K and every run are finite ceiling divisions, the
    lines fall strictly, and every piece of their envelope is a bounded
    ``floor_sum``."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    if class_of(g, x) != h:
        raise LatticeError("cut vector does not represent the requested class")
    sx, hkey = lat.scaled(x), h.key
    d = lat.h_order
    factors = _zeta_factors(lat)
    a, mult = factors.pop()
    factors += [(a, 1)] * (mult - 1)
    b = factors.pop()[0]

    def step(key, col, k=1):
        return tuple((c + k * y) % d for c, y in zip(key, col))

    zero = (0,) * lat.n
    first_a: dict[tuple[int, ...], int] = {}
    offset = zero
    while offset not in first_a:
        first_a[offset] = len(first_a)
        offset = step(offset, a)
    o = len(first_a)
    # table: class of a leaf e -> the least (r0, j0) with
    # h - [e] = r0 [b] + j0 [a]
    table: dict[tuple[int, ...], tuple[int, int]] = {}
    r, offset = 0, zero
    while True:
        for jkey, j in first_a.items():
            table[step(hkey, step(offset, jkey), -1)] = (r, j)
        r += 1
        offset = step(offset, b)
        if offset in first_a:
            break
    ob, s = r, first_a[offset]
    order_b = ob * (o // gcd(o, s))

    # the walk runs on the live coordinates only, as positions 0..m-1
    m = len(active)
    bounds = tuple(enumerate(sx[i] for i in active))
    widest = max if quantifier is any else min
    b_live = tuple(b[i] for i in active)
    steps = [(sx[i] - 1, a[i], b[i], -order_b * b[i], a[i] * o) for i in active]
    # class index -> the table's (r0, j0) or None, and per walked factor
    # -> the class index one step along it
    keys = [c.key for c in all_classes(g)]
    index = {key: i for i, key in enumerate(keys)}
    hits = [table.get(key) for key in keys]
    moves = [[index[step(key, col)] for key in keys] for col, _ in factors]
    walked = [(tuple(col[i] for i in active), info) for col, info in factors]
    last = len(factors)
    memo: dict[tuple, int] = {}

    def leaf(e, cls):
        hit = hits[cls]
        if hit is None:
            return 0
        r, j = hit
        K = _steps(e, b_live, bounds, widest)
        count = 0
        while r < K and r < order_b:
            lines = [(c - ei - j * ai - r * bi, S, D)
                     for ei, (c, ai, bi, S, D) in zip(e, steps)]
            n = (K - 1 - r) // order_b + 1
            count += n + envelope_floor_sum(lines, n, widest)
            r += ob
            j = (j - s) % o
        return count

    def rec(fi, e, cls):
        if fi > m:
            state = (fi, e, cls)
            total = memo.get(state)
            if total is None:
                total = memo[state] = subtree(fi, e, cls)
            return total
        return subtree(fi, e, cls)

    def subtree(fi, e, cls):
        if fi == last:
            return leaf(e, cls)
        col, info = walked[fi]
        move = moves[fi]
        n = _steps(e, col, bounds, widest)
        finite = isinstance(info, tuple)
        total = 0
        for k in range(min(n, len(info)) if finite else n):
            w = info[k] if finite else comb(k + info - 1, info - 1)
            total += w * rec(fi + 1, e, cls)
            e = tuple(map(add, e, col))
            cls = move[cls]
        return total

    total = rec(0, (0,) * m, index[zero])
    # rec and subtree hold each other through their closures: empty rec's
    # cell, so the memo and the step tables are freed on return, not at the
    # next full collection
    del rec
    return total


def Q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for at least one live v."""
    return _cut_sum(g, h, subset, x, any)


def q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for every live v."""
    return _cut_sum(g, h, subset, x, all)


def inclusion_exclusion_check(g: PlumbingGraph, h: HClass, subset, x) -> bool:
    """Q equals the alternating sum of q over the non-empty sub-cuts."""
    ids = tuple(subset)
    rhs = 0
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            rhs += (-1) ** (size + 1) * q(g, h, sub, x)
    return Q(g, h, ids, x) == rhs
