"""Shared builders for the test suite: shipped example graphs, Brieskorn
star graphs from pairwise coprime exponents, and a seeded random corpus of
small negative definite trees."""
from __future__ import annotations

import heapq
import random
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

from plumbsw.decomp import polypart_dual
from plumbsw.graph import PlumbingGraph, parse_graph, validate
from plumbsw.lattice import LatticeError, canonical_cycle, e_star, format_vec, lattice_of
from plumbsw.series import RatFunc, _tally

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"

CORPUS_SEED = 20240912
CORPUS_SIZE = 30


def load_graph(name: str) -> PlumbingGraph:
    return parse_graph((GRAPH_DIR / name).read_text())


def sigma257() -> PlumbingGraph:
    return load_graph("sigma_2_5_7.graph")


def two_nodes() -> PlumbingGraph:
    return load_graph("two_nodes_h3.graph")


def three_nodes() -> PlumbingGraph:
    return load_graph("three_nodes_h1.graph")


def neg_cont_frac(a: int, w: int) -> list[int]:
    """a/w = b1 - 1/(b2 - 1/(...)) with every bi >= 2."""
    out = []
    while w:
        b = -(-a // w)
        out.append(b)
        a, w = w, b * w - a
    return out


def brieskorn(p: int, q: int, r: int) -> PlumbingGraph:
    """Star-shaped plumbing of the Brieskorn sphere with the given pairwise
    coprime exponents: Seifert data solved from the orbifold Euler number
    -1/(pqr), legs by negative continued fractions."""
    alphas = (p, q, r)
    pqr = p * q * r
    omegas = []
    for a in alphas:
        w = (-pow(pqr // a, -1, a)) % a
        omegas.append(w if w else a)
    e0 = (-1 - sum(w * (pqr // a) for w, a in zip(omegas, alphas))) // pqr
    lines = [f"vertex c {e0}"]
    edges = []
    for i, (a, w) in enumerate(zip(alphas, omegas)):
        prev = "c"
        for j, b in enumerate(neg_cont_frac(a, w)):
            vid = f"l{i}_{j}"
            lines.append(f"vertex {vid} {-b}")
            edges.append(f"edge {prev} {vid}")
            prev = vid
    return parse_graph("\n".join(lines + edges))


def star(center_euler: int, leg_eulers) -> PlumbingGraph:
    lines = [f"vertex c {center_euler}"]
    edges = []
    for i, e in enumerate(leg_eulers):
        lines.append(f"vertex s{i} {e}")
        edges.append(f"edge c s{i}")
    return parse_graph("\n".join(lines + edges))


def chain(eulers) -> PlumbingGraph:
    lines = [f"vertex c{i} {e}" for i, e in enumerate(eulers)]
    edges = [f"edge c{i} c{i + 1}" for i in range(len(eulers) - 1)]
    return parse_graph("\n".join(lines + edges))


def caterpillar(k: int) -> PlumbingGraph:
    """A chain of k nodes n0..n(k-1) of Euler number -3, node n{i} with two
    one-vertex legs a{i} and b{i} of Euler numbers -2 and -3: 3k vertices,
    |H| = 133, 1261 and 11605 for k = 2, 3 and 4."""
    lines, edges = [], []
    for i in range(k):
        lines += [f"vertex n{i} -3", f"vertex a{i} -2", f"vertex b{i} -3"]
        edges += [f"edge n{i} a{i}", f"edge n{i} b{i}"]
        if i:
            edges.append(f"edge n{i - 1} n{i}")
    return parse_graph("\n".join(lines + edges))


# star(-1; -3,-4,-5,-5) and this 9-vertex tree (node v8 of valency 4,
# |H| = 7) are the smallest known trees that need the binomial weights of
# the lattice route.
VALENCY4_TREE = """\
vertex v0 -2
vertex v1 -2
vertex v2 -3
vertex v3 -2
vertex v4 -2
vertex v5 -3
vertex v6 -2
vertex v7 -3
vertex v8 -2
edge v0 v5
edge v1 v3
edge v1 v5
edge v2 v4
edge v4 v8
edge v5 v8
edge v6 v8
edge v7 v8
"""


# Seeds of ``hub_tree`` whose trees have a class on which the lattice route,
# summed without the binomial weights of its nodes, disagrees with the other
# routes: 14 with a hub of valency 4, 14 of valency 5, 8 of valency 6.
HUB_SEEDS = (0, 3, 14, 34, 74, 113, 114, 146, 164, 168, 189, 191, 196, 210, 235, 246,
             249, 258, 262, 275, 278, 281, 350, 371, 385, 395, 400, 421, 439, 493,
             516, 527, 550, 572, 573, 586)


def hub_tree(seed: int, max_h: int = 60) -> PlumbingGraph:
    """A negative definite tree with at most 11 vertices and |H| <= max_h
    whose vertex v0 is a node of valency 4 to 6, drawn from the seed: the
    hub's neighbours v1..v_val, each further vertex hung from an earlier
    non-hub one."""
    rng = random.Random(seed)
    while True:
        val = rng.randint(4, 6)
        n = rng.randint(val + 1, 11)
        parent = [None] + [0] * val + [rng.randrange(1, i) for i in range(val + 1, n)]
        eulers = [rng.choice([-1, -1, -2])]
        eulers += [rng.choice([-2, -2, -2, -3, -3, -4, -5]) for _ in range(n - 1)]
        ids = tuple(f"v{i}" for i in range(n))
        g = PlumbingGraph(ids, tuple(eulers), frozenset(
            (ids[p], ids[i]) for i, p in enumerate(parent) if p is not None))
        if validate(g).ok and lattice_of(g).h_order <= max_h:
            return g


def _random_tree_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    if n < 2:
        return edges
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


def random_graph(rng: random.Random, n: int) -> PlumbingGraph:
    edges = _random_tree_edges(rng, n)
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    eulers = []
    for i in range(n):
        if deg[i] >= 3 and rng.random() < 0.6:
            eulers.append(rng.choice([-1, -1, -2]))
        else:
            eulers.append(rng.choice([-2, -2, -2, -2, -3]))
    ids = tuple(f"v{i}" for i in range(n))
    return PlumbingGraph(ids, tuple(eulers),
                         frozenset((ids[a], ids[b]) for a, b in edges))


def corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE, max_n: int = 8,
           max_h: int = 12, node_quota: int = 15) -> list[PlumbingGraph]:
    """Deterministic stream of random negative definite trees with at most
    ``max_n`` vertices and |H| <= ``max_h``; ``node_quota`` of them have at
    least one node so every route gets exercised."""
    rng = random.Random(seed)
    with_nodes: list[PlumbingGraph] = []
    without: list[PlumbingGraph] = []
    tries = 0
    while len(with_nodes) + len(without) < count:
        tries += 1
        if tries > 200000:
            raise RuntimeError("corpus generation stalled")
        g = random_graph(rng, rng.randint(2, max_n))
        if not validate(g).ok:
            continue
        lat = lattice_of(g)
        if lat.h_order > max_h:
            continue
        if lat.node_idx and len(with_nodes) < node_quota:
            with_nodes.append(g)
        elif not lat.node_idx and len(without) < count - node_quota:
            without.append(g)
    return with_nodes + without


def intersection_matrix(g: PlumbingGraph) -> tuple[tuple[int, ...], ...]:
    """The dense intersection matrix: Euler numbers on the diagonal, 1 per
    edge, 0 otherwise.  The package keeps the form only as the Euler
    numbers and the edges."""
    pos = {v: i for i, v in enumerate(g.ids)}
    m = [[0] * g.n for _ in range(g.n)]
    for i, e in enumerate(g.eulers):
        m[i][i] = e
    for a, b in g.edges:
        i, j = pos[a], pos[b]
        m[i][j] = m[j][i] = 1
    return tuple(tuple(row) for row in m)


def definite_adjugate(m):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of [m | 1] over the
    big integers, the reference for the package's elimination along the
    tree.  The pivot of step k is the (k+1)-th leading principal minor of
    m, and every entry stays an integer minor of [m | 1], so the
    elimination ends at [det(m) 1 | adj(m)].

    Returns (det(m), adj(m)) when every leading principal minor is positive
    (m is positive definite), else the message naming the first that is not.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        p = pivot_row[k]
        if p <= 0:
            return f"leading principal minor {k + 1} is not positive"
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in a)


def neg_intersection_matrix(g: PlumbingGraph, vertices=None):
    """-I, or its principal submatrix on ``vertices`` (ids, in basis order)."""
    m = intersection_matrix(g)
    keep = range(g.n) if vertices is None else sorted(map(g.index, vertices))
    return [[-m[i][j] for j in keep] for i in keep]


def classify_vertices(g: PlumbingGraph):
    """Split vertices into nodes (valency >= 3) and ends (valency 1), with
    the valencies counted off the graph's edges, apart from the package,
    which reads them off its elimination along the tree.

    Returns (nodes, ends, valency map); the id tuples follow basis order.
    """
    counted = Counter(v for edge in g.edges for v in edge)
    val = {v: counted[v] for v in g.ids}
    nodes = tuple(v for v in g.ids if val[v] >= 3)
    ends = tuple(v for v in g.ids if val[v] == 1)
    return nodes, ends, val


# ``Fraction`` vectors for the tests, read through the public accessors; the
# package itself holds every lattice vector as a scaled integer tuple.

def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def zeta_coeff(g, lprime) -> int:
    """z(l'), the coefficient of t^l' in the zeta function
    prod_v (1 - t^{E*_v})^{valency(v) - 2}, by brute force over every way
    of writing l' as sum_v x_v E*_v over the vertices of valency != 2.  A
    vertex with mu = valency - 2 > 0 takes x_v <= mu with weight
    (-1)^x_v C(mu, x_v), one with mu < 0 any x_v with weight
    C(x_v - mu - 1, -mu - 1).  Every anti-dual entry is positive, so the
    remainder l' - sum x_v E*_v turns negative after finitely many steps,
    and z(l') = 0 off the Lipman cone."""
    _, _, val = classify_vertices(g)
    factors = [(e_star(g, v), val[v] - 2) for v in g.ids if val[v] != 2]

    def count(i, rest):
        if i == len(factors):
            return int(not any(rest))
        col, mu = factors[i]
        total, x = 0, 0
        while all(r >= 0 for r in rest) and (mu < 0 or x <= mu):
            weight = (-1) ** x * comb(mu, x) if mu > 0 else comb(x - mu - 1, -mu - 1)
            total += weight * count(i + 1, rest)
            rest, x = vec_sub(rest, col), x + 1
        return total

    return count(0, tuple(map(Fraction, lprime)))


def end_combination(g, x):
    """sum_e x_e E*_e over the end vertices in basis order: the vector whose
    class is rho(x) in H."""
    out = (Fraction(0),) * g.n
    for c, e in zip(x, lattice_of(g).end_idx):
        out = vec_add(out, vec_scale(c, e_star(g, g.ids[e])))
    return out


def anti_duals(g):
    """E*_v of every vertex v, in vertex order."""
    return tuple(e_star(g, v) for v in g.ids)


def z_k_minus_e(g):
    """Z_K - E: the canonical cycle minus 1 on every vertex."""
    return tuple(z - 1 for z in canonical_cycle(g))


def poly_live(lat, poly):
    """A P+ on live ``Fraction`` exponents: each scaled key divided by |H|."""
    return {lat.unscaled(e): c for e, c in poly.items()}


def residue(dec):
    """The class key of a division certificate off its live coordinates,
    which every exponent of the component shares mod |H| there, and zeros
    on them."""
    return tuple(0 if i in dec.active else k for i, k in enumerate(dec.htag.key))


def reflected_polypart(g, h, subset):
    """The dual polynomial part of h: the truncation of the series of class
    [Z_K] - h at exponents not above Z_K - E everywhere on the live
    coordinates, read as P+_h of ``polypart_dual`` reflected through Z_K - E,
    on live ``Fraction`` exponents."""
    zkme = [z_k_minus_e(g)[i] for i in sorted(g.index(v) for v in subset)]
    return {tuple(z - x for z, x in zip(zkme, e)): c
            for e, c in poly_live(lattice_of(g), polypart_dual(g, subset)[h]).items()}


def neg(dec):
    """Negative degree part of a division certificate: the non-empty S of
    ``dec.by_s`` over the full denominator, its scaled exponents rebuilt
    from live part and residue."""
    active = dec.active
    live_denom = [tuple(a[i] for i in active) for a in dec.denominator]
    num: dict = {}

    def full(e):
        out = list(residue(dec))
        for i, x in zip(active, e):
            out[i] = x
        return tuple(out)

    for S in filter(None, dec.by_s):
        rest = [(a, (1, -1)) for i, a in enumerate(live_denom) if i not in S]
        for e, c in _tally(dec.by_s[S].items(), rest, ((), all), full).items():
            num[e] = num.get(e, 0) + c
    return RatFunc(dec.lat, num, dec.denominator, active, htag=dec.htag)


def reference_divide(lat, active, numerator, denominator):
    """Euclidean division of the reduced function numerator / prod (1 - t^a)
    over a in ``denominator``, all exponents full ``Fraction`` vectors, as
    the package did it before dividing on the live coordinates: every
    exponent is scaled to integers, its off-live coordinates are reduced mod
    |H| after each step, and the certificate comes back as ``Fraction``
    vectors.  Returns the sorted denominator and ``by_s``; the S = {} bucket
    is the polynomial part."""
    d = lat.h_order
    off_live = [i for i in range(lat.n) if i not in active]

    def canon(scaled):
        out = list(scaled)
        for i in off_live:
            out[i] %= d
        return tuple(out)

    def less(sb, sa):
        return all(sb[i] < sa[i] for i in active)

    def project(a):
        return tuple(a[i] for i in active)

    denom = tuple(sorted(denominator, key=lambda a: (project(a), a)))
    sa = [lat.scaled(a) for a in denom]
    terms: dict = {}
    heap: list = []

    def add(S, sb, c):
        if (S, sb) not in terms:
            terms[S, sb] = 0
            heapq.heappush(heap, (-sum(sb[i] for i in active), sorted(S), sb, S))
        terms[S, sb] += c

    for b, c in numerator.items():
        add(frozenset(range(len(denom))), canon(lat.scaled(b)), c)
    while heap:
        _, _, sb, S = heapq.heappop(heap)
        i0 = next((i for i in sorted(S) if not less(sb, sa[i])), None)
        c = 0 if i0 is None else terms.pop((S, sb))
        if c:
            shifted = canon(tuple(x - y for x, y in zip(sb, sa[i0])))
            add(S - {i0}, shifted, -c)
            add(S, shifted, c)
    by_s: dict = {}
    for (S, sb), c in terms.items():
        if c:
            by_s.setdefault(S, {})[tuple(Fraction(x, d) for x in sb)] = c
    return denom, by_s


# The class layer on ``Fraction`` vectors, as the package had it before
# classes became scaled integer keys: the L' test, the representative in
# [0,1) of a dual lattice vector and the sum and negation of
# representatives.  A class was printed as ``format_vec`` of its
# representative.

def reference_in_dual_lattice(g, x):
    m = intersection_matrix(g)
    return all(
        sum((Fraction(x[j]) * m[i][j] for j in range(g.n)), Fraction(0)).denominator == 1
        for i in range(g.n)
    )


def reference_class_rep(g, x):
    if not reference_in_dual_lattice(g, x):
        raise LatticeError(f"{format_vec(x)} is not in the dual lattice")
    return tuple(Fraction(c) - (Fraction(c).numerator // Fraction(c).denominator)
                 for c in x)


def reference_class_add(a, b):
    return tuple(x + y - int(x + y) for x, y in zip(a, b))


def reference_class_neg(a):
    return tuple(Fraction(0) if not x else 1 - x for x in a)


def reference_classes(g):
    """Every class key of H, sorted, reached breadth-first from the zero
    class by adding anti-dual keys mod |H|, as the package enumerated H
    before it walked an echelon basis."""
    lat = lattice_of(g)
    d = lat.h_order
    gens = {lat.class_key(col) for col in lat.sestar}
    seen = {lat.zero_class.key}
    frontier = [lat.zero_class.key]
    while frontier:
        key = frontier.pop()
        for gen in gens:
            nxt = tuple((a + b) % d for a, b in zip(key, gen))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def d_graph(n: int) -> PlumbingGraph:
    """D_n, n >= 4, every vertex -2: a chain c0..c(n-2) with c(n-1) hung
    from c(n-3).  H is (Z/2)^2 for even n and Z/4 for odd n."""
    lines = [f"vertex c{i} -2" for i in range(n)]
    edges = [f"edge c{i} c{i + 1}" for i in range(n - 2)] + [f"edge c{n - 3} c{n - 1}"]
    return parse_graph("\n".join(lines + edges))
