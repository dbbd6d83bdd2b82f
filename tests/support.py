"""Shared builders for the test suite: shipped example graphs, Brieskorn
star graphs from pairwise coprime exponents, and a seeded random corpus of
small negative definite trees."""
from __future__ import annotations

import heapq
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from plumbsw.decomp import polypart_dual
from plumbsw.graph import PlumbingGraph, parse_graph, validate
from plumbsw.lattice import LatticeError, format_vec, lattice_of

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


def reflected_polypart(g, h, subset):
    """The dual polynomial part of h: the truncation of the series of class
    [Z_K] - h at exponents not above Z_K - E everywhere on the live
    coordinates, read as P+_h of ``polypart_dual`` reflected through Z_K - E,
    on live ``Fraction`` exponents."""
    lat = lattice_of(g)
    zkme = [lat.z_k_me[i] for i in sorted(g.index(v) for v in subset)]
    return {tuple(z - x for z, x in zip(zkme, e)): c
            for e, c in polypart_dual(g, h, subset).poly_live().items()}


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
    lat = lattice_of(g)
    return all(
        sum((Fraction(x[j]) * lat.imat[i][j] for j in range(lat.n)), Fraction(0)).denominator == 1
        for i in range(lat.n)
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
