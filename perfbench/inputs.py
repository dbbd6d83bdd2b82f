"""Input graphs for the benchmark, generated without the program.

Every graph is returned as ``(name, text)`` in the plumbsw graph file
format.  Negative definiteness and |H| = det(-I) are decided here by exact
elimination over Fraction, so no input is filtered by the code under test.
"""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

SHIPPED = ("sigma_2_5_7.graph", "two_nodes_h3.graph", "three_nodes_h1.graph")

BRIESKORN = ((2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 7, 9), (17, 19, 23), (2, 3, 301))

# Smallest known tree on which the lattice route disagrees with the other
# three routes: node v8 has valency 4, |H| = 7.
REPRODUCER = """\
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


def graph_text(eulers, edges, ids=None) -> str:
    ids = ids or [f"v{i}" for i in range(len(eulers))]
    lines = [f"vertex {v} {e}" for v, e in zip(ids, eulers)]
    lines += [f"edge {ids[a]} {ids[b]}" for a, b in edges]
    return "\n".join(lines) + "\n"


def parse_text(text: str):
    """(ids, eulers, edges as index pairs) of a graph file."""
    ids, eulers, edges = [], [], []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "vertex":
            ids.append(tok[1])
            eulers.append(int(tok[2]))
        else:
            edges.append((tok[1], tok[2]))
    pos = {v: i for i, v in enumerate(ids)}
    return ids, eulers, [(pos[a], pos[b]) for a, b in edges]


def form(eulers, edges):
    """The intersection matrix: Euler numbers on the diagonal, 1 per edge."""
    n = len(eulers)
    m = [[0] * n for _ in range(n)]
    for i, e in enumerate(eulers):
        m[i][i] = e
    for a, b in edges:
        m[a][b] = m[b][a] = 1
    return m


def h_order(eulers, edges) -> int:
    """det(-I) when -I is positive definite (every pivot of the symmetric
    elimination positive), 0 otherwise."""
    a = [[Fraction(-x) for x in row] for row in form(eulers, edges)]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        if a[k][k] <= 0:
            return 0
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return int(det)


def _neg_cont_frac(a: int, w: int) -> list[int]:
    """a/w = b1 - 1/(b2 - 1/(...)) with every bi >= 2."""
    out = []
    while w:
        b = -(-a // w)
        out.append(b)
        a, w = w, b * w - a
    return out


def brieskorn(p: int, q: int, r: int) -> str:
    """Star plumbing of Sigma(p,q,r): Seifert invariants omega_i with
    omega_i * (pqr/alpha_i) = -1 mod alpha_i, central Euler number chosen
    so the orbifold Euler number is -1/(pqr), legs from negative continued
    fractions of alpha_i/omega_i."""
    pqr = p * q * r
    alphas = (p, q, r)
    omegas = [(-pow(pqr // a, -1, a)) % a for a in alphas]
    e0 = (-1 - sum(w * (pqr // a) for w, a in zip(omegas, alphas))) // pqr
    eulers, edges = [e0], []
    for a, w in zip(alphas, omegas):
        prev = 0
        for b in _neg_cont_frac(a, w):
            eulers.append(-b)
            edges.append((prev, len(eulers) - 1))
            prev = len(eulers) - 1
    return graph_text(eulers, edges)


def star(center: int, legs) -> str:
    """One node with single-vertex legs."""
    return graph_text([center, *legs], [(0, i + 1) for i in range(len(legs))])


def _random_tree(rng: random.Random, n: int):
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return edges


def random_trees(rng: random.Random, count: int, sizes=(9, 13), max_h: int = 4):
    """Negative definite trees with 9-13 vertices, at least two nodes, no
    vertex of valency above 3, and 2 <= |H| <= max_h."""
    out = []
    while len(out) < count:
        n = rng.randint(*sizes)
        edges = _random_tree(rng, n)
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if sum(1 for x in deg if x >= 3) < 2 or max(deg) > 3:
            continue
        eulers = [rng.choice((-1, -1, -2)) if deg[i] >= 3 and rng.random() < 0.6
                  else rng.choice((-2, -2, -2, -2, -3)) for i in range(n)]
        h = h_order(eulers, edges)
        if 2 <= h <= max_h:
            out.append((f"tree{len(out)}_n{n}_h{h}", graph_text(eulers, edges)))
    return out


def relabel(text: str, rng: random.Random) -> str:
    """The same tree with its vertices declared in a random order and its
    edges listed in a random order and orientation."""
    ids, eulers, edges = parse_text(text)
    order = list(range(len(ids)))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    new_edges = [(pos[a], pos[b]) if rng.random() < 0.5 else (pos[b], pos[a])
                 for a, b in edges]
    rng.shuffle(new_edges)
    return graph_text([eulers[i] for i in order], new_edges)


def wide_stars(rng: random.Random, count: int, lo: int = 600, hi: int = 1200):
    """One-node stars star(-c; -a1,-a2,-a3) with lo <= |H| <= hi."""
    out, seen = [], set()
    while len(out) < count:
        c = rng.randint(2, 4)
        legs = tuple(sorted(rng.sample(range(3, 16), 3)))
        h = h_order(*parse_text(star(-c, [-a for a in legs]))[1:])
        if lo <= h <= hi and (c, legs) not in seen:
            seen.add((c, legs))
            name = f"star_{c}_" + "_".join(map(str, legs)) + f"_h{h}"
            out.append((name, star(-c, [-a for a in legs])))
    return out


def shipped(root: Path):
    return [(Path(f).stem, (root / "graphs" / f).read_text()) for f in SHIPPED]
