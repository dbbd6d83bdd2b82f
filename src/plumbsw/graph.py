"""Plumbing trees: parsing, validation, basic combinatorics and the
elimination of the intersection form along the tree.

A plumbing graph is a finite tree whose vertices are decorated by integer
Euler numbers.  The intersection form I has the Euler numbers on the
diagonal and a 1 for every edge; only graphs with a negative definite
form describe the manifolds this package computes with.  All genus
decorations are implicitly zero, so the link is a rational homology
sphere.

No dense matrix of the form is built.  ``rooting`` orders the vertices
breadth-first from the first declared one, which also tells whether the
graph is connected.  On a tree, ``tree_elimination`` eliminates -I leaves
first along that rooting: -I has no fill-in in that order, so one pass up
and one pass down give the determinant of -I on every branch, and with
them definiteness, det(-I) and the adjugate of -I, a product of branch
determinants in every entry (``tree_adjugate``).  The elimination's steps
list each vertex's neighbours once, and the rooting's (parent, child) pairs
are the edges, so ``lattice.Lattice`` reads the tree's shape off them.

``validate`` is the one judge of a tree.  It roots the graph, counts its
edges and eliminates -I once, gives every failing check a detail, and
keeps the rooting and the elimination of a graph that passes.
``lattice.Lattice`` builds from those, and refuses any other graph with
the first failing check's text, ``ValidationReport.error``.
"""
from __future__ import annotations

import re
from math import prod
from typing import NamedTuple

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# ASCII digits only: int() would also take "1_0" and non-ASCII digits
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class GraphFormatError(ValueError):
    """A graph file violates the grammar (message carries line/column)."""


class PlumbingGraph(NamedTuple):
    """Immutable decorated tree.  Vertex declaration order is the canonical
    basis order used for every vector printed or compared downstream.
    ``index`` shadows ``tuple.index``."""

    ids: tuple[str, ...]
    eulers: tuple[int, ...]
    edges: frozenset[tuple[str, str]]

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, v: str) -> int:
        try:
            return self.ids.index(v)
        except ValueError:
            raise KeyError(f"unknown vertex {v!r}") from None


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line oriented graph format.

    Grammar (UTF-8): blank lines and lines starting with ``#`` are ignored;
    ``vertex <id> <integer>`` declares a vertex, ``edge <id> <id>`` an
    unordered edge.  Ids match [A-Za-z0-9_]+ and integers [+-]?[0-9]+.
    Declaration order of the vertices fixes the basis order.
    """
    ids: list[str] = []
    eulers: list[int] = []
    seen: set[str] = set()
    edges: set[tuple[str, str]] = set()
    pending_edges: list[tuple[str, str, int]] = []

    def fail(lineno: int, col: int, msg: str):
        raise GraphFormatError(f"line {lineno}, column {col}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        col = raw.index(tokens[0]) + 1
        if tokens[0] == "vertex":
            if len(tokens) != 3:
                fail(lineno, col, "expected 'vertex <id> <integer>'")
            vid = tokens[1]
            if not _ID_RE.match(vid):
                fail(lineno, raw.index(vid) + 1, f"bad vertex id {vid!r}")
            if vid in seen:
                fail(lineno, raw.index(vid) + 1, f"duplicate vertex id {vid!r}")
            if not _INT_RE.match(tokens[2]):
                fail(lineno, raw.index(tokens[2], raw.index(vid)) + 1,
                     f"bad euler number {tokens[2]!r}")
            seen.add(vid)
            ids.append(vid)
            eulers.append(int(tokens[2]))
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                fail(lineno, col, "expected 'edge <id> <id>'")
            a, b = tokens[1], tokens[2]
            if a == b:
                fail(lineno, col, f"self loop at {a!r}")
            pending_edges.append((a, b, lineno))
        else:
            fail(lineno, col, f"unknown directive {tokens[0]!r}")

    if not ids:
        raise GraphFormatError("no vertices declared")

    pos = {v: i for i, v in enumerate(ids)}
    for a, b, lineno in pending_edges:
        for v in (a, b):
            if v not in pos:
                raise GraphFormatError(f"line {lineno}: unknown vertex {v!r}")
        key = (a, b) if pos[a] < pos[b] else (b, a)
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {a}-{b}")
        edges.add(key)

    return PlumbingGraph(tuple(ids), tuple(eulers), frozenset(edges))


class ValidationReport(NamedTuple):
    """The checks of ``validate``, each (name, passed, detail), and for a
    graph that passes them all its ``rooting``, (order, kids), and its
    ``tree_elimination``, (d, steps); both are None for one that fails."""

    checks: tuple[tuple[str, bool, str], ...]
    rooting: tuple[list[int], list[list[int]]] | None = None
    elimination: tuple[int, list[list[tuple[int, int, int]]]] | None = None

    @property
    def ok(self) -> bool:
        return self.elimination is not None

    @property
    def error(self) -> str:
        """The first failing check as the text a graph is refused with."""
        name, _, detail = next(check for check in self.checks if not check[1])
        prefix = {"tree": "graph is not a tree: ", "negative definite": "intersection matrix is "}
        return prefix.get(name, "") + detail


def rooting(g: PlumbingGraph) -> tuple[list[int], list[list[int]]]:
    """The vertices reached from the first declared vertex, as indices in
    breadth-first order, and the children of each vertex in that search.
    The graph is connected exactly when the order holds every vertex.  A
    vertex's neighbours are visited by basis position."""
    pos = {v: i for i, v in enumerate(g.ids)}
    nbrs: list[list[int]] = [[] for _ in g.ids]
    for a, b in g.edges:
        nbrs[pos[a]].append(pos[b])
        nbrs[pos[b]].append(pos[a])
    kids: list[list[int]] = [[] for _ in g.ids]
    order, seen = [0], {0}
    for v in order:
        for w in sorted(nbrs[v]):
            if w not in seen:
                seen.add(w)
                kids[v].append(w)
                order.append(w)
    return order, kids


def tree_elimination(g: PlumbingGraph, order, kids):
    """-I of the tree g eliminated leaves first along its ``rooting``.

    The branch at a vertex v is v and the vertices beyond it, seen from the
    root (the whole tree at the root).  D(a->b) is the determinant of -I on
    the part of the tree on b's side of the edge a-b, and G(a->b) that
    part's determinant without b: the product of D(b->c) over b's
    neighbours c other than a.  With m_b = -e_b and c running over b's
    children, the pass up gives
    D(parent->b) = m_b G(parent->b) - sum_c G(b->c) G(parent->b) / D(b->c),
    and d = det(-I) at the root.  Cutting the edge p-c splits det(-I) into
    d = D(p->c) D(c->p) - G(p->c) G(c->p), which gives D(c->p) in the pass
    down.

    The prefixes of the pass up are unions of whole branches, so its
    leading principal minors are products of D(parent->b): -I is
    positive definite exactly when every D(parent->b) and d are positive.
    Returns (d, steps), where steps[a] lists the triple (b, D(a->b),
    G(a->b)) for each neighbour b of a, or the message naming the first
    vertex, leaves first, whose branch is not definite."""
    up, low = [0] * g.n, [0] * g.n  # D(parent->v) and G(parent->v)
    for v in reversed(order):
        low[v] = prod(up[c] for c in kids[v])
        up[v] = -g.eulers[v] * low[v] - sum(low[c] * (low[v] // up[c]) for c in kids[v])
        if up[v] <= 0:
            return f"not negative definite on the branch at vertex {g.ids[v]}"
    d = up[0]
    steps: list[list[tuple[int, int, int]]] = [[] for _ in g.ids]
    down = [1] * g.n  # D(v->parent); 1 at the root, the empty determinant
    for v in order:
        whole = low[v] * down[v]  # the product of D(v->b) over every neighbour b
        for c in kids[v]:
            rest = whole // up[c]  # G(c->v)
            down[c] = (d + low[c] * rest) // up[c]
            steps[v].append((c, up[c], low[c]))
            steps[c].append((v, down[c], rest))
    return d, steps


def tree_adjugate(steps) -> tuple[tuple[int, ...], ...]:
    """The adjugate of -I from the ``steps`` of ``tree_elimination``.

    Entry (u, v) is the product of D(w->y) over the vertices w of the path
    from u to v and their neighbours y off that path, so all entries are
    positive.  Row u is one walk from u: its entry at u is the product of
    every D(u->y), and a step from w to a neighbour b, away from u, divides
    D(w->b) out of w's entry and multiplies in G(w->b)."""
    rows = []
    for u, out in enumerate(steps):
        row = [0] * len(steps)
        row[u] = prod(db for _, db, _ in out)
        stack = [u]
        while stack:
            w = stack.pop()
            x = row[w]
            for b, db, gb in steps[w]:
                if not row[b]:
                    row[b] = x // db * gb
                    stack.append(b)
        rows.append(tuple(row))
    return tuple(rows)


def validate(g: PlumbingGraph) -> ValidationReport:
    """The one judge of a plumbing tree: connectedness, tree shape and
    exact negative definiteness, checked on trees only.  The graph is
    rooted once and, if it is a tree, eliminated once; each failing check
    carries a detail saying why, and a graph that passes keeps its rooting
    and elimination, which ``lattice.Lattice`` builds from.  Failures are
    reported, never raised."""
    order, kids = rooting(g)
    connected = len(order) == g.n
    m = len(g.edges)
    shape = f"{m} edge{'s' * (m != 1)} for {g.n} vertices"
    if m == g.n - 1:
        # with n - 1 edges, a graph of c components has c - 1 independent cycles
        shape = "" if connected else shape + " on a disconnected graph, so it has a cycle"
    elim = "not checked" if shape else tree_elimination(g, order, kids)
    failed = isinstance(elim, str)
    checks = (("connected", connected, "" if connected else "graph is disconnected"),
              ("tree", not shape, shape),
              ("negative definite", not failed, elim if failed else ""))
    return ValidationReport(checks) if failed else ValidationReport(checks, (order, kids), elim)
