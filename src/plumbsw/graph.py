"""Plumbing trees: parsing, validation and basic combinatorics.

A plumbing graph is a finite tree whose vertices are decorated by integer
Euler numbers.  The intersection matrix has the Euler numbers on the
diagonal and a 1 for every edge; only graphs with a negative definite
intersection matrix describe the manifolds this package computes with.
All genus decorations are implicitly zero, so the link is a rational
homology sphere.
"""
from __future__ import annotations

import re
from functools import lru_cache
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

    def euler(self, v: str) -> int:
        return self.eulers[self.index(v)]


@lru_cache(maxsize=None)
def adjacency(g: PlumbingGraph) -> dict[str, tuple[str, ...]]:
    """Neighbour lists, each sorted by basis position."""
    nbrs: dict[str, list[str]] = {v: [] for v in g.ids}
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    pos = {v: i for i, v in enumerate(g.ids)}
    return {v: tuple(sorted(ws, key=pos.__getitem__)) for v, ws in nbrs.items()}


def valency(g: PlumbingGraph, v: str) -> int:
    return len(adjacency(g)[v])


def intersection_matrix(g: PlumbingGraph) -> tuple[tuple[int, ...], ...]:
    """Euler numbers on the diagonal, 1 per edge, 0 otherwise."""
    pos = {v: i for i, v in enumerate(g.ids)}
    m = [[0] * g.n for _ in range(g.n)]
    for i, e in enumerate(g.eulers):
        m[i][i] = e
    for a, b in g.edges:
        i, j = pos[a], pos[b]
        m[i][j] = m[j][i] = 1
    return tuple(tuple(row) for row in m)


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
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def _connected(g: PlumbingGraph) -> bool:
    nbrs = adjacency(g)
    stack, reached = [g.ids[0]], {g.ids[0]}
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == g.n


def definite_adjugate(m):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of [m | 1] over the
    big integers.  The pivot of step k is the (k+1)-th leading principal
    minor of m, and every entry stays an integer minor of [m | 1], so the
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


def validate(g: PlumbingGraph) -> ValidationReport:
    """Report pass/fail for connectedness, tree shape and exact negative
    definiteness.  Failures are reported, never raised."""
    checks = []
    connected = _connected(g)
    checks.append(("connected", connected, "" if connected else "graph is disconnected"))
    tree = len(g.edges) == g.n - 1
    checks.append(("tree", tree and connected,
                   "" if tree else f"{len(g.edges)} edges for {g.n} vertices"))
    neg = [[-x for x in row] for row in intersection_matrix(g)]
    elim = definite_adjugate(neg)
    definite = not isinstance(elim, str)
    checks.append(("negative definite", definite, "" if definite else elim))
    return ValidationReport(tuple(checks))


def classify_vertices(g: PlumbingGraph):
    """Split vertices into nodes (valency >= 3) and ends (valency 1).

    Returns (nodes, ends, valency map); the id tuples follow basis order.
    """
    val = {v: valency(g, v) for v in g.ids}
    nodes = tuple(v for v in g.ids if val[v] >= 3)
    ends = tuple(v for v in g.ids if val[v] == 1)
    return nodes, ends, val
