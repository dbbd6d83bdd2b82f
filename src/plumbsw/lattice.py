"""Exact lattice invariants of a plumbing tree.

The form data comes from one fraction-free elimination over the big
integers: det(-I) and the adjugate of -I, whose columns are the anti-duals
scaled by det(-I).  ``Lattice`` holds integer data only: the intersection
matrix, d = |H|, and every L' vector scaled by d (anti-duals, Z_K).  A
class of H is held as a scaled integer key, its representative in [0,1)
times d.  ``fractions.Fraction`` vectors are built on read, and only in the
public accessors: ``e_star``, ``canonical_cycle``, ``l_top``,
``intersection_data``, ``pairing``, ``HClass.rep`` and
``Lattice.unscaled``.  No floating point is used anywhere.

The lattice L is freely generated by the vertex classes with the
(negative definite) intersection form, L' is its dual generated by the
anti-dual classes, and H = L'/L is the finite first homology of the link,
of order det(-I).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul
from typing import NamedTuple

from .graph import (PlumbingGraph, classify_vertices, definite_adjugate,
                    intersection_matrix)

Vec = tuple[Fraction, ...]


class LatticeError(ValueError):
    pass


def vec(values) -> Vec:
    return tuple(Fraction(x) for x in values)


def format_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_vec(a) -> str:
    return "(" + ",".join(format_frac(Fraction(x)) for x in a) + ")"


class HClass(NamedTuple):
    """Element of H = L'/L, held by its scaled key: the unique
    representative with all coordinates in [0,1), times d = |H|, so every
    entry is an integer in [0, d).  Equal classes have equal keys, and keys
    sort as representatives do."""

    key: tuple[int, ...]
    d: int

    @property
    def rep(self) -> Vec:
        """The representative in [0,1)^n, built on each read."""
        return tuple(Fraction(k, self.d) for k in self.key)

    def __str__(self) -> str:
        d, parts = self.d, []
        for k in self.key:
            c = gcd(k, d)
            parts.append(str(k // c) if c == d else f"{k // c}/{d // c}")
        return "(" + ",".join(parts) + ")"


class Lattice:
    """Cached per-graph bundle of integer data: intersection matrix,
    d = det(-I) = |H|, anti-dual basis and canonical cycle.

    Every L' coordinate has denominator dividing d, so an L' vector x is
    held as the integer vector d*x: ``sestar[i]`` is the anti-dual of
    vertex i (column i of the adjugate of -I), ``sz_k`` is Z_K and
    ``szkme`` is Z_K - E, E the sum of the vertex classes.
    """

    def __init__(self, g: PlumbingGraph):
        self.graph = g
        self.ids = g.ids
        self.n = g.n
        self.idx = {v: i for i, v in enumerate(g.ids)}
        self.imat = intersection_matrix(g)
        neg = [[-x for x in row] for row in self.imat]
        elim = definite_adjugate(neg)
        if isinstance(elim, str):
            raise LatticeError(f"intersection matrix is not negative definite: {elim}")
        d, adj = elim
        self.h_order = d
        # sestar[i] is column i of adj(-I) = d (-I)^{-1}; the matrix is
        # symmetric but we read columns to match the defining property
        # (E*_v, E_w) = -delta.
        self.sestar = tuple(tuple(adj[r][i] for r in range(self.n)) for i in range(self.n))
        # Every enumeration terminates only because these entries are
        # strictly positive; a disconnected graph has zero entries here.
        if any(x <= 0 for col in self.sestar for x in col):
            raise LatticeError("anti-dual entries are not all strictly positive "
                               "(the graph is not connected)")
        if len(g.edges) != g.n - 1:
            raise LatticeError(f"graph is not a tree: {len(g.edges)} edges for {g.n} vertices")
        nodes, ends, val = classify_vertices(g)
        self.node_idx = tuple(self.idx[v] for v in nodes)
        self.end_idx = tuple(self.idx[v] for v in ends)
        self.deltas = tuple(val[v] for v in g.ids)
        self.mults = tuple(dv - 2 for dv in self.deltas)
        # (Z_K, E_v) = e_v + 2 for all v, i.e. Z_K = -(-I)^{-1} (euler + 2).
        rhs = [e + 2 for e in g.eulers]
        self.sz_k = tuple(-sum(x * y for x, y in zip(row, rhs)) for row in adj)
        self.szkme = tuple(z - d for z in self.sz_k)
        self.zero_class = HClass((0,) * self.n, d)

    # -- scaled helpers ----------------------------------------------------
    def scaled(self, x) -> tuple[int, ...]:
        d = self.h_order
        out = []
        for c in x:
            s = Fraction(c) * d
            if s.denominator != 1:
                raise LatticeError(f"{format_vec(x)} is not in the dual lattice")
            out.append(s.numerator)
        return tuple(out)

    def unscaled(self, scaled) -> Vec:
        """The vector whose scaled copy is ``scaled``; inverse of ``scaled``."""
        d = self.h_order
        return tuple(Fraction(x, d) for x in scaled)

    def class_key(self, scaled) -> tuple[int, ...]:
        d = self.h_order
        return tuple(c % d for c in scaled)

    def class_at(self, scaled) -> HClass:
        """The class in H of the L' vector whose scaled copy is ``scaled``."""
        return HClass(self.class_key(scaled), self.h_order)

    def combination(self, terms) -> tuple[int, ...]:
        """The scaled vector sum c E*_i over the pairs (i, c) of ``terms``,
        read in order."""
        out = [0] * self.n
        for i, c in terms:
            col = self.sestar[i]
            for r in range(self.n):
                out[r] += c * col[r]
        return tuple(out)


@lru_cache(maxsize=None)
def lattice_of(g: PlumbingGraph) -> Lattice:
    return Lattice(g)


# -- lattice operations on graphs -------------------------------------------

def intersection_data(g: PlumbingGraph):
    """(I, -I^{-1}, det(-I)); the determinant is the order of H."""
    lat = lattice_of(g)
    return lat.imat, tuple(map(lat.unscaled, zip(*lat.sestar))), lat.h_order


def e_star(g: PlumbingGraph, v: str) -> Vec:
    """Anti-dual class of a vertex: column v of -I^{-1}.  All entries are
    strictly positive for a negative definite tree."""
    lat = lattice_of(g)
    return lat.unscaled(lat.sestar[g.index(v)])


def pairing(g: PlumbingGraph, x, y) -> Fraction:
    """Intersection pairing x^T I y (negative definite)."""
    lat = lattice_of(g)
    if len(x) != lat.n or len(y) != lat.n:
        raise LatticeError("vector dimension does not match the vertex count")
    total = Fraction(0)
    for i in range(lat.n):
        xi = Fraction(x[i])
        if not xi:
            continue
        row = lat.imat[i]
        total += xi * sum((Fraction(y[j]) * row[j] for j in range(lat.n) if row[j]),
                          Fraction(0))
    return total


def in_dual_lattice(g: PlumbingGraph, x) -> bool:
    """Whether x has one entry per vertex and (E_v, x) is an integer for
    every vertex v.  L' lies in (1/d)Z^n, d = |H|, so x is in L' exactly
    when sx = d x is integral and I sx = 0 mod d."""
    lat = lattice_of(g)
    d = lat.h_order
    try:
        sx = lat.scaled(x)
    except LatticeError:
        return False
    return len(sx) == lat.n and all(sum(map(mul, row, sx)) % d == 0 for row in lat.imat)


def class_of(g: PlumbingGraph, x) -> HClass:
    """Class [x] in H.  x must lie in the dual lattice."""
    if not in_dual_lattice(g, x):
        raise LatticeError(f"{format_vec(x)} is not in the dual lattice")
    lat = lattice_of(g)
    return lat.class_at(lat.scaled(x))


def canonical_cycle(g: PlumbingGraph) -> Vec:
    """Z_K, the unique solution of the adjunction relations."""
    lat = lattice_of(g)
    return lat.unscaled(lat.sz_k)


def l_top(g: PlumbingGraph) -> Vec:
    """Z_K - E plus the sum of the end anti-duals; equivalently the
    node-supported combination sum_{nodes} (valency - 2) E*_v."""
    lat = lattice_of(g)
    ends = lat.combination((i, 1) for i in lat.end_idx)
    return lat.unscaled(map(add, lat.szkme, ends))


@lru_cache(maxsize=None)
def all_classes(g: PlumbingGraph) -> tuple[HClass, ...]:
    """All of H, reached from the anti-dual generators; sorted by key.
    Enumerated once per graph and cached, as ``lattice_of`` is."""
    lat = lattice_of(g)
    gens = [lat.class_key(col) for col in lat.sestar]
    d = lat.h_order
    seen = {(0,) * lat.n}
    frontier = [(0,) * lat.n]
    while frontier:
        key = frontier.pop()
        for gcol in gens:
            nxt = tuple((a + b) % d for a, b in zip(key, gcol))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != d:
        raise LatticeError(f"anti-duals span {len(seen)} classes, expected {d}")
    return tuple(HClass(k, d) for k in sorted(seen))
