"""Exact lattice invariants of a plumbing tree.

Everything comes from one elimination of -I along the tree over the big
integers, which ``graph.validate``, the one judge of a tree, makes and
keeps: det(-I), the adjugate of -I, whose rows are the anti-duals scaled
by det(-I), and the tree's shape.  ``Lattice`` refuses a graph that fails
a check with that check's text.  The valencies are the lengths of the
elimination's steps, and the edges are the rooting's (parent, child)
pairs.  Z_K is the combination -sum (e_v + 2) E*_v over the vertices
with e_v != -2, which reads only their anti-duals.  ``Lattice`` holds
integer data only: the Euler numbers and edges of the form, d = |H|, and
every L' vector scaled by d (anti-duals, Z_K); it keeps no dense matrix
of the form.  A class of H is held as a scaled integer key, its
representative in [0,1) times d, and printed by ``format_scaled``, as
every scaled vector is, and a scaled scalar by ``format_ratio``.
``fractions.Fraction`` enters only where a rational crosses the
program's edge, each time by an import inside the function: the
accessors that return rationals (``e_star``, ``canonical_cycle``,
``l_top``, ``HClass.rep`` and ``Lattice.unscaled``), ``format_vec`` and
``Lattice.scaled``, which read vectors as the user gives them.  So this
module does not import ``fractions`` (nor, through it, ``decimal``), and
neither do the commands that read only its scaled data (``plumbsw
invariants``, ``validate``, ``sw``, ``verify``).  No floating point is
used anywhere.

``Lattice`` owns the lattice arithmetic the other modules read:

* the form: ``image`` is I x, summed over the tree's edges, and ``form``
  is x . I y, exact on ``int`` and ``Fraction`` vectors of n entries (a
  vector of another length raises ``LatticeError``).  The quadratic shift
  of the raw invariant reads ``form``;
* the class key: ``class_at`` is the one judge of a scaled vector: it
  gives the class of d x for x in L' and raises ``LatticeError`` for any
  other vector, reading ``image`` (``class_of`` and the counting
  functions' cut ask it); ``class_key`` reduces a scaled vector mod d, and
  ``class_move`` is the key of key + k col, the one class step;
* the class tables: ``class_moves`` indexes ``all_classes`` and gives, per
  column, the index of the class one step along it, for the walks that
  move classes by index; a walk that steps back passes negated columns.

H is enumerated in key order from an echelon (Hermite) basis of the class
keys, built once per lattice (``Lattice.class_levels``): ``iter_classes``
walks it and keeps no table of the classes, and ``all_classes`` caches the
tuple of every class for the routes that index one.

The lattice L is freely generated by the vertex classes with the
(negative definite) intersection form, L' is its dual generated by the
anti-dual classes, and H = L'/L is the finite first homology of the link,
of order det(-I).
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, lru_cache
from math import gcd
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .graph import PlumbingGraph, tree_adjugate, validate

if TYPE_CHECKING:
    from fractions import Fraction

# A vector of rationals, as the public accessors return it.
Vec = tuple["Fraction", ...]


class LatticeError(ValueError):
    pass


def format_ratio(k: int, d: int) -> str:
    """The rational k / d, d > 0, as ``str`` of its ``Fraction``: "k" when
    d divides k, "p/q" in lowest terms otherwise; one gcd."""
    c = gcd(k, d)
    return str(k // c) if c == d else f"{k // c}/{d // c}"


def format_vec(a) -> str:
    """A vector of rationals, each given as anything ``Fraction`` reads."""
    from fractions import Fraction
    return "(" + ",".join(format_ratio(*Fraction(x).as_integer_ratio()) for x in a) + ")"


def format_scaled(scaled, d: int) -> str:
    """``format_vec`` of the vector scaled / d, one gcd per entry."""
    return "(" + ",".join([format_ratio(k, d) for k in scaled]) + ")"


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
        from fractions import Fraction
        return tuple(Fraction(k, self.d) for k in self.key)

    def __str__(self) -> str:
        return format_scaled(self.key, self.d)


class Lattice:
    """Cached per-graph bundle of integer data: d = det(-I) = |H|,
    anti-dual basis and canonical cycle.

    Every L' coordinate has denominator dividing d, so an L' vector x is
    held as the integer vector d*x: ``sestar[i]`` is the anti-dual of
    vertex i (row i of the symmetric adjugate of -I), ``sz_k`` is Z_K and
    ``szkme`` is Z_K - E, E the sum of the vertex classes.  ``edge_idx``
    holds the tree's edges as (parent, child) pairs of vertex indices in
    the rooting; with the Euler numbers they are the form, which ``image``
    reads.  ``deltas`` holds the valencies, read off the elimination's
    steps, ``mults`` the valencies minus 2, and ``node_idx`` and
    ``end_idx`` the vertices of valency >= 3 and 1, ascending.
    """

    def __init__(self, g: PlumbingGraph):
        self.graph = g
        self.n = g.n
        report = validate(g)
        if not report.ok:
            raise LatticeError(report.error)
        (order, kids), (d, steps) = report.rooting, report.elimination
        self.edge_idx = tuple((v, c) for v in order for c in kids[v])
        self.h_order = d
        # sestar[i] is row i of adj(-I) = d (-I)^{-1}, and (E*_v, E_w) =
        # -delta.  Every enumeration terminates only because these entries
        # are strictly positive: each is a product of branch determinants,
        # all of which the elimination checked to be positive.
        self.sestar = tree_adjugate(steps)
        # steps[v] lists each neighbour of v once
        self.deltas = tuple(map(len, steps))
        self.node_idx = tuple(i for i, dv in enumerate(self.deltas) if dv >= 3)
        self.end_idx = tuple(i for i, dv in enumerate(self.deltas) if dv == 1)
        self.mults = tuple(dv - 2 for dv in self.deltas)
        # (Z_K, E_v) = e_v + 2 for all v, i.e. Z_K = -(-I)^{-1} (euler + 2),
        # and the adjugate is symmetric: -sz_k = sum (e_v + 2) E*_v
        self.sz_k = self.combination((i, -e - 2) for i, e in enumerate(g.eulers) if e != -2)
        self.szkme = tuple(z - d for z in self.sz_k)
        self.zero_class = HClass((0,) * self.n, d)

    @cached_property
    def class_levels(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The echelon (Hermite) basis of H over the class keys, built once
        from the anti-dual keys: a triple (j, g_j, b_j) for each coordinate
        j with g_j < d, where g_j divides d and the key b_j is 0 before j
        and g_j at j.  H_j, the classes whose keys are 0 before j, has
        entries g_j Z/d at j; b_j is one with entry g_j there, so H_j is
        b_j's multiples plus H_{j+1}.

        Level j runs Euclid on the j-th entries of H_j's generators,
        carrying whole keys, from the pivot d e_j (the zero class): the
        pivot ends at b_j, each other generator at a key that is 0 at j.
        Those keys and (d/g_j) b_j generate H_{j+1}; zero keys are dropped.
        The product of the d/g_j is |H|, or the anti-duals do not span H
        and ``LatticeError`` is raised."""
        d, n = self.h_order, self.n
        # generators of H_j as their entries from j on
        gens = {self.class_key(col) for col in self.sestar}
        levels, size = [], 1
        for j in range(n):
            gens.discard((0,) * (n - j))
            if not gens:
                break
            p, ptail = d, (0,) * (n - j - 1)
            nxt = set()
            for v in gens:
                x, xtail = v[0], v[1:]
                while x:
                    q = p // x
                    p, ptail, x, xtail = x, xtail, p - q * x, tuple(
                        (a - q * b) % d for a, b in zip(ptail, xtail))
                nxt.add(xtail)
            if p < d:
                levels.append((j, p, (0,) * j + (p,) + ptail))
                size *= d // p
                nxt.add(tuple(d // p * a % d for a in ptail))
            gens = nxt
        if size != d:
            raise LatticeError(f"anti-duals span {size} classes, expected {d}")
        return tuple(levels)

    # -- scaled helpers ----------------------------------------------------
    def scaled(self, x) -> tuple[int, ...]:
        """d x for a vector x of rationals; ``LatticeError`` unless every
        entry lies on the 1/d grid."""
        from fractions import Fraction
        out = [Fraction(c) * self.h_order for c in x]
        if any(s.denominator != 1 for s in out):
            raise LatticeError(f"{format_vec(x)} is not in the dual lattice")
        return tuple(s.numerator for s in out)

    def unscaled(self, scaled) -> Vec:
        """The vector whose scaled copy is ``scaled``; inverse of ``scaled``."""
        from fractions import Fraction
        d = self.h_order
        return tuple(Fraction(x, d) for x in scaled)

    def image(self, x) -> list:
        """I x: each entry times its Euler number, plus the entries of its
        neighbours in the tree; ``LatticeError`` unless x has n entries."""
        out = list(map(mul, self.graph.eulers, self._sized(x)))
        for i, j in self.edge_idx:
            out[i] += x[j]
            out[j] += x[i]
        return out

    def form(self, x, y):
        """The intersection form x . I y, exact on ``int`` and ``Fraction``
        entries; ``LatticeError`` unless x and y have n entries."""
        return sum(map(mul, self._sized(x), self.image(y)))

    def _sized(self, x):
        if len(x) != self.n:
            raise LatticeError(f"a vector of {len(x)} entries for {self.n} vertices")
        return x

    def class_key(self, scaled) -> tuple[int, ...]:
        d = self.h_order
        return tuple([c % d for c in scaled])

    def class_move(self, key, col, k: int = 1) -> tuple[int, ...]:
        """The class key of key + k col."""
        d = self.h_order
        # a tuple of a list: one of a generator is allocated at 10 slots and
        # shrunk, and each such tuple, once freed, is kept on the
        # interpreter's free list (up to 2,000 per size)
        return tuple([(c + k * y) % d for c, y in zip(key, col)])

    def class_moves(self, cols):
        """(classes, index, moves): the classes of ``all_classes``, the index
        of each class by key, and for each column the list that maps the
        index of a class to the index of the class one step along it."""
        classes = all_classes(self.graph)
        index = {h.key: i for i, h in enumerate(classes)}
        d = self.h_order
        # class_move inlined, with each column reduced mod d once: a method
        # call per (column, class) pair costs more than the step itself
        steps = [[y % d for y in col] for col in cols]
        moves = [[index[tuple([(c + y) % d for c, y in zip(h.key, step)])] for h in classes]
                 for step in steps]
        return classes, index, moves

    def class_at(self, scaled) -> HClass:
        """The class in H of the L' vector x whose scaled copy is
        ``scaled`` = d x, the one test of L': ``LatticeError`` unless it
        has one entry per vertex and I (d x) = 0 mod d."""
        if len(scaled) != self.n or any(self.class_key(self.image(scaled))):
            raise LatticeError(f"{format_scaled(scaled, self.h_order)} is not in the dual lattice")
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

    @property
    def sl_top(self) -> tuple[int, ...]:
        """l_top, scaled: Z_K - E plus the sum of the end anti-duals."""
        ends = self.combination((i, 1) for i in self.end_idx)
        return tuple(map(add, self.szkme, ends))


@lru_cache(maxsize=None)
def lattice_of(g: PlumbingGraph) -> Lattice:
    return Lattice(g)


# -- lattice operations on graphs -------------------------------------------

def e_star(g: PlumbingGraph, v: str) -> Vec:
    """Anti-dual class of a vertex: row v of -I^{-1}.  All entries are
    strictly positive for a negative definite tree."""
    lat = lattice_of(g)
    return lat.unscaled(lat.sestar[g.index(v)])


def class_of(g: PlumbingGraph, x) -> HClass:
    """Class [x] in H.  x must lie in the dual lattice: ``Lattice.scaled``
    checks that x lies on the 1/d grid, ``Lattice.class_at`` the rest."""
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
    return lat.unscaled(lat.sl_top)


def iter_classes(g: PlumbingGraph) -> Iterator[HClass]:
    """Every class of H, sorted by key, from the echelon basis of
    ``Lattice.class_levels``; no table of the classes is kept.

    Each class is sum_j m_j b_j with 0 <= m_j < d/g_j, one way only.  With
    the partial sum c of the levels before j fixed, entry j runs through
    c_j mod g_j + t g_j for t = 0, 1, ..., d/g_j - 1, which takes
    m_j = (t - c_j // g_j) mod d/g_j; the entries of a coordinate that is
    no level are fixed by the levels before it.  So keys come out in
    increasing order."""
    lat = lattice_of(g)
    d, levels, move = lat.h_order, lat.class_levels, lat.class_move

    def walk(k, c):
        if k == len(levels):
            yield HClass(c, d)
            return
        j, step, b = levels[k]
        size = d // step
        lo = c[j] // step
        for t in range(size):
            yield from walk(k + 1, move(c, b, (t - lo) % size))

    return walk(0, lat.zero_class.key)


@lru_cache(maxsize=None)
def all_classes(g: PlumbingGraph) -> tuple[HClass, ...]:
    """All of H as a tuple sorted by key, ``iter_classes`` held once per
    graph and cached, as ``lattice_of`` is.  The division and counting
    routes index it; the duality and lattice routes and ``sw_report`` walk
    ``iter_classes`` instead."""
    return tuple(iter_classes(g))
