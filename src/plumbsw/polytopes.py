"""Dilated polytopes over the end coordinates and lattice point counts.

Points live in the orthant indexed by the end vertices; the linear form of
a vertex v sends x to sum_e x_e E*_e restricted to v.  A query fixes a
convex (intersection) or concave (union) shape over a live vertex set,
a dilation vector of any rationals, boundary and positivity conventions
and an optional homology class fiber.  The alternating sum of fibered
counts over the sub-multisets of the node multiset is the normalized
Seiberg-Witten invariant with opposite sign; ``sw_via_lattice`` returns it
for every class from one count per sub-multiset.

Enumerations cut on scaled integers (coordinates times |H|): ``count``
turns the query's dilation into that cut with ``series.strict_cut``, and
the Seiberg-Witten routes build their dilations from the scaled
anti-duals, making no ``Fraction``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb

from .graph import PlumbingGraph
from .lattice import HClass, Vec, lattice_of
from .series import _tally, live_indices, strict_cut

SHAPES = ("convex", "concave")
BOUNDARIES = ("closed", "open")
POSITIVITIES = ("nonneg", "positive")


class PolytopeError(ValueError):
    pass


class InapplicableError(PolytopeError):
    """The hypotheses of the requested counting formula fail."""


# A dataclass: callers derive queries with dataclasses.replace.
@dataclass(frozen=True)
class PolytopeQuery:
    """Convex: l_v(x) <= dilation_v for all live v; concave: for some v.
    Boundary "open" drops the non-coordinate facets, replacing <= by < in
    the defining condition.  Positivity "positive" demands x_e >= 1."""
    shape: str
    subset: tuple[str, ...]
    dilation: Vec
    boundary: str = "closed"
    positivity: str = "nonneg"
    fiber: HClass | None = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise PolytopeError(f"shape must be one of {SHAPES}")
        if self.boundary not in BOUNDARIES:
            raise PolytopeError(f"boundary must be one of {BOUNDARIES}")
        if self.positivity not in POSITIVITIES:
            raise PolytopeError(f"positivity must be one of {POSITIVITIES}")


def fiber_counts(g: PlumbingGraph, shape: str, cut, positivity: str
                 ) -> dict[tuple[int, ...], int]:
    """Exact numbers of integer points x >= 0 (>= 1 for "positive") with
    the scaled vector s = sum_e x_e (scaled E*_e) below the cut, tallied by
    the class key of s.  ``cut`` pairs each live vertex index i with a
    strict bound c_i: a point is inside when s_i < c_i for every (convex)
    or some (concave) live i.  Enumeration is complete because every
    anti-dual entry is strictly positive, which caps each end coordinate by
    the cut."""
    lat = lattice_of(g)
    cols = [lat.sestar[e] for e in lat.end_idx]
    if positivity == "positive":
        if not cols:
            # No end vertices (single vertex graph): the empty point is the
            # only candidate, and it is not strictly positive.
            return {}
        start = lat.combination((e, 1) for e in lat.end_idx)
    else:
        start = (0,) * lat.n
    return _tally(((start, 1),), [(col, 1) for col in cols],
                  (cut, all if shape == "convex" else any), lat.class_key)


def count(g: PlumbingGraph, query: PolytopeQuery) -> int:
    """Exact number of integer points satisfying the query: the sum of
    ``fiber_counts`` at the dilation's cut, or its entry for the query's
    fiber."""
    lat = lattice_of(g)
    if len(query.dilation) != lat.n:
        raise PolytopeError(f"dilation has {len(query.dilation)} entries for {lat.n} vertices")
    closed = query.boundary == "closed"
    cut = [(i, strict_cut(query.dilation[i], lat.h_order, closed))
           for i in live_indices(g, query.subset)]
    tally = fiber_counts(g, query.shape, cut, query.positivity)
    if query.fiber is None:
        return sum(tally.values())
    return tally.get(query.fiber.key, 0)


def node_multiset(g: PlumbingGraph) -> tuple[tuple[str, int], ...]:
    """Nodes with multiplicities m_v = valency - 2: the exponents of the
    zeta factors (1 - t^{E*_v})^{m_v}.  The multiplicities sum to
    |ends| - 2."""
    lat = lattice_of(g)
    return tuple((g.ids[i], lat.mults[i]) for i in lat.node_idx)


def _sub_multisets(mults):
    """All non-empty multiplicity vectors, lexicographic."""
    return filter(any, product(*(range(m + 1) for _, m in mults)))


def sw_via_lattice(g: PlumbingGraph) -> Counter[HClass]:
    """Normalized Seiberg-Witten invariant (with opposite sign) of every
    class h, as the alternating sum, over non-empty sub-multisets k of the
    node multiset, of strictly positive lattice point counts in the closed
    concave polytopes dilated by sum_v k_v E*_v, fibered over the class of
    the dilation minus h.  Sub-multiset k carries the sign
    (-1)^(|ends| - sum k) times prod_v C(m_v, k_v), the coefficient of
    t^{sum k_v E*_v} in prod_v (1 - t^{E*_v})^{m_v}; the binomials are 1 on
    nodes of valency 3.  Each polytope is enumerated once and its fiber
    tally answers every h.  The ``Counter`` holds the non-zero classes only,
    and reads 0 on every other class."""
    lat = lattice_of(g)
    nm = node_multiset(g)
    if not nm:
        raise PolytopeError("graph has no nodes; use the duality route")
    n_ends = len(lat.end_idx)
    totals = Counter()
    for ks in _sub_multisets(nm):
        sdil = lat.combination(zip(lat.node_idx, ks))
        sign = (-1) ** (n_ends - sum(ks))
        for (_, m), k in zip(nm, ks):
            sign *= comb(m, k)
        # closed: the scaled points at or below the dilation on some live node
        cut = [(i, sdil[i] + 1) for i, k in zip(lat.node_idx, ks) if k]
        tally = fiber_counts(g, "concave", cut, "positive")
        for fk, r_count in tally.items():
            totals[lat.class_move(sdil, fk, -1)] += sign * r_count
    d = lat.h_order
    return Counter({HClass(key, d): v for key, v in totals.items() if v})


def sw_via_topological_polytope(g: PlumbingGraph, h: HClass) -> int:
    """Single-polytope count, applicable when Z_K restricted to the nodes
    is at most every node anti-dual there.  Counts non-negative points of
    the concave node polytope dilated by Z_K - r_h with the non-coordinate
    facets dropped, in the fiber of [Z_K] - h.  On the fiber this agrees
    with the closed count at dilation Z_K - E, i.e. with the full-multiset
    term of the alternating sum, and the applicability condition kills all
    the other terms."""
    lat = lattice_of(g)
    if not lat.node_idx:
        raise PolytopeError("graph has no nodes; use the duality route")
    for v in lat.node_idx:
        col = lat.sestar[v]
        if not all(lat.sz_k[i] <= col[i] for i in lat.node_idx):
            raise InapplicableError(
                "canonical cycle exceeds a node anti-dual on the node coordinates")
    # scaled Z_K - r_h, whose class is the fiber [Z_K] - h; "open" cuts at
    # the dilation itself
    sdil = tuple(z - k for z, k in zip(lat.sz_k, h.key))
    tally = fiber_counts(g, "concave", [(i, sdil[i]) for i in lat.node_idx], "nonneg")
    return tally.get(lat.class_key(sdil), 0)

