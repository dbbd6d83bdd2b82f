"""Dilated polytopes over the end coordinates and lattice point counts.

Points live in the orthant indexed by the end vertices; the linear form of
a vertex v sends x to sum_e x_e E*_e restricted to v.  A query fixes a
convex (intersection) or concave (union) shape over a live vertex set,
a dilation vector, boundary and positivity conventions and an optional
homology class fiber.  The alternating sum of fibered counts over the
sub-multisets of the node multiset is the normalized Seiberg-Witten
invariant with opposite sign.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graph import PlumbingGraph, adjacency
from .lattice import (HClass, LatticeError, Vec, all_classes, class_add,
                      class_neg, class_of, lattice_of)
from .series import _pointwise, _walk, live_indices

SHAPES = ("convex", "concave")
BOUNDARIES = ("closed", "open")
POSITIVITIES = ("nonneg", "positive")


class PolytopeError(ValueError):
    pass


class InapplicableError(PolytopeError):
    """The hypotheses of the requested counting formula fail."""


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


def linear_form(g: PlumbingGraph, v: str, x) -> Fraction:
    """l_v(x) = sum over ends e of x_e * (E*_e restricted to v)."""
    lat = lattice_of(g)
    xs = [Fraction(c) for c in x]
    if len(xs) != len(lat.end_idx):
        raise LatticeError(f"expected {len(lat.end_idx)} end coordinates")
    vi = g.index(v)
    return sum((c * lat.estar[e][vi] for c, e in zip(xs, lat.end_idx)), Fraction(0))


def fiber_counts(g: PlumbingGraph, query: PolytopeQuery) -> dict[tuple[int, ...], int]:
    """Exact numbers of integer points satisfying the query, tallied by the
    class key of sum_e x_e E*_e; the query's fiber is not used.  Enumeration
    is complete because every anti-dual entry is strictly positive, which
    caps each end coordinate by the dilation."""
    lat = lattice_of(g)
    active = live_indices(g, query.subset)
    sdil = lat.scaled(query.dilation)
    cols = [lat.sestar[e] for e in lat.end_idx]
    if query.positivity == "positive":
        if not cols:
            # No end vertices (single vertex graph): the empty point is the
            # only candidate, and it is not strictly positive.
            return {}
        start = tuple(map(sum, zip(*cols)))
    else:
        start = (0,) * lat.n
    # Scaled values are integers, so the closed "<= dilation" is "< dilation + 1".
    slack = 1 if query.boundary == "closed" else 0
    cut = (tuple((i, sdil[i] + slack) for i in active),
           all if query.shape == "convex" else any)

    d = lat.h_order
    tally: dict[tuple[int, ...], int] = {}

    def visit(_, e):
        # lat.class_key inlined: this runs once per lattice point
        fk = tuple(c % d for c in e)
        tally[fk] = tally.get(fk, 0) + 1

    factors = [(col, 1) for col in cols]
    _walk(start, factors, cut, _pointwise(factors, visit))
    return tally


def count(g: PlumbingGraph, query: PolytopeQuery) -> int:
    """Exact number of integer points satisfying the query: the sum of
    ``fiber_counts``, or its entry for the query's fiber."""
    tally = fiber_counts(g, query)
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
    if not mults:
        return
    ranges = [range(m + 1) for _, m in mults]

    def rec(i, acc):
        if i == len(ranges):
            if any(acc):
                yield tuple(acc)
            return
        for k in ranges[i]:
            yield from rec(i + 1, acc + [k])

    yield from rec(0, [])


def sw_via_lattice_all(g: PlumbingGraph) -> dict[HClass, int]:
    """Normalized Seiberg-Witten invariant (with opposite sign) of every
    class h, as the alternating sum, over non-empty sub-multisets k of the
    node multiset, of strictly positive lattice point counts in the closed
    concave polytopes dilated by sum_v k_v E*_v, fibered over the class of
    the dilation minus h.  Sub-multiset k carries the sign
    (-1)^(|ends| - sum k) times prod_v C(m_v, k_v), the coefficient of
    t^{sum k_v E*_v} in prod_v (1 - t^{E*_v})^{m_v}; the binomials are 1 on
    nodes of valency 3.  Each polytope is enumerated once and its fiber
    tally answers every h."""
    lat = lattice_of(g)
    nm = node_multiset(g)
    if not nm:
        raise PolytopeError("graph has no nodes; use the duality route")
    d = lat.h_order
    n_ends = len(lat.end_idx)
    totals = dict.fromkeys(all_classes(g), 0)
    for ks in _sub_multisets(nm):
        ids = tuple(v for (v, _), k in zip(nm, ks) if k)
        dil = [Fraction(0)] * lat.n
        for (v, _), k in zip(nm, ks):
            if k:
                col = lat.estar[g.index(v)]
                for r in range(lat.n):
                    dil[r] += k * col[r]
        sdil = lat.scaled(dil)
        sign = (-1) ** (n_ends - sum(ks))
        for (_, m), k in zip(nm, ks):
            sign *= comb(m, k)
        tally = fiber_counts(g, PolytopeQuery("concave", ids, tuple(dil),
                                              "closed", "positive"))
        for fk, r_count in tally.items():
            h = HClass(tuple((s - k) % d for s, k in zip(sdil, fk)), d)
            totals[h] += sign * r_count
    return totals


def sw_via_lattice(g: PlumbingGraph, h: HClass) -> int:
    """The class h entry of ``sw_via_lattice_all``."""
    return sw_via_lattice_all(g)[h]


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
        col = lat.estar[v]
        if not all(lat.z_k[i] <= col[i] for i in lat.node_idx):
            raise InapplicableError(
                "canonical cycle exceeds a node anti-dual on the node coordinates")
    zk_class = class_of(g, lat.z_k)
    fiber = class_add(zk_class, class_neg(h))
    dil = tuple(zc - rc for zc, rc in zip(lat.z_k, h.rep))
    ids = tuple(g.ids[i] for i in lat.node_idx)
    return count(g, PolytopeQuery("concave", ids, dil, "open", "nonneg", fiber))


def ends_through(g: PlumbingGraph, v: str) -> tuple[str, ...]:
    """End vertices whose path to the node v passes through no other node."""
    lat = lattice_of(g)
    vi = g.index(v)
    if vi not in lat.node_idx:
        raise PolytopeError(f"{v!r} is not a node")
    nbrs = adjacency(g)
    parent = {v: None}
    order = [v]
    for u in order:
        for w in nbrs[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    nodes = {g.ids[i] for i in lat.node_idx}
    out = []
    for e in (g.ids[i] for i in lat.end_idx):
        w, clean = parent[e], True
        while w != v:
            if w in nodes:
                clean = False
                break
            w = parent[w]
        if clean:
            out.append(e)
    return tuple(out)


def lambda_ratio(g: PlumbingGraph, v: str, vp: str) -> Fraction:
    """Ratio constant between two nodes: (E*_v at v) / (E*_vp at v).
    Agrees with (E*_w at v) / (E*_w at vp) for every end w hanging off v,
    which is asserted."""
    lat = lattice_of(g)
    vi, pi = g.index(v), g.index(vp)
    if vi not in lat.node_idx or pi not in lat.node_idx:
        raise PolytopeError("both arguments must be nodes")
    lam = lat.estar[vi][vi] / lat.estar[pi][vi]
    for w in ends_through(g, v):
        wi = g.index(w)
        if lat.estar[wi][vi] / lat.estar[wi][pi] != lam:
            raise PolytopeError("vertex ratio is not constant across the hanging ends")
    return lam
