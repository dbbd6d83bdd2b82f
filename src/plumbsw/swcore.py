"""Orchestration of the Seiberg-Witten routes.

Three computations of the normalized invariant (always reported with
opposite sign, the quantity -sw^norm_h) are available:

* duality: the finite counting-function evaluation Q at the cut Z_K - r_h
  in the dual class [Z_K] - h, over the nodes;
* polypart: the value at 1 of the polynomial part, built by duality from
  the expansion at infinity and cross-checked against Euclidean division;
* lattice: the alternating sum of fibered lattice point counts over the
  node multiset (needs at least one node).

The duality and polypart routes read P+(1) off one table, the P+ of every
class from the walk at infinity, ``decomp.polypart_dual`` at the cut
Z_K - E.  On the 1/|H| grid of the class [Z_K] - h, l' < Z_K - r_h on a
vertex exactly when l' <= Z_K - E there, so that P+(1) is duality's Q at
Z_K - r_h, and duality's agreement with polypart checks bookkeeping only.
The polypart route checks that table against a second one, P+ of every
class from one Euclidean division over Z[H], ``decomp.polypart_division``,
whose P+(1) is the division route.  The independent checks of duality are
division, the lattice route and ``verify``'s counting function Q.

Each route function takes the graph and returns a ``collections.Counter``
keyed by ``HClass`` that holds the non-zero classes only: indexing it with
any class of H gives that class's value, 0 for an absent class.
``sw_report`` builds at most the two P+ tables and the lattice count when
it is called, and yields one ``SWEntry`` per class, walking H with
``lattice.iter_classes``; an entry is built only when its class is
reached, so a caller that prints and drops each entry holds one at a time.
With the duality and lattice routes nothing holds a table of every class.

The raw invariant is recovered from the agreed normalized value by the
exact quadratic shift ((K + 2 r_h)^2 + |V|)/8, whose square is
``Lattice.form`` on the scaled integer vector d (K + 2 r_h), and the
quadratic consistency check samples the full-variable counting function
deep in the shifted Lipman cone against that quadratic, read off the same
form.  The raw invariant has denominator dividing 8 d^2, d = |H|, and is
held as the integer 8 d^2 times it, as a class is held as its key, d
times its representative; ``lattice.format_ratio(raw, 8 * d * d)`` prints
it.  ``quadratic_check`` keeps each sampled l' scaled, in
``QuadraticSample.slprime``, and hands it to the counting core
``counting._cut_sum``.  This module does not import ``fractions``, and
neither ``plumbsw sw`` nor ``verify`` builds a ``Fraction``.
"""
from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from operator import add
from typing import NamedTuple

from .counting import _cut_sum
from .decomp import Poly, evaluate_at_one, polypart_division, polypart_dual
from .graph import PlumbingGraph
from .lattice import HClass, iter_classes, lattice_of
from .polytopes import PolytopeError, sw_via_lattice


class RouteDisagreement(RuntimeError):
    pass


def duality_cut_vertices(g: PlumbingGraph) -> tuple[str, ...]:
    """Nodes when there are any, the whole vertex set otherwise (chains and
    the one-vertex graph have no nodes and keep all variables)."""
    lat = lattice_of(g)
    if lat.node_idx:
        return tuple(g.ids[i] for i in lat.node_idx)
    return g.ids


def _at_one(polys: dict[HClass, Poly]) -> Counter[HClass]:
    """P+(1) of every class of a P+ table, the zeros dropped."""
    sums = ((h, evaluate_at_one(poly)) for h, poly in polys.items())
    return Counter({h: v for h, v in sums if v})


def sw_norm_via_duality(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as the counting function Q of the dual
    class [Z_K] - h at the cut Z_K - r_h, read as P+(1) of ``polypart_dual``
    on the cut vertices: a term at l' counts for the class h with
    [l'] = [Z_K] - h when l' fails that class's cut on some cut vertex i.
    Z_K - r_h - l' lies in L, so l'_i < (Z_K - r_h)_i means
    l'_i <= (Z_K - r_h)_i - 1, and as r_h lies in [0, 1) that holds exactly
    when l'_i <= (Z_K - E)_i.  So the walk is the one cut at infinity, and
    every point it reaches counts for its class."""
    return _at_one(polypart_dual(g, duality_cut_vertices(g)))


_POLYPART_MISMATCH = "division and duality produced different polynomial parts"


def sw_norm_via_polypart(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as P+(1) of the polynomial part by
    duality, checked against the Euclidean division's; the first class, in
    key order, where the two differ raises ``RouteDisagreement``."""
    subset = duality_cut_vertices(g)
    polys, divs = polypart_dual(g, subset), polypart_division(g, subset)
    for h in sorted(polys.keys() | divs.keys()):
        if polys.get(h, {}) != divs.get(h, {}):
            raise RouteDisagreement(f"h={h}: {_POLYPART_MISMATCH}")
    return _at_one(polys)


def sw_norm_via_division(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as P+(1) of the Euclidean division of
    the class h component."""
    return _at_one(polypart_division(g, duality_cut_vertices(g)))


def sw_raw(g: PlumbingGraph, h: HClass, sw_norm_neg: int) -> int:
    """Raw Seiberg-Witten invariant of the structure indexed by h, from the
    agreed normalized value: sw_norm - ((K + 2 r_h)^2 + |V|)/8, K = -Z_K,
    scaled by 8 d^2, d = |H|, to the integer
    -(8 d^2 sw_norm_neg + sv^2 + |V| d^2): sv = d (K + 2 r_h) is read off
    the class key, and its square is ``Lattice.form``."""
    lat = lattice_of(g)
    d = lat.h_order
    sv = [2 * k - z for k, z in zip(h.key, lat.sz_k)]
    return -(8 * d * d * sw_norm_neg + lat.form(sv, sv) + lat.n * d * d)


ROUTES = ("duality", "polypart", "division", "lattice")


class SWEntry(NamedTuple):
    h: HClass
    values: dict[str, int]
    errors: dict[str, str]
    agree: bool
    sw_norm_neg: int | None
    # the raw invariant times 8 |H|^2, as sw_raw returns it
    raw: int | None


def sw_report(g: PlumbingGraph, methods=ROUTES) -> Iterator[SWEntry]:
    """Run the requested routes, then yield the entry of every class of H,
    sorted by representative; refuse to normalize when the routes disagree.

    The call builds what its routes read, each for the whole graph: the P+
    table of the walk at infinity, ``polypart_dual``, for duality and
    polypart; the P+ table of one Euclidean division over Z[H],
    ``polypart_division``, which splits nothing and keeps no certificate,
    for polypart and division; and the lattice count.  Duality reads P+(1)
    of the first table, division P+(1) of the second, and polypart P+(1) of
    the first once it equals the second.  A class's entry (values, errors,
    agreement, raw invariant) is built only when the iteration reaches it;
    ``tuple(sw_report(g))`` holds them all, and
    ``all(e.agree for e in sw_report(g))`` tells whether the routes agree
    on every class.  ``methods`` must name at least one route, and only
    routes of ``ROUTES``: otherwise the call raises ``ValueError``, before
    any route runs.  The lattice route's ``PolytopeError`` propagates from
    the call when it is the only route asked for."""
    unknown = [m for m in methods if m not in ROUTES]
    if unknown:
        raise ValueError(f"unknown route {unknown[0]!r}")
    if not methods:
        raise ValueError("no route requested")
    subset = duality_cut_vertices(g)
    polys = polypart_dual(g, subset) if {"duality", "polypart"} & set(methods) else None
    divs = polypart_division(g, subset) if {"polypart", "division"} & set(methods) else None
    lattice, lattice_error = None, None
    if "lattice" in methods:
        try:
            lattice = sw_via_lattice(g)
        except PolytopeError as exc:
            if set(methods) == {"lattice"}:
                raise
            lattice_error = "not applicable: " + str(exc)

    def entries():
        for h in iter_classes(g):
            values: dict[str, int] = {}
            errors: dict[str, str] = {}
            poly = polys.get(h, {}) if polys is not None else None
            if "duality" in methods:
                values["duality"] = evaluate_at_one(poly)
            if "polypart" in methods:
                if divs.get(h, {}) != poly:
                    errors["polypart"] = _POLYPART_MISMATCH
                else:
                    values["polypart"] = evaluate_at_one(poly)
            if "division" in methods:
                values["division"] = evaluate_at_one(divs.get(h, {}))
            if lattice is not None:
                values["lattice"] = lattice[h]
            elif lattice_error is not None:
                errors["lattice"] = lattice_error
            agree = len(set(values.values())) == 1 and not any(
                route != "lattice" for route in errors)
            norm = next(iter(values.values())) if agree else None
            raw = sw_raw(g, h, norm) if norm is not None else None
            yield SWEntry(h, values, errors, agree, norm, raw)

    return entries()


class QuadraticSample(NamedTuple):
    """One sampled l', held scaled, as ``HClass`` holds its key: slprime
    is d l', d = |H|."""
    slprime: tuple[int, ...]
    ok: bool


class QuadraticReport(NamedTuple):
    samples: tuple[QuadraticSample, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.samples)


def quadratic_check(g: PlumbingGraph, samples: int = 3, seed: int = 0) -> QuadraticReport:
    """Sample l' = Z_K + (positive anti-dual combination) and compare the
    full-variable count -Q_{[l']}(l') with the quadratic
    ((K + 2 l')^2 + |V|)/8 + raw invariant of the matching class, both
    times 8 d^2, d = |H|, in integers: sv = d (K + 2 l') and ``sw_raw``."""
    lat = lattice_of(g)
    d = lat.h_order
    rng = random.Random(seed)
    duality = sw_norm_via_duality(g)
    out = []
    for _ in range(samples):
        shift = lat.combination((i, rng.randint(1, 2)) for i in range(lat.n))
        slp = tuple(map(add, lat.sz_k, shift))
        h = lat.class_at(slp)
        lhs = -8 * d * d * _cut_sum(g, h, g.ids, slp, any)
        sv = tuple(2 * x - z for x, z in zip(slp, lat.sz_k))
        rhs = lat.form(sv, sv) + lat.n * d * d + sw_raw(g, h, duality[h])
        out.append(QuadraticSample(slp, lhs == rhs))
    return QuadraticReport(tuple(out))
