"""Orchestration of the Seiberg-Witten routes.

Three independent computations of the normalized invariant (always
reported with opposite sign, the quantity -sw^norm_h) are available:

* duality: the finite counting-function evaluation Q at the cut Z_K - r_h
  in the dual class [Z_K] - h, over the nodes;
* polypart: the value at 1 of the polynomial part, built by duality from
  the expansion at infinity and cross-checked against Euclidean division;
* lattice: the alternating sum of fibered lattice point counts over the
  node multiset (needs at least one node).

Each route function takes the graph and returns a ``collections.Counter``
keyed by ``HClass`` that holds the non-zero classes only: indexing it with
any class of H gives that class's value, 0 for an absent class.
Division, the fourth value ``sw_report`` compares, divides the reduced
zeta function once over Z[H], which gives P+ of every class; ``sw_report``
is the one place that divides and cross-checks, and the polypart and
division route functions read their values from it.
``sw_report`` runs the routes when it is called and yields one ``SWEntry``
per class, walking H with ``lattice.iter_classes``; an entry is built only
when its class is reached, so a caller that prints and drops each entry
holds one at a time.  With the duality and lattice routes nothing holds a
table of every class.

The raw invariant is recovered from the agreed normalized value by the
exact quadratic shift ((K + 2 r_h)^2 + |V|)/8, and the quadratic
consistency check samples the full-variable counting function deep in the
shifted Lipman cone against that quadratic.
"""
from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .counting import Q
from .decomp import evaluate_at_one, polypart_division, polypart_dual
from .graph import PlumbingGraph
from .lattice import HClass, iter_classes, lattice_of
from .polytopes import PolytopeError, sw_via_lattice
from .series import _cone_tally, live_indices


class RouteDisagreement(RuntimeError):
    pass


def duality_cut_vertices(g: PlumbingGraph) -> tuple[str, ...]:
    """Nodes when there are any, the whole vertex set otherwise (chains and
    the one-vertex graph have no nodes and keep all variables)."""
    lat = lattice_of(g)
    if lat.node_idx:
        return tuple(g.ids[i] for i in lat.node_idx)
    return g.ids


def sw_norm_via_duality(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as the counting function Q of the dual
    class [Z_K] - h at the cut Z_K - r_h, from one walk of the cone at the
    loosest cut Z_K: a term at l' counts for the class h with
    [l'] = [Z_K] - h, and only when l' fails that class's cut somewhere on
    the cut vertices.  The ``Counter`` holds the non-zero classes only, and
    reads 0 on every other class."""
    lat = lattice_of(g)
    active = live_indices(g, duality_cut_vertices(g))
    szk = lat.sz_k

    def failed_key(e):
        # [l'] = [Z_K] - h gives h's key (Z_K - l') mod d, and its cut Z_K - r_h
        key = lat.class_key(map(sub, szk, e))
        return key if any(e[i] < szk[i] - key[i] for i in active) else None

    sums = _cone_tally(lat, (tuple((i, szk[i]) for i in active), any), failed_key)
    d = lat.h_order
    return Counter({HClass(key, d): v for key, v in sums.items() if key is not None})


_POLYPART_MISMATCH = "division and duality produced different polynomial parts"


def _route_values(g: PlumbingGraph, route: str) -> Counter[HClass]:
    """``sw_report``'s non-zero values of one route, as a ``Counter``; the
    first class where the route reports an error raises
    ``RouteDisagreement``."""
    out = Counter()
    for entry in sw_report(g, (route,)):
        if route in entry.errors:
            raise RouteDisagreement(f"h={entry.h}: {entry.errors[route]}")
        if entry.values[route]:
            out[entry.h] = entry.values[route]
    return out


def sw_norm_via_polypart(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as the coefficient sum of the polynomial
    part by duality, verified against the Euclidean division of the class h
    component; the first class where they differ raises
    ``RouteDisagreement``."""
    return _route_values(g, "polypart")


def sw_norm_via_division(g: PlumbingGraph) -> Counter[HClass]:
    """-sw^norm_h of every class h as the coefficient sum of the class h
    component's division."""
    return _route_values(g, "division")


def _eightfold_shift(lat, sv) -> int:
    """8 d^2 ((v, v) + |V|)/8 for v = sv/d, from the scaled integer vector
    sv: (sv, sv) sums the Euler numbers on the diagonal and 1 per tree edge."""
    g, d = lat.graph, lat.h_order
    square = sum(e * x * x for e, x in zip(g.eulers, sv))
    square += 2 * sum(sv[lat.idx[a]] * sv[lat.idx[b]] for a, b in g.edges)
    return square + lat.n * d * d


def _class_shift(lat, h: HClass) -> int:
    """8 d^2 ((K + 2 r_h)^2 + |V|)/8 with K = -Z_K, from the class key."""
    return _eightfold_shift(lat, [2 * k - z for k, z in zip(h.key, lat.sz_k)])


def sw_raw(g: PlumbingGraph, h: HClass, sw_norm_neg: int) -> Fraction:
    """Raw Seiberg-Witten invariant of the structure indexed by h, from the
    agreed normalized value: sw_norm - ((K + 2 r_h)^2 + |V|)/8, built as
    one ``Fraction`` from integers."""
    lat = lattice_of(g)
    den = 8 * lat.h_order ** 2
    return Fraction(-(den * sw_norm_neg + _class_shift(lat, h)), den)


ROUTES = ("duality", "polypart", "division", "lattice")


class SWEntry(NamedTuple):
    h: HClass
    values: dict[str, int]
    errors: dict[str, str]
    agree: bool
    sw_norm_neg: int | None
    raw: Fraction | None


def sw_report(g: PlumbingGraph, methods=ROUTES) -> Iterator[SWEntry]:
    """Run the requested routes, then yield the entry of every class of H,
    sorted by representative; refuse to normalize when the routes disagree.

    Each route answers the whole graph at once, when ``sw_report`` is
    called: duality, polypart and lattice from one enumeration each, and
    division from one Euclidean division over Z[H], ``polypart_division``,
    which splits nothing and keeps no certificate.  Its polynomial parts
    serve both the division route and polypart's cross-check.  A class's
    entry (values, errors, agreement, raw invariant) is built only when the
    iteration reaches it; ``tuple(sw_report(g))`` holds them all, and
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
    duality = sw_norm_via_duality(g) if "duality" in methods else None
    polys = polypart_dual(g, subset) if "polypart" in methods else None
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
            if duality is not None:
                values["duality"] = duality[h]
            if polys is not None:
                if divs[h] != polys[h]:
                    errors["polypart"] = _POLYPART_MISMATCH
                else:
                    values["polypart"] = evaluate_at_one(polys[h])
            if "division" in methods:
                values["division"] = evaluate_at_one(divs[h])
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
    lprime: tuple
    ok: bool


class QuadraticReport(NamedTuple):
    samples: tuple[QuadraticSample, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.samples)


def quadratic_check(g: PlumbingGraph, samples: int = 3, seed: int = 0) -> QuadraticReport:
    """Sample l' = Z_K + (positive anti-dual combination) and compare the
    full-variable count -Q_{[l']}(l') with the quadratic
    ((K + 2 l')^2 + |V|)/8 + raw invariant of the matching class."""
    lat = lattice_of(g)
    rng = random.Random(seed)
    duality = sw_norm_via_duality(g)
    out = []
    for _ in range(samples):
        shift = lat.combination((i, rng.randint(1, 2)) for i in range(lat.n))
        slp = tuple(map(add, lat.sz_k, shift))
        h, lp = lat.class_at(slp), lat.unscaled(slp)
        lhs = -Q(g, h, g.ids, lp)
        sv = tuple(2 * x - z for x, z in zip(slp, lat.sz_k))
        rhs = (Fraction(_eightfold_shift(lat, sv), 8 * lat.h_order ** 2)
               + sw_raw(g, h, duality[h]))
        out.append(QuadraticSample(lp, lhs == rhs))
    return QuadraticReport(tuple(out))
