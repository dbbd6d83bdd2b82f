"""Orchestration of the Seiberg-Witten routes.

Three independent computations of the normalized invariant (always
reported with opposite sign, the quantity -sw^norm_h) are available:

* duality: the finite counting-function evaluation Q at the cut Z_K - r_h
  in the dual class [Z_K] - h, over the nodes;
* polypart: the value at 1 of the polynomial part, built by duality from
  the expansion at infinity and cross-checked against Euclidean division;
* lattice: the alternating sum of fibered lattice point counts over the
  node multiset (needs at least one node).

The raw invariant is recovered from the agreed normalized value by the
exact quadratic shift ((K + 2 r_h)^2 + |V|)/8, and the quadratic
consistency check samples the full-variable counting function deep in the
shifted Lipman cone against that quadratic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .counting import Q
from .decomp import (divide_component, evaluate_at_one, euclid_divide, f_h,
                     polypart_dual, polypart_dual_all)
from .graph import PlumbingGraph
from .lattice import (HClass, all_classes, class_add, class_neg, class_of,
                      lattice_of)
from .polytopes import PolytopeError, sw_via_lattice_all
from .series import _cone_visit, _expand_factors, _split_terms, live_indices, zeta


class RouteDisagreement(RuntimeError):
    pass


def duality_cut_vertices(g: PlumbingGraph) -> tuple[str, ...]:
    """Nodes when there are any, the whole vertex set otherwise (chains and
    the one-vertex graph have no nodes and keep all variables)."""
    lat = lattice_of(g)
    if lat.node_idx:
        return tuple(g.ids[i] for i in lat.node_idx)
    return g.ids


def dual_class(g: PlumbingGraph, h: HClass) -> HClass:
    return class_add(class_of(g, lattice_of(g).z_k), class_neg(h))


def sw_norm_via_duality_all(g: PlumbingGraph) -> dict[HClass, int]:
    """-sw^norm_h of every class h as the counting function Q of the dual
    class [Z_K] - h at the cut Z_K - r_h, from one walk of the cone at the
    loosest cut Z_K: a term at l' counts for the class h with
    [l'] = [Z_K] - h, and only when l' fails that class's cut somewhere on
    the cut vertices."""
    lat = lattice_of(g)
    active = live_indices(g, duality_cut_vertices(g))
    szk = lat.sz_k
    classes = all_classes(g)
    cuts = {}
    for h in classes:
        cut = tuple(z - k for z, k in zip(szk, h.key))
        cuts[lat.class_key(cut)] = (h, cut)
    totals = dict.fromkeys(classes, 0)

    def visit(w, e):
        h, cut = cuts[lat.class_key(e)]
        if any(e[i] < cut[i] for i in active):
            totals[h] += w

    _cone_visit(lat, (tuple((i, szk[i]) for i in active), any), visit)
    return totals


def sw_norm_via_duality(g: PlumbingGraph, h: HClass) -> int:
    """-sw^norm_h as the counting function of the dual class at Z_K - r_h;
    the class h entry of ``sw_norm_via_duality_all``."""
    return sw_norm_via_duality_all(g)[h]


_POLYPART_MISMATCH = "division and duality produced different polynomial parts"


def sw_norm_via_polypart(g: PlumbingGraph, h: HClass) -> int:
    """-sw^norm_h as the coefficient sum of the polynomial part, verified
    against the Euclidean-division construction."""
    subset = duality_cut_vertices(g)
    dec = polypart_dual(g, h, subset)
    if euclid_divide(f_h(g, h, subset)).poly_live() != dec.poly_live():
        raise RouteDisagreement(_POLYPART_MISMATCH)
    return evaluate_at_one(dec.poly)


def sw_norm_via_division(g: PlumbingGraph, h: HClass) -> int:
    """-sw^norm_h as the coefficient sum of the Euclidean-division
    polynomial part."""
    subset = duality_cut_vertices(g)
    return evaluate_at_one(euclid_divide(f_h(g, h, subset)).poly_live())


def _eightfold_shift(lat, sv) -> int:
    """8 d^2 ((v, v) + |V|)/8 for v = sv/d, from the scaled integer vector
    sv: (sv, sv) sums the Euler numbers on the diagonal and 1 per tree edge."""
    g, d = lat.graph, lat.h_order
    square = sum(e * x * x for e, x in zip(g.eulers, sv))
    square += 2 * sum(sv[lat.idx[a]] * sv[lat.idx[b]] for a, b in g.edges)
    return square + lat.n * d * d


def _class_shift(lat, h: HClass) -> int:
    """8 d^2 ((K + 2 r_h)^2 + |V|)/8 with K = -Z_K, from the class key."""
    return _eightfold_shift(lat, tuple(2 * k - z for k, z in zip(h.key, lat.sz_k)))


def sw_shift(g: PlumbingGraph, h: HClass) -> Fraction:
    """((K + 2 r_h)^2 + |V|)/8 with K = -Z_K, computed exactly."""
    lat = lattice_of(g)
    return Fraction(_class_shift(lat, h), 8 * lat.h_order ** 2)


def sw_raw(g: PlumbingGraph, h: HClass, sw_norm_neg: int) -> Fraction:
    """Raw Seiberg-Witten invariant of the structure indexed by h, from the
    agreed normalized value: sw_norm - ((K + 2 r_h)^2 + |V|)/8, built as
    one ``Fraction`` from integers."""
    lat = lattice_of(g)
    den = 8 * lat.h_order ** 2
    return Fraction(-(den * sw_norm_neg + _class_shift(lat, h)), den)


ROUTES = ("duality", "polypart", "division", "lattice")


@dataclass
class SWEntry:
    h: HClass
    values: dict[str, int]
    errors: dict[str, str]
    agree: bool
    sw_norm_neg: int | None
    raw: Fraction | None


@dataclass
class SWReport:
    entries: tuple[SWEntry, ...]

    @property
    def agree(self) -> bool:
        return all(e.agree for e in self.entries)


def sw_report(g: PlumbingGraph, methods=ROUTES) -> SWReport:
    """Run the requested routes for every class of H, sorted by
    representative; refuse to normalize when the routes disagree.

    Duality, polypart and lattice each enumerate once for the whole graph.
    The numerator and denominator of the zeta function, as ``reduce``
    expands them, are split once, and Euclidean division runs once per class
    on the terms of its H-component; that polynomial part serves both the
    division route and polypart's cross-check."""
    lat = lattice_of(g)
    subset = duality_cut_vertices(g)
    active = live_indices(g, subset)
    duality = sw_norm_via_duality_all(g) if "duality" in methods else None
    polys = polypart_dual_all(g, subset) if "polypart" in methods else None
    F = zeta(g)
    split = (_split_terms(lat, active, *_expand_factors(F.prefactor, F.factors))
             if "polypart" in methods or "division" in methods else None)
    lattice, lattice_error = None, None
    if "lattice" in methods:
        try:
            lattice = sw_via_lattice_all(g)
        except PolytopeError as exc:
            lattice_error = "not applicable: " + str(exc)
    entries = []
    for h in all_classes(g):
        values: dict[str, int] = {}
        errors: dict[str, str] = {}
        if duality is not None:
            values["duality"] = duality[h]
        if split is not None:
            by_class, denom = split
            div = divide_component(lat, active, by_class.get(h.key, {}),
                                   denom, h).poly
        if polys is not None:
            if div != polys[h].poly:
                errors["polypart"] = _POLYPART_MISMATCH
            else:
                values["polypart"] = evaluate_at_one(polys[h].poly)
        if "division" in methods:
            values["division"] = evaluate_at_one(div)
        if lattice is not None:
            values["lattice"] = lattice[h]
        elif lattice_error is not None:
            errors["lattice"] = lattice_error
        agree = len(set(values.values())) == 1 and not any(
            route != "lattice" for route in errors)
        norm = next(iter(values.values())) if agree and values else None
        raw = sw_raw(g, h, norm) if norm is not None else None
        entries.append(SWEntry(h, values, errors, agree, norm, raw))
    return SWReport(tuple(entries))


@dataclass
class QuadraticSample:
    lprime: tuple
    ok: bool


@dataclass
class QuadraticReport:
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
    duality = sw_norm_via_duality_all(g)
    out = []
    for _ in range(samples):
        lp = list(lat.z_k)
        for i in range(lat.n):
            c = rng.randint(1, 2)
            col = lat.estar[i]
            for r in range(lat.n):
                lp[r] += c * col[r]
        lp = tuple(lp)
        h = class_of(g, lp)
        lhs = -Q(g, h, g.ids, lp)
        sv = tuple(2 * x - z for x, z in zip(lat.scaled(lp), lat.sz_k))
        rhs = (Fraction(_eightfold_shift(lat, sv), 8 * lat.h_order ** 2)
               + sw_raw(g, h, duality[h]))
        out.append(QuadraticSample(lp, lhs == rhs))
    return QuadraticReport(tuple(out))
