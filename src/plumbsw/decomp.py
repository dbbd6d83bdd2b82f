"""Polynomial part / negative degree part decomposition.

A reduced rational function z with numerator exponents b not strictly
negative on the live coordinates and denominator exponents a strictly
positive splits uniquely as P+ + z^neg where P+ is a finite polynomial
whose exponents are never strictly negative on the live coordinates and
z^neg has negative degree in every live variable.  Two independent
constructions are provided:

* ``euclid_divide`` rewrites terms t^b / prod_{i in S} (1 - t^{a_i}) while
  some b fails b < a_{i0} everywhere on the live coordinates, producing a
  certificate indexed by denominator subsets S; the S = {} bucket is P+.
* ``polypart_dual`` reads P+ off the expansion at infinity: the coefficient
  at Z_K - E - l' is z(l'), and P+ keeps the exponents that are not
  strictly negative on the live coordinates.

The two must agree (projected to the live coordinates), and P+(1) is the
normalized Seiberg-Witten invariant with opposite sign when the live set
contains all nodes.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_vec, lattice_of
from .series import (RatFunc, _component, _cone_visit, _split_terms, live_indices,
                     off_live_canon, reduce, zeta)


class DivisionError(ValueError):
    pass


@dataclass
class Decomposition:
    lat: Lattice
    active: tuple[int, ...]
    poly: dict[Vec, int]
    by_s: dict[frozenset[int], dict[Vec, int]] | None
    denominator: tuple[Vec, ...]
    htag: HClass | None = None

    def poly_live(self) -> dict[Vec, int]:
        """Polynomial part as a map on live exponents, merged."""
        out: dict[Vec, int] = {}
        for e, c in self.poly.items():
            live = tuple(Fraction(e[i]) for i in self.active)
            out[live] = out.get(live, 0) + c
        return {e: c for e, c in out.items() if c}

    @cached_property
    def neg(self) -> RatFunc | None:
        """Negative degree part: the non-empty S of ``by_s`` over the full denominator."""
        if self.by_s is None:
            return None
        lat = self.lat
        canon = off_live_canon(lat, self.active)
        sa = [lat.scaled(a) for a in self.denominator]
        num: dict[tuple[int, ...], int] = {}
        for S in filter(None, self.by_s):
            rest = [a for i, a in enumerate(sa) if i not in S]
            for b, c in self.by_s[S].items():
                _expand_product(num, canon, lat.scaled(b), c, rest)
        return RatFunc(lat, {_unscale(e, lat.h_order): c for e, c in num.items()},
                       self.denominator, self.active, htag=self.htag)


def evaluate_at_one(poly: dict) -> int:
    """Sum of the coefficients of a finite polynomial part."""
    return sum(poly.values())


def _strictly_less_on(sa, sb, active) -> bool:
    return all(sa[i] < sb[i] for i in active)


def euclid_divide(R: RatFunc) -> Decomposition:
    """Divide until every surviving fraction t^b / prod_{i in S}(1 - t^{a_i})
    with S non-empty satisfies b < a_i on all live coordinates for all i in S.

    One step picks the smallest applicable denominator index i0 and replaces
    the fraction by -t^{b-a_{i0}} over S minus i0 plus t^{b-a_{i0}} over S.
    Both new exponents have a smaller live-coordinate sum, a_{i0} being
    strictly positive on the live coordinates, so one pass in decreasing
    order of that sum pops each key (S, b) after every key that feeds it and
    rewrites it once, with its final coefficient.  Steps are linear and
    depend only on their key, so ``by_s`` does not depend on their order.
    The pass ends: a step needs some live b_v >= a_{i0,v} > 0, so the
    measure sum_v max(b_v, 0) strictly decreases.

    Both certificate checks run here.  ``neg``, built on first read, cannot
    fail its own: its denominators are those of R, and its exponents add
    live-positive vectors to a b not strictly negative on the live coordinates.
    """
    lat, active, d = R.lat, R.active, R.lat.h_order
    order = sorted(range(len(R.denominator)),
                   key=lambda i: (R.project(R.denominator[i]), R.denominator[i]))
    denom = tuple(R.denominator[i] for i in order)
    sa = [lat.scaled(a) for a in denom]
    # Exponents matter only through their live coordinates and their class.
    canon = off_live_canon(lat, active)

    terms: dict[tuple[frozenset, tuple[int, ...]], int] = {}
    heap: list = []

    def add(S, sb, c):
        if (S, sb) not in terms:
            terms[S, sb] = 0
            heapq.heappush(heap, (-sum(sb[i] for i in active), sorted(S), sb, S))
        terms[S, sb] += c

    for b, c in R.numerator.items():
        add(frozenset(range(len(denom))), canon(lat.scaled(b)), c)

    while heap:
        _, _, sb, S = heapq.heappop(heap)
        i0 = next((i for i in sorted(S) if not _strictly_less_on(sb, sa[i], active)), None)
        c = 0 if i0 is None else terms.pop((S, sb))
        if c:
            shifted = canon(tuple(x - y for x, y in zip(sb, sa[i0])))
            add(S - {i0}, shifted, -c)
            add(S, shifted, c)

    by_s: dict[frozenset[int], dict[Vec, int]] = {}
    for (S, sb), c in terms.items():
        if not c:
            continue
        if all(sb[i] < 0 for i in active):
            raise DivisionError("certificate exponent "
                                f"{format_vec(_unscale(sb, d))} strictly negative")
        if any(not _strictly_less_on(sb, sa[i], active) for i in S):
            raise DivisionError("division left a reducible term")
        by_s.setdefault(S, {})[_unscale(sb, d)] = c
    return Decomposition(lat, active, dict(by_s.get(frozenset(), {})), by_s, denom, R.htag)


def _unscale(se, d) -> Vec:
    return tuple(Fraction(x, d) for x in se)


def _expand_product(acc, canon, se, c, factors) -> None:
    """Add the terms of c * t^se * prod (1 - t^a) over the given scaled
    factors to ``acc``, keyed by their off-live representatives."""
    part = {se: c}
    for a in factors:
        new: dict[tuple[int, ...], int] = {}
        for b, cb in part.items():
            new[b] = new.get(b, 0) + cb
            shifted = tuple(x + y for x, y in zip(b, a))
            new[shifted] = new.get(shifted, 0) - cb
        part = new
    for e, ce in part.items():
        key = canon(e)
        acc[key] = acc.get(key, 0) + ce


def f_h(g: PlumbingGraph, h: HClass, subset) -> RatFunc:
    """The h-component of the zeta function reduced to ``subset``; only this
    component is converted and checked."""
    R = reduce(zeta(g), subset)
    return _component(R, h, *_split_terms(R))


def polypart_dual_all(g: PlumbingGraph, subset) -> dict[HClass, Decomposition]:
    """Polynomial part of every h-component via the expansion at infinity,
    from one enumeration.

    Enumerates l' in the Lipman cone that stay at or below Z_K - E somewhere
    on the live coordinates; the term at exponent Z_K - E - l' receives
    z(l') in the component of its own class, which is [Z_K] - [l'].
    """
    lat = lattice_of(g)
    active = live_indices(g, subset)
    d = lat.h_order
    szkme = lat.scaled(lat.z_k_me)
    buckets: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def visit(w, e):
        reflected = tuple(zm - x for zm, x in zip(szkme, e))
        bucket = buckets.setdefault(lat.class_key(reflected), {})
        bucket[reflected] = bucket.get(reflected, 0) + w

    _cone_visit(lat, (tuple((i, szkme[i] + 1) for i in active), any), visit)
    out = {}
    for h in all_classes(g):
        bucket = buckets.get(lat.class_to_key(h), {})
        poly = {tuple(Fraction(x, d) for x in e): c for e, c in bucket.items() if c}
        out[h] = Decomposition(lat, active, poly, None, ())
    return out


def polypart_dual(g: PlumbingGraph, h: HClass, subset, with_neg: bool = False) -> Decomposition:
    """Polynomial part of the h-component via the expansion at infinity,
    read from ``polypart_dual_all``.  The complement of the polynomial part
    is the negative degree part, returned only when ``with_neg`` is set.
    """
    dec = polypart_dual_all(g, subset)[h]
    if not with_neg:
        return dec
    lat, active = dec.lat, dec.active
    canon = off_live_canon(lat, active)
    fh = f_h(g, h, subset)
    denom = fh.denominator
    sdenom = [lat.scaled(a) for a in denom]
    num: dict[tuple[int, ...], int] = {}
    for b, c in fh.numerator.items():
        key = canon(lat.scaled(b))
        num[key] = num.get(key, 0) + c
    for e, c in dec.poly.items():
        _expand_product(num, canon, lat.scaled(e), -c, sdenom)
    out = Decomposition(lat, active, dec.poly, None, denom, h)
    out.neg = RatFunc(lat, {_unscale(e, lat.h_order): c for e, c in num.items()}, denom,
                      active, htag=h)
    return out


def dual_polypart(g: PlumbingGraph, h: HClass, subset) -> dict[Vec, int]:
    """Dual polynomial part: the truncation of the series of class
    [Z_K] - h at exponents not above Z_K - E everywhere on the live
    coordinates, as a map on live exponents.  Asserts the reflection
    identity against ``polypart_dual`` term by term."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    d = lat.h_order
    szk = lat.sz_k
    hkey = lat.class_to_key(h)
    want = tuple((zk - hk) % d for zk, hk in zip(szk, hkey))
    szkme = lat.scaled(lat.z_k_me)
    check: dict[Vec, int] = {}

    def visit(w, e):
        if lat.class_key(e) != want:
            return
        live = tuple(Fraction(e[i], d) for i in active)
        check[live] = check.get(live, 0) + w

    _cone_visit(lat, (tuple((i, szkme[i] + 1) for i in active), any), visit)
    check = {e: c for e, c in check.items() if c}

    mirror = polypart_dual(g, h, subset).poly_live()
    zkme_live = tuple(lat.z_k_me[i] for i in active)
    reflected = {tuple(z - x for z, x in zip(zkme_live, e)): c for e, c in check.items()}
    if reflected != mirror:
        raise DivisionError("dual polynomial part does not reflect onto the polynomial part")
    return check
