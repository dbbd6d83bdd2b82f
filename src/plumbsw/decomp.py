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

from dataclasses import dataclass
from fractions import Fraction

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_vec, lattice_of
from .series import (RatFunc, _cone_visit, equivariant_split, live_indices,
                     off_live_canon, reduce, zeta)


class DivisionError(ValueError):
    pass


@dataclass
class Decomposition:
    lat: Lattice
    active: tuple[int, ...]
    poly: dict[Vec, int]
    neg: RatFunc | None
    by_s: dict[frozenset[int], dict[Vec, int]] | None
    denominator: tuple[Vec, ...]

    def poly_live(self) -> dict[Vec, int]:
        """Polynomial part as a map on live exponents, merged."""
        out: dict[Vec, int] = {}
        for e, c in self.poly.items():
            live = tuple(Fraction(e[i]) for i in self.active)
            out[live] = out.get(live, 0) + c
        return {e: c for e, c in out.items() if c}


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
    Each step subtracts a strictly positive vector from an exponent whose
    positive live part is nonzero, so the multiset of measures
    sum_v max(b_v, 0) strictly decreases and the loop terminates.
    """
    lat = R.lat
    active = R.active
    d = lat.h_order
    order = sorted(range(len(R.denominator)),
                   key=lambda i: (R.project(R.denominator[i]), R.denominator[i]))
    denom = tuple(R.denominator[i] for i in order)
    sa = [lat.scaled(a) for a in denom]
    n = len(denom)
    full = frozenset(range(n))
    # Exponents matter only through their live coordinates and their class.
    canon = off_live_canon(lat, active)

    terms: dict[tuple[frozenset, tuple[int, ...]], int] = {}
    for b, c in R.numerator.items():
        key = (full, canon(lat.scaled(b)))
        terms[key] = terms.get(key, 0) + c

    def first_applicable(S, sb):
        for i in sorted(S):
            if not _strictly_less_on(sb, sa[i], active):
                return i
        return None

    while True:
        snapshot = sorted(terms, key=lambda k: (tuple(k[1][i] for i in active),
                                                tuple(sorted(k[0])), k[1]))
        progressed = False
        for key in snapshot:
            c = terms.get(key)
            if not c:
                continue
            S, sb = key
            if not S:
                continue
            i0 = first_applicable(S, sb)
            if i0 is None:
                continue
            progressed = True
            del terms[key]
            shifted = canon(tuple(x - y for x, y in zip(sb, sa[i0])))
            for nk, nc in (((S - {i0}, shifted), -c), ((S, shifted), c)):
                terms[nk] = terms.get(nk, 0) + nc
                if not terms[nk]:
                    del terms[nk]
        if not progressed:
            break

    scaled_by_s: dict[frozenset[int], dict[tuple[int, ...], int]] = {}
    for (S, sb), c in terms.items():
        scaled_by_s.setdefault(S, {})[sb] = c
    neg_num: dict[tuple[int, ...], int] = {}
    for S, bucket in scaled_by_s.items():
        rest = [sa[i] for i in range(n) if i not in S]
        for sb, c in bucket.items():
            if all(sb[i] < 0 for i in active):
                raise DivisionError("certificate exponent "
                                    f"{format_vec(_unscale(sb, d))} strictly negative")
            if S:
                if any(not _strictly_less_on(sb, sa[i], active) for i in S):
                    raise DivisionError("division left a reducible term")
                _expand_product(neg_num, canon, sb, c, rest)
    by_s = {S: {_unscale(sb, d): c for sb, c in bucket.items()}
            for S, bucket in scaled_by_s.items()}
    neg = RatFunc(lat, {_unscale(e, d): c for e, c in neg_num.items()}, denom, active,
                  htag=R.htag)
    return Decomposition(lat, active, dict(by_s.get(frozenset(), {})), neg, by_s, denom)


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
    """The h-component of the zeta function reduced to ``subset``."""
    return equivariant_split(reduce(zeta(g), subset))[h]


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

    def alive(cur):
        return any(cur[i] <= szkme[i] for i in active)

    buckets: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def visit(w, e):
        reflected = tuple(zm - x for zm, x in zip(szkme, e))
        bucket = buckets.setdefault(lat.class_key(reflected), {})
        bucket[reflected] = bucket.get(reflected, 0) + w

    _cone_visit(lat, alive, visit)
    out = {}
    for h in all_classes(g):
        bucket = buckets.get(lat.class_to_key(h), {})
        poly = {tuple(Fraction(x, d) for x in e): c for e, c in bucket.items() if c}
        out[h] = Decomposition(lat, active, poly, None, None, ())
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
    neg = RatFunc(lat, {_unscale(e, lat.h_order): c for e, c in num.items()}, denom,
                  active, htag=h)
    return Decomposition(lat, active, dec.poly, neg, None, denom)


def dual_polypart(g: PlumbingGraph, h: HClass, subset) -> dict[Vec, int]:
    """Dual polynomial part: the truncation of the series of class
    [Z_K] - h at exponents not above Z_K - E everywhere on the live
    coordinates, as a map on live exponents.  Asserts the reflection
    identity against ``polypart_dual`` term by term."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    d = lat.h_order
    szk = lat.scaled(lat.z_k)
    hkey = lat.class_to_key(h)
    want = tuple((zk - hk) % d for zk, hk in zip(szk, hkey))
    szkme = lat.scaled(lat.z_k_me)

    def alive(cur):
        return any(cur[i] <= szkme[i] for i in active)

    check: dict[Vec, int] = {}

    def visit(w, e):
        if lat.class_key(e) != want:
            return
        live = tuple(Fraction(e[i], d) for i in active)
        check[live] = check.get(live, 0) + w

    _cone_visit(lat, alive, visit)
    check = {e: c for e, c in check.items() if c}

    mirror = polypart_dual(g, h, subset).poly_live()
    zkme_live = tuple(lat.z_k_me[i] for i in active)
    reflected = {tuple(z - x for z, x in zip(zkme_live, e)): c for e, c in check.items()}
    if reflected != mirror:
        raise DivisionError("dual polynomial part does not reflect onto the polynomial part")
    return check
