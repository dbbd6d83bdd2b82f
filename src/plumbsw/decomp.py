"""Polynomial part / negative degree part decomposition.

A reduced rational function z with numerator exponents b not strictly
negative on the live coordinates and denominator exponents a strictly
positive splits uniquely as P+ + z^neg where P+ is a finite polynomial
whose exponents are never strictly negative on the live coordinates and
z^neg has negative degree in every live variable.  Every construction
returns P+ as one plain polynomial: a dict from live scaled exponent (the
live coordinates times |H|) to a non-zero int.  Two independent
constructions are provided:

* Euclidean division rewrites terms t^b / prod_{i in S} (1 - t^{a_i}) while
  some b fails b < a_{i0} everywhere on the live coordinates, in one heap
  pass with two pivot rules.  ``divide_component`` (and ``euclid_divide``)
  returns the certificate, a ``Decomposition`` indexed by denominator
  subsets S whose S = {} bucket is P+; the certificate depends on the pivot
  rule and ``plumbsw polypart`` prints it, so that rule is fixed.  P+ does
  not: ``divide_polypart``, behind ``plumbsw sw`` and ``verify``, takes the
  faster rule and returns P+ alone.
* ``polypart_dual`` reads P+ of every class off the expansion at infinity,
  from one enumeration: the coefficient at Z_K - E - l' is z(l'), and P+
  keeps the exponents that are not strictly negative on the live
  coordinates.

The two must agree, and P+(1) is the normalized Seiberg-Witten invariant
with opposite sign when the live set contains all nodes.

Exponents are scaled integer vectors, as in ``series``.  Division runs per
class on their live coordinates.  That is exact: after the equivariant
split every denominator exponent lies in L, so it is 0 mod |H| in every
scaled coordinate, and all numerator exponents of one H-component agree
off the live coordinates mod L, where they equal the class key.  No
division step changes the off-live coordinates, so the kernel takes one
class's terms on live exponents, as the split builds them, and its class
rebuilds every full exponent.  Exponents become ``Fraction`` only in
``poly_live``.
"""
from __future__ import annotations

import heapq
from operator import lt, sub
from typing import NamedTuple

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_vec, lattice_of
from .series import RatFunc, _cone_tally, live_indices


class DivisionError(ValueError):
    pass


# P+ as every construction returns it: live scaled exponent -> non-zero int.
Poly = dict[tuple[int, ...], int]


class Decomposition(NamedTuple):
    """The division certificate of one H-component: ``by_s`` maps each
    denominator subset S, a set of indices into ``denominator``, to the
    numerator left over S, and its S = {} bucket is P+.  Exponents are live
    scaled tuples: the live coordinates times |H|.  ``denominator`` holds
    scaled full vectors, and ``htag`` is the class of the component."""
    lat: Lattice
    active: tuple[int, ...]
    by_s: dict[frozenset[int], Poly]
    denominator: tuple[tuple[int, ...], ...]
    htag: HClass

    @property
    def residue(self) -> tuple[int, ...]:
        """The class key off the live coordinates, which every exponent of
        the component shares mod |H| there, and zeros on them."""
        return tuple(0 if i in self.active else k for i, k in enumerate(self.htag.key))

    @property
    def poly(self) -> Poly:
        """P+: the S = {} bucket."""
        return self.by_s.get(frozenset(), {})


def poly_live(lat: Lattice, poly: Poly) -> dict[Vec, int]:
    """A P+ on live ``Fraction`` exponents: each scaled key divided by |H|."""
    return {lat.unscaled(e): c for e, c in poly.items()}


def evaluate_at_one(poly: dict) -> int:
    """Sum of the coefficients of a finite polynomial part."""
    return sum(poly.values())


def _live(e, active) -> tuple[int, ...]:
    return tuple(e[i] for i in active)


def _check_in_l(lat: Lattice, denominator):
    d = lat.h_order
    for a in denominator:
        if any(x % d for x in a):
            raise DivisionError(f"denominator exponent {format_vec(lat.unscaled(a))} "
                                "is not in L")


def _divide(lat: Lattice, active, terms, denominator, h: HClass, certificate: bool):
    """Divide until every surviving fraction t^b / prod_{i in S}(1 - t^{a_i})
    with S non-empty satisfies b < a_i on all live coordinates for all i in
    S.  A fraction is keyed (S, b): S a bit mask over the denominators,
    sorted by live part, then by full vector, and b the live exponent.

    One step picks an applicable i0 in S, the smallest with ``certificate``
    and else the largest, and replaces the fraction by -t^{b-a_{i0}} over
    S minus i0 plus t^{b-a_{i0}} over S.  Both new exponents have a smaller
    live-coordinate sum, a_{i0} being strictly positive on the live
    coordinates, so one pass in decreasing order of that sum pops each key
    after every key that feeds it and rewrites it once, with its final
    coefficient.  The pass ends: a step needs some live b_v >= a_{i0,v} > 0,
    so the measure sum_v max(b_v, 0) strictly decreases.  Each irreducible
    term is checked when popped, and kept if ``certificate`` or S = {}.
    Returns the kept terms by bit mask S and the sorted denominator."""
    _check_in_l(lat, denominator)
    denom = tuple(sorted(denominator, key=lambda a: (_live(a, active), a)))
    la = [_live(a, active) for a in denom]
    lsum = [sum(a) for a in la]
    indices = range(len(denom)) if certificate else range(len(denom) - 1, -1, -1)
    orders: dict[int, list[int]] = {}
    pending: dict[tuple[int, tuple[int, ...]], int] = {}
    kept: dict[tuple[int, tuple[int, ...]], int] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop

    def add(S, sb, negs, c):
        old = pending.get((S, sb))
        if old is None:
            push(heap, (negs, S, sb))
            old = 0
        pending[S, sb] = old + c

    for b, c in terms.items():
        add((1 << len(denom)) - 1, b, -sum(b), c)

    while heap:
        negs, S, sb = pop(heap)
        c = pending.pop((S, sb))
        order = orders.get(S)
        if order is None:
            order = orders[S] = [i for i in indices if S >> i & 1]
        for i0 in order:
            if not all(map(lt, sb, la[i0])):
                break
        else:
            if c:
                if all(x < 0 for x in sb):
                    full = list(h.key)
                    for i, x in zip(active, sb):
                        full[i] = x
                    raise DivisionError(f"certificate exponent {format_vec(lat.unscaled(full))}"
                                        " strictly negative")
                if certificate or not S:
                    kept[S, sb] = c
            continue
        if c:
            shifted = tuple(map(sub, sb, la[i0]))
            negs += lsum[i0]
            add(S & ~(1 << i0), shifted, negs, -c)
            add(S, shifted, negs, c)

    buckets: dict[int, Poly] = {}
    for (S, sb), c in kept.items():
        buckets.setdefault(S, {})[sb] = c
    return buckets, denom


def divide_component(lat: Lattice, active, terms, denominator, htag: HClass) -> Decomposition:
    """Euclidean division of the H-component of class ``htag``, given by its
    numerator terms keyed by live scaled exponent and its scaled denominator
    exponents, on the live coordinates alone, with its certificate ``by_s``.
    Each step pivots on the smallest applicable denominator.  Steps are
    linear and depend only on their key, so ``by_s`` does not depend on the
    order in which keys are popped, but it does depend on the pivot rule,
    and ``plumbsw polypart`` prints it.

    Working on the live coordinates is exact for one H-component (see the
    module docstring): a denominator exponent outside L raises
    ``DivisionError`` naming the exponent.  So does a certificate exponent
    strictly negative on every live coordinate.
    """
    buckets, denom = _divide(lat, active, terms, denominator, htag, True)
    by_s = {frozenset(i for i in range(len(denom)) if S >> i & 1): bucket
            for S, bucket in buckets.items()}
    return Decomposition(lat, active, by_s, denom, htag)


def divide_polypart(lat: Lattice, active, terms, denominator, htag: HClass) -> Poly:
    """P+ of one H-component as ``divide_component`` finds it, P+ being
    unique, but pivoting on the applicable denominator with the largest live
    part, which takes far fewer steps, and keeping no certificate.  Raises
    the same ``DivisionError`` on the same input."""
    return _divide(lat, active, terms, denominator, htag, False)[0].get(0, {})


def euclid_divide(R: RatFunc) -> Decomposition:
    """Euclidean division of R, which must be one H-component, as a value of
    ``equivariant_split`` is: of the class of its tag, or else of its first
    numerator exponent.  A denominator exponent outside L, or a numerator
    exponent off that class, raises ``DivisionError`` naming it."""
    lat, active = R.lat, R.active
    _check_in_l(lat, R.denominator)
    h = R.htag or lat.class_at(next(iter(R.numerator), (0,) * lat.n))
    terms: Poly = {}
    for b, c in R.numerator.items():
        if any(b[i] % lat.h_order != h.key[i] for i in range(lat.n) if i not in active):
            raise DivisionError(f"numerator exponent {format_vec(lat.unscaled(b))} is off "
                                f"the H-component h={h}")
        key = _live(b, active)
        terms[key] = terms.get(key, 0) + c
    return divide_component(lat, active, terms, R.denominator, h)


def polypart_dual(g: PlumbingGraph, subset) -> dict[HClass, Poly]:
    """Polynomial part of every h-component via the expansion at infinity,
    from one enumeration.

    Enumerates l' in the Lipman cone that stay at or below Z_K - E somewhere
    on the live coordinates; the term at exponent Z_K - E - l' receives
    z(l') in the component of its own class, which is [Z_K] - [l'].
    """
    lat = lattice_of(g)
    active = live_indices(g, subset)
    szkme = lat.szkme
    # one class object per class, shared by the tally's keys
    classes = {h.key: h for h in all_classes(g)}

    def key(e):
        reflected = tuple(map(sub, szkme, e))
        return classes[lat.class_key(reflected)], _live(reflected, active)

    cut = (tuple((i, szkme[i] + 1) for i in active), any)
    buckets: dict[HClass, Poly] = {h: {} for h in classes.values()}
    for (h, live), c in _cone_tally(lat, cut, key).items():
        buckets[h][live] = c
    return buckets

