"""Polynomial part / negative degree part decomposition.

A reduced rational function z with numerator exponents b not strictly
negative on the live coordinates and denominator exponents a strictly
positive splits uniquely as P+ + z^neg where P+ is a finite polynomial
whose exponents are never strictly negative on the live coordinates and
z^neg has negative degree in every live variable.  Every construction
returns P+ as one plain polynomial: a dict from live scaled exponent (the
live coordinates times |H|) to a non-zero int.  A table of P+ by class
holds the classes whose P+ is non-zero only: read it with ``.get(h, {})``.
Two independent constructions are provided:

* Euclidean division rewrites terms t^b / prod_{i in S} (1 - t^{a_i}) while
  some b fails b < a_{i0} everywhere on the live coordinates, in one heap
  pass, ``_divide``, that pivots on the smallest such i0.
  ``polypart_division``, behind the polypart and division routes, divides
  the reduced zeta function once over Z[H] and keeps the table of P+.
  ``divide_component`` (and ``euclid_divide``) divides one split
  component and returns the certificate, a ``Decomposition`` indexed by
  denominator subsets S whose S = {} bucket is P+; ``plumbsw polypart``
  prints it.
* ``polypart_dual`` reads the table of P+ off the expansion at infinity,
  from one walk: the coefficient at Z_K - E - l' is z(l'), and P+ keeps
  the exponents that are not strictly negative on the live coordinates.
  It is the one walk behind the duality and polypart routes.

The two must agree, and P+(1) is the normalized Seiberg-Witten invariant
with opposite sign when the live set contains all nodes.

Exponents are scaled integer vectors, as in ``series``.  Division runs on
their live coordinates, each term tagged with its class in H: the reduced
function is the sum over h of its h-component times [h], an element of
Z[H](t), and a step on 1 - t^a moves the class by -[a].  The class key
and the live exponent rebuild every full exponent mod L.  A split
component has every denominator exponent in L, so its class never moves;
``divide_component`` checks that.  Exponents are printed, in the
``DivisionError`` messages too, by ``lattice.format_scaled``, and never
become ``Fraction``: this module does not import ``fractions``.
"""
from __future__ import annotations

import heapq
from operator import lt, sub
from typing import NamedTuple

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, format_scaled, lattice_of
from .series import RatFunc, _infinity_tally, _tally, live_indices, zeta


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
    def poly(self) -> Poly:
        """P+: the S = {} bucket."""
        return self.by_s.get(frozenset(), {})


def evaluate_at_one(poly: dict) -> int:
    """Sum of the coefficients of a finite polynomial part."""
    return sum(poly.values())


def _live(e, active) -> tuple[int, ...]:
    return tuple(e[i] for i in active)


def _check_in_l(lat: Lattice, denominator):
    for a in denominator:
        if any(lat.class_key(a)):
            raise DivisionError(f"denominator exponent {format_scaled(a, lat.h_order)} "
                                "is not in L")


def _pivot_order(denominator, active) -> tuple[tuple[int, ...], ...]:
    """The denominator exponents sorted by live part, then by full vector."""
    return tuple(sorted(denominator, key=lambda a: (_live(a, active), a)))


def _divide(lat: Lattice, active, terms, denom, classes, moves):
    """Divide sum c t^b [h] / prod_i (1 - t^{a_i} [a_i]) over Z[H] until
    every surviving fraction t^b [h] / prod_{i in S}(1 - t^{a_i} [a_i]) with
    S non-empty satisfies b < a_i on all live coordinates for all i in S.  A
    fraction is keyed (S, h, b): S a bit mask over ``denom``, in
    ``_pivot_order``, h an index into ``classes`` and b the live exponent.
    ``terms`` maps (h, b) to c, and moves[i][h] is the index of h - [a_i].

    One step picks the smallest applicable i0 in S and replaces the fraction
    by -t^{b-a_{i0}} [h - a_{i0}] over S minus i0 plus the same term over S.
    Both new exponents have a smaller live-coordinate sum, a_{i0} being
    strictly positive on the live coordinates, so one pass in decreasing
    order of that sum pops each key after every key that feeds it and
    rewrites it once, with its final coefficient.  The pass ends: a step
    needs some live b_v >= a_{i0,v} > 0, so the measure sum_v max(b_v, 0)
    strictly decreases.  Yields each irreducible term (S, h, b, c) with c
    non-zero, checked when popped."""
    la = [_live(a, active) for a in denom]
    lsum = [sum(a) for a in la]
    orders: dict[int, list[int]] = {}
    pending: dict[tuple[int, int, tuple[int, ...]], int] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop

    def add(S, h, sb, negs, c):
        old = pending.get((S, h, sb))
        if old is None:
            push(heap, (negs, S, h, sb))
            old = 0
        pending[S, h, sb] = old + c

    for (h, b), c in terms.items():
        add((1 << len(denom)) - 1, h, b, -sum(b), c)

    while heap:
        negs, S, h, sb = pop(heap)
        c = pending.pop((S, h, sb))
        order = orders.get(S)
        if order is None:
            order = orders[S] = [i for i in range(len(denom)) if S >> i & 1]
        for i0 in order:
            if not all(map(lt, sb, la[i0])):
                break
        else:
            if c:
                if all(x < 0 for x in sb):
                    full = list(classes[h].key)
                    for i, x in zip(active, sb):
                        full[i] = x
                    raise DivisionError(f"certificate exponent {format_scaled(full, lat.h_order)}"
                                        " strictly negative")
                yield S, h, sb, c
            continue
        if c:
            shifted = tuple(map(sub, sb, la[i0]))
            negs += lsum[i0]
            h = moves[i0][h]
            add(S & ~(1 << i0), h, shifted, negs, -c)
            add(S, h, shifted, negs, c)


def divide_component(lat: Lattice, active, terms, denominator, htag: HClass) -> Decomposition:
    """Euclidean division of the H-component of class ``htag``, given by its
    numerator terms keyed by live scaled exponent and its scaled denominator
    exponents, on the live coordinates alone, with its certificate ``by_s``.
    This is ``_divide`` on one class, which no step moves.  Steps are linear
    and depend only on their key, so ``by_s`` does not depend on the order
    in which keys are popped, but it does depend on the pivot rule, and
    ``plumbsw polypart`` prints it.

    Working on the live coordinates is exact for one H-component (see the
    module docstring): a denominator exponent outside L raises
    ``DivisionError`` naming the exponent.  So does a certificate exponent
    strictly negative on every live coordinate.
    """
    _check_in_l(lat, denominator)
    denom = _pivot_order(denominator, active)
    by_s: dict[frozenset[int], Poly] = {}
    for S, _, b, c in _divide(lat, active, {(0, b): c for b, c in terms.items()}, denom,
                              (htag,), ((0,),) * len(denom)):
        by_s.setdefault(frozenset(i for i in range(len(denom)) if S >> i & 1), {})[b] = c
    return Decomposition(lat, active, by_s, denom, htag)


def euclid_divide(R: RatFunc) -> Decomposition:
    """Euclidean division of R, which must be one H-component, as a value of
    ``equivariant_split`` is: of the class of its tag, or else of its first
    numerator exponent, which ``Lattice.class_at`` refuses with
    ``LatticeError`` if it is not in L'.  A denominator exponent outside L,
    or a numerator exponent off that class, raises ``DivisionError`` naming
    it."""
    lat, active = R.lat, R.active
    _check_in_l(lat, R.denominator)
    h = R.htag or lat.class_at(next(iter(R.numerator), (0,) * lat.n))
    terms: Poly = {}
    off = [i for i in range(lat.n) if i not in active]
    for b, c in R.numerator.items():
        bkey = lat.class_key(b)
        if any(bkey[i] != h.key[i] for i in off):
            raise DivisionError(f"numerator exponent {format_scaled(b, lat.h_order)} is off "
                                f"the H-component h={h}")
        key = _live(b, active)
        terms[key] = terms.get(key, 0) + c
    return divide_component(lat, active, terms, R.denominator, h)


def polypart_division(g: PlumbingGraph, subset) -> dict[HClass, Poly]:
    """Polynomial part of every h-component from one Euclidean division of
    the reduced zeta function over Z[H]: each numerator term t^e carries its
    class [e], and a step on a denominator 1 - t^a moves it by -[a].  The
    S = {} terms of class h are P+ of the h-component, P+ being unique.
    Holds the classes whose P+ is non-zero only."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    num, denominator = zeta(g).expanded()
    denom = _pivot_order(denominator, active)
    classes, index, moves = lat.class_moves([[-y for y in a] for a in denom])
    terms = _tally(num.items(), (), ((), all),
                   lambda e: (index[lat.class_key(e)], _live(e, active)))
    buckets: dict[HClass, Poly] = {}
    for S, h, b, c in _divide(lat, active, terms, denom, classes, moves):
        if not S:
            buckets.setdefault(classes[h], {})[b] = c
    return buckets


def polypart_dual(g: PlumbingGraph, subset) -> dict[HClass, Poly]:
    """Polynomial part of every h-component via the expansion at infinity,
    from one walk, holding the classes whose P+ is non-zero only.

    Walks the l' in the Lipman cone that stay at or below Z_K - E somewhere
    on the live coordinates; the term at exponent Z_K - E - l' receives
    z(l') in the component of its own class, which is [Z_K] - [l'].
    """
    lat = lattice_of(g)
    active = live_indices(g, subset)
    szkme, d = lat.szkme, lat.h_order
    # one class object per class reached, shared by the tally's keys
    classes: dict[tuple[int, ...], HClass] = {}

    def key(e):
        reflected = tuple(map(sub, szkme, e))
        k = lat.class_key(reflected)
        h = classes.get(k) or classes.setdefault(k, HClass(k, d))
        return h, _live(reflected, active)

    buckets: dict[HClass, Poly] = {}
    for (h, live), c in _infinity_tally(lat, active, (0,) * len(active), key).items():
        buckets.setdefault(h, {})[live] = c
    return buckets
