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

The two must agree on the live coordinates, and P+(1) is the normalized
Seiberg-Witten invariant with opposite sign when the live set contains all
nodes.

Exponents are scaled integer vectors (coordinates times |H|), as in
``series``.  Division runs per class on their live coordinates.  That is
exact: after the equivariant split every denominator exponent lies in L,
so it is 0 mod |H| in every scaled coordinate, and all numerator exponents
of one H-component agree off the live coordinates mod L.  No division step
changes the off-live coordinates, so one residue per component rebuilds
every full exponent, as ``neg`` does.  Both constructions key
``Decomposition.poly`` by live scaled tuples; exponents become ``Fraction``
only in ``poly_live``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import lt, sub

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_vec, lattice_of
from .series import (RatFunc, _component, _cone_visit, _expand_factors, _split_terms,
                     live_indices, zeta)


class DivisionError(ValueError):
    pass


@dataclass
class Decomposition:
    """Polynomial part, and from division its certificate, of one
    H-component.  Exponents are live scaled tuples: the live coordinates
    times |H|.  ``residue`` is the scaled full vector that every exponent of
    the component shares off the live coordinates, reduced to [0, |H|), with
    zeros on the live coordinates; ``denominator`` holds scaled full
    vectors, in the order the ``by_s`` index sets refer to."""
    lat: Lattice
    active: tuple[int, ...]
    poly: dict[tuple[int, ...], int]
    by_s: dict[frozenset[int], dict[tuple[int, ...], int]] | None
    denominator: tuple[tuple[int, ...], ...]
    residue: tuple[int, ...]
    htag: HClass | None = None

    def poly_live(self) -> dict[Vec, int]:
        """Polynomial part as a map on live exponents."""
        return {self.lat.unscaled(e): c for e, c in self.poly.items() if c}

    @cached_property
    def neg(self) -> RatFunc | None:
        """Negative degree part: the non-empty S of ``by_s`` over the full
        denominator, its scaled exponents rebuilt from live part and
        residue."""
        if self.by_s is None:
            return None
        active = self.active
        live_denom = [_live(a, active) for a in self.denominator]
        num: dict[tuple[int, ...], int] = {}
        for S in filter(None, self.by_s):
            rest = [(a, 1) for i, a in enumerate(live_denom) if i not in S]
            for b, c in self.by_s[S].items():
                for e, ce in _expand_factors({b: c}, rest)[0].items():
                    num[e] = num.get(e, 0) + ce
        return RatFunc(self.lat, {_full(self.residue, active, e): c for e, c in num.items()},
                       self.denominator, active, htag=self.htag)


def evaluate_at_one(poly: dict) -> int:
    """Sum of the coefficients of a finite polynomial part."""
    return sum(poly.values())


def _live(e, active) -> tuple[int, ...]:
    return tuple(e[i] for i in active)


def _full(residue, active, live) -> tuple[int, ...]:
    out = list(residue)
    for i, x in zip(active, live):
        out[i] = x
    return tuple(out)


def _residue(e, active, d) -> tuple[int, ...]:
    """The residue of a scaled vector: off-live coordinates mod d, zeros on
    the live ones."""
    return tuple(0 if i in active else x % d for i, x in enumerate(e))


def divide_component(lat: Lattice, active, terms, denominator,
                     htag: HClass | None = None) -> Decomposition:
    """Euclidean division of one H-component, given by its scaled numerator
    terms and scaled denominator exponents, on the live coordinates alone.

    Divide until every surviving fraction t^b / prod_{i in S}(1 - t^{a_i})
    with S non-empty satisfies b < a_i on all live coordinates for all i in S.
    The denominators are taken in order of their live part, then of the
    full vector.

    One step picks the smallest applicable denominator index i0 and replaces
    the fraction by -t^{b-a_{i0}} over S minus i0 plus t^{b-a_{i0}} over S.
    Both new exponents have a smaller live-coordinate sum, a_{i0} being
    strictly positive on the live coordinates, so one pass in decreasing
    order of that sum pops each key (S, b) after every key that feeds it and
    rewrites it once, with its final coefficient.  Steps are linear and
    depend only on their key, so ``by_s`` does not depend on their order.
    The pass ends: a step needs some live b_v >= a_{i0,v} > 0, so the
    measure sum_v max(b_v, 0) strictly decreases.

    Working on the live coordinates is exact for one H-component (see the
    module docstring): input with a denominator exponent outside L, or with
    numerator exponents that differ off the live coordinates mod L, raises
    ``DivisionError`` naming the exponent.

    Both certificate checks run here.  ``neg``, built on first read, cannot
    fail its own: its denominators are those of the component, and its
    exponents add live-positive vectors to a b not strictly negative on the
    live coordinates.
    """
    d = lat.h_order
    for a in denominator:
        if any(x % d for x in a):
            raise DivisionError(f"denominator exponent {format_vec(lat.unscaled(a))} "
                                "is not in L")
    residue, first = (0,) * lat.n, None
    num: dict[tuple[int, ...], int] = {}
    for b, c in terms.items():
        if first is None:
            residue, first = _residue(b, active, d), b
        elif _residue(b, active, d) != residue:
            raise DivisionError(f"numerator exponent {format_vec(lat.unscaled(b))} is off "
                                f"the H-component of {format_vec(lat.unscaled(first))}")
        key = _live(b, active)
        num[key] = num.get(key, 0) + c

    denom = tuple(sorted(denominator, key=lambda a: (_live(a, active), a)))
    la = [_live(a, active) for a in denom]

    cert: dict[tuple[frozenset, tuple[int, ...]], int] = {}
    heap: list = []

    def add(S, sb, c):
        old = cert.get((S, sb))
        if old is None:
            heapq.heappush(heap, (-sum(sb), sorted(S), sb, S))
            old = 0
        cert[S, sb] = old + c

    for b, c in num.items():
        add(frozenset(range(len(denom))), b, c)

    while heap:
        _, order, sb, S = heapq.heappop(heap)
        for i0 in order:
            if not all(map(lt, sb, la[i0])):
                break
        else:
            continue
        c = cert.pop((S, sb))
        if c:
            shifted = tuple(map(sub, sb, la[i0]))
            add(S - {i0}, shifted, -c)
            add(S, shifted, c)

    by_s: dict[frozenset[int], dict[tuple[int, ...], int]] = {}
    for (S, sb), c in cert.items():
        if not c:
            continue
        if all(x < 0 for x in sb):
            full = lat.unscaled(_full(residue, active, sb))
            raise DivisionError(f"certificate exponent {format_vec(full)} strictly negative")
        if any(not all(map(lt, sb, la[i])) for i in S):
            raise DivisionError("division left a reducible term")
        by_s.setdefault(S, {})[sb] = c
    return Decomposition(lat, active, dict(by_s.get(frozenset(), {})), by_s, denom,
                         residue, htag)


def euclid_divide(R: RatFunc) -> Decomposition:
    """Euclidean division of R, which must be one H-component: the output of
    ``f_h`` or ``equivariant_split``."""
    return divide_component(R.lat, R.active, R.numerator, R.denominator, R.htag)


def f_h(g: PlumbingGraph, h: HClass, subset) -> RatFunc:
    """The h-component of the zeta function reduced to ``subset``: the
    numerator and denominator ``reduce`` expands, split; only this component
    becomes a ``RatFunc``."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    F = zeta(g)
    return _component(lat, active, h,
                      *_split_terms(lat, active, *_expand_factors(F.prefactor, F.factors)))


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
    szkme = tuple(z - d for z in lat.sz_k)
    buckets: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def visit(w, e):
        reflected = tuple(zm - x for zm, x in zip(szkme, e))
        bucket = buckets.setdefault(lat.class_key(reflected), {})
        live = _live(reflected, active)
        bucket[live] = bucket.get(live, 0) + w

    _cone_visit(lat, (tuple((i, szkme[i] + 1) for i in active), any), visit)
    out = {}
    for h in all_classes(g):
        key = h.key
        poly = {e: c for e, c in buckets.get(key, {}).items() if c}
        out[h] = Decomposition(lat, active, poly, None, (), _residue(key, active, d))
    return out


def polypart_dual(g: PlumbingGraph, h: HClass, subset) -> Decomposition:
    """Polynomial part of the h-component via the expansion at infinity,
    read from ``polypart_dual_all``."""
    return polypart_dual_all(g, subset)[h]
