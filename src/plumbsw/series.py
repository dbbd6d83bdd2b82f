"""The multivariable zeta function of a plumbing tree and its expansions.

The zeta function is the finite product of factors (1 - t^{E*_v}) raised
to (valency - 2); its Taylor expansion at the origin is the topological
Poincare series, supported in the Lipman cone.  This module keeps the
function in exact factored / numerator-denominator form and provides

* reduction (setting variables outside a live set to 1),
* the equivariant splitting over H = L'/L,
* windowed Taylor expansions at the origin and at infinity.

Windows are explicit values carried by every truncated series.

Every exponent in this module is a scaled integer vector: its coordinates
times d = det(-I) = |H|, integers since L' lies in (1/d)Z^n.  That holds
for the factors of ``FactoredRatFunc``, the numerator and denominator of
``RatFunc`` and the keys of ``TruncatedSeries.terms``.  A window bound,
given in coordinates, is turned once per expansion into a cut on scaled
exponents by ``strict_cut``, the rounding rule polytope dilations share;
``taylor_infinity`` turns it so and runs its scaled core,
``_infinity_terms``, which ``plumbsw verify`` calls with its cut directly.
``fractions.Fraction`` enters only where a rational crosses the program's
edge, by an import inside the function: in ``strict_cut``, which reads a
bound as the user gives it.  Exponents are printed by
``lattice.format_scaled``.  This module does not import ``fractions``.

Every enumeration walks the factors of a product and prunes with a
coordinate cut: strict upper bounds on some coordinates, passed on any or
on all of them.  Each factor level counts its steps once, by one ceiling
division in ``_steps``; that is finite because every factor exponent is
strictly positive on the bounded coordinates.  The one push walker is
``_tally``: it walks every point that passes and adds its weight into a
dict under a key, dropping the zero sums.  Every multiplied-out sum goes
through it, and every sum over the zeta function's cone through
``_infinity_tally``, its walk from the origin.  That one builds the cut of
every walk at infinity, l' <= Z_K - E - b on some live coordinate, for the
closed form of ``taylor_infinity`` (b the window) and, with b = 0, for
``decomp.polypart_dual``, the one walk of the duality and polypart
routes.  The counting functions (``counting.Q`` and ``q``) walk the zeta
factors as a fold that sums each walk state (level, slack, class) once.
They hold a point e by its negative slack t = e - x on the live
coordinates, so a level counts its steps as ``_steps`` does, in one pass
over the t_i // a_i.  They stop two factors early and sum those two in
closed form, from one envelope of lines per leaf shared by all its
residues.

Three loops stay hand-written: ``_grow``, which moves class keys (each
step by ``Lattice.class_move``) and live exponents apart for the
equivariant split of ``equivariant_split`` and ``plumbsw polypart``
(``plumbsw sw`` splits nothing), ``counting._cut_sum`` (a memoized fold
with a closed-form sum) and ``decomp.euclid_divide``'s regrouping of its
numerator, which validates each term.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil, comb, floor, gcd, inf
from operator import add, sub
from typing import NamedTuple

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_scaled, lattice_of


class WindowError(ValueError):
    """A window does not fit its expansion: a window of the wrong kind, or
    a bound of the wrong length."""


class Box(NamedTuple):
    """Origin window: keeps exponents <= bound on every live coordinate."""
    bound: Vec


class Cobox(NamedTuple):
    """Infinity window: keeps exponents >= bound on at least one live
    coordinate.  Expansions at infinity march downward, so this cuts a
    finite corner."""
    bound: Vec


class FactoredRatFunc(NamedTuple):
    """The zeta function of the graph of ``lat``, as built by ``zeta``:
    the product of (1 - t^{E*_v})^{valency(v) - 2} over the vertices of
    valency other than 2."""
    lat: Lattice

    @property
    def factors(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(E*_v, valency(v) - 2) for every vertex of valency != 2, with
        E*_v scaled: column v of the adjugate of -I."""
        lat = self.lat
        return tuple((lat.sestar[i], mu) for i, mu in enumerate(lat.mults) if mu != 0)

    def expanded(self):
        """Numerator and denominator exponents of the product, as
        ``reduce`` starts from: the polynomial factors multiplied out by
        ``_tally`` under an empty cut, each series factor 1/(1 - t^a)^m
        giving a m times in the denominator."""
        polys = [f for f in _zeta_factors(self.lat) if isinstance(f[1], tuple)]
        num = _tally((((0,) * self.lat.n, 1),), polys, ((), all), lambda e: e)
        return num, tuple(a for a, mu in self.factors for _ in range(-mu))


# A dataclass: __post_init__ validates and normalises the numerator.
@dataclass
class RatFunc:
    """sum_k iota_k t^{b_k} / prod_i (1 - t^{a_i}), reduced to the live
    coordinates listed in ``active`` (vertex indices, ascending).

    Exponents are full scaled vectors (dual lattice coordinates times
    |H|); only the live coordinates count when comparing, and the off-live
    ones keep the H-class of every term.  Invariants: a_i strictly positive
    on the live coordinates, numerator exponents never strictly negative on
    all live coordinates.
    """
    lat: Lattice
    numerator: dict[tuple[int, ...], int]
    denominator: tuple[tuple[int, ...], ...]
    active: tuple[int, ...]
    htag: HClass | None = None

    def __post_init__(self):
        if not self.active:
            raise ValueError("active coordinate set must be non-empty")
        self.numerator = {e: c for e, c in self.numerator.items() if c}
        for a in self.denominator:
            if not all(a[i] > 0 for i in self.active):
                raise ValueError(f"denominator exponent {format_scaled(a, self.lat.h_order)} "
                                 "not strictly positive on live coordinates")
        for b in self.numerator:
            if all(b[i] < 0 for i in self.active):
                raise ValueError(f"numerator exponent {format_scaled(b, self.lat.h_order)} "
                                 "strictly negative on all live coordinates")


class TruncatedSeries(NamedTuple):
    """Finite slab of a series: live scaled exponent (the live coordinates
    times d = |H|) -> integer coefficient.  Terms outside the window are
    absent by construction, not zero."""
    terms: dict[tuple[int, ...], int]
    window: Box | Cobox
    active: tuple[int, ...]
    d: int

    def lines(self) -> list[str]:
        out = []
        for e in sorted(self.terms):
            out.append(f"{self.terms[e]} * t^{format_scaled(e, self.d)}")
        return out


def zeta(g: PlumbingGraph) -> FactoredRatFunc:
    """The zeta function of g; the only way to build a
    ``FactoredRatFunc``."""
    return FactoredRatFunc(lattice_of(g))


def live_indices(g: PlumbingGraph, subset) -> tuple[int, ...]:
    idxs = sorted(g.index(v) for v in subset)
    if not idxs:
        raise ValueError("live vertex set must be non-empty")
    if len(set(idxs)) != len(idxs):
        raise ValueError("live vertex set has repeats")
    return tuple(idxs)


def reduce(F: FactoredRatFunc, subset) -> RatFunc:
    """Reduce to the variables of ``subset``: positive factors expand into
    the numerator, negative factors become denominator entries."""
    active = live_indices(F.lat.graph, subset)
    return RatFunc(F.lat, *F.expanded(), active)


# ---------------------------------------------------------------------------
# enumeration engine

def _zeta_factors(lat: Lattice):
    """Walker factors of the zeta product: the finite ones first, then the
    series ones, ending with the series factors 1/(1 - t^a) of multiplicity
    1 by decreasing column sum.  The order serves only the counting
    functions, which sum the last two in closed form."""
    finite, series = [], []
    for i, mu in enumerate(lat.mults):
        if mu > 0:
            weights = tuple((-1) ** k * comb(mu, k) for k in range(mu + 1))
            finite.append((lat.sestar[i], weights))
        elif mu < 0:
            series.append((lat.sestar[i], -mu))
    series.sort(key=lambda f: (f[1] == 1, -sum(f[0])))
    return finite + series


def _steps(cur, a, bounds, widest) -> int:
    """The number of k >= 0 for which cur + k a passes the cut: ``widest``
    (max for ``any``, min for ``all``) over the bounds (i, c) of
    ceil((c - cur_i) / a_i), and unbounded (``inf``) for an empty cut.
    Every a_i over the bounds must be strictly positive."""
    return widest([-((cur[i] - c) // a[i]) for i, c in bounds], default=inf)


def _tally(starts, factors, cut, key) -> dict:
    """The sum of c t^start * prod factors over the pairs (start, c) of
    ``starts``, tallied by key: each point e of the monomial expansion that
    passes ``cut``, reached with weight c * w, adds c * w at key(e).
    Returns the dict of sums with the zero ones dropped.  With no factors
    and the empty cut ((), all) it just regroups the starts by key.

    A factor (a, weights) with a tuple of weights is the polynomial
    sum_k weights[k] t^{k a}, e.g. (1 - t^a)^mu; a factor (a, m) with an
    integer m is the series 1/(1 - t^a)^m.  ``cut`` is (bounds, quantifier):
    a tuple of (index, strict upper bound) pairs and ``any`` or ``all``; a
    point p passes when quantifier(p[i] < c for i, c in bounds).  The cut
    is evaluated once per start; each factor level then counts its steps
    with ``_steps``, capped by the weights of a polynomial factor.  This
    relies on the factor exponents being strictly positive on the bounded
    coordinates (``Lattice`` checks the anti-dual entries, ``RatFunc`` its
    denominators): a zero entry there, or a series factor under an empty
    cut, raises instead of looping."""
    bounds, quantifier = cut
    widest = max if quantifier is any else min
    last = len(factors)
    tally: dict = {}

    def rec(fi: int, cur: tuple, weight: int):
        if fi == last:
            k = key(cur)
            tally[k] = tally.get(k, 0) + weight
            return
        a, info = factors[fi]
        n = _steps(cur, a, bounds, widest)
        finite = isinstance(info, tuple)
        for k in range(min(n, len(info)) if finite else n):
            rec(fi + 1, cur, weight * (info[k] if finite else comb(k + info - 1, info - 1)))
            # a tuple of a list, as in Lattice.class_move, which says why
            cur = tuple(list(map(add, cur, a)))

    for start, c in starts:
        if quantifier(start[i] < bound for i, bound in bounds):
            rec(0, start, c)
    # rec holds itself through its closure: empty that cell, so the walk's
    # tally and key are freed on return, not at the next full collection
    del rec
    return {k: v for k, v in tally.items() if v}


def _infinity_tally(lat: Lattice, active, sbound, key) -> dict:
    """``_tally`` of the zeta product from the origin at the cut of the
    expansion at infinity: the sum of z(l') over the scaled l' with
    Z_K - E - l' >= b on some live coordinate, b the scaled bounds
    ``sbound`` paired with ``active``, that is l'_i < (Z_K - E)_i - b_i + 1,
    by key(l')."""
    szkme = lat.szkme
    cut = tuple((i, szkme[i] - b + 1) for i, b in zip(active, sbound))
    return _tally((((0,) * lat.n, 1),), _zeta_factors(lat), (cut, any), key)


# ---------------------------------------------------------------------------
# equivariant splitting

def equivariant_split(R: RatFunc) -> dict[HClass, RatFunc]:
    """Split an untagged reduced function into its H-components.

    Each denominator factor (1 - t^a) is rewritten over (1 - t^{da}) with
    d the order of [a] in H, making the denominator class-trivial; the
    numerator terms are then grouped by the class of their exponent.  The
    components sum back to the input as reduced rational functions, each
    exponent rebuilt from its live part and its class key.
    """
    if R.htag is not None:
        raise ValueError("function is already tagged with a class")
    terms, denom = _split_classes(R.lat, R.active, R.numerator, R.denominator)
    pos = {i: j for j, i in enumerate(R.active)}
    out = {}
    for h in all_classes(R.lat.graph):
        num = {tuple(e[pos[i]] if i in pos else k for i, k in enumerate(h.key)): c
               for e, c in terms(h.key).items()}
        out[h] = RatFunc(R.lat, num, denom, R.active, htag=h)
    return out


def _split_classes(lat: Lattice, active, num, denom):
    """Split the reduced function num / prod (1 - t^a) over a in ``denom``,
    all on scaled exponents: a function from a class key to the numerator
    terms of that H-component, keyed by live scaled exponent, and the
    class-trivial denominator.  Each factor is rewritten over (1 - t^{ka}),
    k = d / gcd(d, *sa) the order of [a] in H, d = |H|, which multiplies the
    numerator by sum_{j<k} t^{ja}.  Terms are held by class key, whose
    entries are the off-live coordinates mod d, then live exponent.  Every
    factor of order k > 1 but the last is multiplied out; a class's terms
    under the last one are built on each call."""
    d = lat.h_order
    denominator, orders = [], []
    for sa in denom:
        k = d // gcd(d, *sa)
        denominator.append(tuple(k * x for x in sa))
        if k > 1:
            orders.append((k, lat.class_key(sa), tuple(sa[i] for i in active)))
    parts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for e, c in num.items():
        bucket = parts.setdefault(lat.class_key(e), {})
        live = tuple(e[i] for i in active)
        bucket[live] = bucket.get(live, 0) + c
    last = orders.pop() if orders else (1, (0,) * lat.n, (0,) * len(active))
    for factor in orders:
        reached, terms = _grow(lat, parts, factor)
        parts = {key: terms(key) for key in reached}
    return _grow(lat, parts, last)[1], tuple(denominator)


def _grow(lat: Lattice, parts, factor):
    """``parts`` times sum_{j<k} t^{ja} for a factor (k, class step, live
    step) of [a]: the classes reached, and a function from a class key to
    its terms.  Each orbit of the class step is walked once and gives every
    class on it a place (orbit, i); a class takes the terms of each class of
    ``parts`` on its orbit, moved by the one j < k between their places."""
    k, step, live_step = factor
    place: dict = {}
    on_orbit: dict = {}
    for key in parts:
        if key not in place:
            cur = key
            for i in range(k):
                place[cur] = (key, i)
                cur = lat.class_move(cur, step)
        orbit, i = place[key]
        on_orbit.setdefault(orbit, []).append((key, i))

    def terms(key) -> dict:
        orbit, i = place.get(key, (None, 0))
        out: dict = {}
        for source, i0 in on_orbit.get(orbit, ()):
            shift = tuple((i - i0) % k * x for x in live_step)
            for e, c in parts[source].items():
                t = tuple(map(add, e, shift))
                out[t] = out.get(t, 0) + c
        return {e: c for e, c in out.items() if c}

    return place, terms


# ---------------------------------------------------------------------------
# Taylor expansions

def strict_cut(bound, d: int, closed: bool) -> int:
    """The strict upper bound on scaled integers that matches a bound b in
    coordinates, any rational: an integer s has s/d <= b (closed) or
    s/d < b (open) exactly when s < strict_cut.  That is floor(d b) + 1
    closed and ceil(d b) open."""
    from fractions import Fraction
    db = Fraction(bound) * d
    return floor(db) + 1 if closed else ceil(db)


def _scaled_bound(window, d: int, active) -> tuple[int, ...]:
    """The window bound as a cut on scaled exponents, by ``strict_cut``: a
    scaled exponent lies in a ``Box`` (e <= b) when it is below the closed
    cut, and in a ``Cobox`` (e >= b) when it is not below the open cut."""
    if len(window.bound) != len(active):
        raise WindowError("window bound must match the live coordinate count")
    closed = isinstance(window, Box)
    return tuple(strict_cut(b, d, closed) for b in window.bound)


def taylor(R: RatFunc, window: Box) -> TruncatedSeries:
    """Expansion of a reduced function at the origin, complete for the given
    box window."""
    if not isinstance(window, Box):
        raise WindowError("origin expansion needs a box window")
    lat, active = R.lat, R.active
    sbound = _scaled_bound(window, lat.h_order, active)
    cut = (tuple(zip(active, sbound)), all)
    # each distinct a once, as the series 1/(1 - t^a)^m of its m copies
    terms = _tally(R.numerator.items(), list(Counter(R.denominator).items()), cut,
                   lambda e: tuple(e[i] for i in active))
    return TruncatedSeries(terms, window, active, lat.h_order)


def taylor_infinity(obj, window: Cobox, subset=None) -> TruncatedSeries:
    """Expansion at infinity, complete for the given cobox window: the
    window's bound is turned once, by ``_scaled_bound``, into the cut of
    ``_infinity_terms``."""
    if not isinstance(window, Cobox):
        raise WindowError("infinity expansion needs a cobox window")
    lat = obj.lat
    if isinstance(obj, FactoredRatFunc):
        active = (tuple(range(lat.n)) if subset is None
                  else live_indices(lat.graph, subset))
    else:
        if subset is not None:
            raise ValueError("reduced functions carry their own live set")
        active = obj.active
    d = lat.h_order
    terms = _infinity_terms(obj, active, _scaled_bound(window, d, active))
    return TruncatedSeries(terms, window, active, d)


def _infinity_terms(obj, active, sbound) -> dict:
    """The terms of the expansion at infinity of a factored or reduced
    function on the live coordinates ``active``, keyed by live scaled
    exponent e, that have e_i >= b_i on some live i, for the scaled bounds
    b of ``sbound``.

    For a factored zeta function the closed form is used: the coefficient
    at Z_K - E - l' is z(l').  For a generic reduced function each factor
    1/(1 - t^a) is rewritten as -t^{-a}/(1 - t^{-a}) and expanded, an
    independent route the tests play against the closed form."""
    lat = obj.lat
    if isinstance(obj, FactoredRatFunc):
        szkme = lat.szkme
        return _infinity_tally(lat, active, sbound,
                               lambda e: tuple(szkme[i] - e[i] for i in active))
    # Expanded downward from t^{b - sum a}; the walk runs on the negated
    # exponent, upward by the a, and "some live e_i >= bound_i" becomes
    # "some live -e_i < 1 - bound_i".  Each distinct a is walked once, as
    # the series of its copies.
    factors = list(Counter(obj.denominator).items())
    sign = (-1) ** len(obj.denominator)
    shift = tuple(map(sum, zip((0,) * lat.n, *obj.denominator)))
    cut = (tuple((i, 1 - b) for i, b in zip(active, sbound)), any)
    starts = ((tuple(map(sub, shift, b)), sign * c) for b, c in obj.numerator.items())
    return _tally(starts, factors, cut, lambda e: tuple(-e[i] for i in active))
