"""The multivariable zeta function of a plumbing tree and its expansions.

The zeta function is the finite product of factors (1 - t^{E*_v}) raised
to (valency - 2); its Taylor expansion at the origin is the topological
Poincare series, supported in the Lipman cone.  This module keeps the
function in exact factored / numerator-denominator form and provides

* reduction (setting variables outside a live set to 1),
* the equivariant splitting over H = L'/L,
* a coefficient oracle for single exponents,
* windowed Taylor expansions at the origin and at infinity.

Windows are explicit values carried by every truncated series; asking for
a coefficient outside the window raises instead of returning 0.

Every exponent in this module is a scaled integer vector: its coordinates
times d = det(-I) = |H|, integers since L' lies in (1/d)Z^n.  That holds
for the factors and prefactor of ``FactoredRatFunc``, the numerator and
denominator of ``RatFunc`` and the keys of ``TruncatedSeries.terms``.  A
window bound, given in coordinates, is scaled once per expansion (floor
for a ``Box``, ceil for a ``Cobox``); ``fractions.Fraction`` appears only
there, in ``TruncatedSeries.coeff_at`` and ``lines`` and in ``coeff``'s
argument.

All enumerations run in one walker, ``_walk``, and prune with a coordinate
cut: strict upper bounds on some coordinates, passed on any or on all of
them.  Passing is antitone along coordinatewise growth, which makes every
loop provably finite: all anti-dual entries are strictly positive.  A last
walker factor that is a series 1/(1 - t^a) of multiplicity 1 is not
stepped (the zeta walks put the one of smallest column sum last): from a
point e that passes, the points e + k a that pass are exactly those with
k < run, where run is the max (any) or min (all) over the bounds of
ceil((c_i - e_i)/a_i), a ceiling division by a strictly positive anti-dual
entry.  One visit stands for the whole run.

The counting functions (``counting.Q`` and ``q``) go one factor further:
they walk without the last factor a, so the run collapses the
second-to-last series factor b, and they sum both in closed form.  At step
k along b the run along a is the ceiling of an envelope of affine functions
of k, falling since b is strictly positive; the count of one class in it
is a floor of that envelope on each residue of k that meets the class, one
``floor_sum`` per piece of the envelope.  That sum is finite for the same
reason the run is: a and b are strictly positive on the bounded
coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, gcd
from operator import add

from .graph import PlumbingGraph
from .lattice import HClass, Lattice, Vec, all_classes, format_vec, lattice_of, vec


class WindowError(ValueError):
    """A coefficient was requested outside a series' window."""


@dataclass(frozen=True)
class Box:
    """Origin window: keeps exponents <= bound on every live coordinate."""
    bound: Vec

    def contains(self, live_exp) -> bool:
        return all(x <= b for x, b in zip(live_exp, self.bound))


@dataclass(frozen=True)
class Cobox:
    """Infinity window: keeps exponents >= bound on at least one live
    coordinate.  Expansions at infinity march downward, so this cuts a
    finite corner."""
    bound: Vec

    def contains(self, live_exp) -> bool:
        return any(x >= b for x, b in zip(live_exp, self.bound))


@dataclass
class FactoredRatFunc:
    """Product prefactor(t) * prod (1 - t^a)^m over pairwise distinct
    exponents a with strictly positive entries; exponents are scaled
    integer vectors."""
    lat: Lattice
    factors: tuple[tuple[tuple[int, ...], int], ...]
    prefactor: dict[tuple[int, ...], int]

    def __post_init__(self):
        seen = set()
        for a, m in self.factors:
            if a in seen or m == 0:
                raise ValueError("factors must have distinct exponents and nonzero multiplicity")
            seen.add(a)


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
                raise ValueError(f"denominator exponent {format_vec(self.lat.unscaled(a))} "
                                 "not strictly positive on live coordinates")
        for b in self.numerator:
            if all(b[i] < 0 for i in self.active):
                raise ValueError(f"numerator exponent {format_vec(self.lat.unscaled(b))} "
                                 "strictly negative on all live coordinates")


@dataclass
class TruncatedSeries:
    """Finite slab of a series: live scaled exponent (the live coordinates
    times d = |H|) -> integer coefficient.  Terms outside the window are
    absent by construction, not zero."""
    terms: dict[tuple[int, ...], int]
    window: Box | Cobox
    point: str                      # "origin" or "infinity"
    active: tuple[int, ...]
    d: int
    htag: HClass | None = None

    def coeff_at(self, live_exp) -> int:
        """Coefficient at a live exponent in coordinates; 0 off the 1/d
        grid."""
        e = vec(live_exp)
        if not self.window.contains(e):
            raise WindowError(f"exponent {format_vec(e)} outside window")
        # An integral Fraction equals and hashes as its integer.
        return self.terms.get(tuple(x * self.d for x in e), 0)

    def lines(self) -> list[str]:
        out = []
        for e in sorted(self.terms):
            out.append(f"{self.terms[e]} * t^{format_vec(Fraction(x, self.d) for x in e)}")
        return out


def zeta(g: PlumbingGraph) -> FactoredRatFunc:
    """Factor (E*_v, valency(v) - 2) for every vertex of valency != 2, with
    E*_v scaled: column v of the adjugate of -I."""
    lat = lattice_of(g)
    factors = tuple((lat.sestar[i], mu) for i, mu in enumerate(lat.mults) if mu != 0)
    return FactoredRatFunc(lat, factors, {(0,) * lat.n: 1})


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
    return RatFunc(F.lat, *_expand_factors(F.prefactor, F.factors), active)


def _expand_factors(prefactor, factors):
    """Numerator and denominator exponents of prefactor * prod (1 - t^a)^mu:
    each positive mu multiplies out into the numerator, each negative mu
    repeats a in the denominator."""
    num = dict(prefactor)
    denom = []
    for a, mu in factors:
        if mu < 0:
            denom.extend([a] * (-mu))
            continue
        for _ in range(mu):
            new = {}
            for b, c in num.items():
                new[b] = new.get(b, 0) + c
                shifted = tuple(x + y for x, y in zip(b, a))
                new[shifted] = new.get(shifted, 0) - c
            num = {e: c for e, c in new.items() if c}
    return num, tuple(denom)


# ---------------------------------------------------------------------------
# enumeration engine

def _zeta_factors(lat: Lattice):
    """Walker factors of the zeta product: the finite ones first, then the
    series ones, ending with the series factor 1/(1 - t^a) of smallest column
    sum, whose runs are the longest."""
    finite, series = [], []
    for i, mu in enumerate(lat.mults):
        if mu > 0:
            weights = tuple((-1) ** k * comb(mu, k) for k in range(mu + 1))
            finite.append((lat.sestar[i], weights))
        elif mu < 0:
            series.append((lat.sestar[i], -mu))
    series.sort(key=lambda f: (f[1] == 1, -sum(f[0])))
    return finite + series


def _walk(start, factors, cut, visit):
    """Walk the monomial expansion of t^start * prod factors over the points
    that pass ``cut``, calling visit(weight, scaled_exponent, run).

    A factor (a, weights) with a tuple of weights is the polynomial
    sum_k weights[k] t^{k a}, e.g. (1 - t^a)^mu; a factor (a, m) with an
    integer m is the series 1/(1 - t^a)^m.  ``cut`` is (bounds, quantifier):
    a tuple of (index, strict upper bound) pairs and ``any`` or ``all``; a
    point p passes when quantifier(p[i] < c for i, c in bounds).  Passing
    is antitone along growth by the factor exponents, so it is rechecked
    after every elementary increment, which bounds the search.

    Run rule: when the last factor is a series factor 1/(1 - t^a) of
    multiplicity 1, it is not stepped.  From a point e that passes, the
    points e + k a with 0 <= k < run pass and no later one does, where run
    is the max (any) or min (all) over the bounds of ceil((c_i - e_i)/a_i);
    visit(weight, e, run) stands for all of them, each with weight
    ``weight``.  Otherwise every visit has run 1.  Every walk is finite
    because the factor exponents are strictly positive on the bounded
    coordinates (``Lattice`` checks the anti-dual entries), which also makes
    each run a finite ceiling division."""
    bounds, quantifier = cut

    def alive(cur):
        return quantifier(cur[i] < c for i, c in bounds)

    if not alive(start):
        return
    factors = [(a, info, isinstance(info, tuple)) for a, info in factors]
    col = None
    if factors and factors[-1][1] == 1:
        col = factors.pop()[0]
        widest = max if quantifier is any else min
    last = len(factors)

    def rec(fi: int, cur: tuple, weight: int):
        if fi == last:
            run = 1 if col is None else widest(
                [-((cur[i] - c) // col[i]) for i, c in bounds])
            visit(weight, cur, run)
            return
        a, info, finite = factors[fi]
        k = 0
        while True:
            if finite:
                w = info[k]
            else:
                w = 1 if info == 1 else comb(k + info - 1, info - 1)
            rec(fi + 1, cur, weight * w)
            if finite and k + 1 == len(info):
                break
            cur = tuple(map(add, cur, a))
            k += 1
            if not alive(cur):
                break

    rec(0, start, 1)


def _pointwise(factors, visit):
    """A ``_walk`` visitor that calls visit(weight, e) at every point of each
    run, stepping by the last factor's exponent."""
    col = factors[-1][0] if factors else None

    def visit_run(weight, e, run):
        visit(weight, e)
        for _ in range(run - 1):
            e = tuple(map(add, e, col))
            visit(weight, e)

    return visit_run


def _cone_visit(lat: Lattice, cut, visit):
    """``_walk`` over the zeta product from the origin, calling
    visit(weight, e) at every point that passes ``cut``."""
    factors = _zeta_factors(lat)
    _walk((0,) * lat.n, factors, cut, _pointwise(factors, visit))


def off_live_canon(lat: Lattice, active):
    """The map sending a scaled exponent to its representative with the
    off-live coordinates reduced to [0,1) (to [0, d) scaled).  This is a
    lattice shift invisible to the live variables, so terms equal as reduced
    monomials of one class get one representative and can cancel."""
    d = lat.h_order
    live = set(active)
    off_live = [i for i in range(lat.n) if i not in live]

    def representative(scaled) -> tuple[int, ...]:
        out = list(scaled)
        for i in off_live:
            out[i] %= d
        return tuple(out)

    return representative


def coeff(g: PlumbingGraph, lprime) -> int:
    """Coefficient z(l') of the full Poincare series.  Zero off the Lipman
    cone; the enumeration of decompositions is finite because every
    anti-dual entry is strictly positive."""
    lat = lattice_of(g)
    target = lat.scaled(lprime)
    total = 0

    def visit(w, e):
        nonlocal total
        if e == target:
            total += w

    _cone_visit(lat, (tuple((i, t + 1) for i, t in enumerate(target)), all), visit)
    return total


# ---------------------------------------------------------------------------
# equivariant splitting

def equivariant_split(R: RatFunc) -> dict[HClass, RatFunc]:
    """Split an untagged reduced function into its H-components.

    Each denominator factor (1 - t^a) is rewritten over (1 - t^{da}) with
    d the order of [a] in H, making the denominator class-trivial; the
    numerator terms are then grouped by the class of their exponent.  The
    components sum back to the input as reduced rational functions.
    """
    if R.htag is not None:
        raise ValueError("function is already tagged with a class")
    split = _split_terms(R.lat, R.active, R.numerator, R.denominator)
    return {h: _component(R.lat, R.active, h, *split) for h in all_classes(R.lat.graph)}


def _component(lat: Lattice, active, h: HClass, by_class, denom) -> RatFunc:
    """The h-component, as a ``RatFunc``, from the terms of
    ``_split_terms``."""
    return RatFunc(lat, by_class.get(h.key, {}), denom, active, htag=h)


def _split_terms(lat: Lattice, active, num, denom):
    """Split the reduced function num / prod (1 - t^a) over a in ``denom``,
    all on scaled exponents: the numerator terms of every H-component keyed
    by class key, and their class-trivial denominator.  For a scaled
    denominator exponent sa, the order of [a] in H is d / gcd(d, *sa),
    d = |H|."""
    d = lat.h_order
    # Equal live part and equal class collapse to one representative, which
    # is what makes the product below stay small.
    canon = off_live_canon(lat, active)

    terms: dict[tuple[int, ...], int] = {}
    for b, c in num.items():
        key = canon(b)
        terms[key] = terms.get(key, 0) + c

    new_denom: list[tuple[int, ...]] = []
    for sa in denom:
        k = d // gcd(d, *sa)
        new_denom.append(tuple(k * x for x in sa))
        if k == 1:
            continue
        grown: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            shifted = list(e)
            for j in range(k):
                if j:
                    for r in range(lat.n):
                        shifted[r] += sa[r]
                key = canon(tuple(shifted))
                grown[key] = grown.get(key, 0) + c
        terms = {e: c for e, c in grown.items() if c}

    by_class: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for e, c in terms.items():
        if c:
            by_class.setdefault(lat.class_key(e), {})[e] = c
    return by_class, tuple(new_denom)


# ---------------------------------------------------------------------------
# Taylor expansions

def _scaled_bound(window, d: int, active) -> tuple[int, ...]:
    """The window bound times d, rounded onto the integers so that a scaled
    exponent passes exactly when the exponent it stands for lies in the
    window: floor for a ``Box`` (e <= b), ceil for a ``Cobox`` (e >= b)."""
    if len(window.bound) != len(active):
        raise WindowError("window bound must match the live coordinate count")
    rounding = floor if isinstance(window, Box) else ceil
    return tuple(rounding(Fraction(b) * d) for b in window.bound)


def taylor(obj, window: Box) -> TruncatedSeries:
    """Expansion at the origin, complete for the given box window."""
    if not isinstance(window, Box):
        raise WindowError("origin expansion needs a box window")
    lat = obj.lat
    if isinstance(obj, FactoredRatFunc):
        active = tuple(range(lat.n))
    else:
        active = obj.active
    sbound = _scaled_bound(window, lat.h_order, active)
    cut = (tuple((i, b + 1) for i, b in zip(active, sbound)), all)
    terms: dict[tuple[int, ...], int] = {}

    def add(weight, scaled_exp):
        if not weight:
            return
        live = tuple(scaled_exp[i] for i in active)
        terms[live] = terms.get(live, 0) + weight

    if isinstance(obj, FactoredRatFunc):
        factors = _zeta_factors(lat)
        for p, pc in obj.prefactor.items():
            _walk(p, factors, cut, _pointwise(factors, lambda w, e, pc=pc: add(pc * w, e)))
        htag = None
    else:
        factors = [(a, 1) for a in obj.denominator]
        for b, c in obj.numerator.items():
            _walk(b, factors, cut, _pointwise(factors, lambda w, e, c=c: add(c, e)))
        htag = obj.htag
    terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries(terms, window, "origin", active, lat.h_order, htag)


def taylor_infinity(obj, window: Cobox, subset=None) -> TruncatedSeries:
    """Expansion at infinity, complete for the given cobox window.

    For a factored zeta function the closed form is used: the coefficient
    at Z_K - E - l' is z(l').  For a generic reduced function each factor
    1/(1 - t^a) is rewritten as -t^{-a}/(1 - t^{-a}) and expanded, an
    independent route the tests play against the closed form.
    """
    if not isinstance(window, Cobox):
        raise WindowError("infinity expansion needs a cobox window")
    lat = obj.lat
    d = lat.h_order
    if isinstance(obj, FactoredRatFunc):
        active = (tuple(range(lat.n)) if subset is None
                  else live_indices(lat.graph, subset))
    else:
        if subset is not None:
            raise ValueError("reduced functions carry their own live set")
        active = obj.active
    sbound = _scaled_bound(window, d, active)
    terms: dict[tuple[int, ...], int] = {}

    def add(weight, live):
        if weight:
            terms[live] = terms.get(live, 0) + weight

    if isinstance(obj, FactoredRatFunc):
        if obj.prefactor != {(0,) * lat.n: 1}:
            raise ValueError("closed form expansion needs trivial prefactor")
        szkme = tuple(z - d for z in lat.sz_k)
        cut = (tuple((i, szkme[i] - b + 1) for i, b in zip(active, sbound)), any)

        def visit(w, e):
            add(w, tuple(szkme[i] - e[i] for i in active))

        _cone_visit(lat, cut, visit)
        htag = None
    else:
        # Expanded downward from t^{b - sum a}; the walk runs on the negated
        # exponent, upward by the a, and "some live e_i >= bound_i" becomes
        # "some live -e_i < 1 - bound_i".
        factors = [(a, 1) for a in obj.denominator]
        sign = (-1) ** len(factors)
        shift = tuple(map(sum, zip((0,) * lat.n, *obj.denominator)))
        cut = (tuple((i, 1 - b) for i, b in zip(active, sbound)), any)
        for b, c in obj.numerator.items():
            start = tuple(s - x for x, s in zip(b, shift))
            _walk(start, factors, cut, _pointwise(
                factors, lambda w, e, c=c: add(sign * c, tuple(-e[i] for i in active))))
        htag = obj.htag
    terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries(terms, window, "infinity", active, d, htag)
