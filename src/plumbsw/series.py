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

All enumerations run over scaled integer vectors (coordinates times
det(-I)) and prune with predicates that are antitone along coordinatewise
growth, which makes every loop provably finite: all anti-dual entries are
strictly positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .graph import PlumbingGraph
from .lattice import (HClass, Lattice, Vec, format_vec, lattice_of, vec)


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
    exponents a with strictly positive entries."""
    lat: Lattice
    factors: tuple[tuple[Vec, int], ...]
    prefactor: dict[Vec, int]

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

    Exponents stay full dual-lattice vectors; projection onto the live
    coordinates happens only when comparing or printing, so the H-class of
    every term remains available.  Invariants: a_i strictly positive on
    the live coordinates, numerator exponents never strictly negative on
    all live coordinates.
    """
    lat: Lattice
    numerator: dict[Vec, int]
    denominator: tuple[Vec, ...]
    active: tuple[int, ...]
    htag: HClass | None = None

    def __post_init__(self):
        if not self.active:
            raise ValueError("active coordinate set must be non-empty")
        self.numerator = {e: c for e, c in self.numerator.items() if c}
        for a in self.denominator:
            if not all(a[i] > 0 for i in self.active):
                raise ValueError(
                    f"denominator exponent {format_vec(a)} not strictly positive on live coordinates")
        for b in self.numerator:
            if all(b[i] < 0 for i in self.active):
                raise ValueError(
                    f"numerator exponent {format_vec(b)} strictly negative on all live coordinates")

    def project(self, x) -> Vec:
        return tuple(Fraction(x[i]) for i in self.active)


@dataclass
class TruncatedSeries:
    """Finite slab of a series: live exponent -> integer coefficient.
    Terms outside the window are absent by construction, not zero."""
    terms: dict[Vec, int]
    window: Box | Cobox
    point: str                      # "origin" or "infinity"
    active: tuple[int, ...]
    htag: HClass | None = None

    def coeff_at(self, live_exp) -> int:
        e = vec(live_exp)
        if not self.window.contains(e):
            raise WindowError(f"exponent {format_vec(e)} outside window")
        return self.terms.get(e, 0)

    def lines(self) -> list[str]:
        out = []
        for e in sorted(self.terms):
            out.append(f"{self.terms[e]} * t^{format_vec(e)}")
        return out


def zeta(g: PlumbingGraph) -> FactoredRatFunc:
    """Factor (E*_v, valency(v) - 2) for every vertex of valency != 2."""
    lat = lattice_of(g)
    factors = tuple((lat.estar[i], mu) for i, mu in enumerate(lat.mults) if mu != 0)
    zero = vec([0] * lat.n)
    return FactoredRatFunc(lat, factors, {zero: 1})


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
    lat = F.lat
    active = live_indices(lat.graph, subset)
    num: dict[Vec, int] = dict(F.prefactor)
    denom: list[Vec] = []
    for a, mu in F.factors:
        if mu < 0:
            denom.extend([a] * (-mu))
            continue
        for _ in range(mu):
            new: dict[Vec, int] = {}
            for b, c in num.items():
                new[b] = new.get(b, 0) + c
                shifted = tuple(x + y for x, y in zip(b, a))
                new[shifted] = new.get(shifted, 0) - c
            num = {e: c for e, c in new.items() if c}
    return RatFunc(lat, num, tuple(denom), active)


# ---------------------------------------------------------------------------
# enumeration engine

def _zeta_factors(lat: Lattice):
    bounded, unbounded = [], []
    for i, mu in enumerate(lat.mults):
        if mu > 0:
            weights = tuple((-1) ** k * comb(mu, k) for k in range(mu + 1))
            bounded.append((lat.sestar[i], weights))
        elif mu < 0:
            unbounded.append((lat.sestar[i], -mu))
    return bounded, unbounded


def _cone_visit(lat: Lattice, alive, visit):
    """Walk the monomial expansion of the zeta product, calling
    visit(weight, scaled_exponent) for every term that satisfies ``alive``.
    ``alive`` must be antitone along coordinatewise growth; it is rechecked
    after every elementary increment, which bounds the search."""
    bounded, unbounded = _zeta_factors(lat)
    n = lat.n
    cur = [0] * n
    if not alive(cur):
        return
    factors = [(col, weights, True) for col, weights in bounded]
    factors += [(col, mult, False) for col, mult in unbounded]

    def rec(fi: int, weight: int):
        if fi == len(factors):
            visit(weight, tuple(cur))
            return
        col, info, is_bounded = factors[fi]
        k = 0
        while True:
            if is_bounded:
                w = info[k]
            else:
                w = 1 if info == 1 else comb(k + info - 1, info - 1)
            rec(fi + 1, weight * w)
            if is_bounded and k + 1 == len(info):
                break
            for r in range(n):
                cur[r] += col[r]
            k += 1
            if not alive(cur):
                break
        for r in range(n):
            cur[r] -= k * col[r]

    rec(0, 1)


def _combo_visit(n: int, cols, start, alive, visit):
    """Nonnegative integer combinations of ``cols`` added to ``start``,
    pruned by the antitone predicate ``alive``."""
    cur = list(start)
    if not alive(cur):
        return

    def rec(ci: int):
        if ci == len(cols):
            visit(tuple(cur))
            return
        col = cols[ci]
        k = 0
        while True:
            rec(ci + 1)
            for r in range(n):
                cur[r] += col[r]
            k += 1
            if not alive(cur):
                break
        for r in range(n):
            cur[r] -= k * col[r]

    rec(0)


def coeff(g: PlumbingGraph, lprime) -> int:
    """Coefficient z(l') of the full Poincare series.  Zero off the Lipman
    cone; the enumeration of decompositions is finite because every
    anti-dual entry is strictly positive."""
    lat = lattice_of(g)
    target = lat.scaled(lprime)
    total = 0

    def alive(cur):
        return all(c <= t for c, t in zip(cur, target))

    def visit(w, e):
        nonlocal total
        if e == target:
            total += w

    _cone_visit(lat, alive, visit)
    return total


# ---------------------------------------------------------------------------
# equivariant splitting

def _class_order(a: Vec) -> int:
    return lcm(*(Fraction(x).denominator for x in a))


def equivariant_split(R: RatFunc) -> dict[HClass, RatFunc]:
    """Split an untagged reduced function into its H-components.

    Each denominator factor (1 - t^a) is rewritten over (1 - t^{da}) with
    d the order of [a] in H, making the denominator class-trivial; the
    numerator terms are then grouped by the class of their exponent.  The
    components sum back to the input as reduced rational functions.
    """
    if R.htag is not None:
        raise ValueError("function is already tagged with a class")
    lat = R.lat
    d = lat.h_order
    live = set(R.active)
    off_live = [i for i in range(lat.n) if i not in live]

    def canon(scaled) -> tuple[int, ...]:
        # Representative full exponent: off-live coordinates reduced to
        # [0,1).  Terms with equal live part and equal class collapse to
        # the same representative, which is what makes the product below
        # stay small.
        out = list(scaled)
        for i in off_live:
            out[i] %= d
        return tuple(out)

    terms: dict[tuple[int, ...], int] = {}
    for b, c in R.numerator.items():
        key = canon(lat.scaled(b))
        terms[key] = terms.get(key, 0) + c

    new_denom: list[Vec] = []
    for a in R.denominator:
        k = _class_order(a)
        new_denom.append(tuple(Fraction(x) * k for x in a))
        if k == 1:
            continue
        sa = lat.scaled(a)
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

    by_class: dict[tuple[int, ...], dict[Vec, int]] = {}
    for e, c in terms.items():
        if not c:
            continue
        ck = lat.class_key(e)
        by_class.setdefault(ck, {})[tuple(Fraction(x, d) for x in e)] = c

    out: dict[HClass, RatFunc] = {}
    from .lattice import all_classes
    for h in all_classes(lat.graph):
        num = by_class.get(lat.class_to_key(h), {})
        out[h] = RatFunc(lat, num, tuple(new_denom), R.active, htag=h)
    return out


# ---------------------------------------------------------------------------
# Taylor expansions

def taylor(obj, window: Box) -> TruncatedSeries:
    """Expansion at the origin, complete for the given box window."""
    if not isinstance(window, Box):
        raise WindowError("origin expansion needs a box window")
    lat = obj.lat
    d = lat.h_order
    if isinstance(obj, FactoredRatFunc):
        active = tuple(range(lat.n))
    else:
        active = obj.active
    sbound = [int(Fraction(b) * d) for b in window.bound]
    if len(sbound) != len(active):
        raise WindowError("window bound must match the live coordinate count")
    caps = dict(zip(active, sbound))
    terms: dict[Vec, int] = {}

    def alive(cur):
        return all(cur[i] <= caps[i] for i in active)

    def add(weight, scaled_exp):
        if not weight:
            return
        live = tuple(Fraction(scaled_exp[i], d) for i in active)
        terms[live] = terms.get(live, 0) + weight

    if isinstance(obj, FactoredRatFunc):
        for p, pc in obj.prefactor.items():
            sp = lat.scaled(p)
            _cone_visit(lat, lambda cur, sp=sp: alive([c + o for c, o in zip(cur, sp)]),
                        lambda w, e, sp=sp, pc=pc: add(pc * w, tuple(c + o for c, o in zip(e, sp))))
        htag = None
    else:
        cols = [lat.scaled(a) for a in obj.denominator]
        for b, c in obj.numerator.items():
            _combo_visit(lat.n, cols, lat.scaled(b), alive,
                         lambda e, c=c: add(c, e))
        htag = obj.htag
    terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries(terms, window, "origin", active, htag)


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
    sbound = [int(Fraction(b) * d) for b in window.bound]
    if len(sbound) != len(active):
        raise WindowError("window bound must match the live coordinate count")
    terms: dict[Vec, int] = {}

    def add(weight, live_scaled):
        if not weight:
            return
        live = tuple(Fraction(x, d) for x in live_scaled)
        terms[live] = terms.get(live, 0) + weight

    if isinstance(obj, FactoredRatFunc):
        if obj.prefactor != {vec([0] * lat.n): 1}:
            raise ValueError("closed form expansion needs trivial prefactor")
        szkme = lat.scaled(lat.z_k_me)
        caps = {i: szkme[i] - b for i, b in zip(active, sbound)}

        def alive(cur):
            return any(cur[i] <= caps[i] for i in active)

        def visit(w, e):
            add(w, tuple(szkme[i] - e[i] for i in active))

        _cone_visit(lat, alive, visit)
        htag = None
    else:
        cols = [tuple(-x for x in lat.scaled(a)) for a in obj.denominator]
        caps = dict(zip(active, sbound))
        sign = (-1) ** len(cols)
        base_shift = [0] * lat.n
        for c in cols:
            for r in range(lat.n):
                base_shift[r] += c[r]

        def alive(cur):
            return any(cur[i] >= caps[i] for i in active)

        for b, c in obj.numerator.items():
            sb = lat.scaled(b)
            start = tuple(x + s for x, s in zip(sb, base_shift))
            _combo_visit(lat.n, cols, start, alive,
                         lambda e, c=c: add(sign * c, tuple(e[i] for i in active)))
        htag = obj.htag
    terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries(terms, window, "infinity", active, htag)
