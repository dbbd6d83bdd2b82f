"""Counting functions of the equivariant Poincare series coefficients.

Q sums z(l') over Lipman-cone exponents of a fixed class that fail the cut
l' >= x on at least one live coordinate; q ("modified") sums over those
strictly below the cut on every live coordinate.  Both are finite exact
sums and satisfy the inclusion-exclusion relation tying Q to the q's of
the non-empty sub-cuts.
"""
from __future__ import annotations

from itertools import combinations

from .graph import PlumbingGraph
from .lattice import HClass, LatticeError, class_of, lattice_of
from .series import _walk, _zeta_factors, live_indices


def _cut_sum(g: PlumbingGraph, h: HClass, subset, x, quantifier) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for ``quantifier`` (any
    or all) of the live v.

    A run e + k a (0 <= k < run) of the walk is in class h at the k with
    k [a] = h - [e].  Such k exist only when h - [e] lies in the cyclic
    subgroup generated by [a]: first[h - [e]] is the least one, and the
    others follow every ``order`` steps."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    if class_of(g, x) != h:
        raise LatticeError("cut vector does not represent the requested class")
    sx, hkey = lat.scaled(x), lat.class_to_key(h)
    d = lat.h_order
    factors = _zeta_factors(lat)
    step = lat.class_key(factors[-1][0])
    first: dict[tuple[int, ...], int] = {}
    offset = (0,) * lat.n
    while offset not in first:
        first[offset] = len(first)
        offset = tuple((o + s) % d for o, s in zip(offset, step))
    order = len(first)
    total = 0

    def visit(w, e, run):
        nonlocal total
        k0 = first.get(tuple([(hk - c) % d for hk, c in zip(hkey, e)]))
        if k0 is not None:
            # k0 < order, so this is 0 when k0 >= run
            total += w * ((run - 1 - k0) // order + 1)

    _walk((0,) * lat.n, factors, (tuple((i, sx[i]) for i in active), quantifier), visit)
    return total


def Q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for at least one live v."""
    return _cut_sum(g, h, subset, x, any)


def q(g: PlumbingGraph, h: HClass, subset, x) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for every live v."""
    return _cut_sum(g, h, subset, x, all)


def inclusion_exclusion_check(g: PlumbingGraph, h: HClass, subset, x) -> bool:
    """Q equals the alternating sum of q over the non-empty sub-cuts."""
    ids = tuple(subset)
    rhs = 0
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            rhs += (-1) ** (size + 1) * q(g, h, sub, x)
    return Q(g, h, ids, x) == rhs
