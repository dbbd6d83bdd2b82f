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
from .series import _cone_visit, live_indices


def _cut_sum(g: PlumbingGraph, h: HClass, subset, x, quantifier) -> int:
    """Sum of z(l') over [l'] = h with l'_v < x_v for ``quantifier`` (any
    or all) of the live v."""
    lat = lattice_of(g)
    active = live_indices(g, subset)
    if class_of(g, x) != h:
        raise LatticeError("cut vector does not represent the requested class")
    sx, hkey = lat.scaled(x), lat.class_to_key(h)
    total = 0

    def alive(cur):
        return quantifier(cur[i] < sx[i] for i in active)

    def visit(w, e):
        nonlocal total
        if lat.class_key(e) == hkey:
            total += w

    _cone_visit(lat, alive, visit)
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
