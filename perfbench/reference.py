"""Fixed reference task that measures how fast the host runs Python now.

    python3 perfbench/reference.py

It does the same kind of work as plumbsw, in plain Python and apart from
it: a walk of the lattice points of a cone under a Fraction bound with
tuple vectors and class buckets in a dict, and exact Fraction elimination
of a small matrix.  It exits 0 when its result is the known one and 1
otherwise.  run.py runs it in a fresh process before and after every timed
command and divides each command's time by it (see README.md).
"""
from __future__ import annotations

import sys
from fractions import Fraction

RATES = (Fraction(1, 3), Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))
LEVEL = 9
SIZE = 12
ELIMINATIONS = 60
EXPECTED = (35904, 625, 768419854200)


def cone_walk() -> tuple[int, int]:
    """Lattice points a >= 0 of Z^4 with sum a_i * RATES[i] < LEVEL, each
    visited once, with signed weights bucketed by a mod 5."""
    buckets: dict[tuple, int] = {}
    stack = [((0, 0, 0, 0), Fraction(0), 1, 0)]
    seen = 0
    while stack:
        vec, level, weight, low = stack.pop()
        seen += 1
        key = tuple(x % 5 for x in vec)
        buckets[key] = buckets.get(key, 0) + weight
        for i in range(low, 4):
            nxt = level + RATES[i]
            if nxt < LEVEL:
                stack.append((vec[:i] + (vec[i] + 1,) + vec[i + 1:], nxt,
                              -weight if i % 2 else weight, i))
    return seen, sum(1 for w in buckets.values() if w)


def determinant(shift: int) -> int:
    """det of a fixed tridiagonal-plus-corner integer matrix, by Fraction
    elimination."""
    a = [[Fraction(0)] * SIZE for _ in range(SIZE)]
    for i in range(SIZE):
        a[i][i] = Fraction(2 + (i + shift) % 3)
        if i + 1 < SIZE:
            a[i][i + 1] = a[i + 1][i] = Fraction(-1)
    a[0][SIZE - 1] = a[SIZE - 1][0] = Fraction(-1, 2)
    det = Fraction(1)
    for k in range(SIZE):
        det *= a[k][k]
        for i in range(k + 1, SIZE):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, SIZE):
                    a[i][j] -= f * a[k][j]
    return int(det * 4)


def main() -> int:
    seen, classes = cone_walk()
    dets = sum(determinant(s) * (s + 1) ** 3 for s in range(ELIMINATIONS))
    got = (seen, classes, dets)
    if got != EXPECTED:
        print(f"reference result {got}, expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
