"""References computed apart from the program.

* Brieskorn's lattice-point formula for the Milnor fiber signature of
  Sigma(p,q,r); the Casson invariant sigma/8 must equal the raw
  Seiberg-Witten invariant the program prints.
* The paper's worked values on the shipped graphs.
* An independent recount of -sw_norm for every class of a one-node star,
  from its own exact -I^{-1} (sympy) and one walk of the zeta expansion
  below Z_K on the node, bucketed by class.
"""
from __future__ import annotations

from fractions import Fraction

import sympy

from inputs import form, parse_text

# -sw_norm per class, classes sorted by representative.
PAPER_VALUES = {
    "sigma_2_5_7": (2,),
    "two_nodes_h3": (5, 3, 3),
    "three_nodes_h1": (13,),
}


def milnor_signature(p: int, q: int, r: int) -> int:
    """sigma = #{0 < s < 1 mod 2} - #{1 < s < 2 mod 2} over
    s = i/p + j/q + k/r with 0 < i < p, 0 < j < q, 0 < k < r."""
    lo = hi = 0
    pqr = p * q * r
    for i in range(1, p):
        for j in range(1, q):
            for k in range(1, r):
                s = (i * q * r + j * p * r + k * p * q) % (2 * pqr)
                if 0 < s < pqr:
                    lo += 1
                elif s > pqr:
                    hi += 1
    return lo - hi


def parse_frac_vec(text: str) -> tuple[Fraction, ...]:
    """'(1/3,0,2/3)' -> Fractions."""
    return tuple(Fraction(x) for x in text.strip("()").split(","))


class StarRecount:
    """-sw_norm_h for every class h of a graph with exactly one node c.

    The zeta function is (1 - t^{E*_c}) / prod_ends (1 - t^{E*_e}), so its
    terms are b E*_c + sum_e a_e E*_e with weight (-1)^b, b in {0, 1},
    a_e >= 0.  -sw_norm_h sums the weights of the terms l' in the class
    [Z_K] - h with l'_c < (Z_K - r_h)_c.  Since r_h >= 0, one walk of the
    terms with l'_c < (Z_K)_c, bucketed by class, answers every h.
    """

    def __init__(self, text: str):
        ids, eulers, edges = parse_text(text)
        n = len(ids)
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        nodes = [i for i in range(n) if deg[i] >= 3]
        if len(nodes) != 1:
            raise ValueError("the recount needs exactly one node")
        c = nodes[0]
        ends = [i for i in range(n) if deg[i] == 1]
        m = -sympy.Matrix(form(eulers, edges)).inv()
        d = int(abs(sympy.Matrix(form(eulers, edges)).det()))
        # Everything below is scaled by d = |H| to stay in integers.
        sm = [[int(m[i, j] * d) for j in range(n)] for i in range(n)]
        col = [tuple(sm[i][j] for i in range(n)) for j in range(n)]
        zk = [-sum(sm[i][j] * (eulers[j] + 2) for j in range(n)) for i in range(n)]
        self.d, self.n = d, n
        self.classes = self._classes(col)
        buckets: dict[tuple, list] = {}
        cur = [0] * n

        def walk(k: int, weight: int):
            if k == len(ends):
                key = tuple(x % d for x in cur)
                buckets.setdefault(key, []).append((cur[c], weight))
                return
            e = col[ends[k]]
            steps = 0
            while cur[c] < zk[c]:
                walk(k + 1, weight)
                for i in range(n):
                    cur[i] += e[i]
                steps += 1
            for i in range(n):
                cur[i] -= steps * e[i]

        walk(0, 1)
        for i in range(n):
            cur[i] += col[c][i]
        if cur[c] < zk[c]:
            walk(0, -1)
        self.values = {}
        for h in self.classes:
            cut = [z - x for z, x in zip(zk, h)]
            key = tuple(x % d for x in cut)
            self.values[h] = sum(w for lc, w in buckets.get(key, ()) if lc < cut[c])

    def _classes(self, col):
        """All of L'/L as scaled representatives in [0, d)."""
        d, n = self.d, self.n
        gens = [tuple(x % d for x in v) for v in col]
        seen = {(0,) * n}
        todo = [(0,) * n]
        while todo:
            key = todo.pop()
            for g in gens:
                nxt = tuple((a + b) % d for a, b in zip(key, g))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if len(seen) != d:
            raise ValueError(f"anti-duals span {len(seen)} classes, expected {d}")
        return sorted(seen)

    def key(self, rep: tuple[Fraction, ...]) -> tuple[int, ...]:
        scaled = tuple(x * self.d for x in rep)
        if any(s.denominator != 1 for s in scaled):
            raise ValueError(f"{rep} is not in the dual lattice")
        return tuple(int(s) for s in scaled)
