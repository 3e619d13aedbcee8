"""Cyclic word enumeration behind the trace-power coefficient.

The coefficient of t^r in trace((A+tB)^m) expands into one monomial per
labeled m-cycle: m vertex letters in {a, b} with exactly r b's, and m edge
labels in [n].  Vertex t contributes the variable of its letter's matrix
on the unordered pair of its two incident edge labels (edges[t] sits
between vertices t and t+1 mod m).

Two independent constructions of the same polynomial are provided: direct
enumeration of the cycles, and symbolic powering of the n-by-n matrix
A + tB kept as its t-slices up to t^r.  They are compared term-for-term
in the test suite; neither is derived from the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .poly import Coeff, Monomial, Polynomial, mono_from_vars, mono_mul, var

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """Planned enumeration work exceeds the configured budget."""

    def __init__(self, planned: int, budget: int):
        super().__init__(f"enumeration needs {planned} visits, budget is {budget}")
        self.planned = planned
        self.budget = budget


@dataclass(frozen=True)
class TraceProblem:
    """Parameters (m, r, n) of one trace-power coefficient."""

    m: int
    r: int
    n: int
    diagonal_a: bool = False

    def __post_init__(self):
        if self.m <= 0 or self.m % 2 != 0:
            raise ValueError(f"m must be a positive even integer, got {self.m}")
        if self.r % 2 != 0 or not 0 <= self.r <= self.m:
            raise ValueError(f"r must be even with 0 <= r <= m, got {self.r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")

    def necklace_count(self) -> int:
        return comb(self.m, self.r) * self.n**self.m


@dataclass(frozen=True)
class Necklace:
    """An m-cycle with vertex letters and edge labels."""

    letters: Tuple[str, ...]
    edges: Tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.edges):
            raise ValueError("letters and edges must have equal length")
        if any(s not in ("a", "b") for s in self.letters):
            raise ValueError("letters must be 'a' or 'b'")

    def rotate(self, k: int = 1) -> "Necklace":
        m = len(self.letters)
        k %= m
        return Necklace(self.letters[k:] + self.letters[:k],
                        self.edges[k:] + self.edges[:k])


def necklace_monomial(k: Necklace, diagonal_a: bool = False) -> Optional[Monomial]:
    """The monomial of one cycle, or None when a diagonal-A entry vanishes."""
    m = len(k.letters)
    edges = k.edges
    vs = []
    for t in range(m):
        lo, hi = edges[t - 1], edges[t]
        if diagonal_a and k.letters[t] == "a" and lo != hi:
            return None
        vs.append(var(k.letters[t], lo, hi))
    return mono_from_vars(vs)


def letter_patterns(m: int, r: int) -> List[Tuple[str, ...]]:
    """All letter arrangements with exactly r b's, lexicographic (a < b)."""
    patterns = set()
    for positions in itertools.combinations(range(m), r):
        word = ["a"] * m
        for p in positions:
            word[p] = "b"
        patterns.add(tuple(word))
    return sorted(patterns)


def _edge_components(letters: Sequence[str]) -> List[List[int]]:
    """Group edge positions forced equal when A is diagonal.

    Each a-vertex t welds edges t-1 and t together.  Components are listed
    by their smallest member, members in increasing order.
    """
    m = len(letters)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, s in enumerate(letters):
        if s == "a":
            ra, rb = find((t - 1) % m), find(t)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for t in range(m):
        groups.setdefault(find(t), []).append(t)
    return [groups[root] for root in sorted(groups)]


def planned_visits(p: TraceProblem, skip_zero: bool = False) -> int:
    """Number of necklaces an enumeration will yield."""
    if skip_zero and p.diagonal_a:
        return sum(p.n ** len(_edge_components(pat))
                   for pat in letter_patterns(p.m, p.r))
    return p.necklace_count()


def _check_budget(planned: int, budget: Optional[int]) -> None:
    if budget is not None and planned > budget:
        raise BudgetExceeded(planned, budget)


def enumerate_necklaces(
    p: TraceProblem,
    skip_zero: bool = False,
    budget: Optional[int] = None,
) -> Iterator[Necklace]:
    """Yield each (m, r, n)-necklace exactly once, in deterministic order.

    With ``skip_zero`` and a diagonal A, necklaces whose monomial vanishes
    are not generated at all; otherwise every one of C(m,r)*n^m cycles is
    yielded, zero-monomial ones included.
    """
    _check_budget(planned_visits(p, skip_zero=skip_zero), budget)
    patterns = letter_patterns(p.m, p.r)
    labels = range(1, p.n + 1)
    if skip_zero and p.diagonal_a:
        for pat in patterns:
            comps = _edge_components(pat)
            for values in itertools.product(labels, repeat=len(comps)):
                edges = [0] * p.m
                for group, val in zip(comps, values):
                    for t in group:
                        edges[t] = val
                yield Necklace(pat, tuple(edges))
    else:
        for pat in patterns:
            for edges in itertools.product(labels, repeat=p.m):
                yield Necklace(pat, edges)


def trace_coeff_necklace(p: TraceProblem, budget: Optional[int] = None) -> Polynomial:
    """Coefficient polynomial by direct necklace enumeration."""
    acc: Dict[Monomial, Coeff] = {}
    for k in enumerate_necklaces(p, skip_zero=p.diagonal_a, budget=budget):
        mono = necklace_monomial(k, diagonal_a=p.diagonal_a)
        if mono is None:
            continue
        acc[mono] = acc.get(mono, 0) + 1
    return Polynomial(acc)


Matrix = List[List[Polynomial]]


def _symbolic_matrix(n: int, kind: str, diagonal: bool) -> Matrix:
    return [[Polynomial.zero() if diagonal and i != j
             else Polynomial.variable(var(kind, i, j))
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n) if a[i][k] and b[k][j]),
                 Polynomial.zero())
             for j in range(n)] for i in range(n)]


def trace_coeff_matrix(p: TraceProblem, budget: Optional[int] = None) -> Polynomial:
    """Coefficient polynomial via symbolic matrix powering.

    Keeps H = (A+tB)^k as its t-slices H[0..r], stepping them by
    H'[s] = H[s]*A + H[s-1]*B up to k = m/2, and returns
    sum_s trace(H[s]*H[r-s]), the t^r part of trace(H*H).  Independent
    of the necklace route.
    """
    _check_budget(p.necklace_count(), budget)
    n, r = p.n, p.r
    a_mat = _symbolic_matrix(n, "a", p.diagonal_a)
    b_mat = _symbolic_matrix(n, "b", False)
    zero = [[Polynomial.zero()] * n for _ in range(n)]
    h = ([a_mat, b_mat] + [zero] * r)[:r + 1]
    for _ in range(p.m // 2 - 1):
        ha = [_mat_mul(hs, a_mat) for hs in h]
        hb = [_mat_mul(hs, b_mat) for hs in h[:-1]]
        h = ha[:1] + [[[x + y for x, y in zip(row_a, row_b)]
                       for row_a, row_b in zip(ha[s], hb[s - 1])]
                      for s in range(1, r + 1)]
    return sum((h[s][i][k] * h[r - s][k][i]
                for s in range(r + 1) for i in range(n) for k in range(n)),
               Polynomial.zero())


def expand_square_formula(m: int, n: int) -> Polynomial:
    """The explicit square expansion of the r = 0 coefficient.

    sum_{i,j} (sum over all a-walks of length m/2 from i to j)^2, fully
    expanded.  Must equal the r = 0 coefficient polynomial.
    """
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"m must be a positive even integer, got {m}")
    half = m // 2
    acc: Dict[Monomial, Coeff] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            walks = []
            for mids in itertools.product(range(1, n + 1), repeat=half - 1):
                seq = (i, *mids, j)
                walks.append(mono_from_vars(
                    var("a", seq[t], seq[t + 1]) for t in range(half)))
            for w1 in walks:
                for w2 in walks:
                    key = mono_mul(w1, w2)
                    acc[key] = acc.get(key, 0) + 1
    return Polynomial(acc)


def word_trace(word: Iterable[str], n: int, diagonal_a: bool = False) -> Polynomial:
    """Trace of the symbolic product of one word in the letters A, B."""
    letters = [w.lower() for w in word]
    if any(w not in ("a", "b") for w in letters):
        raise ValueError("word letters must be 'A' or 'B'")
    mats = [_symbolic_matrix(n, w, diagonal_a and w == "a") for w in letters]
    prod = mats[0]
    for mat in mats[1:]:
        prod = _mat_mul(prod, mat)
    return sum((prod[i][i] for i in range(n)), Polynomial.zero())
