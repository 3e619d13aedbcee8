"""Cyclic word enumeration behind the trace-power coefficient.

The coefficient of t^r in trace((A+tB)^m) expands into one monomial per
labeled m-cycle: m vertex letters in {a, b} with exactly r b's, and m edge
labels in [n].  Vertex t contributes the variable of its letter's matrix
on the unordered pair of its two incident edge labels (edges[t] sits
between vertices t and t+1 mod m).  Rotating letters and edges together
fixes the monomial, so one letter pattern per rotation class is visited,
weighted by its size.  With a diagonal A only cycles whose arcs (edges
from one b-vertex to the next) carry one label each are visited.

Every edge label shows up in the variables of its two end vertices, so a
cycle's label set is the label set of its monomial.  A cycle uses at most
as many labels as it has arcs (r, at least 1, for a diagonal A, else m),
so only n0 = min(n, arcs) labels are ever told apart.  Take the arcs in a
fixed order.  Every labelling E of the arcs by [n] factors uniquely as
E = sigma o R: R is a restricted growth string (labels numbered 1..k in
order of first appearance, k the number of distinct labels) and
sigma: {1..k} -> [n] is injective.  A vertex's variable is read at its
two edge labels, so mono(sigma o R) = sigma(mono(R)).  sigma in turn
factors uniquely as a permutation of {1..k} followed by the increasing
map onto its image.  So the oracle visits each growth string with at
most n0 values once per rotation class and counts its monomial by k;
applies every permutation of {1..k} to each distinct counted monomial,
which gives the terms labelled by exactly {1..k}; and emits those once
per k-subset of [n] through the increasing map, which keeps i <= j and
the variable order, so a lifted monomial needs no sort.  The coefficient
of a monomial on S therefore does not depend on n >= |S|.

Two independent constructions of the same polynomial are provided: direct
enumeration of the cycles, and symbolic powering of the n-by-n matrix
A + tB kept as its t-slices up to t^r.  They are compared term-for-term
in the test suite; neither is derived from the other.  A and B are
symmetric, so every power of A + tB and each of its t-slices is too: the
powering builds the entries with i <= j only, and since
trace(XY) = sum_i X_ii Y_ii + 2 sum_{i<k} X_ik Y_ik for symmetric X, Y
and trace(H[s]H[r-s]) = trace(H[r-s]H[s]), the trace reads each slice
pair (s, r-s) once, over the upper triangle.

At r = 0 the coefficient is trace(A^m) = sum_{i,j} ((A^{m/2})_ij)^2, and
(A^{m/2})_ij is the sum over the a-walks of length m/2 from i to j:
:func:`expand_square_formula` squares the entries of that power.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, gcd
from operator import itemgetter
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .poly import Monomial, Polynomial, sum_of_products, var

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """Planned work exceeds the configured budget: enumeration visits, or
    the entries of a certificate."""

    def __init__(self, planned: int, budget: int, work: str = "enumeration",
                 unit: str = "visits"):
        super().__init__(f"{work} needs {planned} {unit}, budget is {budget}")
        self.planned = planned
        self.budget = budget


class _TraceFields(NamedTuple):
    m: int
    r: int
    n: int
    diagonal_a: bool = False


class TraceProblem(_TraceFields):
    """Parameters (m, r, n) of one trace-power coefficient."""

    __slots__ = ()

    def __new__(cls, m: int, r: int, n: int, diagonal_a: bool = False):
        if m <= 0 or m % 2 != 0:
            raise ValueError(f"m must be a positive even integer, got {m}")
        if r % 2 != 0 or not 0 <= r <= m:
            raise ValueError(f"r must be even with 0 <= r <= m, got {r}")
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        return super().__new__(cls, m, r, n, diagonal_a)

    @classmethod
    def _make(cls, iterable):  # so _replace refuses as the constructor does
        return cls(*iterable)

    @property
    def arc_count(self) -> int:
        """Labels a cycle with a nonzero monomial carries at most: one per
        arc for a diagonal A (r of them, or 1 when r = 0), else one per
        edge."""
        return max(self.r, 1) if self.diagonal_a else self.m

    def cycle_count(self) -> int:
        """Cycles with a nonzero monomial: per letter pattern, one label per
        edge, or per arc for a diagonal A.  The matrix oracle's term products
        grow with it too; it budgets that oracle and ``enumerate_necklaces``."""
        return comb(self.m, self.r) * self.n**self.arc_count


class Necklace(NamedTuple):
    """An m-cycle: vertex letters in {a, b} and edge labels in [n]."""

    letters: Tuple[str, ...]
    edges: Tuple[int, ...]


def letter_patterns(m: int, r: int) -> List[Tuple[str, ...]]:
    """All letter arrangements with exactly r b's, lexicographic (a < b),
    which is the order of their a-positions as combinations."""
    return [tuple("a" if t in a_positions else "b" for t in range(m))
            for a_positions in itertools.combinations(range(m), m - r)]


def _edge_arcs(letters: Sequence[str]) -> List[int]:
    """Arc number of each edge for a diagonal A, by smallest edge.  An
    a-vertex needs one label on both its edges, so arcs start only at
    b-vertices; with vertex 0 an a, the edges after the last b-vertex close
    the cycle into arc 0 (all edges do when r = 0)."""
    arcs = list(itertools.accumulate(
        int(s == "b" and t > 0) for t, s in enumerate(letters)))
    if letters[0] == "a":
        arcs = [0 if arc == arcs[-1] else arc for arc in arcs]
    return arcs


def rotation_classes(m: int, r: int) -> List[Tuple[Tuple[str, ...], int]]:
    """One letter pattern per rotation class, the lexicographically first,
    with the number of patterns in its class."""
    return list(Counter(min(pat[k:] + pat[:k] for k in range(m))
                        for pat in letter_patterns(m, r)).items())


def rotation_class_count(m: int, r: int) -> int:
    """``len(rotation_classes(m, r))`` without listing a pattern.  By
    Burnside it is (1/m) * sum over d | gcd(m, r) of phi(d) * C(m/d, r/d):
    phi(d) rotations have order d, and each fixes the patterns made of d
    copies of their first m/d letters."""
    g = gcd(m, r)
    return sum(sum(gcd(x, d) == 1 for x in range(d)) * comb(m // d, r // d)
               for d in range(1, g + 1) if g % d == 0) // m


def planned_visits(p: TraceProblem, skip_zero: bool = False) -> int:
    """Cycles the necklace oracle sums over: n^m per rotation class, or
    with ``skip_zero`` and a diagonal A, one label per arc.  An upper bound
    on the work, which visits fewer (see the module docstring)."""
    arcs = p.arc_count if skip_zero else p.m
    return rotation_class_count(p.m, p.r) * p.n ** arcs


def _check_budget(planned: int, budget: Optional[int]) -> None:
    if budget is not None and planned > budget:
        raise BudgetExceeded(planned, budget)


def check_budget(p: TraceProblem, budget: Optional[int]) -> None:
    """Refuse ``p`` when the necklace oracle's planned visits exceed
    ``budget`` (None admits any plan).  A caller that builds more than the
    coefficient calls it first, so a refusal costs no work."""
    _check_budget(planned_visits(p, skip_zero=True), budget)


def enumerate_necklaces(p: TraceProblem,
                        budget: Optional[int] = None) -> Iterator[Necklace]:
    """Yield each (m, r, n)-necklace with a nonzero monomial once: per
    letter pattern, its arc labels as an odometer (rightmost fastest),
    every edge its own arc unless A is diagonal."""
    _check_budget(p.cycle_count(), budget)
    labels = range(1, p.n + 1)
    for pat in letter_patterns(p.m, p.r):
        arcs = _edge_arcs(pat) if p.diagonal_a else range(p.m)
        edges_of = itemgetter(*arcs)
        for values in itertools.product(labels, repeat=max(arcs) + 1):
            yield Necklace(pat, edges_of(values))


def _growth_strings(length: int, most: int) -> List[Tuple[Tuple[int, ...], int]]:
    """Restricted growth strings of ``length`` with at most ``most`` values,
    each with its number of values k: every entry is at most one above the
    largest before it, so values 0..k-1 appear in order."""
    strings = [((0,), 1)]
    for _ in range(length - 1):
        strings = [(s + (v,), max(k, v + 1)) for s, k in strings
                   for v in range(min(k + 1, most))]
    return strings


def trace_coeff_necklace(p: TraceProblem, budget: Optional[int] = None) -> Polynomial:
    """Coefficient polynomial by necklace enumeration, in the three steps
    of the module docstring.  Count: per rotation class, each growth string
    with at most n0 = min(n, arcs) values adds the class size to its
    monomial, keyed by its number of values k.  Permute: every permutation
    of {1..k} applied to each counted monomial gives the terms labelled by
    exactly {1..k}.  Lift: each such term is emitted once per k-subset of
    [n].  Up to the lift, a monomial on {1..k} is the sorted tuple of its
    variables' positions in a k-block :func:`_flat` list; it has m >= 2
    of them, so an itemgetter over it returns a tuple."""
    check_budget(p, budget)
    n0 = min(p.n, p.arc_count)
    strings = _growth_strings(p.arc_count, n0)
    blocks = [_positions(k) for k in range(n0 + 1)]
    counts: List[Counter] = [Counter() for _ in blocks]
    for rep, weight in rotation_classes(p.m, p.r):
        arcs = _edge_arcs(rep) if p.diagonal_a else range(p.m)
        ends = [[(block[s], arcs[t - 1], arcs[t]) for t, s in enumerate(rep)]
                for block in blocks]
        for values, k in strings:
            counts[k][tuple(sorted([row[values[i]][values[j]]
                                    for row, i, j in ends[k]]))] += weight
    labels = range(p.n)
    table = {s: [[var(s, i + 1, j + 1) for j in labels] for i in labels]
             for s in "ab"}
    out: Dict[Monomial, int] = {}
    for k, by_mono in enumerate(counts):
        exact: Counter = Counter()
        permuted = [_flat(blocks[k], perm)
                    for perm in itertools.permutations(range(k))]
        for mono, weight in by_mono.items():
            getter = itemgetter(*mono)
            for positions in permuted:
                exact[tuple(sorted(getter(positions)))] += weight
        terms = [(itemgetter(*mono), weight) for mono, weight in exact.items()]
        for sub in itertools.combinations(labels, k):
            flat = _flat(table, sub)
            for getter, weight in terms:
                out[getter(flat)] = weight
    # fresh positive counts need no copy or zero filter
    return Polynomial._adopt(out)


def _positions(k: int) -> Dict[str, List[List[int]]]:
    """The position of variable (s, i, j) in a k-block :func:`_flat` list,
    indexed [s][i][j] by 0-based labels: a-rows, then b-rows, with i <= j,
    so positions sort as their variables do."""
    return {s: [[(s == "b") * k * k + min(i, j) * k + max(i, j)
                 for j in range(k)] for i in range(k)] for s in "ab"}


def _flat(table, labels: Sequence[int]) -> list:
    """The entries of ``table`` on ``labels`` (0-based), a-rows, then
    b-rows, row by row."""
    return [table[s][i][j] for s in "ab" for i in labels for j in labels]


Matrix = List[List[Polynomial]]


def _symbolic_matrix(n: int, kind: str, diagonal: bool) -> Matrix:
    return [[Polynomial.zero() if diagonal and i != j
             else Polynomial.variable(var(kind, i, j))
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum_of_products((a[i][k], b[k][j]) for k in range(n))
             for j in range(n)] for i in range(n)]


def trace_coeff_matrix(p: TraceProblem, budget: Optional[int] = None) -> Polynomial:
    """Coefficient polynomial via symbolic matrix powering.

    Keeps H = (A+tB)^k as its t-slices H[0..r], stepping them by
    H'[s] = H[s]*A + H[s-1]*B up to k = m/2, and returns
    sum_s trace(H[s]*H[r-s]), the t^r part of trace(H*H).  Independent
    of the necklace route.

    A and B are symmetric (a[i,j] and a[j,i] are one variable), so each
    power of A + tB and each of its t-slices is symmetric.  A step
    therefore builds only the entries with i <= j, skipping the zero
    entries of a diagonal A, and mirrors them.  For symmetric X and Y,
    trace(XY) = sum_i X_ii Y_ii + 2 sum_{i<k} X_ik Y_ik, and
    trace(H[s]H[r-s]) = trace(H[r-s]H[s]), so the trace reads each pair
    (s, r-s) once over the upper triangle: weight 2 for s < r/2 and 1 at
    s = r/2, doubled off the diagonal.
    """
    _check_budget(p.cycle_count(), budget)
    n, r = p.n, p.r
    a_mat = _symbolic_matrix(n, "a", p.diagonal_a)
    b_mat = _symbolic_matrix(n, "b", False)
    a_nonzero = [[k for k in range(n) if a_mat[k][j]] for j in range(n)]
    zero = [[Polynomial.zero()] * n for _ in range(n)]
    h = ([a_mat, b_mat] + [zero] * r)[:r + 1]
    for _ in range(p.m // 2 - 1):
        step: List[Matrix] = [[[None] * n for _ in range(n)] for _ in h]
        for s, hs in enumerate(step):
            for i in range(n):
                for j in range(i, n):
                    pairs = [(h[s][i][k], a_mat[k][j]) for k in a_nonzero[j]]
                    if s:
                        pairs += [(h[s - 1][i][k], b_mat[k][j]) for k in range(n)]
                    hs[i][j] = hs[j][i] = sum_of_products(pairs)
        h = step
    by_weight: Dict[int, list] = {1: [], 2: [], 4: []}
    for s in range(r // 2 + 1):
        x, y, w = h[s], h[r - s], 1 if 2 * s == r else 2
        for i in range(n):
            by_weight[w].append((x[i][i], y[i][i]))
            by_weight[2 * w] += [(x[i][k], y[i][k]) for k in range(i + 1, n)]
    return sum((sum_of_products(pairs).scale(w)
                for w, pairs in by_weight.items()), Polynomial.zero())


def expand_square_formula(m: int, n: int) -> Polynomial:
    """The explicit square expansion of the r = 0 coefficient.

    sum_{i,j} (sum over all a-walks of length m/2 from i to j)^2, fully
    expanded.  That walk sum is the (i, j) entry of A^{m/2}, formed by
    :func:`_mat_mul`.  Must equal the r = 0 coefficient polynomial.
    """
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"m must be a positive even integer, got {m}")
    a_mat = _symbolic_matrix(n, "a", False)
    power = a_mat
    for _ in range(m // 2 - 1):
        power = _mat_mul(power, a_mat)
    return sum_of_products((w, w) for row in power for w in row)


def word_trace(word: Iterable[str], n: int) -> Polynomial:
    """Trace of the symbolic product of one word in the letters A, B."""
    letters = [w.lower() for w in word]
    if any(w not in ("a", "b") for w in letters):
        raise ValueError("word letters must be 'A' or 'B'")
    mats = [_symbolic_matrix(n, w, False) for w in letters]
    prod = mats[0]
    for mat in mats[1:]:
        prod = _mat_mul(prod, mat)
    return sum((prod[i][i] for i in range(n)), Polynomial.zero())
