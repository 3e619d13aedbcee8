"""The degree-4 certificate: coefficient of t^2 in trace((A+tB)^4).

The construction pairs one big intersection-count matrix with a family of
identical 2n-by-2n block matrices:

* rows/columns of the first matrix are indexed by the subsets of [n] of
  size 1 or 2, entry 6*|intersection|, applied to the vector with
  {i,j}-entry a[i,j]*b[i,j];
* for every ordered pair i < j, the block matrix [[4J, 2J], [2J, 4J]]
  applied to the vector whose upper half is a[i,k]*b[j,k] and lower half
  a[j,k]*b[i,k], k = 1..n.

Every (4,2,n)-necklace is counted by exactly one matrix cell; the
classifier below names that cell, and the audit replays the accounting
necklace-by-necklace against the matrix entries.

The certificate restricts.  Each Gram entry depends only on the labels
of its two positions, never on n: 6*|x & y| for Q1, and 4 or 2 by the
halves of the two positions for Q2.  Each vector entry carries its
position's labels, plus the pair (i, j) for z2.  So a square's monomial
uses at most 4 labels, and the size-n sum of squares, kept to the
monomials on a label set S, is the size-|S| sum of squares under the
increasing map from [|S|] onto S.  The target restricts the same way
(``necklace``), so the identity at n = 4 gives it for every n.  The
same lemma sizes the PSD routes: Q1 = 6 U^T U
(:func:`build_q1_gram_factor`) and Q2 = [[4,2],[2,4]] (x) J_n
(:func:`q2_kron_factors`) hold entry by entry, each entry of a matrix
or factor sees only the labels of its two positions, so both hold at
every n once they hold at n = 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .necklace import Necklace, TraceProblem, enumerate_necklaces
from .poly import Monomial, Polynomial, mono_from_vars, quadratic_form, var
from .psdcert import RationalMatrix

Label = Tuple[int, ...]          # (k,) singleton or (i, j) with i < j
Cell = Tuple                     # see CollectionTag.cell


def index_sets(n: int) -> List[Label]:
    """Subsets of [n] of size 1 or 2: singletons first, pairs lexicographic."""
    labels: List[Label] = [(k,) for k in range(1, n + 1)]
    labels += [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return labels


def _pair_label(u: int, v: int) -> Label:
    return (u,) if u == v else (min(u, v), max(u, v))


def build_q1(n: int) -> RationalMatrix:
    labels = index_sets(n)
    rows = [[6 * len(set(x) & set(y)) for y in labels] for x in labels]
    return RationalMatrix(rows, row_labels=labels)


def build_z1(n: int) -> List[Monomial]:
    out = []
    for lab in index_sets(n):
        i, j = (lab[0], lab[0]) if len(lab) == 1 else lab
        out.append(mono_from_vars([var("a", i, j), var("b", i, j)]))
    return out


def build_q2(n: int) -> RationalMatrix:
    rows = [[4 if (u < n) == (v < n) else 2 for v in range(2 * n)]
            for u in range(2 * n)]
    return RationalMatrix(rows)


def z2_vector(n: int, i: int, j: int) -> List[Monomial]:
    """Upper half a[i,k]b[j,k], lower half a[j,k]b[i,k], k = 1..n."""
    if i == j:
        raise ValueError("ordered pair needs distinct indices")
    upper = [mono_from_vars([var("a", i, k), var("b", j, k)])
             for k in range(1, n + 1)]
    lower = [mono_from_vars([var("a", j, k), var("b", i, k)])
             for k in range(1, n + 1)]
    return upper + lower


class Certificate42(NamedTuple):
    n: int
    q1: RationalMatrix
    z1: List[Monomial]
    q2: RationalMatrix
    z2_family: Dict[Tuple[int, int], List[Monomial]]

    def entry_sum(self) -> Fraction:
        return self.q1.entry_sum() + comb(self.n, 2) * self.q2.entry_sum()


def entry_count(n: int) -> int:
    """The entries of the matrices and vectors of build_certificate42(n):
    Q1 and z1 over the n + C(n, 2) index sets, the 2n-square Q2 and one z2
    of length 2n per pair i < j; 0 for an n < 1, which the builder refuses."""
    if n < 1:
        return 0
    size = n + comb(n, 2)
    return size * size + size + 4 * n * n + comb(n, 2) * 2 * n


def build_certificate42(n: int) -> Certificate42:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z2 = {(i, j): z2_vector(n, i, j)
          for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return Certificate42(n=n, q1=build_q1(n), z1=build_z1(n),
                         q2=build_q2(n), z2_family=z2)


def assemble_sos_42(cert: Certificate42) -> Polynomial:
    return quadratic_form([(cert.q1.rows, cert.z1)]
                          + [(cert.q2.rows, z2) for z2 in cert.z2_family.values()])


def build_q1_gram_factor(n: int) -> Tuple[RationalMatrix, int]:
    """Incidence factor U with rows [n]: entry 1 iff the row index lies in
    the column's subset.  Then Q1 equals 6 * U^T U."""
    labels = index_sets(n)
    rows = [[1 if k in lab else 0 for lab in labels] for k in range(1, n + 1)]
    return RationalMatrix(rows, row_labels=list(range(1, n + 1)),
                          col_labels=labels), 6


def q2_kron_factors(n: int) -> Tuple[RationalMatrix, RationalMatrix]:
    """Q2 as [[4,2],[2,4]] (x) J_n."""
    left = RationalMatrix([[4, 2], [2, 4]])
    right = RationalMatrix([[1] * n for _ in range(n)])
    return left, right


class CollectionTag(NamedTuple):
    """Which collection a (4,2,n)-necklace falls in and the cell counting it.

    cell is ("Q1", row_label, col_label) or
    ("Q2", (i, j), block, row, col) with block one of UL/UR/LL/LR and
    1-based row/col inside the n-by-n block.
    """

    collection: str
    cell: Cell


def classify_necklace(k: Necklace) -> CollectionTag:
    """Assign a (4,2,n)-necklace to its unique counting cell.

    Collection 1: consecutive letters, the two unbalanced edges mismatched
    and the two balanced edges matching -> diagonal of a block of a Q2
    copy.  Collection 2: otherwise, opposite edges 0,2 equal, or opposite
    edges 1,3 equal with consecutive letters -> a Q1 cell.  Collection 3:
    otherwise consecutive letters -> off-diagonal of a Q2 diagonal block.
    Collection 4: the rest (alternating letters, north/south edges
    distinct) -> a cell of a Q2 anti-diagonal block.
    """
    l, e = k.letters, k.edges
    if len(l) != 4 or sum(1 for s in l if s == "b") != 2:
        raise ValueError("classifier handles (4,2,n)-necklaces only")
    alternating = l[0] == l[2]

    if not alternating:
        t_aa = next(t for t in range(4) if l[t] == "a" and l[(t + 1) % 4] == "a")
        t_bb = next(t for t in range(4) if l[t] == "b" and l[(t + 1) % 4] == "b")
        i_, j_ = e[t_aa], e[t_bb]
        bal = [e[t] for t in range(4) if t not in (t_aa, t_bb)]
        if i_ != j_ and bal[0] == bal[1]:
            k_ = bal[0]
            if i_ < j_:
                return CollectionTag("C1", ("Q2", (i_, j_), "UL", k_, k_))
            return CollectionTag("C1", ("Q2", (j_, i_), "LR", k_, k_))

    if e[0] == e[2] or (e[1] == e[3] and not alternating):
        if e[0] == e[1] == e[2] == e[3]:
            lab = (e[0],)
            return CollectionTag("C2a", ("Q1", lab, lab))
        if e[0] == e[2] and e[1] == e[3]:
            lab = _pair_label(e[0], e[1])
            return CollectionTag("C2b", ("Q1", lab, lab))
        axis = 0 if e[0] == e[2] else 1
        k_ = e[axis]
        p_, q_ = e[(axis + 1) % 4], e[(axis + 3) % 4]
        row, col = _pair_label(k_, p_), _pair_label(k_, q_)
        sub = "C2c" if (p_ == k_ or q_ == k_) else "C2d"
        return CollectionTag(sub, ("Q1", row, col))

    if not alternating:
        k_, l_ = e[t_aa], e[t_bb]
        i_ = next(e[t] for t in range(4) if l[t] == "b" and l[(t + 1) % 4] == "a")
        j_ = next(e[t] for t in range(4) if l[t] == "a" and l[(t + 1) % 4] == "b")
        if k_ < l_:
            return CollectionTag("C3", ("Q2", (k_, l_), "UL", i_, j_))
        return CollectionTag("C3", ("Q2", (l_, k_), "LR", i_, j_))

    # alternating with e[0] != e[2]: north edge is position 0
    i_, j_ = e[0], e[2]
    k_ = e[3] if l[0] == "a" else e[1]
    l_ = e[1] if l[0] == "a" else e[3]
    if i_ < j_:
        return CollectionTag("C4", ("Q2", (i_, j_), "UR", k_, l_))
    return CollectionTag("C4", ("Q2", (j_, i_), "LL", k_, l_))


class AuditReport(NamedTuple):
    """Per-cell comparison of necklace counts against matrix entries."""

    n: int
    total_expected: int
    total_assigned: int
    counts: Dict[Cell, int]
    mismatches: Sequence[Tuple[Cell, Fraction, int]] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.total_assigned == self.total_expected

    def summary(self) -> str:
        state = "clean" if self.ok else f"{len(self.mismatches)} mismatches"
        return (f"audit n={self.n}: {self.total_assigned}/{self.total_expected} "
                f"necklaces assigned, {len(self.counts)} cells, {state}")


def accounting_audit(n: int, budget: Optional[int] = None) -> AuditReport:
    """Count necklaces per cell and compare with every entry of the built
    certificate's matrices."""
    problem = TraceProblem(4, 2, n)
    counts: Dict[Cell, int] = {}
    for k in enumerate_necklaces(problem, budget=budget):
        cell = classify_necklace(k).cell
        counts[cell] = counts.get(cell, 0) + 1
    cert = build_certificate42(n)
    labels = cert.q1.row_labels
    expected: Dict[Cell, Fraction] = {
        ("Q1", x, y): cert.q1[a][b]
        for a, x in enumerate(labels) for b, y in enumerate(labels)}
    # each Q2 copy is the 2n-square [[UL, UR], [LL, LR]] of n-square blocks
    corners = {"UL": (0, 0), "UR": (0, n), "LL": (n, 0), "LR": (n, n)}
    for pair in cert.z2_family:
        for block, (du, dv) in corners.items():
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    expected[("Q2", pair, block, u, v)] = \
                        cert.q2[du + u - 1][dv + v - 1]
    total = sum(counts.values())
    mismatches = []
    for cell in sorted(set(expected) | set(counts), key=repr):
        want = expected.get(cell)
        got = counts.get(cell, 0)
        if want is None or want != got:
            mismatches.append((cell, want if want is not None else -1, got))
    return AuditReport(n=n, total_expected=problem.cycle_count(),
                       total_assigned=total, counts=counts,
                       mismatches=mismatches)
