"""The degree-8 certificate for diagonal A: coefficient of t^4 in
trace((A+tB)^8).

Three ingredients: 70*I against the vector of a[i,i]^2*b[i,i]^2; a
two-block matrix (diagonals 20 and 36, cross entries 16 where the
ordered pair matches the unordered pair) against squares of the
mixed-degree monomials; and, for every pair i < j, one copy of a
(6n-6)-square matrix Q3 against a seven-block monomial vector.

Q3's entries are partly fixed constants and partly 22 shared parameters
x1..x22; the construction reproduces the published identity whenever the
parameters satisfy an 11-equation linear system, which
:func:`derive_param_system` re-derives from scratch by coefficient
matching against the necklace oracle.  The parameters live in this module
only: a symbolic Q3 names them by the strings "x1".."x22", and since the
sum of squares is affine in x it is S(0) + sum_k x_k*S_k, where S_k sums
the z3 products at the entries named x_k; matching reads one equation
per monomial off it (:func:`coefficient_match_equations`).

Q3 and its vector are data, not index loops.  Each position of the
pair-(i, j) vector is the monomial a[p,p]*a[q,q]*b[i,k]*b[j,k] and has
the label (block, side, k): block 1..7, side "i", "j" or None, and k the
index the two b-factors share (:func:`z3_labels`).  :data:`Z3_A_PART`
gives each block's a-part, and :data:`Q3_TABLE` gives each entry of Q3
from the blocks of its two labels and whether they agree in side or in
k.  The vector, the grid, the block sizes and the restriction to
indices <= n_sub are all read off the labels, so Q3(n) restricted to
[n_sub] is Q3(n_sub) by construction.

The whole certificate restricts.  Each Gram entry depends only on the
labels of its two positions, never on n: 70*I, :func:`build_q2_84`, and
:data:`Q3_TABLE` through :func:`_q3_rule`.  Each vector entry carries
its position's labels, plus the pair (i, j) for z3.  So a square's
monomial uses at most 4 labels, and the size-n sum of squares, kept to
the monomials on a label set S, is the size-|S| sum of squares under the
increasing map from [|S|] onto S.  The target restricts the same way
(``necklace``), so the identity at n = 4 gives it for every n.  And
since Q3(6) is a principal submatrix of Q3(n) for n >= 6, Q3(6) NOT PSD
makes every such Q3(n) NOT PSD.  Q2 is PSD for every n: an entry of
:func:`build_q2_84` sees at most 4 labels, so Q2(4) zero across unordered
pairs and equal to the 3x3 Q2(2) on each pair makes every Q2(n) C(n, 2)
copies of Q2(2) after a permutation.

Q3 also splits by symmetry.  A rule of :data:`Q3_TABLE` sees only the
blocks and sides of its two labels and whether they share k.  Q3's
positions are six fixed ones, those with k in {i, j} (:data:`Q3_FIXED`),
and the six k-classes (:data:`Q3_CLASSES`) at each of the n - 2 other k,
both read off :func:`z3_labels` in its order.  So four 6x6 grids read
off the table (:func:`q3_blocks`) are all of Q3: F fixed x fixed, G
fixed x class, A class x class at one k, B at two different k.
:func:`q3_grid` builds Q3(n) by placing them, so Q3(n) commutes with
every permutation of the indices k outside {i, j} by construction.  With
m = n - 2 the class part is I(x)(A - B) + J(x)B, so on the class
vectors that sum to zero over k, Q3(n) is m - 1 copies of S = A - B,
and on the rest it is congruent to M(1/m) = [[F, G], [G^T, B + S/m]]
through (w_F, w_C) -> w_F on the fixed positions and w_C/m on every
class position.  Hence for n >= 4, Q3(n) is PSD iff S and M(1/(n-2))
are, with nullity nullity(M) + (n - 3)*nullity(S); Q3(3) is M(1) and
Q3(2) is F (Gatermann & Parrilo, "Symmetry groups, semidefinite
programs, and sums of squares", JPAA 2004).  :func:`decide_q3` decides
Q3(n) on these blocks and lifts a witness of either one to Q3(n).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from .golden import load as load_golden
from .necklace import TraceProblem, check_budget, trace_coeff_necklace
from .poly import (
    Monomial,
    Polynomial,
    Scalar,
    mono_from_vars,
    mono_key,
    mono_mul,
    mono_str,
    quadratic_form,
    var,
)
from .psdcert import RationalMatrix, SharedFractions, entry_total, verify_ldlt

SYMBOLIC = "symbolic"

PARAM_COUNT = 22

# A Q3 entry: a number, or in a symbolic grid the parameter name "xk".
Entry = Union[Fraction, str]
Grid = Tuple[Tuple[Entry, ...], ...]


class InvalidDimension(ValueError):
    """Matrix size out of the construction's range."""


class InconsistentSystem(RuntimeError):
    """Coefficient matching forces a contradiction."""


def published_params() -> Dict[int, Fraction]:
    """The published values of x1..x22."""
    raw = load_golden("x_values_84")
    return {int(k[1:]): Fraction(v) for k, v in raw.items()}


def _resolve_params(params) -> Optional[Dict[int, Fraction]]:
    if params is None:
        return published_params()
    if params == SYMBOLIC:
        return None
    vals = {int(k): Fraction(v) for k, v in dict(params).items()}
    unknown = ", ".join(f"x{k}" for k in vals if not 1 <= k <= PARAM_COUNT)
    if unknown:
        raise ValueError(f"unknown parameters {unknown}: expected x1..x{PARAM_COUNT}")
    missing = [k for k in range(1, PARAM_COUNT + 1) if k not in vals]
    if missing:
        raise ValueError(f"missing parameter values for x{missing}")
    negative = [k for k, v in vals.items() if v < 0]
    if negative:
        raise ValueError(f"parameter values must be nonnegative, got x{negative}")
    return vals


Z3Label = Tuple[int, Optional[str], int]

# The a-part a[p,p]*a[q,q] of each block's monomials: p and q are read
# off as i, j, the label's side "s", or its k.
Z3_A_PART = {1: "ss", 2: "ij", 3: "kk", 4: "sk", 5: "ss", 6: "ij", 7: "ss"}

# One row per block pair (u, v), u <= v: a constant, a parameter "xk", or
# ("side" | "k", value if the two labels agree there, value otherwise).
Q3_TABLE = {
    (1, 1): ("side", 120, "x9"),
    (1, 2): ("side", 40, "x1"),
    (1, 3): "x7",
    (1, 4): ("side", "x17", "x19"),
    (1, 5): ("side", 20, "x4"),
    (1, 6): "x18",
    (1, 7): ("side", 20, "x4"),
    (2, 2): ("side", "x3", "x10"),
    (2, 3): "x11",
    (2, 4): ("side", "x20", "x12"),
    (2, 5): ("side", "x2", 12),
    (2, 6): "x8",
    (2, 7): ("side", "x2", 12),
    (3, 3): ("k", 40, "x5"),
    (3, 4): ("k", 16, "x21"),
    (3, 5): 4,
    (3, 6): ("k", "x15", "x13"),
    (3, 7): 4,
    (4, 4): ("k", ("side", 16, "x14"), ("side", "x16", 2)),
    (4, 5): ("side", 8, "x13"),
    (4, 6): ("k", "x16", "x22"),
    (4, 7): ("side", 8, "x13"),
    (5, 5): 8,
    (5, 6): 4,
    (5, 7): 0,
    (6, 6): ("k", 8, "x6"),
    (6, 7): 4,
    (7, 7): 8,
}


def z3_labels(n: int, i: int, j: int) -> List[Z3Label]:
    """The (block, side, k) label of each position of the pair-(i, j)
    vector, whose entry is a[p,p]*a[q,q]*b[i,k]*b[j,k].

    Blocks 3, 4 and 6 run over k outside {i, j} in increasing order;
    block 5 (the a[i,i]^2 family over k != i) leads with k = j, and
    block 7 (the a[j,j]^2 family over k != j) leads with k = i, matching
    the published n = 5 transcript and keeping the family stable under
    index permutations.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    others = [k for k in range(1, n + 1) if k != i and k != j]
    return ([(1, "i", i), (1, "j", j), (2, "i", i), (2, "j", j)]
            + [(3, None, k) for k in others]
            + [(4, s, k) for k in others for s in "ij"]
            + [(5, "i", k) for k in [j] + others]
            + [(6, None, k) for k in others]
            + [(7, "j", k) for k in [i] + others])


def z3_block_sizes(n: int) -> Tuple[int, ...]:
    blocks = [block for block, _, _ in z3_labels(n, 1, 2)]
    return tuple(blocks.count(block) for block in range(1, 8))


def z3_restriction_indices(n: int, n_sub: int) -> List[int]:
    """Positions of the pair-(1, 2) vector at size n whose indices stay
    within [n_sub]; selecting them from the size-n Q3 gives the size-n_sub
    Q3."""
    return [pos for pos, (_, _, k) in enumerate(z3_labels(n, 1, 2))
            if k <= n_sub]


def z3_vector(n: int, i: int, j: int) -> List[Monomial]:
    a = {p: var("a", p, p) for p in range(1, n + 1)}
    out = []
    for block, side, k in z3_labels(n, i, j):
        at = {"i": i, "j": j, "k": k, "s": i if side == "i" else j}
        p, q = Z3_A_PART[block]
        out.append(mono_from_vars([a[at[p]], a[at[q]],
                                   var("b", i, k), var("b", j, k)]))
    return out


def _q3_rule(u: Z3Label, v: Z3Label):
    rule = Q3_TABLE[min(u[0], v[0]), max(u[0], v[0])]
    while isinstance(rule, tuple):
        by, same, other = rule
        field = 1 if by == "side" else 2
        rule = same if u[field] == v[field] else other
    return rule


# The labels of the pair (1, 2) whose k is i or j, and the six k-classes
# (block, side) that every other k carries once, in z3_labels order.
Q3_FIXED = tuple(lab for lab in z3_labels(4, 1, 2) if lab[2] in (1, 2))
Q3_CLASSES = tuple(lab[:2] for lab in z3_labels(4, 1, 2) if lab[2] == 3)


def q3_blocks(params=None) -> Tuple[Grid, Grid, Grid, Grid]:
    """The 6x6 grids (F, G, A, B) of every Q3(n), read off :data:`Q3_TABLE`
    at k = 3 and 4: Fractions, one per int rule, and for ``SYMBOLIC``
    params the table's names "x1".."x22" where x1..x22 stand."""
    vals = _resolve_params(params)
    fractions = SharedFractions()

    def value(rule) -> Entry:
        if isinstance(rule, int):
            return fractions[rule]
        return rule if vals is None else vals[int(rule[1:])]

    at3, at4 = ([(b, s, k) for b, s in Q3_CLASSES] for k in (3, 4))
    return tuple(tuple(tuple(value(_q3_rule(u, v)) for v in cols) for u in rows)
                 for rows, cols in ((Q3_FIXED, Q3_FIXED), (Q3_FIXED, at3),
                                    (at3, at3), (at3, at4)))


def _q3_places(n: int) -> List[Tuple[int, int]]:
    """(p, k) for each position of ``z3_labels(n, 1, 2)``: the fixed
    position Q3_FIXED[p] with k = 0, or the class Q3_CLASSES[p] at its k."""
    return [(Q3_FIXED.index(lab), 0) if lab[2] < 3
            else (Q3_CLASSES.index(lab[:2]), lab[2]) for lab in z3_labels(n, 1, 2)]


def q3_grid(n: int, params=None) -> Grid:
    """The (6n-6)-square Q3(n), its blocks placed by position: F between
    two fixed positions, G or G^T between a fixed and a class position, A
    between two class positions at one k and B at two different k;
    ``params`` as for :func:`q3_blocks`."""
    if n < 2:
        return ()
    f, g, a, b = q3_blocks(params)
    gt = tuple(zip(*g))
    places = _q3_places(n)
    grid = []
    for p, k in places:
        fixed, same, other = (f[p], g[p], g[p]) if not k else (gt[p], a[p], b[p])
        grid.append(tuple((same if l == k else other)[q] if l else fixed[q]
                          for q, l in places))
    return tuple(grid)


class Q3Verdict(NamedTuple):
    """Q3(n) decided on its blocks (:func:`decide_q3`): PSD with its
    nullity, or NOT PSD with a vector v over the positions of
    ``z3_labels(n, 1, 2)`` and value = v^T Q3(n) v < 0, lifted from a
    witness of ``block``."""

    psd: bool
    nullity: Optional[int] = None
    vector: Tuple[Fraction, ...] = ()
    value: Optional[Fraction] = None
    block: str = ""


def decide_q3(n: int, params=None) -> Q3Verdict:
    """Decide Q3(n) >= 0 by ``verify_ldlt`` on M(1/(n-2)) and S (F alone
    at n = 2, M(1) alone at n = 3) without building Q3(n); ``params`` is
    a mapping, or None for the published values."""
    if n < 2:
        raise InvalidDimension(f"Q3 needs n >= 2, got {n}")
    if params == SYMBOLIC:
        raise ValueError("deciding Q3 needs numeric parameters")
    f, g, a, b = q3_blocks(params)
    s = [tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
    t = Fraction(1, max(n - 2, 1))
    m = f if n == 2 else (
        [rf + rg for rf, rg in zip(f, g)]
        + [col + tuple(x + t * y for x, y in zip(rb, rs))
           for col, rb, rs in zip(zip(*g), b, s)])
    places = _q3_places(n)

    cert = verify_ldlt(RationalMatrix(m))
    if not cert.psd:  # w_F on the fixed positions, w_C/(n-2) on every class
        w = [Fraction(x) for x in cert.witness["vector"]]
        v = [t * w[len(Q3_FIXED) + p] if k else w[p] for p, k in places]
        return Q3Verdict(False, vector=tuple(v),
                         value=Fraction(cert.witness["value"]),
                         block=f"M({t})" if n > 2 else "F")
    if n < 4:
        return Q3Verdict(True, nullity=cert.nullity)
    s_cert = verify_ldlt(RationalMatrix(s))
    if not s_cert.psd:  # w at k = 3 and -w at k = 4 give 2 w^T S w
        w = [Fraction(x) for x in s_cert.witness["vector"]]
        sign = {3: 1, 4: -1}
        v = [sign[k] * w[p] if k in sign else Fraction(0) for p, k in places]
        return Q3Verdict(False, vector=tuple(v), block="S",
                         value=2 * Fraction(s_cert.witness["value"]))
    return Q3Verdict(True, nullity=cert.nullity + (n - 3) * s_cert.nullity)


def q2_labels(n: int) -> List[Tuple[str, int, int]]:
    """The label of each z2 position: ("o", i, j) for a[i,i]^2*b[i,j]^2
    over i != j, then ("u", i, j) for a[i,i]*a[j,j]*b[i,j]^2 over i < j."""
    return ([("o", i, j) for i in range(1, n + 1)
             for j in range(1, n + 1) if j != i]
            + [("u", i, j) for i in range(1, n + 1)
               for j in range(i + 1, n + 1)])


def build_q2_84(n: int) -> RationalMatrix:
    """20 and 36 on the diagonal, 16 where an "o" and a "u" label name the
    same pair: ("u", i, j) with ("o", i, j) and with ("o", j, i)."""
    labels = q2_labels(n)
    at = {lab: p for p, lab in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for p, (s, i, j) in enumerate(labels):
        rows[p][p] = 20 if s == "o" else 36
        if s == "u":
            for q in (at["o", i, j], at["o", j, i]):
                rows[p][q] = rows[q][p] = 16
    return RationalMatrix(rows, row_labels=labels)


def build_z2_84(n: int) -> List[Monomial]:
    out = []
    for s, i, j in q2_labels(n):
        q = i if s == "o" else j
        out.append(mono_from_vars([var("a", i, i), var("a", q, q),
                                   var("b", i, j), var("b", i, j)]))
    return out


class LinearForm(dict):
    """const + sum_k c_k*x_k stored as {0: const, k: c_k}, each c_k nonzero."""

    def __str__(self):
        parts = [str(self[0])] if self[0] else []
        parts += [f"x{k}" if c == 1 else f"{c}*x{k}"
                  for k, c in sorted(self.items()) if k]
        return " + ".join(parts) or "0"


class Certificate84(NamedTuple):
    n: int
    q1: RationalMatrix
    z1: List[Monomial]
    q2: RationalMatrix
    z2: List[Monomial]
    q3: Grid
    z3_family: Dict[Tuple[int, int], List[Monomial]]

    @property
    def symbolic(self) -> bool:
        return any(isinstance(x, str) for row in self.q3 for x in row)

    def _require_numeric(self) -> None:
        if self.symbolic:
            raise ValueError("Q3 carries unresolved parameters")

    def q3_matrix(self) -> RationalMatrix:
        self._require_numeric()
        return RationalMatrix(self.q3)

    def entry_sum(self):
        """The sum of all entries of the certificate's matrices, Q3 counted
        once per pair: a Fraction, or a LinearForm if symbolic."""
        pairs = comb(self.n, 2)
        named = Counter(int(x[1:]) for row in self.q3 for x in row
                        if isinstance(x, str))
        known = [[0 if isinstance(x, str) else x for x in row]
                 for row in self.q3]
        form = LinearForm({0: self.q1.entry_sum() + self.q2.entry_sum()
                           + pairs * entry_total(known)})
        form.update((k, pairs * c) for k, c in named.items())
        return form if self.symbolic else form[0]


def entry_count(n: int) -> int:
    """The entries of the matrices and vectors of build_certificate84(n):
    Q1 and z1 over [n], Q2 and z2 over the n(n-1) + C(n, 2) labels of
    :func:`q2_labels`, the (6n-6)-square Q3 and one z3 of length 6n - 6
    per pair i < j; 0 for an n < 1, which the builder refuses."""
    if n < 1:
        return 0
    q2, q3 = n * (n - 1) + comb(n, 2), 6 * n - 6
    return n * n + n + q2 * q2 + q2 + q3 * q3 + comb(n, 2) * q3


def build_certificate84(n: int, params=None) -> Certificate84:
    """Assemble all matrices and vectors; ``params`` is a mapping, None for
    the published values, or the string "symbolic" for Q3 entries named
    "x1".."x22".

    n = 1 degenerates to the first summand alone (the later vectors are
    empty), which already matches the coefficient there.
    """
    if n < 1:
        raise InvalidDimension(f"n must be positive, got {n}")
    q1 = RationalMatrix(
        [[70 if i == j else 0 for j in range(n)] for i in range(n)])
    z1 = [mono_from_vars([var("a", i, i), var("a", i, i),
                          var("b", i, i), var("b", i, i)])
          for i in range(1, n + 1)]
    z3_family = {(i, j): z3_vector(n, i, j)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return Certificate84(n=n, q1=q1, z1=z1, q2=build_q2_84(n),
                         z2=build_z2_84(n), q3=q3_grid(n, params),
                         z3_family=z3_family)


def assemble_sos_84(cert: Certificate84) -> Polynomial:
    cert._require_numeric()
    return quadratic_form([(cert.q1.rows, cert.z1), (cert.q2.rows, cert.z2)]
                          + [(cert.q3, z3) for z3 in cert.z3_family.values()])


Equation = Tuple[Tuple[Tuple[int, int], ...], int]


def canonical_equation(coeffs: Mapping[int, Scalar], rhs: Scalar) -> Equation:
    """sum_k c_k*x_k = rhs, from int or Fraction coefficients (zeros
    dropped), as whole numbers with gcd 1 and the first coefficient
    positive; cleared in ints through each value's numerator and
    denominator."""
    items = [(k, c) for k, c in sorted(coeffs.items()) if c]
    if not items:
        raise ValueError("empty equation")
    den = lcm(rhs.denominator, *(c.denominator for _, c in items))
    ints = [(k, c.numerator * (den // c.denominator)) for k, c in items]
    r = rhs.numerator * (den // rhs.denominator)
    g = gcd(r, *(c for _, c in ints))
    g = g if ints[0][1] > 0 else -g  # first coefficient positive
    return tuple((k, c // g) for k, c in ints), r // g


def equation_str(eq: Equation) -> str:
    terms, rhs = eq
    parts = [("" if c == 1 else "-" if c == -1 else f"{c}*") + f"x{k}"
             for k, c in terms]
    return " + ".join(parts).replace("+ -", "- ") + f" = {rhs}"


def _form(eq: Equation) -> Dict[int, Fraction]:
    """The equation sum c_k*x_k = rhs as the form {0: -rhs, k: c_k}."""
    return {k: Fraction(c) for k, c in ((0, -eq[1]), *eq[0])}


def _eliminate(form, row, k: int) -> Dict[int, Fraction]:
    """form minus form[k] times the pivot row of x_k, zeros dropped."""
    f = form.get(k)
    if not f:
        return form
    return {v: c for v in form.keys() | row.keys()
            if (c := form.get(v, 0) - f * row.get(v, 0))}


class ParamSystem(NamedTuple):
    """A set of integer-canonical affine equations in x1..x22; rank,
    equivalence and implication all read one elimination, _pivot_rows."""

    equations: Tuple[Equation, ...]

    @classmethod
    def from_equations(cls, eqs) -> "ParamSystem":
        return cls(tuple(sorted(set(eqs))))

    @classmethod
    def published(cls) -> "ParamSystem":
        return cls.from_equations(
            canonical_equation({int(k[1:]): v for k, v in e["coeffs"].items()},
                               e["rhs"])
            for e in load_golden("param_system_84")["equations"])

    def _pivot_rows(self) -> Dict[int, Dict[int, Fraction]]:
        """Gauss-Jordan in index order: for each pivot variable k its reduced
        row, a form {0: const, k: 1, ...} (f = 0) with no other pivot."""
        rows = [_form(eq) for eq in self.equations]
        pivots: Dict[int, Dict[int, Fraction]] = {}
        for k in range(1, PARAM_COUNT + 1):
            src = next((r for r in rows if r.get(k)), None)
            if src is None:
                continue
            rows.remove(src)
            row = {v: c / src[k] for v, c in src.items()}
            rows = [_eliminate(r, row, k) for r in rows]
            pivots = {p: _eliminate(r, row, k) for p, r in pivots.items()}
            pivots[k] = row
        if any(any(r.values()) for r in rows):
            raise InconsistentSystem("elimination reached 0 = nonzero")
        return pivots

    def rref(self) -> Tuple[Tuple[Tuple[Tuple[int, Fraction], ...], Fraction], ...]:
        """Reduced row echelon form, variables eliminated in index order;
        canonical for the solution set, so equal iff the systems are
        equivalent."""
        return tuple(sorted((tuple(sorted((v, c) for v, c in row.items() if v)),
                             -row.get(0, Fraction(0)))
                            for row in self._pivot_rows().values()))

    @property
    def rank(self) -> int:
        return len(self.rref())

    def equivalent(self, other: "ParamSystem") -> bool:
        return self.rref() == other.rref()

    def contains(self, eq: Equation) -> bool:
        return eq in self.equations

    def implies(self, eq: Equation) -> bool:
        """True iff eq holds on every solution of this system: the pivot
        rows reduce its form to zero."""
        form = _form(eq)
        for k, row in self._pivot_rows().items():
            form = _eliminate(form, row, k)
        return not any(form.values())

    def satisfied_by(self, values: Mapping[int, Fraction]) -> bool:
        return all(sum(Fraction(values[k]) * c for k, c in terms) == rhs
                   for terms, rhs in self.equations)

    def to_jsonable(self):
        return {"equations": [
            {"coeffs": {f"x{k}": c for k, c in terms}, "rhs": rhs}
            for terms, rhs in self.equations]}

    def __str__(self):
        return "\n".join(equation_str(eq) for eq in self.equations)


def coefficient_match_equations(n: int) -> ParamSystem:
    """Every linear condition the identity forces on x1..x22 at size n.

    The squares minus the necklace oracle's coefficient polynomial are
    S(0) + sum_k x_k*S_k: S(0) assembles the certificate at x = 0 and
    subtracts the target, and one pass over the upper triangle of the
    symbolic Q3 adds each entry named x_k, weight 1 on the diagonal and
    2 off it, to S_k at the product of its two z3 monomials.  Each
    monomial gives one canonical equation.  Below n = 4 some entry
    classes never meet a monomial, so the system comes out weaker.  A
    parameter-free coefficient is named at its lowest monomial.
    """
    cert = build_certificate84(
        n, params=dict.fromkeys(range(1, PARAM_COUNT + 1), 0))
    s0 = assemble_sos_84(cert) - trace_coeff_necklace(
        TraceProblem(8, 4, n, diagonal_a=True))
    named = [(u, v, int(x[1:]), 1 if u == v else 2)
             for u, row in enumerate(q3_grid(n, SYMBOLIC))
             for v, x in enumerate(row[u:], u) if isinstance(x, str)]
    linear: Dict[Monomial, Dict[int, int]] = {}
    for z3 in cert.z3_family.values():
        for u, v, k, w in named:
            coeffs = linear.setdefault(mono_mul(z3[u], z3[v]), {})
            coeffs[k] = coeffs.get(k, 0) + w
    fixed = [m for m in s0.terms if m not in linear]
    if fixed:
        mono = min(fixed, key=mono_key)
        raise InconsistentSystem(f"parameter-free coefficient "
                                 f"{s0.terms[mono]} left at {mono_str(mono)}")
    return ParamSystem.from_equations(
        canonical_equation(coeffs, -s0.terms.get(m, 0))
        for m, coeffs in linear.items())


def derive_param_system(n: int, budget: Optional[int] = None) -> ParamSystem:
    """Re-derive the full parameter constraint system (needs n >= 4); a
    contradiction raises InconsistentSystem naming the derived system.
    The necklace oracle's plan for diagonal (8,4,n) is checked against
    ``budget`` before the certificate is built."""
    if n < 4:
        raise InvalidDimension(
            f"parameter matching needs n >= 4 (collision classes merge "
            f"below that), got {n}")
    check_budget(TraceProblem(8, 4, n, diagonal_a=True), budget)
    try:
        system = coefficient_match_equations(n)
        system.rref()
    except InconsistentSystem as exc:
        raise InconsistentSystem(f"derived system (n={n}): {exc}") from None
    return system
