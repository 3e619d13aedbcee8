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
matching against the necklace oracle.

Q3 and its vector are data, not index loops.  Each position of the
pair-(i, j) vector is the monomial a[p,p]*a[q,q]*b[i,k]*b[j,k] and has
the label (block, side, k): block 1..7, side "i", "j" or None, and k the
index the two b-factors share (:func:`z3_labels`).  :data:`Z3_A_PART`
gives each block's a-part, and :data:`Q3_TABLE` gives each entry of Q3
from the blocks of its two labels and whether they agree in side or in
k.  The vector, the grid, the block sizes and the restriction to
indices <= n_sub are all read off the labels, so Q3(n) restricted to
[n_sub] is Q3(n_sub) by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .golden import load as load_golden
from .necklace import TraceProblem, trace_coeff_necklace
from .poly import (
    Affine,
    Coeff,
    Monomial,
    Polynomial,
    affine,
    mono_from_vars,
    mono_key,
    mono_str,
    param,
    quadratic_form,
    var,
)
from .psdcert import RationalMatrix

SYMBOLIC = "symbolic"

PARAM_COUNT = 22


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
    out = []
    for block, side, k in z3_labels(n, i, j):
        at = {"i": i, "j": j, "k": k, "s": i if side == "i" else j}
        p, q = (at[c] for c in Z3_A_PART[block])
        out.append(mono_from_vars([var("a", p, p), var("a", q, q),
                                   var("b", i, k), var("b", j, k)]))
    return out


def _q3_rule(u: Z3Label, v: Z3Label):
    rule = Q3_TABLE[min(u[0], v[0]), max(u[0], v[0])]
    while isinstance(rule, tuple):
        by, same, other = rule
        field = 1 if by == "side" else 2
        rule = same if u[field] == v[field] else other
    return rule


def q3_grid(n: int, params=None) -> Tuple[Tuple[Coeff, ...], ...]:
    """The (6n-6)-square coefficient grid, numeric or affine in x1..x22,
    read off :data:`Q3_TABLE` for each pair of labels."""
    if n < 2:
        return ()
    vals = _resolve_params(params)

    def value(rule) -> Coeff:
        if isinstance(rule, int):
            return Fraction(rule)
        k = int(rule[1:])
        return vals[k] if vals is not None else param(k)

    labels = z3_labels(n, 1, 2)
    return tuple(tuple(value(_q3_rule(u, v)) for v in labels)
                 for u in labels)


def build_q2_84(n: int) -> RationalMatrix:
    ordered = [(i, j) for i in range(1, n + 1)
               for j in range(1, n + 1) if j != i]
    unordered = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    no, nu = len(ordered), len(unordered)
    d = no + nu
    rows = [[Fraction(0)] * d for _ in range(d)]
    for u in range(no):
        rows[u][u] = Fraction(20)
    for v in range(nu):
        rows[no + v][no + v] = Fraction(36)
    for u, (i, j) in enumerate(ordered):
        key = (min(i, j), max(i, j))
        v = unordered.index(key)
        rows[u][no + v] = Fraction(16)
        rows[no + v][u] = Fraction(16)
    labels = [("o", i, j) for (i, j) in ordered] + \
             [("u", i, j) for (i, j) in unordered]
    return RationalMatrix(rows, row_labels=labels)


def build_z2_84(n: int) -> List[Monomial]:
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j != i:
                out.append(mono_from_vars([var("a", i, i), var("a", i, i),
                                           var("b", i, j), var("b", i, j)]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(mono_from_vars([var("a", i, i), var("a", j, j),
                                       var("b", i, j), var("b", i, j)]))
    return out


@dataclass(frozen=True)
class Certificate84:
    n: int
    q1: RationalMatrix
    z1: List[Monomial]
    q2: RationalMatrix
    z2: List[Monomial]
    q3: Tuple[Tuple[Coeff, ...], ...]
    z3_family: Dict[Tuple[int, int], List[Monomial]]

    @property
    def symbolic(self) -> bool:
        return any(isinstance(x, Affine) for row in self.q3 for x in row)

    def q3_matrix(self) -> RationalMatrix:
        if self.symbolic:
            raise ValueError("Q3 carries unresolved parameters")
        return RationalMatrix(self.q3)

    def entry_sum(self):
        total = self.q1.entry_sum() + self.q2.entry_sum()
        q3_total: Coeff = Fraction(0)
        for row in self.q3:
            for x in row:
                q3_total = q3_total + x
        return total + comb(self.n, 2) * q3_total


def build_certificate84(n: int, params=None) -> Certificate84:
    """Assemble all matrices and vectors; ``params`` is a mapping, None for
    the published values, or the string "symbolic" for affine entries.

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
    return quadratic_form([(cert.q1.rows, cert.z1), (cert.q2.rows, cert.z2)]
                          + [(cert.q3, z3) for z3 in cert.z3_family.values()])


Equation = Tuple[Tuple[Tuple[int, int], ...], int]


def canonical_equation(coeffs: Mapping[int, Fraction], rhs) -> Equation:
    items = [(k, Fraction(c)) for k, c in sorted(coeffs.items()) if c != 0]
    rhs = Fraction(rhs)
    if not items:
        raise ValueError("empty equation")
    denom_lcm = lcm(rhs.denominator, *(c.denominator for _, c in items))
    ints = [(k, int(c * denom_lcm)) for k, c in items]
    r = int(rhs * denom_lcm)
    g = gcd(r, *(c for _, c in ints))
    ints = [(k, c // g) for k, c in ints]
    r //= g
    if ints[0][1] < 0:
        ints = [(k, -c) for k, c in ints]
        r = -r
    return tuple(ints), r


def equation_str(eq: Equation) -> str:
    terms, rhs = eq
    parts = []
    for k, c in terms:
        if c == 1:
            parts.append(f"x{k}")
        elif c == -1:
            parts.append(f"-x{k}")
        else:
            parts.append(f"{c}*x{k}")
    return " + ".join(parts).replace("+ -", "- ") + f" = {rhs}"


@dataclass(frozen=True)
class ParamSystem:
    """A set of integer-canonical affine equations in x1..x22."""

    equations: Tuple[Equation, ...]

    @classmethod
    def from_equations(cls, eqs) -> "ParamSystem":
        return cls(tuple(sorted(set(eqs))))

    @classmethod
    def from_affine_forms(cls, forms: Sequence[Affine]) -> "ParamSystem":
        return cls.from_equations(
            canonical_equation(f.linear, -f.const) for f in forms)

    @classmethod
    def published(cls) -> "ParamSystem":
        raw = load_golden("param_system_84")
        eqs = []
        for e in raw["equations"]:
            coeffs = {int(k[1:]): Fraction(v) for k, v in e["coeffs"].items()}
            eqs.append(canonical_equation(coeffs, e["rhs"]))
        return cls.from_equations(eqs)

    def rref(self) -> Tuple[Tuple[Tuple[Tuple[int, Fraction], ...], Fraction], ...]:
        """Reduced row echelon form, variables eliminated in index order.

        The result is canonical for the solution set, so two systems are
        equivalent iff their rref tuples are equal.
        """
        rows = [[{k: Fraction(c) for k, c in terms}, Fraction(rhs)]
                for terms, rhs in self.equations]
        used: set = set()
        pivot_rows = []
        for k in range(1, PARAM_COUNT + 1):
            src_i = next((i for i, r in enumerate(rows)
                          if i not in used and r[0].get(k)), None)
            if src_i is None:
                continue
            used.add(src_i)
            src = rows[src_i]
            piv = src[0][k]
            src[0] = {v: c / piv for v, c in src[0].items()}
            src[1] = src[1] / piv
            for i, r in enumerate(rows):
                if i == src_i:
                    continue
                f = r[0].get(k)
                if not f:
                    continue
                new = dict(r[0])
                for v, c in src[0].items():
                    nv = new.get(v, Fraction(0)) - f * c
                    if nv:
                        new[v] = nv
                    else:
                        new.pop(v, None)
                r[0] = new
                r[1] -= f * src[1]
            pivot_rows.append(src)
        for i, r in enumerate(rows):
            if i not in used and not r[0] and r[1] != 0:
                raise InconsistentSystem("elimination reached 0 = nonzero")
        return tuple(sorted((tuple(sorted(r[0].items())), r[1])
                            for r in pivot_rows))

    @property
    def rank(self) -> int:
        return len(self.rref())

    def equivalent(self, other: "ParamSystem") -> bool:
        return self.rref() == other.rref()

    def contains(self, eq: Equation) -> bool:
        return eq in self.equations

    def implies(self, eq: Equation) -> bool:
        """True iff eq holds on every solution of this system."""
        joined = ParamSystem.from_equations(self.equations + (eq,))
        return joined.rref() == self.rref()

    def satisfied_by(self, values: Mapping[int, Fraction]) -> bool:
        for terms, rhs in self.equations:
            total = sum(Fraction(values[k]) * c for k, c in terms)
            if total != rhs:
                return False
        return True

    def reduce_affine(self, form):
        """Eliminate pivot variables of this system from an affine form."""
        if not isinstance(form, Affine):
            return Fraction(form)
        lin = dict(form.linear)
        const = form.const
        for terms, rhs in self.rref():
            pivot_k, pivot_c = terms[0]
            f = lin.get(pivot_k)
            if not f:
                continue
            f = f / pivot_c
            for k, c in terms:
                lin[k] = lin.get(k, Fraction(0)) - f * c
            const += f * rhs
        return affine(const, lin)

    def to_jsonable(self):
        return {"equations": [
            {"coeffs": {f"x{k}": c for k, c in terms}, "rhs": rhs}
            for terms, rhs in self.equations]}

    def __str__(self):
        return "\n".join(equation_str(eq) for eq in self.equations)


def coefficient_match_equations(n: int) -> ParamSystem:
    """Every linear condition the identity forces on x1..x22 at size n.

    Expands the certificate with symbolic parameters, subtracts the
    necklace oracle's coefficient polynomial, and turns each surviving
    coefficient into a canonical linear equation.  Below n = 4 some entry
    classes never meet a monomial, so the system comes out weaker.  A
    parameter-free coefficient is named at its lowest monomial.
    """
    cert = build_certificate84(n, params=SYMBOLIC)
    target = trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True))
    diff = assemble_sos_84(cert) - target
    fixed = [m for m, c in diff.terms.items() if not isinstance(c, Affine)]
    if fixed:
        mono = min(fixed, key=mono_key)
        raise InconsistentSystem(f"parameter-free coefficient "
                                 f"{diff.terms[mono]} left at {mono_str(mono)}")
    return ParamSystem.from_affine_forms(diff.terms.values())


def derive_param_system(n: int) -> ParamSystem:
    """Re-derive the full parameter constraint system (needs n >= 4); a
    contradiction raises InconsistentSystem naming the derived system."""
    if n < 4:
        raise InvalidDimension(
            f"parameter matching needs n >= 4 (collision classes merge "
            f"below that), got {n}")
    try:
        system = coefficient_match_equations(n)
        system.rref()
    except InconsistentSystem as exc:
        raise InconsistentSystem(f"derived system (n={n}): {exc}") from None
    return system
