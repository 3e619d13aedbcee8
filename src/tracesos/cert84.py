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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .golden import load as load_golden
from .necklace import TraceProblem, trace_coeff_necklace
from .poly import (
    Affine,
    Coeff,
    Polynomial,
    affine,
    mono_from_vars,
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
    missing = [k for k in range(1, PARAM_COUNT + 1) if k not in vals]
    if missing:
        raise ValueError(f"missing parameter values for x{missing}")
    negative = [k for k, v in vals.items() if v < 0]
    if negative:
        raise ValueError(f"parameter values must be nonnegative, got x{negative}")
    return vals


def z3_block_sizes(n: int) -> Tuple[int, ...]:
    return (2, 2, n - 2, 2 * (n - 2), n - 1, n - 2, n - 1)


def _mono(*vs) -> Polynomial:
    return Polynomial.monomial(mono_from_vars(vs))


def z3_blocks(n: int, i: int, j: int) -> List[List[Polynomial]]:
    """The seven blocks of the pair-(i, j) monomial vector, length 6n-6.

    Blocks 3, 4 and 6 run over k outside {i, j} in increasing order;
    block 5 (the a[i,i]^2 family over k != i) leads with k = j, and
    block 7 (the a[j,j]^2 family over k != j) leads with k = i, matching
    the published n = 5 transcript and keeping the family stable under
    index permutations.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    others = [k for k in range(1, n + 1) if k != i and k != j]
    aii, ajj = var("a", i, i), var("a", j, j)

    def b(u, v):
        return var("b", u, v)

    blocks = [
        [_mono(aii, aii, b(i, i), b(i, j)),
         _mono(ajj, ajj, b(i, j), b(j, j))],
        [_mono(aii, ajj, b(i, i), b(i, j)),
         _mono(aii, ajj, b(j, j), b(i, j))],
        [_mono(var("a", k, k), var("a", k, k), b(i, k), b(j, k))
         for k in others],
        [m for k in others
         for m in (_mono(aii, var("a", k, k), b(i, k), b(j, k)),
                   _mono(ajj, var("a", k, k), b(i, k), b(j, k)))],
        [_mono(aii, aii, b(i, j), b(j, j))]
        + [_mono(aii, aii, b(i, k), b(j, k)) for k in others],
        [_mono(aii, ajj, b(i, k), b(j, k)) for k in others],
        [_mono(ajj, ajj, b(i, i), b(i, j))]
        + [_mono(ajj, ajj, b(i, k), b(j, k)) for k in others],
    ]
    assert [len(bl) for bl in blocks] == list(z3_block_sizes(n))
    return blocks


def z3_vector(n: int, i: int, j: int) -> List[Polynomial]:
    return [entry for block in z3_blocks(n, i, j) for entry in block]


def q3_grid(n: int, params=None) -> Tuple[Tuple[Coeff, ...], ...]:
    """The (6n-6)-square coefficient grid, numeric or affine in x1..x22."""
    if n < 2:
        return ()
    vals = _resolve_params(params)

    def x(k: int) -> Coeff:
        return vals[k] if vals is not None else param(k)

    sizes = z3_block_sizes(n)
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    d = offs[-1]
    g: List[List[Coeff]] = [[Fraction(0)] * d for _ in range(d)]
    nm2 = n - 2

    def put(bu, bv, r, c, value):
        g[offs[bu - 1] + r][offs[bv - 1] + c] = value

    for r in range(2):
        for c in range(2):
            put(1, 1, r, c, Fraction(120) if r == c else x(9))
            put(1, 2, r, c, Fraction(40) if r == c else x(1))
            put(2, 2, r, c, x(3) if r == c else x(10))
    for r in range(2):
        for k in range(nm2):
            put(1, 3, r, k, x(7))
            put(2, 3, r, k, x(11))
            put(1, 6, r, k, x(18))
            put(2, 6, r, k, x(8))
            for t in range(2):
                put(1, 4, r, 2 * k + t, x(17) if r == t else x(19))
                put(2, 4, r, 2 * k + t, x(20) if r == t else x(12))
        for c in range(n - 1):
            put(1, 5, r, c, Fraction(20) if r == 0 else x(4))
            put(1, 7, r, c, x(4) if r == 0 else Fraction(20))
            put(2, 5, r, c, x(2) if r == 0 else Fraction(12))
            put(2, 7, r, c, Fraction(12) if r == 0 else x(2))
    for k in range(nm2):
        for kp in range(nm2):
            put(3, 3, k, kp, Fraction(40) if k == kp else x(5))
            put(3, 6, k, kp, x(15) if k == kp else x(13))
            put(6, 6, k, kp, Fraction(8) if k == kp else x(6))
            for t in range(2):
                put(3, 4, k, 2 * kp + t, Fraction(16) if k == kp else x(21))
                put(4, 6, 2 * kp + t, k, x(16) if k == kp else x(22))
        for c in range(n - 1):
            put(3, 5, k, c, Fraction(4))
            put(3, 7, k, c, Fraction(4))
            put(6, 7, k, c, Fraction(4))
    for k in range(nm2):
        for s in range(2):
            for kp in range(nm2):
                for t in range(2):
                    if k == kp:
                        val = Fraction(16) if s == t else x(14)
                    else:
                        val = x(16) if s == t else Fraction(2)
                    put(4, 4, 2 * k + s, 2 * kp + t, val)
            for c in range(n - 1):
                put(4, 5, 2 * k + s, c, Fraction(8) if s == 0 else x(13))
                put(4, 7, 2 * k + s, c, x(13) if s == 0 else Fraction(8))
    for r in range(n - 1):
        for c in range(n - 1):
            put(5, 5, r, c, Fraction(8))
            put(5, 7, r, c, Fraction(0))
            put(7, 7, r, c, Fraction(8))
        for c in range(nm2):
            put(5, 6, r, c, Fraction(4))
    # mirror the strict upper triangle
    for r in range(d):
        for c in range(r):
            g[r][c] = g[c][r]
    return tuple(tuple(row) for row in g)


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


def build_z2_84(n: int) -> List[Polynomial]:
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j != i:
                out.append(_mono(var("a", i, i), var("a", i, i),
                                 var("b", i, j), var("b", i, j)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(_mono(var("a", i, i), var("a", j, j),
                             var("b", i, j), var("b", i, j)))
    return out


@dataclass(frozen=True)
class Certificate84:
    n: int
    q1: RationalMatrix
    z1: List[Polynomial]
    q2: RationalMatrix
    z2: List[Polynomial]
    q3: Tuple[Tuple[Coeff, ...], ...]
    z3_family: Dict[Tuple[int, int], List[Polynomial]]

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
    z1 = [_mono(var("a", i, i), var("a", i, i),
                var("b", i, i), var("b", i, i)) for i in range(1, n + 1)]
    z3_family = {(i, j): z3_vector(n, i, j)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return Certificate84(n=n, q1=q1, z1=z1, q2=build_q2_84(n),
                         z2=build_z2_84(n), q3=q3_grid(n, params),
                         z3_family=z3_family)


def assemble_sos_84(cert: Certificate84) -> Polynomial:
    total = quadratic_form(cert.q1.rows, cert.z1)
    if cert.z2:
        total = total + quadratic_form(cert.q2.rows, cert.z2)
    for z3 in cert.z3_family.values():
        total = total + quadratic_form(cert.q3, z3)
    return total


Equation = Tuple[Tuple[Tuple[int, int], ...], int]


def canonical_equation(coeffs: Mapping[int, Fraction], rhs) -> Equation:
    items = [(k, Fraction(c)) for k, c in sorted(coeffs.items()) if c != 0]
    rhs = Fraction(rhs)
    if not items:
        raise ValueError("empty equation")
    denom_lcm = 1
    for _, c in items + [(0, rhs)]:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [(k, int(c * denom_lcm)) for k, c in items]
    r = int(rhs * denom_lcm)
    g = 0
    for _, c in ints:
        g = gcd(g, abs(c))
    g = gcd(g, abs(r))
    if g > 1:
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
        rows = [[dict(terms), Fraction(rhs)] for terms, rhs in self.equations]
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
    classes never meet a monomial, so the system comes out weaker.
    """
    cert = build_certificate84(n, params=SYMBOLIC)
    target = trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True))
    diff = assemble_sos_84(cert) - target
    forms = []
    for mono, coeff in diff.terms.items():
        if isinstance(coeff, Affine):
            forms.append(coeff)
        else:
            raise InconsistentSystem(
                f"parameter-free coefficient {coeff} left at {mono_str(mono)}")
    return ParamSystem.from_affine_forms(forms)


def derive_param_system(n: int) -> ParamSystem:
    """Re-derive the full parameter constraint system (needs n >= 4)."""
    if n < 4:
        raise InvalidDimension(
            f"parameter matching needs n >= 4 (collision classes merge "
            f"below that), got {n}")
    system = coefficient_match_equations(n)
    system.rref()  # raises InconsistentSystem on contradiction
    return system
