"""Exact sparse polynomials in the entries of two symmetric matrices.

Variables are the entries a[i,j] and b[i,j] of two n-by-n symmetric
matrices, stored with canonical index order i <= j so that a[2,1] and
a[1,2] denote the same variable.  Coefficients are exact rationals.

A variable is one small int, ``(kind == "b") << 28 | i << 14 | j`` with
i <= j < 2**14 (:func:`var`); :func:`var_parts` reads it back.  The three
fields are disjoint bit ranges, kind above i above j, and each value fits
its field, so ints compare as the (kind, i, j) triples do.  Every
variable is below 2**29 and so one CPython int digit, which sorts and
hashes on the int fast paths.

A polynomial maps monomials to nonzero coefficients; the zero polynomial
has an empty term map.  A monomial is the sorted tuple of its variables,
a repeated variable listed once per factor (a[1,2]^2*b[1,1] is
(a[1,2], a[1,2], b[1,1])), so a product is one sort of the concatenated
tuples and equality and hashing are structural.  Output orders monomials
by :func:`mono_key`, a flat key with the order of their (variable,
exponent) runs.  The kernels that add Gram weights at products z[u]*z[v]
are :func:`quadratic_form` (one term map) and :func:`match_rows` (keyed rows).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Var = int
Monomial = Tuple[Var, ...]
Scalar = Union[int, Fraction]

MONO_ONE: Monomial = ()

_INDEX_END = 1 << 14  # i sits in bits 14..27, j in bits 0..13, kind in 28


def var(kind: str, i: int, j: int) -> Var:
    """Return the canonical variable for entry (i, j) of matrix A or B.

    Lemma: variables compare as their (kind, i, j) triples with i <= j.
    The value is kind * 2**28 + i * 2**14 + j with kind 0 for "a" and 1
    for "b" and 1 <= i <= j < 2**14, so j < 2**14 and i * 2**14 + j
    < 2**28: each field lies below the next one's unit, and the int order
    is the order of kind, then i, then j.  Every variable is below 2**29.
    """
    if kind not in ("a", "b"):
        raise ValueError(f"variable kind must be 'a' or 'b', got {kind!r}")
    if i < 1 or j < 1:
        raise ValueError(f"matrix indices must be >= 1, got ({i}, {j})")
    if i >= _INDEX_END or j >= _INDEX_END:
        raise ValueError(f"matrix indices must be below {_INDEX_END}, "
                         f"got ({i}, {j})")
    if i > j:
        i, j = j, i
    return (kind == "b") << 28 | i << 14 | j


def var_parts(v: Var) -> Tuple[str, int, int]:
    """The (kind, i, j) of a variable, i <= j."""
    return "ab"[v >> 28], v >> 14 & 0x3FFF, v & 0x3FFF


def mono_from_vars(vs: Iterable[Var]) -> Monomial:
    """Monomial that is the product of the given variables (with repeats)."""
    return tuple(sorted(vs))


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2))


_REPEAT = 1 << 29  # sorts above every variable


def mono_key(m: Monomial) -> Tuple:
    """The output sort key: the monomial with each variable that repeats
    the one before it replaced by _REPEAT.

    Lemma: the keys compare as the (variable, exponent) runs do.  A run
    (v, e) becomes v and e - 1 markers.  Two runs with different
    variables differ at their first item in both.  With the same v and
    e < e', the shorter run is followed by the next variable or by the
    end of the key, both below the marker that the longer run still has
    there.
    """
    return tuple([_REPEAT if x == y else y for x, y in zip((None,) + m, m)])


class _RunTexts(dict):
    """``(variable, exponent)`` -> its text, e.g. ``a[1,2]^2``, made on
    first use."""

    def __missing__(self, run: Tuple[Var, int]) -> str:
        v, e = run
        text = "{}[{},{}]".format(*var_parts(v))
        self[run] = text = text if e == 1 else f"{text}^{e}"
        return text


_RUN_TEXT = _RunTexts()


def mono_str(m: Monomial) -> str:
    """The canonical text, e.g. ``a[1,2]^2*b[1,1]``; "1" for MONO_ONE."""
    if not m:
        return "1"
    parts = []
    prev, e = m[0], 0
    for v in m:
        if v == prev:
            e += 1
        else:
            parts.append(_RUN_TEXT[prev, e])
            prev, e = v, 1
    parts.append(_RUN_TEXT[prev, e])
    return "*".join(parts)


def parse_monomial(text: str) -> Monomial:
    """Parse the canonical text form, e.g. ``a[1,2]^2*b[1,1]``."""
    text = text.strip()
    if text == "1":
        return MONO_ONE
    vs = []
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            head, _, exp_s = factor.partition("^")
            exp = int(exp_s)
        else:
            head, exp = factor, 1
        if len(head) < 6 or head[1] != "[" or head[-1] != "]":
            raise ValueError(f"bad monomial factor {factor!r}")
        kind = head[0]
        i_s, _, j_s = head[2:-1].partition(",")
        v = var(kind, int(i_s), int(j_s))
        if exp < 1:
            raise ValueError(f"bad exponent in {factor!r}")
        vs.extend([v] * exp)
    return mono_from_vars(vs)


def read_number(value, where: str) -> Fraction:
    """Read an exact number that comes from outside the program.

    Accepts an int, a float, a Fraction, or decimal or fraction text.
    Text whose mantissa length plus exponent exceeds the interpreter's
    limit for printing an int (``sys.get_int_max_str_digits()``) is
    refused rather than expanded.  Every refusal is a ValueError that
    starts with ``where``.
    """
    if isinstance(value, str):
        mantissa, _, exp = value.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        try:
            size = len(mantissa.strip()) + abs(int(exp or 0))
        except ValueError:
            size = 0  # not a number; Fraction names the problem below
        if limit and size > limit:
            raise ValueError(f"{where}: {value!r:.40} has more than {limit} "
                             f"digits")
    elif isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{where}: expected a number, got {value!r:.40}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator") from None
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


class Polynomial:
    """Immutable-by-convention sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def _adopt(cls, terms: Dict[Monomial, Scalar]) -> "Polynomial":
        """Take ``terms`` as the term map, uncopied and unfiltered: the
        caller built it fresh and every coefficient is nonzero."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, m: Monomial, c: Scalar = 1) -> "Polynomial":
        return cls({m: c})

    @classmethod
    def variable(cls, v: Var) -> "Polynomial":
        return cls({(v,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] - c
            else:
                out[m] = -c
        return Polynomial(out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products([(self, other)])

    def scale(self, c: Scalar) -> "Polynomial":
        if not c:
            return Polynomial.zero()
        return Polynomial({m: c * cc for m, cc in self.terms.items()})

    def substitute(self, assignment: Mapping[Tuple[str, int, int], Scalar]
                   ) -> Fraction:
        """Evaluate at exact rationals, keyed by (kind, i, j); the
        assignment must cover every variable of the polynomial (a missing
        one raises KeyError)."""
        assign = {var(*k): Fraction(v) for k, v in assignment.items()}
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v in m:
                val *= assign[v]
            total += val
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def __repr__(self):
        return f"Polynomial({self.to_jsonable()})"

    def to_jsonable(self):
        return [[mono_str(m), str(c)] for m, c in self.sorted_terms()]

    @classmethod
    def from_jsonable(cls, obj) -> "Polynomial":
        return cls({parse_monomial(ms): Fraction(cs) for ms, cs in obj})


def swap_ab(p: Polynomial) -> Polynomial:
    """Exchange the a- and b-variables throughout."""
    out = {}
    for m, c in p.terms.items():
        out[tuple(sorted([v ^ 1 << 28 for v in m]))] = c  # flip the kind bit
    return Polynomial(out)


def relabel(p: Polynomial, perm: Mapping[int, int]) -> Polynomial:
    """Apply a permutation of the index set [n] to every variable."""
    out: Dict[Monomial, Scalar] = {}
    for m, c in p.terms.items():
        key = mono_from_vars(var(k, perm.get(i, i), perm.get(j, j))
                             for k, i, j in map(var_parts, m))
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return Polynomial(out)


def sum_of_products(pairs) -> Polynomial:
    """Expand the sum of p*q over ``(p, q)`` pairs into one polynomial."""
    acc: Dict[Monomial, Scalar] = {}
    for p, q in pairs:
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                old = acc.get(m)
                acc[m] = c if old is None else old + c
    return Polynomial(acc)


def _whole(c: Scalar) -> Scalar:
    """A Fraction with denominator 1 as an int; any other value unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def quadratic_form(blocks) -> Polynomial:
    """Expand the sum of z^T M z over ``(grid, z)`` blocks into one polynomial.

    A grid is any 2D-indexable of rational entries, assumed symmetric
    (off-diagonal entries count twice), and z a list of monomials as long
    as the grid.  Each grid object's weights (u, v, q or 2q) are listed once
    per call and shared by every block passing that object.  A weight is
    made once per entry object, a whole number as an int, so a grid whose
    equal entries are one object (a ``RationalMatrix``, a Q3 grid) pays
    once per distinct value.  Each weight goes straight into one term map
    at the product of its two monomials.
    """
    weights: Dict[int, tuple] = {}  # id -> (grid, weights); holding grid pins id
    acc: Dict[Monomial, Scalar] = {}
    for grid, z in blocks:
        if id(grid) not in weights:
            made: Dict[tuple, tuple] = {}  # (id, diagonal) -> (entry, weight)
            listed = []
            for u in range(len(z)):
                row = grid[u]
                for v in range(u, len(z)):
                    q = row[v]
                    key = (id(q), u == v)
                    if key not in made:  # holding q pins its id
                        made[key] = (q, _whole(q if u == v else 2 * q) or None)
                    w = made[key][1]
                    if w is not None:
                        listed.append((u, v, w))
            weights[id(grid)] = (grid, listed)
        for u, v, w in weights[id(grid)][1]:
            m = tuple(sorted(z[u] + z[v]))
            old = acc.get(m)
            acc[m] = w if old is None else old + w
    for m in [m for m, c in acc.items() if not c]:  # only a sum cancels
        del acc[m]
    return Polynomial._adopt(acc)


def match_rows(rows, blocks):
    """For each ``(cells, vectors)`` block, vector z and cell ``(u, v, key,
    w)``, add w at ``key`` in the row of z[u]*z[v]; ``rows`` maps monomials
    to rows ``{key: weight}``, a row is made on first use.  Returns rows."""
    for cells, vectors in blocks:
        for z in vectors:
            for u, v, key, w in cells:
                m = tuple(sorted(z[u] + z[v]))
                row = rows.get(m)
                if row is None:
                    row = rows[m] = {}
                row[key] = row.get(key, 0) + w
    return rows
