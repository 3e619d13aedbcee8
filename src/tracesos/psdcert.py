"""Exact positive-semidefiniteness certificates over the rationals.

Every verifier here works in exact arithmetic and returns a replayable
certificate: the witness data is sufficient to re-run the check and
reach the same verdict.  No floating-point eigensolver sits anywhere in
the trust path.

The general test is verify_ldlt, O(d^3) symmetric elimination whose
non-PSD verdict keeps a vector v with v^T Q v < 0.  The structured
routes (Gram factor, Kronecker product, Schur complement) certify the
shapes the certificate constructions produce, and any restriction of a
certified matrix is PSD with it, so restrictions need no route.
The Gram and Kronecker routes check their identity entry by entry,
comparing each entry of the target with the formula on the factors
without building the product; Gram does so on Python ints after
clearing U's denominators once.  The characteristic polynomial
(Berkowitz per connected component, O(sum d_i^4)) and its sign test
(PSD iff every e_k, the sum of the k-by-k principal minors, is >= 0)
are kept for the published polynomial of Q3, the SDP round-then-verify
path and as an opt-in method.  Berkowitz clears denominators once in the
same way and runs on Python ints; only the d + 1 output coefficients are
Fractions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .poly import read_number


class FactorMismatch(ValueError):
    """scale * U^T U differs from the target matrix."""


class NotAKroneckerProduct(ValueError):
    """The target is not structurally left (x) right."""


class SingularLeadingBlock(ValueError):
    """The leading block of a Schur split has a zero pivot in index order."""


class SharedFractions(dict):
    """Fraction(x) made once per distinct key x and then shared: equal
    keys (1, 1.0, True) are equal numbers, so each gets the same value."""

    def __missing__(self, x):
        f = self[x] = Fraction(x)
        return f


class RationalMatrix:
    """Dense matrix of exact rationals with optional index labels.

    Every entry is a Fraction, never an int, so elimination by ``/`` stays
    exact.  Entries given as other numbers or strings are converted once
    per distinct input, and equal inputs share one Fraction object."""

    __slots__ = ("rows", "row_labels", "col_labels")

    def __init__(self, rows, row_labels=None, col_labels=None):
        shared = SharedFractions()
        self.rows = tuple(tuple(x if type(x) is Fraction else shared[x]
                                for x in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")
        self.row_labels = tuple(row_labels) if row_labels else None
        self.col_labels = (tuple(col_labels) if col_labels
                           else self.row_labels if self._square() else None)
        if any(labels and len(labels) != size for labels, size
               in zip((self.row_labels, self.col_labels), self.shape)):
            raise ValueError("matrix labels do not match its shape")

    def _square(self) -> bool:
        return not self.rows or len(self.rows) == len(self.rows[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @property
    def size(self) -> int:
        nr, nc = self.shape
        if nr != nc:
            raise ValueError("matrix is not square")
        return nr

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if isinstance(other, RationalMatrix):
            return self.rows == other.rows
        return NotImplemented

    def is_symmetric(self) -> bool:
        nr, nc = self.shape
        return nr == nc and all(self.rows[i][j] == self.rows[j][i]
                                for i in range(nr) for j in range(i + 1, nr))

    def require_symmetric(self) -> "RationalMatrix":
        if not self.is_symmetric():
            raise ValueError("matrix is not symmetric")
        return self

    def submatrix(self, keep: Sequence[int]) -> "RationalMatrix":
        """The principal submatrix on the indices ``keep``."""
        rl = [self.row_labels[i] for i in keep] if self.row_labels else None
        cl = [self.col_labels[i] for i in keep] if self.col_labels else None
        return RationalMatrix([[self.rows[i][j] for j in keep] for i in keep],
                              rl, cl)

    def entry_sum(self) -> Fraction:
        return entry_total(self.rows)

    def to_jsonable(self):
        obj = {"rows": [[str(x) for x in row] for row in self.rows]}
        if self.row_labels:
            obj["row_labels"] = [list(l) if isinstance(l, tuple) else l
                                 for l in self.row_labels]
        if self.col_labels and self.col_labels != self.row_labels:
            obj["col_labels"] = [list(l) if isinstance(l, tuple) else l
                                 for l in self.col_labels]
        return obj

    @classmethod
    def from_jsonable(cls, obj) -> "RationalMatrix":
        def delabel(key):
            ls = obj.get(key)
            if ls is not None and not isinstance(ls, list):
                raise ValueError(f"matrix JSON: '{key}' is not a list")
            return [tuple(l) if isinstance(l, list) else l for l in ls] if ls else None

        if not (isinstance(obj, dict) and isinstance(obj.get("rows"), list)
                and all(isinstance(row, list) for row in obj["rows"])):
            raise ValueError("matrix JSON needs a 'rows' list of lists")
        return cls([[read_number(x, f"matrix entry ({i},{j})")
                     for j, x in enumerate(row)]
                    for i, row in enumerate(obj["rows"])],
                   delabel("row_labels"), delabel("col_labels"))

    def content_hash(self) -> str:
        blob = json.dumps([[str(x) for x in row] for row in self.rows],
                          separators=(",", ":"))
        import hashlib  # here, not at start-up: most commands never hash
        return hashlib.sha256(blob.encode()).hexdigest()


def _integer_rows(rows) -> Tuple[List[List[int]], int]:
    """(L * rows as lists of ints, L), L the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def entry_total(rows) -> Fraction:
    """The sum of the int or Fraction entries of ``rows``, added as ints
    over their common denominator."""
    ints, den = _integer_rows(rows)
    return Fraction(sum(map(sum, ints)), den)


def _components(rows) -> List[List[int]]:
    """The index sets, each sorted, of the connected components of the
    nonzero pattern: i and j are joined when rows[i][j] or rows[j][i] != 0."""
    left, out = set(range(len(rows))), []
    while left:
        comp = [min(left)]
        left.remove(comp[0])
        for i in comp:  # comp grows while it is read: a breadth-first search
            new = [j for j in left if rows[i][j] or rows[j][i]]
            left.difference_update(new)
            comp += new
        out.append(sorted(comp))
    return out


def _convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The coefficients of the product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _berkowitz(rows) -> List[int]:
    """det(xI - M) of an int matrix, highest power first, by the
    division-free Berkowitz recursion on its leading principal submatrices."""
    cols = list(zip(*rows))
    p = [1]
    for k in range(1, len(rows) + 1):
        # Toeplitz column: 1, -a, -R C, -R B C, -R B^2 C, ...
        t = [1, -rows[k - 1][k - 1]]
        vec, col = rows[k - 1][: k - 1], cols[k - 1][: k - 1]
        b_cols = [c[: k - 1] for c in cols[: k - 1]]
        for j in range(k - 1):
            if j:
                vec = [sum(map(mul, vec, c)) for c in b_cols]  # vec * B
            t.append(-sum(map(mul, vec, col)))
        p = _convolve(t, p)[: k + 1]
    return p


def charpoly(q: RationalMatrix) -> List[Fraction]:
    """Coefficients of det(xI - Q), highest power first.

    Clears denominators once (M = L*Q, L the lcm of the entry
    denominators), runs Berkowitz in Python ints on each connected
    component of M's nonzero pattern, and returns c_k / L^k for each
    coefficient c_k of det(xI - M).  Lemma: listing the indices
    component by component is a permutation P with P M P^T
    block-diagonal, since no nonzero entry joins two components, and a
    similarity keeps the characteristic polynomial, so det(xI - M) is
    the product of the blocks' polynomials: O(sum d_i^4), not O(d^4).
    """
    rows, den = _integer_rows(q.rows)
    p = [1]
    for comp in _components(rows):
        p = _convolve(p, _berkowitz([[rows[i][j] for j in comp] for i in comp]))
    return [Fraction(c, den ** i) for i, c in enumerate(p)]


class PsdCertificate(NamedTuple):
    """Outcome of one PSD verification, with replayable witness data."""

    method: str
    psd: bool
    matrix_hash: str
    witness: dict
    nullity: Optional[int] = None

    def to_jsonable(self):
        obj = {"method": self.method, "psd": self.psd,
               "matrix_hash": self.matrix_hash, "witness": self.witness}
        if self.nullity is not None:
            obj["nullity"] = self.nullity
        return obj

    @classmethod
    def from_jsonable(cls, obj) -> "PsdCertificate":
        return cls(method=obj["method"], psd=obj["psd"],
                   matrix_hash=obj["matrix_hash"], witness=obj["witness"],
                   nullity=obj.get("nullity"))


def verify_gram_factor(q: RationalMatrix, u: RationalMatrix,
                       scale) -> PsdCertificate:
    """Certify q == scale * U^T U with scale > 0, entry by entry: with
    L * U = V in integers, q[i][j] must be scale * (V_i . V_j) / L^2 for
    the columns V_i, V_j of V."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = u.shape[1]
    if (d, d) != q.shape:
        raise FactorMismatch(f"shape {(d, d)} != {q.shape}")
    rows, den = _integer_rows(u.rows)
    cols = list(zip(*rows))
    per = scale / (den * den)
    for i in range(d):
        for j in range(d):
            got = per * sum(a * b for a, b in zip(cols[i], cols[j]))
            if got != q[i][j]:
                raise FactorMismatch(
                    f"entry ({i},{j}): expected {q[i][j]}, factor gives {got}")
    return PsdCertificate(
        method="gram_factor", psd=True, matrix_hash=q.content_hash(),
        witness={"u": u.to_jsonable(), "scale": str(scale)})


def verify_charpoly_signs(q: RationalMatrix) -> PsdCertificate:
    """PSD test from the signs of the characteristic coefficients.

    Writing det(xI - Q) = sum_k (-1)^k e_k x^(d-k), a symmetric Q is PSD
    iff every e_k >= 0 (e_k is the sum of the k-by-k principal minors).
    The nullity is read off as the number of trailing zero coefficients.
    """
    q.require_symmetric()
    coeffs = charpoly(q)
    d = q.size
    e = [(-1) ** k * coeffs[k] for k in range(d + 1)]
    violating = next((k for k in range(d + 1) if e[k] < 0), None)
    psd = violating is None
    nullity = None
    if psd:
        last_nonzero = max(k for k in range(d + 1) if e[k] != 0)
        nullity = d - last_nonzero
    witness = {"charpoly": [str(c) for c in coeffs]}
    if violating is not None:
        witness["violating_k"] = violating
        witness["violating_e"] = str(e[violating])
    return PsdCertificate(method="charpoly_signs", psd=psd,
                          matrix_hash=q.content_hash(), witness=witness,
                          nullity=nullity)


def verify_tensor_psd(q: RationalMatrix, left: RationalMatrix,
                      right: RationalMatrix) -> PsdCertificate:
    """Certify q == left (x) right with both factors PSD.  When they are
    not both PSD, q itself is decided by verify_ldlt and that certificate
    is kept, so a NOT PSD verdict always carries a vector witness."""
    (ar, ac), (br, bc) = left.shape, right.shape
    if q.shape != (ar * br, ac * bc) or any(
            q[i][j] != left[i // br][j // bc] * right[i % br][j % bc]
            for i in range(ar * br) for j in range(ac * bc)):
        raise NotAKroneckerProduct(
            f"target is not the Kronecker product of the given "
            f"{left.shape} and {right.shape} factors")
    lc = verify_ldlt(left)
    rc = verify_ldlt(right)
    witness = {"left": left.to_jsonable(), "right": right.to_jsonable(),
               "left_cert": lc.to_jsonable(), "right_cert": rc.to_jsonable()}
    psd = lc.psd and rc.psd
    if not psd:
        qc = verify_ldlt(q)
        psd, witness["product_cert"] = qc.psd, qc.to_jsonable()
    return PsdCertificate(method="tensor_product", psd=psd,
                          matrix_hash=q.content_hash(), witness=witness)


def _eliminate(a: List[list], k: int) -> None:
    """Eliminate pivot a[k][k] in place from the later rows' upper triangle."""
    for i in range(k + 1, len(a)):
        f = a[k][i] / a[k][k]
        if f:
            a[i][i:] = [x - f * y for x, y in zip(a[i][i:], a[k][i:])]


def verify_ldlt(q: RationalMatrix) -> PsdCertificate:
    """Decide PSD by symmetric elimination in index order.  A positive
    diagonal entry is a pivot; a zero one whose remaining row is zero is
    skipped (in a PSD matrix it must be).  A negative one, or a zero one
    with a nonzero entry (k, j), gives w with w^T S w < 0 on the reduced
    matrix S; back-substituting through the stored pivot rows lifts it to
    v with v^T Q v = w^T S w.  A PSD verdict keeps pivots and rank."""
    q.require_symmetric()
    d = q.size
    a = [list(row) for row in q.rows]  # upper triangle is kept reduced
    pivots = []
    for k in range(d):
        piv = a[k][k]
        if piv > 0:
            _eliminate(a, k)
        elif piv < 0 or any(a[k][k + 1:]):
            w = [Fraction(0)] * d
            if piv < 0:
                w[k], value = Fraction(1), piv
            else:
                j = next(j for j in range(k + 1, d) if a[k][j])
                b, c = a[k][j], a[j][j]
                w[k], w[j] = -c - 1, 2 * b  # w^T S w = 2b w_k w_j + c w_j^2
                value = -4 * b * b
            for p in reversed(range(k)):
                if pivots[p]:
                    w[p] = -sum(a[p][j] * w[j] for j in range(p + 1, d)) / a[p][p]
            return PsdCertificate(
                method="ldlt", psd=False, matrix_hash=q.content_hash(),
                witness={"index": k, "vector": [str(x) for x in w],
                         "value": str(value)})
        pivots.append(piv)
    rank = d - pivots.count(0)
    witness = {"pivots": [str(p) for p in pivots], "rank": rank}
    return PsdCertificate(method="ldlt", psd=True, matrix_hash=q.content_hash(),
                          witness=witness, nullity=d - rank)


def _split_size(q: RationalMatrix, split: int) -> int:
    """q's size, once q is symmetric and ``split`` a Schur split of it."""
    q.require_symmetric()
    d = q.size
    if d < 2:
        raise ValueError(f"a {d}x{d} matrix has no Schur split")
    if not 0 < split < d:
        raise ValueError(f"split must be in 1..{d - 1}")
    return d


def schur_complement(q: RationalMatrix, split: int) -> RationalMatrix:
    """S - R^T P^(-1) R for q = [[P, R], [R^T, S]] split after `split` rows:
    verify_ldlt's step on P's pivots, in index order, leaves the
    complement's upper triangle in place.  A zero pivot raises."""
    d = _split_size(q, split)
    a = [list(row) for row in q.rows]
    for k in range(split):
        if not a[k][k]:
            raise SingularLeadingBlock(f"leading block singular at column {k}")
        _eliminate(a, k)
    return RationalMatrix([[a[min(i, j)][max(i, j)] for j in range(split, d)]
                           for i in range(split, d)])


def verify_schur(q: RationalMatrix, split: int) -> PsdCertificate:
    """Certify PSD via a positive-definite leading block P and a PSD
    complement.  P is decided first: NOT PSD there makes q NOT PSD, with
    P's vector; a PSD but singular P raises SingularLeadingBlock."""
    _split_size(q, split)
    cert = verify_ldlt(q.submatrix(range(split)))
    witness = {"split": split, "leading_cert": cert.to_jsonable()}
    if cert.psd:
        comp = schur_complement(q, split)
        cert = verify_ldlt(comp)
        witness.update(complement=comp.to_jsonable(),
                       complement_cert=cert.to_jsonable())
    return PsdCertificate(method="schur_complement", psd=cert.psd,
                          matrix_hash=q.content_hash(), witness=witness,
                          nullity=cert.nullity)


def replay(cert: PsdCertificate, q: RationalMatrix) -> PsdCertificate:
    """Re-run a certificate's check from its witness against q."""
    if cert.matrix_hash != q.content_hash():
        raise ValueError("certificate was issued for a different matrix")
    w = cert.witness
    if cert.method == "gram_factor":
        return verify_gram_factor(q, RationalMatrix.from_jsonable(w["u"]),
                                  Fraction(w["scale"]))
    if cert.method == "tensor_product":
        return verify_tensor_psd(q, RationalMatrix.from_jsonable(w["left"]),
                                 RationalMatrix.from_jsonable(w["right"]))
    if cert.method == "schur_complement":
        return verify_schur(q, w["split"])
    if cert.method == "charpoly_signs":
        return verify_charpoly_signs(q)
    if cert.method == "ldlt" and cert.psd:
        return verify_ldlt(q)
    if cert.method == "ldlt":  # recompute v^T Q v; do not re-decide
        q.require_symmetric()
        v = [read_number(x, "witness vector entry") for x in w["vector"]]
        if len(v) != q.size:
            raise ValueError(f"witness vector has {len(v)} entries, not {q.size}")
        value = sum(v[i] * sum(x * y for x, y in zip(q[i], v))
                    for i in range(q.size))
        if value != read_number(w["value"], "witness value") or value >= 0:
            raise ValueError(f"witness gives v^T Q v = {value}, certificate "
                             f"says {w['value']} < 0")
        return cert
    raise ValueError(f"unknown certificate method {cert.method!r}")
