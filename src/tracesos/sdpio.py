"""Coefficient-matching feasibility problems and exact re-verification.

A Gram certificate search is a block-diagonal SDP: unknown symmetric
matrices, one per basis block (shared across every vector of a block's
family), constrained so that for each monomial the mapped Gram entries
sum to the monomial's exact count in the coefficient polynomial.  The
module builds such problems for arbitrary even (m, r), writes and reads
them in sparse SDPA format, and turns approximate solver output back
into exact certified certificates, or rejects it.

No numeric SDP solver is linked here, deliberately: solving happens out
of process, and everything that crosses back in is re-verified in exact
arithmetic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .cert42 import build_certificate42
from .cert84 import (SYMBOLIC, Entry, Grid, InconsistentSystem, ParamSystem,
                     build_certificate84, canonical_equation)
from .necklace import TraceProblem, trace_coeff_necklace
from .poly import (Monomial, Scalar, _whole, mono_from_vars, mono_key,
                   mono_mul, mono_str, read_number, var, var_parts)
from .psdcert import (PsdCertificate, RationalMatrix, _integer_rows,
                      verify_charpoly_signs)


class RationalizationFailed(ValueError):
    """Approximate data could not be turned into exact rationals."""


def _upper(d: int):
    """The upper-triangle positions (u, v), u <= v, of a d-square, row by row."""
    return itertools.combinations_with_replacement(range(d), 2)


class BasisBlock(NamedTuple):
    """One Gram block, shared by every vector of its family.  On the
    upper triangle of ``grid`` a number pins its entry and a name
    ("x1".."x22") ties the entry to every other entry of that name;
    ``grid=None`` leaves every entry free."""

    label: str
    vectors: Tuple[Tuple[Monomial, ...], ...]
    grid: Optional[Grid] = None

    @property
    def dim(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def entries(self) -> List[Tuple[Tuple[int, int], Entry]]:
        """``((u, v), grid[u][v])`` for u <= v, row by row."""
        return [((u, v), self.grid[u][v]) for u, v in _upper(len(self.grid))]


class _BasisFields(NamedTuple):
    blocks: Tuple[BasisBlock, ...]


class BasisSpec(_BasisFields):
    def content_hash(self) -> str:
        return self._hash

    @cached_property  # once per basis object, in its __dict__: no __slots__
    def _hash(self) -> str:
        payload = []
        for b in self.blocks:
            vecs = [[mono_str(m) for m in vec] for vec in b.vectors]
            ans = None
            if b.grid is not None:
                ans = {"fixed": [], "classes": []}
                for k, x in b.entries():
                    kind = "classes" if isinstance(x, str) else "fixed"
                    ans[kind].append([list(k), str(x)])
            payload.append({"label": b.label, "vectors": vecs, "ansatz": ans})
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _connected(mono: Monomial) -> bool:
    """Whether the edges {i, j} of the monomial's variables connect its labels."""
    edges = [(i, j) for _, i, j in map(var_parts, mono)]
    reach = {edges[0][0]}
    for _ in edges:  # each pass adds every edge that touches reach
        reach.update(x for i, j in edges if i in reach or j in reach
                     for x in (i, j))
    return all(i in reach for i, _ in edges)


def _splits(z: Monomial) -> List[Tuple[Monomial, Monomial]]:
    """The pairs (h, h') with h * h' = z * z and h != z (so h != h')."""
    exps = list(Counter(z).items())
    out = []
    for take in itertools.product(*(range(2 * e + 1) for _, e in exps)):
        if sum(take) == len(z):
            h = tuple(x for (x, _), k in zip(exps, take) for _ in range(k))
            if h != z:
                out.append((h, tuple(x for (x, e), k in zip(exps, take)
                                     for _ in range(2 * e - k))))
    return out


def _odd_labels(mono: Monomial) -> Tuple[int, ...]:
    """The labels of odd degree in the monomial, a[i,i] counting i twice:
    its sign class."""
    deg = Counter(x for _, i, j in map(var_parts, mono) for x in (i, j))
    return tuple(sorted(i for i, d in deg.items() if d % 2))


def auto_basis(p: TraceProblem) -> BasisSpec:
    """The monomials of half degree: a-degree (m-r)/2 and b-degree r/2
    (diagonal a-variables only when requested), pruned by zero diagonals
    and split into one block per sign class.

    Repeat until nothing changes: drop z when z*z is not a target
    monomial and is not h*h' for two different kept vectors.  Distinct
    monomials have distinct squares, so the match row of z*z then holds
    only G[z][z], with right-hand side 0, and G PSD forces row z to be
    zero.  z*z is a target monomial exactly when the edges {i, j} of z's
    variables form a connected graph (a loop for i = j): z*z doubles
    every edge, so every degree is even and a connected support has an
    Eulerian closed walk, and each term of the t^r coefficient is a
    positive count of closed walks, so nothing cancels.  Soundness never
    rests on this: ``build_sdp`` opens a row for every target monomial,
    so a wrongly dropped vector could only make the problem infeasible.

    Then group the kept monomials by their odd labels, one block per
    class: "G" for the all-even class, else "G" and the odd labels, e.g.
    "G1,2", in sorted order of the labels.  Conjugating A and B by
    D = diag(s), s in {+-1}^n, leaves trace((A+tB)^m) unchanged and
    multiplies a monomial z by prod s_i^(deg_i z), deg_i z counting label
    i over z's indices (a[i,i] twice).  So every target monomial is even
    at every label, and a product of two classes is never one.  Averaging
    a feasible Gram matrix over the 2^n sign matrices gives a feasible
    PSD one that is zero between classes, so the split problem is
    feasible exactly when the one-block problem is (Lofberg, IEEE TAC
    2009; Gatermann & Parrilo, JPAA 2004).  The pruning is unchanged:
    h*h' = z*z puts h and h' in one class.  Soundness still does not
    rest on this: ``build_sdp`` opens a row for every target monomial
    and ``rationalize_and_verify`` checks every block exactly.
    """
    if p.diagonal_a:
        a_vars = [var("a", i, i) for i in range(1, p.n + 1)]
    else:
        a_vars = [var("a", i, j) for i in range(1, p.n + 1)
                  for j in range(i, p.n + 1)]
    b_vars = [var("b", i, j) for i in range(1, p.n + 1)
              for j in range(i, p.n + 1)]
    monos = []
    for a_part in itertools.combinations_with_replacement(a_vars, (p.m - p.r) // 2):
        for b_part in itertools.combinations_with_replacement(b_vars, p.r // 2):
            monos.append(mono_from_vars(a_part + b_part))
    splits = {z: _splits(z) for z in monos if not _connected(z)}
    kept = set(monos)
    while True:
        dead = [z for z, pairs in splits.items() if z in kept and not any(
            h in kept and h2 in kept for h, h2 in pairs)]
        if not dead:
            break
        kept.difference_update(dead)
    classes: Dict[Tuple[int, ...], List[Monomial]] = {}
    for z in monos:
        if z in kept:
            classes.setdefault(_odd_labels(z), []).append(z)
    return BasisSpec(tuple(
        BasisBlock("G" + ",".join(map(str, odd)), (tuple(zs),))
        for odd, zs in sorted(classes.items())))


def certificate_basis_42(n: int) -> BasisSpec:
    """The two-block basis of the degree-4 certificate, Gram entries free."""
    cert = build_certificate42(n)
    blocks = [BasisBlock("Q1", (tuple(cert.z1),))]
    if cert.z2_family:
        blocks.append(BasisBlock(
            "Q2", tuple(tuple(v) for _, v in sorted(cert.z2_family.items()))))
    return BasisSpec(tuple(blocks))


def certificate_basis_84(n: int) -> BasisSpec:
    """The three-block diagonal-A basis with the published entry classes:
    Q1 and Q2 pinned, Q3 pinned constants plus the 22 shared parameters,
    all read off the symbolic certificate."""
    cert = build_certificate84(n, params=SYMBOLIC)
    blocks = [BasisBlock("Q1", (tuple(cert.z1),), cert.q1.rows)]
    if cert.z2:
        blocks.append(BasisBlock("Q2", (tuple(cert.z2),), cert.q2.rows))
    if cert.z3_family:
        blocks.append(BasisBlock(
            "Q3", tuple(tuple(v) for _, v in sorted(cert.z3_family.items())),
            cert.q3))
    return BasisSpec(tuple(blocks))


class Constraint(NamedTuple):
    """One affine equation over Gram entries (block, row, col), row <= col."""

    name: str
    lhs: Tuple[Tuple[Tuple[int, int, int], Scalar], ...]
    rhs: Scalar


class SdpProblem(NamedTuple):
    m: int
    r: int
    n: int
    diagonal_a: bool
    blocks: Tuple[Tuple[str, int], ...]
    constraints: Tuple[Constraint, ...]
    basis_hash: str

    def match_constraints(self) -> List[Constraint]:
        return [c for c in self.constraints if c.name.startswith("match:")]


def build_sdp(p: TraceProblem, basis: BasisSpec,
              budget: Optional[int] = None) -> SdpProblem:
    """Coefficient-matching feasibility problem over the given basis.

    One match constraint per monomial spanned by the target or by any
    basis product (products outside the target are constrained to zero,
    otherwise a solver could park weight on impossible cells).  A block's
    grid becomes explicit constraints: a ``fix:`` per pinned entry, then
    a ``tie:`` from the first entry of each name to every later one.
    """
    target = trace_coeff_necklace(p, budget=budget)
    rows: Dict[Monomial, Dict[Tuple[int, int, int], int]] = {
        m: {} for m in target.terms}
    for b_idx, block in enumerate(basis.blocks):
        cells = [(u, v, (b_idx, u, v), 1 if u == v else 2)
                 for u, v in _upper(block.dim)]
        for vec in block.vectors:
            for u, v, key, w in cells:
                m = mono_mul(vec[u], vec[v])
                row = rows.get(m)
                if row is None:
                    rows[m] = {key: w}
                else:
                    row[key] = row.get(key, 0) + w
    constraints = []
    for mono in sorted(rows, key=mono_key):
        lhs = tuple(sorted(rows[mono].items()))
        rhs = target.terms.get(mono, 0)
        constraints.append(Constraint("match:" + mono_str(mono), lhs, rhs))
    for b_idx, block in enumerate(basis.blocks):
        if block.grid is None:
            continue
        by_name: Dict[str, List[Tuple[int, int]]] = {}
        for (u, v), x in block.entries():
            if isinstance(x, str):
                by_name.setdefault(x, []).append((u, v))
            else:
                constraints.append(Constraint(
                    f"fix:{block.label}:{u},{v}",
                    (((b_idx, u, v), 1),), _whole(Fraction(x))))
        for name in sorted(by_name):
            head, *others = by_name[name]
            for idx, other in enumerate(others):
                constraints.append(Constraint(
                    f"tie:{block.label}:{name}:{idx}",
                    (((b_idx, *head), 1), ((b_idx, *other), -1)), 0))
    return SdpProblem(
        m=p.m, r=p.r, n=p.n, diagonal_a=p.diagonal_a,
        blocks=tuple((b.label, b.dim) for b in basis.blocks),
        constraints=tuple(constraints), basis_hash=basis.content_hash())


def _num_str(x: Scalar) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    # documented precision for non-integers: 17 significant digits
    return repr(float(x))


def export_sdpa(prob: SdpProblem, path: str) -> None:
    """Write the problem in sparse SDPA format (constraint k as F_k with
    tr(F_k X) = c_k, X block-diagonal PSD).  A body line (k, b, i, j)
    with i < j gives F_ij and F_ji both, so it carries half the
    constraint's weight on X_ij.  Metadata and constraint names travel in
    leading comment lines so a read-back is lossless."""
    lines = ["* tracesos coefficient-matching SDP"]
    lines.append(f"* meta m={prob.m} r={prob.r} n={prob.n} "
                 f"diagonal_a={int(prob.diagonal_a)} basis_hash={prob.basis_hash}")
    for label, dim in prob.blocks:
        lines.append(f"* block {label} {dim}")
    for idx, con in enumerate(prob.constraints, start=1):
        lines.append(f"* con {idx} {con.name}")
    lines.append(str(len(prob.constraints)))
    lines.append(str(len(prob.blocks)))
    lines.append(" ".join(str(dim) for _, dim in prob.blocks))
    lines.append(" ".join(_num_str(c.rhs) for c in prob.constraints))
    texts: Tuple[Dict[Scalar, str], ...] = ({}, {})  # on, off the diagonal
    for idx, con in enumerate(prob.constraints, start=1):
        for (b, u, v), coeff in con.lhs:
            text = texts[u != v].get(coeff)
            if text is None:
                text = texts[u != v][coeff] = _num_str(
                    coeff if u == v else Fraction(coeff) / 2)
            lines.append(f"{idx} {b + 1} {u + 1} {v + 1} {text}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"SDPA line {line!r}: expected an integer, got "
                         f"{token!r:.40}") from None


def import_sdpa(path: str) -> SdpProblem:
    """Read back a problem written by :func:`export_sdpa`, an off-diagonal
    value doubled back to the weight on X_ij; a refusal of a line is a
    ValueError that names it."""
    meta: Dict[str, object] = {}
    block_labels: List[str] = []
    con_names: Dict[int, str] = {}
    body: List[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith(("*", '"')):
                parts = line[1:].split()
                if parts[:1] in (["block"], ["con"]) and len(parts) < 2:
                    raise ValueError(f"SDPA comment {line!r}: no label")
                if parts[:1] == ["meta"]:
                    pairs = (kv.partition("=")[::2] for kv in parts[1:])
                    meta = {k: v if k == "basis_hash" else _int(v, line)
                            for k, v in pairs}
                elif parts[:1] == ["block"]:
                    block_labels.append(parts[1])
                elif parts[:1] == ["con"]:
                    con_names[_int(parts[1], line)] = " ".join(parts[2:])
            elif line.strip():
                body.append(line.strip())
    if len(body) < 4:
        raise ValueError(f"SDPA file has {len(body)} of the 4 header lines "
                         f"(constraints, blocks, block sizes, right-hand side)")
    n_con, n_block = (_int(line, line) for line in body[:2])
    dims = [_int(t, body[2]) for t in body[2].split()]
    if len(dims) != n_block or min(dims) < 1:  # SDPA's diagonal blocks are < 0
        raise ValueError(f"SDPA line {body[2]!r}: expected {n_block} block "
                         f"sizes of at least 1")
    if block_labels and len(block_labels) != n_block:
        raise ValueError(f"SDPA file has {len(block_labels)} '* block' lines "
                         f"for {n_block} blocks")
    if len(set(block_labels)) != len(block_labels):
        raise ValueError(f"SDPA '* block' labels repeat: {block_labels}")
    parsed: Dict[str, Scalar] = {}  # token -> value, successes only
    doubled: Dict[str, Scalar] = {}  # token -> twice its value, off the diagonal

    def number(token: str, line: str) -> Scalar:
        value = parsed.get(token)
        if value is None:
            value = parsed[token] = _whole(
                read_number(token, f"SDPA line {line!r}"))
        return value

    rhs_vals = [number(t, body[3]) for t in body[3].split()]
    if len(rhs_vals) != n_con:
        raise ValueError(f"SDPA line {body[3]!r}: expected {n_con} "
                         f"right-hand sides")
    lhs_map: Dict[int, Dict[Tuple[int, int, int], Scalar]] = {
        k: {} for k in range(1, n_con + 1)}
    for line in body[4:]:
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"SDPA body line {line!r}: expected 5 fields")
        try:
            k, b, i, j = map(int, fields[:4])
        except ValueError:
            raise ValueError(f"SDPA body line {line!r}: expected four integer "
                             f"indices") from None
        if not 1 <= k <= n_con:
            raise ValueError(f"SDPA body line {line!r}: constraint index "
                             f"outside 1..{n_con}")
        if not 1 <= b <= n_block:
            raise ValueError(f"SDPA body line {line!r}: block index "
                             f"outside 1..{n_block}")
        if not (1 <= i <= dims[b - 1] and 1 <= j <= dims[b - 1]):
            raise ValueError(f"SDPA body line {line!r}: entry outside "
                             f"the {dims[b - 1]}x{dims[b - 1]} block")
        key = (b - 1, i - 1, j - 1)
        if i == j:
            value = number(fields[4], line)
        elif (value := doubled.get(fields[4])) is None:
            value = doubled[fields[4]] = _whole(2 * number(fields[4], line))
        lhs = lhs_map[k]
        lhs[key] = lhs[key] + value if key in lhs else value
    constraints = []
    for k in range(1, n_con + 1):
        constraints.append(Constraint(
            con_names.get(k, f"con{k}"),
            tuple(sorted(lhs_map[k].items())), rhs_vals[k - 1]))
    labels = block_labels or [f"B{i}" for i in range(n_block)]
    return SdpProblem(
        m=meta.get("m", 0), r=meta.get("r", 0), n=meta.get("n", 0),
        diagonal_a=bool(meta.get("diagonal_a", 0)),
        blocks=tuple(zip(labels, dims)),
        constraints=tuple(constraints),
        basis_hash=meta.get("basis_hash", ""))


class SolutionReport(NamedTuple):
    """Outcome of exact re-verification of a candidate solution."""

    accepted: bool
    blocks: Dict[str, RationalMatrix]
    psd_certs: Dict[str, PsdCertificate]
    violations: Sequence[Tuple[str, Fraction, Scalar]] = ()
    reason: str = ""


def _nearest(f: Fraction, bound: int) -> Fraction:
    """``f.limit_denominator(bound)``, worked on ints: the closest rational
    with denominator at most ``bound``, the convergent on a tie.

    Lemma: the closest such rational is either the last continued-
    fraction convergent p1/q1 with q1 <= bound or the semiconvergent
    (p0 + k p1)/(q0 + k q1) with the largest k that keeps its denominator
    within the bound, and the two lie on opposite sides of f.  They are
    1/(q1 (q0 + k q1)) apart, and p1/q1 is d/(q1 D) from f, with d the
    remainder where the expansion stops and D f's denominator, so p1/q1
    is at least as close exactly when 2 d (q0 + k q1) <= D.
    """
    if f.denominator <= bound:
        return f
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = f.numerator, f.denominator
    while q0 + (a := n // d) * q1 <= bound:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (bound - q0) // q1
    if 2 * d * (q0 + k * q1) <= f.denominator:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def rationalize_and_verify(prob: SdpProblem,
                           approx: Mapping[str, Sequence[Sequence]],
                           denominator_bound: int = 10**4) -> SolutionReport:
    """Round approximate block matrices to rationals and verify exactly.

    Each float entry of a block's upper triangle is rounded by
    :func:`_nearest` to the nearest rational with denominator at most the
    bound, and the lower triangle mirrors it; an entry anywhere that is not
    a number is refused.  The rounded point is accepted only if every
    constraint holds exactly and every block has an exact PSD certificate.
    """
    if denominator_bound < 1:
        raise RationalizationFailed(f"denominator bound must be at least 1, "
                                    f"got {denominator_bound}")
    if not isinstance(approx, Mapping):
        raise RationalizationFailed("solution must map block labels to rows")
    labels = [label for label, _ in prob.blocks]
    missing = [l for l in labels if l not in approx]
    if missing:
        raise RationalizationFailed(f"missing blocks {missing}")
    blocks: List[RationalMatrix] = []
    for label, dim in prob.blocks:
        raw = approx[label]
        if not (isinstance(raw, (list, tuple))
                and all(isinstance(row, (list, tuple)) for row in raw)):
            raise RationalizationFailed(f"block {label} is not a list of rows")
        if len(raw) != dim or any(len(row) != dim for row in raw):
            raise RationalizationFailed(
                f"block {label} has wrong shape, expected {dim}x{dim}")
        rows = [[None] * dim for _ in range(dim)]
        for i, j in itertools.product(range(dim), repeat=2):
            x = raw[i][j]
            if j < i and (type(x) is int or type(x) is float
                          and math.isfinite(x)):
                continue  # the lower triangle mirrors the upper
            try:
                f = read_number(x, f"block {label} entry ({i},{j})")
            except ValueError as exc:
                raise RationalizationFailed(str(exc)) from None
            if i <= j:
                rows[i][j] = rows[j][i] = (_nearest(f, denominator_bound)
                                           if isinstance(x, float) else f)
        blocks.append(RationalMatrix(rows))
    named = dict(zip(labels, blocks))
    # each constraint on integer rows: N = L * blocks, L one common denominator
    rows, den = _integer_rows([row for mat in blocks for row in mat.rows])
    starts = itertools.accumulate((dim for _, dim in prob.blocks), initial=0)
    ints = [rows[at:] for at in starts]
    violations = []
    for con in prob.constraints:
        got = sum(c * ints[b][u][v] for (b, u, v), c in con.lhs)
        if got != con.rhs * den:
            violations.append((con.name, Fraction(got, den), con.rhs))
    if violations:
        return SolutionReport(False, named, {}, violations,
                              f"{len(violations)} violated constraints, "
                              f"first: {violations[0][0]}")
    certs: Dict[str, PsdCertificate] = {}
    for label, mat in zip(labels, blocks):
        certs[label] = cert = verify_charpoly_signs(mat)
        if not cert.psd:
            return SolutionReport(False, named, certs, violations,
                                  f"block {label} is not PSD")
    return SolutionReport(True, named, certs, violations)


def reduce_to_parameters(prob: SdpProblem,
                         basis: BasisSpec) -> Tuple[ParamSystem, int]:
    """Restate the matching constraints over the parameters of the basis'
    grids: a pinned entry adds to the constant, an entry named x_k to
    the coefficient of x_k.

    Returns the resulting system plus the number of parameter-free
    matching constraints that were checked as exact constant identities.
    Raises InconsistentSystem when a constant identity fails or a free
    Gram entry survives (the grids then under-determine the problem).
    """
    if prob.basis_hash != basis.content_hash():
        raise ValueError("problem was built from a different basis")
    grid_at: Dict[Tuple[int, int, int], Entry] = {
        (b_idx, u, v): _whole(x)
        for b_idx, block in enumerate(basis.blocks) if block.grid is not None
        for (u, v), x in block.entries()}
    equations = []
    checked = 0
    for con in prob.match_constraints():
        const: Scalar = 0
        coeffs: Dict[int, Scalar] = {}
        for key, coeff in con.lhs:
            x = grid_at.get(key)
            if x is None:
                raise InconsistentSystem(f"free Gram entry {key} in {con.name}")
            if isinstance(x, str):
                k = int(x[1:])
                coeffs[k] = coeffs.get(k, 0) + coeff
            else:
                const += coeff * x
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        if not coeffs:
            if const != con.rhs:
                raise InconsistentSystem(
                    f"constant identity fails in {con.name}: "
                    f"{const} != {con.rhs}")
            checked += 1
        else:
            equations.append(canonical_equation(coeffs, con.rhs - const))
    return ParamSystem.from_equations(equations), checked
