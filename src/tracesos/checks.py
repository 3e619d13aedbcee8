"""End-to-end verification checks.

Each check function implements one acceptance criterion and returns a
CheckResult; the test suite asserts them and the ``verify-all`` command
prints them.  Identities and entry sums run n = 1..arc_count (4), which
decides every n by restriction (``cert42``, ``cert84``).  REPRODUCIBLES
lists the published objects that ``reproduce`` rebuilds; every
comparison with a golden file goes through compare_golden.  Everything
is exact: a check passes only on literal equality of polynomials,
matrices, or rationals.
"""

from __future__ import annotations

import os
import random
import tempfile
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Sequence

from . import cert42, cert84, golden, necklace, poly, psdcert, sdpio
from .necklace import TraceProblem

_SIZES_42 = range(1, TraceProblem(4, 2, 1).arc_count + 1)
_SIZES_84 = range(1, TraceProblem(8, 4, 1, diagonal_a=True).arc_count + 1)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    notes: Sequence[str] = ()

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status} {self.name}: {self.detail}"
        for note in self.notes:
            out += f"\n     note: {note}"
        return out


class GoldenMismatch(RuntimeError):
    """A regenerated object differs from its bundled transcription."""


def _first_difference(want, got, path=()):
    """Path to the first leaf of the golden ``want`` that ``got`` does not
    reproduce, or None.  Text leaves compare with ``str(got)``, number
    leaves by exact equality, so 49/2 never matches 24."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return path
        for key in list(want) + [k for k in got if k not in want]:
            if key not in want or key not in got:
                return path + (key,)
            diff = _first_difference(want[key], got[key], path + (key,))
            if diff is not None:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)):
            return path
        for i, (w, g) in enumerate(zip(want, got)):
            diff = _first_difference(w, g, path + (i,))
            if diff is not None:
                return diff
        return None if len(want) == len(got) else path + (min(len(want), len(got)),)
    same = str(got) == want if isinstance(want, str) else got == want
    return None if same else path


def compare_golden(built: dict, detail: str = "") -> str:
    """Compare each built object with the golden file of the same name and
    return ``detail``; raise GoldenMismatch naming the file and the first
    differing path."""
    for name, got in built.items():
        diff = _first_difference(golden.load(name), got)
        if diff is not None:
            raise GoldenMismatch(f"{name} differs first at {diff}")
    return detail


def _unequal(cases, names: tuple) -> tuple:
    """The keys of the ``(key, where, got, want)`` cases whose polynomials
    differ, and a witness for the first: up to three monomials, lowest
    first, with their coefficients in ``got`` and ``want``."""
    bad, witness = [], ""
    for key, where, got, want in cases:
        if got != want:
            bad.append(key)
            witness = witness or f"; first differences at {where}: " + ", ".join(
                f"{poly.mono_str(m)} ({names[0]} {got.terms.get(m, 0)}, "
                f"{names[1]} {want.terms.get(m, 0)})"
                for m in sorted((got - want).terms, key=poly.mono_key)[:3])
        del got, want  # free this case before the next one is built
    return bad, witness


def check_dual_oracle() -> CheckResult:
    """Necklace and matrix oracles agree term-for-term for n = 1..5.  From
    n = 2 the necklace oracle permutes its growth-string terms and lifts
    them to label subsets; n = 5 is the one size above ``arc_count``,
    where its growth strings stop at the arc count rather than at n."""
    bad, witness = _unequal(
        (((label, n), f"{label} n={n}", necklace.trace_coeff_necklace(p),
          necklace.trace_coeff_matrix(p)) for n in range(1, 6)
         for label, p in (("(4,2)", TraceProblem(4, 2, n)),
                          ("(8,4) diag", TraceProblem(8, 4, n, diagonal_a=True)))),
        ("necklace", "matrix"))
    detail = ("(4,2) n=1..5 and (8,4) n=1..5 agree"
              if not bad else f"disagreement at {bad}{witness}")
    return CheckResult("dual-oracle", not bad, detail)


def check_counterexample() -> CheckResult:
    """trace(ABAB) = -31 but the full word sum has trace 138."""
    g = golden.load("counterexample_42")
    assign = {(kind, i + 1, j + 1): Fraction(g[kind][i][j])
              for kind in "ab" for i in range(2) for j in range(2)}
    got_word = necklace.word_trace("ABAB", 2).substitute(assign)
    got_sum = necklace.trace_coeff_necklace(TraceProblem(4, 2, 2)).substitute(assign)
    detail = f"trace(ABAB) = {got_word}, trace of word sum = {got_sum}"
    try:  # A and B are the inputs; the traces are what is checked
        compare_golden({"counterexample_42": {
            "a": g["a"], "b": g["b"], "word": "ABAB",
            "trace_word": got_word, "trace_sum": got_sum}})
    except GoldenMismatch as exc:
        return CheckResult("counterexample", False, f"{detail}; {exc}")
    return CheckResult("counterexample", True, detail)


def check_identity_42() -> CheckResult:
    """Assembled squares equal the coefficient polynomial for
    n = 1..arc_count (4), and so for every n, since both sides restrict
    (``cert42``); the n=3 matrices match the published transcription."""
    bad, witness = _unequal(
        ((n, f"n={n}", cert42.assemble_sos_42(cert42.build_certificate42(n)),
          necklace.trace_coeff_necklace(TraceProblem(4, 2, n)))
         for n in _SIZES_42), ("squares", "oracle"))
    if bad:
        return CheckResult("identity-42", False,
                           f"identity fails at n={bad}{witness}")
    try:
        for name in ("Q1-n3", "Q2-n3"):
            REPRODUCIBLES[name]()
    except GoldenMismatch as exc:
        return CheckResult("identity-42", False,
                           f"n=3 matrices differ from transcription: {exc}")
    return CheckResult("identity-42", True,
                       f"identity holds for n=1..{_SIZES_42[-1]}, so for "
                       "every n; n=3 matrices match transcription")


def check_audit_42() -> CheckResult:
    """Every cell's necklace count equals its entry for n = 1..4; totals
    are 6n^4."""
    reports = [cert42.accounting_audit(n) for n in range(1, 5)]
    ok = all(report.ok for report in reports)
    return CheckResult("audit-42", ok,
                       "totals " + ", ".join(f"n={r.n}:{r.total_assigned}"
                                             for r in reports) if ok
                       else "cell mismatch, run audit42 for details")


def check_entry_sums() -> CheckResult:
    """Entry sums are 6n^4 and 70n^4 for n = 1..arc_count (4), and so for
    every n: each is its identity at A = J (A = I for diagonal A) and
    B = J.  The symbolic n=5 sum collapses to 70*5^4 on the published
    system; ``param-system`` shows the derived system is that system."""
    bad = [("(4,2)", n) for n in _SIZES_42
           if cert42.build_certificate42(n).entry_sum() != 6 * n**4]
    bad += [("(8,4)", n) for n in _SIZES_84
            if cert84.build_certificate84(n).entry_sum() != 70 * n**4]
    sym = cert84.build_certificate84(5, params=cert84.SYMBOLIC).entry_sum()
    if not cert84.ParamSystem.published().implies(cert84.canonical_equation(
            {k: c for k, c in sym.items() if k}, 70 * 5**4 - sym[0])):
        bad.append(("symbolic n=5", str(sym)))
    return CheckResult(
        "entry-sums", not bad,
        f"6n^4 and 70n^4 for n=1..{_SIZES_84[-1]}, so for every n; "
        "symbolic sum collapses to 43750"
        if not bad else f"failures: {bad}")


def check_identity_84() -> CheckResult:
    """Assembled squares equal the diagonal-A coefficient polynomial for
    n = 1..arc_count (4), and so for every n, since both sides restrict
    (``cert84``); notes say whether Q3 is PSD at n = 6, 7."""
    bad, witness = _unequal(
        ((n, f"n={n}", cert84.assemble_sos_84(cert84.build_certificate84(n)),
          necklace.trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True)))
         for n in _SIZES_84), ("squares", "oracle"))
    return CheckResult("identity-84", not bad,
                       f"identity holds for n=1..{_SIZES_84[-1]}, so for "
                       "every n" if not bad
                       else f"identity fails at n={bad}{witness}",
                       notes=[q3_psd_report(n) for n in (6, 7)])


def check_param_system() -> CheckResult:
    """The constraints re-derived at n = 5, which by restriction are those
    of every n >= 4, match the published 11-equation system."""
    try:
        derived = cert84.derive_param_system(5)
    except cert84.InconsistentSystem as exc:
        return CheckResult("param-system", False, str(exc))
    published = cert84.ParamSystem.published()
    missing = [cert84.equation_str(eq) for eq in published.equations
               if not derived.contains(eq)]
    failures = [why for holds, why in (
        (derived.equivalent(published),
         "not equivalent to the published system"),
        (derived.rank == 11, f"rank {derived.rank}, expected 11"),
        (not missing, f"published equations missing: {'; '.join(missing)}"),
        (derived.satisfied_by(cert84.published_params()),
         "published values violate it"),
    ) if not holds]
    return CheckResult(
        "param-system", not failures,
        f"derived system (n=5): {failures[0]}" if failures else
        f"rank {derived.rank}, equivalent to published system, published "
        f"values satisfy it; the same system for every n>=4")


def check_psd_suite() -> CheckResult:
    """Structured PSD certificates for the certificate matrices, for every
    n.  Each route runs once, at the size the restriction lemma gives
    (``cert42``, ``cert84``): an entry of a matrix or of its factors sees
    only the at most 4 labels of its two positions, so a route that
    checks entry by entry at n = 4 holds at every n.  Gram: the (4,2) Q1
    is 6 U^T U.  Kronecker: the (4,2) Q2 is [[4,2],[2,4]] (x) J_n, J_n
    PSD.  Schur: the (8,4) Q2(4) is zero across unordered pairs and Q2(2)
    on each, so every Q2(n) is copies of the 3x3 Q2(2), complement
    [[52/5]].  Charpoly: Q3(5), and so its restrictions Q3(n=2..4)."""
    # what a route raises when the certificate does not fit its matrix
    wrong = (psdcert.FactorMismatch, psdcert.NotAKroneckerProduct,
             psdcert.SingularLeadingBlock)
    q2, q2_pair = cert84.build_q2_84(4), cert84.build_q2_84(2)
    pairs = [tuple(sorted(lab[1:])) for lab in q2.row_labels]
    problems = [f"q2 n=4: entry ({a},{b}) joins pairs {pairs[a]} and "
                f"{pairs[b]}" for a, row in enumerate(q2.rows)
                for b, x in enumerate(row) if x and pairs[a] != pairs[b]][:1]
    problems += [f"q2 n=4: pair {pair} is not Q2(n=2)"
                 for pair in sorted(set(pairs)) if q2_pair != q2.submatrix(
                     [a for a, p in enumerate(pairs) if p == pair])]
    for name, route, *args in (
            ("gram n=4", psdcert.verify_gram_factor, cert42.build_q1(4),
             *cert42.build_q1_gram_factor(4)),
            ("tensor n=4", psdcert.verify_tensor_psd, cert42.build_q2(4),
             *cert42.q2_kron_factors(4)),
            ("schur n=2", psdcert.verify_schur, q2_pair, 2)):
        try:
            cert = route(*args)
        except wrong as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not cert.psd or cert.witness.get("complement") not in (
                None, {"rows": [["52/5"]]}):
            problems.append(name)
    try:
        REPRODUCIBLES["Q3-n5-charpoly"]()
    except GoldenMismatch as exc:
        problems.append(f"q3 n=5 charpoly: {exc}")
    # a principal submatrix of a PSD matrix is PSD, so Q3(5) covers these
    q3 = psdcert.RationalMatrix(cert84.q3_grid(5))
    problems += [f"q3 n={n_sub}: not the restriction of Q3(5)"
                 for n_sub in (2, 3, 4)
                 if q3.submatrix(cert84.z3_restriction_indices(5, n_sub))
                 != psdcert.RationalMatrix(cert84.q3_grid(n_sub))]
    return CheckResult(
        "psd-certificates", not problems,
        "gram/tensor/schur/charpoly routes all certify, "
        "Q3(n=2..4) restrict Q3(n=5)"
        if not problems else f"failures: {problems}")


def q3_psd_report(n: int) -> str:
    """Informational: Q3(n) with the published values, decided on its
    symmetry blocks (``cert84.decide_q3``); NOT PSD carries to every
    larger n (``z3_restriction_indices``)."""
    verdict = cert84.decide_q3(n)
    if verdict.psd:
        return f"Q3(n={n}) with published values: PSD, nullity {verdict.nullity}"
    return (f"Q3(n={n}) with published values: NOT PSD (vᵀQv = "
            f"{verdict.value} < 0 for v lifted from {verdict.block}); "
            f"so NOT PSD for every n ≥ {n}")


def check_square_formula() -> CheckResult:
    """The explicit square expansion equals the r = 0 coefficient."""
    bad, witness = _unequal(
        (((m, n), f"m={m} n={n}", necklace.expand_square_formula(m, n),
          necklace.trace_coeff_necklace(TraceProblem(m, 0, n)))
         for m in (2, 4, 6) for n in (1, 2, 3)), ("formula", "oracle"))
    return CheckResult("square-formula-r0", not bad,
                       "m in {2,4,6}, n<=3 all equal" if not bad
                       else f"mismatch at {bad}{witness}")


def check_sdp_roundtrip() -> CheckResult:
    """Export/import identity; certificates pass verification; a
    perturbed certificate is rejected."""
    problems = []
    with tempfile.TemporaryDirectory() as base:
        prob42 = sdpio.build_sdp(TraceProblem(4, 2, 2),
                                 sdpio.certificate_basis_42(2))
        prob84 = sdpio.build_sdp(TraceProblem(8, 4, 3, diagonal_a=True),
                                 sdpio.certificate_basis_84(3))
        for name, prob in (("(4,2,2)", prob42), ("(8,4,3)", prob84)):
            path = os.path.join(base, f"{name}.dat-s")
            sdpio.export_sdpa(prob, path)
            if sdpio.import_sdpa(path) != prob:
                problems.append(f"{name} round trip")

        cert = cert42.build_certificate42(2)
        sol = {"Q1": [[float(x) for x in row] for row in cert.q1.rows],
               "Q2": [[float(x) for x in row] for row in cert.q2.rows]}
        if not sdpio.rationalize_and_verify(prob42, sol, 1).accepted:
            problems.append("(4,2,2) published certificate rejected")
        bad_sol = {k: [list(r) for r in v] for k, v in sol.items()}
        bad_sol["Q1"][0][0] += 1
        report = sdpio.rationalize_and_verify(prob42, bad_sol, 1)
        if report.accepted or not report.violations:
            problems.append("perturbed point accepted")

        c84 = cert84.build_certificate84(3)
        sol84 = {"Q1": c84.q1.rows, "Q2": c84.q2.rows, "Q3": c84.q3}
        if not sdpio.rationalize_and_verify(prob84, sol84, 1).accepted:
            problems.append("(8,4,3) published point rejected")
    return CheckResult("sdp-roundtrip", not problems,
                       "round trips exact, certificates accepted, "
                       "perturbation rejected" if not problems
                       else f"failures: {problems}")


_RANDOM_VARS = {(k, i, j): poly.var(k, i, j)
                for k in "ab" for i in (1, 2, 3) for j in (1, 2, 3)}


def _random_poly(rng: random.Random) -> poly.Polynomial:
    # randint(a, b) is a + _randbelow(b - a + 1) and choice(s) is
    # s[_randbelow(len(s))] on every supported Python, so drawing through
    # _randbelow gives the same polynomials and leaves the same state
    below = rng._randbelow
    terms = {}
    for _ in range(below(5)):
        deg = below(9)
        vs = [_RANDOM_VARS["ab"[below(2)], below(3) + 1, below(3) + 1]
              for _ in range(deg)]
        coeff = Fraction(below(13) - 6, below(4) + 1)
        mono = poly.mono_from_vars(vs)
        terms[mono] = terms.get(mono, 0) + coeff
    return poly.Polynomial(terms)


def check_properties() -> CheckResult:
    """Ring laws on 1,000 random polynomial triples' worth of cases,
    relabeling invariance and the a<->b swap symmetry."""
    rng = random.Random(0x5305)
    problems = []
    ran = 0
    while ran < 1000:
        p, q, r = (_random_poly(rng) for _ in range(3))
        if p + q != q + p:
            problems.append("commutativity")
        pq = p * q
        if pq * r != p * (q * r):
            problems.append("associativity")
        if p * (q + r) != pq + p * r:
            problems.append("distributivity")
        ran += 3
    base = necklace.trace_coeff_necklace(TraceProblem(4, 2, 3))
    for perm in ({1: 2, 2: 1}, {2: 3, 3: 2}, {1: 3, 3: 1}):
        if poly.relabel(base, perm) != base:
            problems.append(f"relabel {perm}")
    for m, r in ((4, 0), (6, 2)):
        lhs = necklace.trace_coeff_necklace(TraceProblem(m, r, 2))
        rhs = poly.swap_ab(necklace.trace_coeff_necklace(TraceProblem(m, m - r, 2)))
        if lhs != rhs:
            problems.append(f"swap ({m},{r})")
    return CheckResult(
        "property-suite", not problems,
        f"{ran} ring-law cases, relabeling, a/b swap"
        if not problems else f"failures: {sorted(set(problems))}")


def _matrix(name: str, mat: psdcert.RationalMatrix, labels: str = "") -> str:
    """Compare a matrix's rows, and its ``labels`` attribute if named, with
    the golden file ``name``."""
    built = {"rows": mat.rows}
    if labels:
        built["labels"] = getattr(mat, labels)
    return compare_golden({name: built},
                          f"matches {name} ({len(mat.rows)}x{len(mat.rows[0])})")


def _texts(vectors) -> list:
    return [poly.mono_str(m) for m in vectors]


def _family(vectors: dict) -> dict:
    return {f"{i}_{j}": _texts(vec) for (i, j), vec in vectors.items()}


def _passed(result: CheckResult, detail: str = "") -> str:
    if not result.ok:
        raise GoldenMismatch(result.detail)
    return detail or result.detail


def _reproduce_u_n3() -> str:
    u, scale = cert42.build_q1_gram_factor(3)
    detail = _matrix("u_n3_42", u, "col_labels")
    try:
        cert = psdcert.verify_gram_factor(cert42.build_certificate42(3).q1,
                                          u, scale)
    except psdcert.FactorMismatch as exc:
        raise GoldenMismatch(f"Q1 is not {scale} U^T U: {exc}") from None
    return detail + f"; Q1 = {scale} U^T U verified ({cert.psd})"


def _reproduce_q1_n1() -> str:
    q1 = cert42.build_certificate42(1).q1
    if q1.rows != ((6,),):
        raise GoldenMismatch(f"Q1(n=1) is {q1.rows}, expected [[6]]")
    return "Q1(n=1) = [6]"


def _reproduce_z_n3() -> str:
    cert = cert42.build_certificate42(3)
    return compare_golden({"z1_n3_42": {"entries": _texts(cert.z1)},
                           "z2_n3_42": {"vectors": _family(cert.z2_family)}},
                          "z1 and z2 family at n=3 match transcription")


def _reproduce_q3_charpoly() -> str:
    cert = psdcert.verify_charpoly_signs(psdcert.RationalMatrix(cert84.q3_grid(5)))
    coeffs = cert.witness["charpoly"]
    return compare_golden({"q3_charpoly_n5_84": {"coeffs_desc": coeffs,
                                                 "nullity": cert.nullity}},
                          f"all {len(coeffs)} coefficients match, PSD with "
                          f"nullity {cert.nullity}")


def _reproduce_x_values() -> str:
    vals = cert84.published_params()
    if len(vals) != 22 or any(v < 0 for v in vals.values()):
        raise GoldenMismatch("published values must be 22 nonnegative numbers")
    if not cert84.ParamSystem.published().satisfied_by(vals):
        raise GoldenMismatch("published values violate the published system")
    return "22 nonnegative values satisfying the published system"


# The published objects.  Each entry rebuilds one, compares it with its
# transcription under golden/ and returns a one-line detail, or raises
# GoldenMismatch.  ``tracesos reproduce`` prints them; the checks above
# call the entries they share.
REPRODUCIBLES: Dict[str, Callable[[], str]] = {
    "Q1-n3": lambda: _matrix("q1_n3_42", cert42.build_certificate42(3).q1,
                             "row_labels"),
    "Q2-n3": lambda: _matrix("q2_n3_42", cert42.build_certificate42(3).q2),
    "U-n3": _reproduce_u_n3,
    "Q1-n1": _reproduce_q1_n1,
    "z-n3": _reproduce_z_n3,
    "counterexample-ABAB": lambda: _passed(check_counterexample()),
    "Q3-n5": lambda: _matrix("q3_n5_84", psdcert.RationalMatrix(cert84.q3_grid(5))),
    "Q3-n5-symbolic": lambda: compare_golden(
        {"q3_symbolic_n5_84": {"entries": cert84.q3_grid(5, cert84.SYMBOLIC)}},
        "parametrized Q3(n=5) matches transcription"),
    "Q3-n5-charpoly": _reproduce_q3_charpoly,
    "Q2-84-n5": lambda: _matrix("q2_n5_84", cert84.build_certificate84(5).q2),
    "z2-84-n5": lambda: compare_golden(
        {"z2_n5_84": {"entries": _texts(cert84.build_certificate84(5).z2)}},
        "z2(n=5) matches transcription (30 entries)"),
    "z3-84-n5": lambda: compare_golden(
        {"z3_n5_84": {"vectors": _family(cert84.build_certificate84(5).z3_family)}},
        "all ten z3 vectors at n=5 match transcription"),
    "param-system": lambda: _passed(
        check_param_system(),
        "derived system reproduces all 11 published equations"),
    "x-values": _reproduce_x_values,
}


def run_all() -> List[CheckResult]:
    return [
        check_dual_oracle(),
        check_counterexample(),
        check_identity_42(),
        check_audit_42(),
        check_entry_sums(),
        check_identity_84(),
        check_param_system(),
        check_psd_suite(),
        check_square_formula(),
        check_sdp_roundtrip(),
        check_properties(),
    ]
