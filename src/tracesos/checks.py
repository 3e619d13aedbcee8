"""End-to-end verification checks.

Each function here implements one acceptance criterion and returns a
CheckResult; the test suite asserts them and the ``verify-all`` command
prints them.  Everything is exact: a check passes only on literal
equality of polynomials, matrices, or rationals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from . import cert42, cert84, golden, necklace, poly, psdcert, sdpio
from .necklace import TraceProblem


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    notes: List[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status} {self.name}: {self.detail}"
        for note in self.notes:
            out += f"\n     note: {note}"
        return out


def check_dual_oracle(max_n_42: int = 5, max_n_84: int = 5) -> CheckResult:
    """Necklace and matrix oracles agree term-for-term."""
    bad = []
    for n in range(1, max_n_42 + 1):
        p = TraceProblem(4, 2, n)
        if necklace.trace_coeff_necklace(p) != necklace.trace_coeff_matrix(p):
            bad.append(("(4,2)", n))
    for n in range(1, max_n_84 + 1):
        p = TraceProblem(8, 4, n, diagonal_a=True)
        if necklace.trace_coeff_necklace(p) != necklace.trace_coeff_matrix(p):
            bad.append(("(8,4) diag", n))
    detail = (f"(4,2) n=1..{max_n_42} and (8,4) n=1..{max_n_84} agree"
              if not bad else f"disagreement at {bad}")
    return CheckResult("dual-oracle", not bad, detail)


def check_counterexample() -> CheckResult:
    """trace(ABAB) = -31 but the full word sum has trace 138."""
    g = golden.load("counterexample_42")
    assign = {}
    for kind, mat in (("a", g["a"]), ("b", g["b"])):
        for i in range(2):
            for j in range(2):
                assign[poly.var(kind, i + 1, j + 1)] = Fraction(mat[i][j])
    got_word = necklace.word_trace(g["word"], 2).substitute(assign)
    got_sum = necklace.trace_coeff_necklace(TraceProblem(4, 2, 2)).substitute(assign)
    ok = got_word == g["trace_word"] and got_sum == g["trace_sum"]
    return CheckResult(
        "counterexample", ok,
        f"trace({g['word']}) = {got_word}, trace of word sum = {got_sum}")


def _matrix_bytes(rows) -> bytes:
    return json.dumps([[str(x) for x in row] for row in rows],
                      sort_keys=True).encode()


def check_identity_42(max_n: int = 6) -> CheckResult:
    """Assembled squares equal the coefficient polynomial; n=3 matrices
    byte-match the published transcription."""
    bad = []
    for n in range(1, max_n + 1):
        cert = cert42.build_certificate42(n)
        if cert42.assemble_sos_42(cert) != \
                necklace.trace_coeff_necklace(TraceProblem(4, 2, n)):
            bad.append(n)
    c3 = cert42.build_certificate42(3)
    g1, g2 = golden.load("q1_n3_42"), golden.load("q2_n3_42")
    golden_ok = (_matrix_bytes(c3.q1.rows) == _matrix_bytes(g1["rows"])
                 and _matrix_bytes(c3.q2.rows) == _matrix_bytes(g2["rows"])
                 and [list(l) for l in c3.q1.row_labels] == g1["labels"])
    ok = not bad and golden_ok
    detail = f"identity n=1..{max_n}, n=3 matrices match transcription"
    if bad:
        detail = f"identity fails at n={bad}"
    elif not golden_ok:
        detail = "n=3 matrices differ from transcription"
    return CheckResult("identity-42", ok, detail)


def check_audit_42(max_n: int = 4) -> CheckResult:
    """Every cell's necklace count equals its entry; totals are 6n^4."""
    summaries = []
    ok = True
    for n in range(1, max_n + 1):
        report = cert42.accounting_audit(n)
        ok = ok and report.ok
        summaries.append(f"n={n}:{report.total_assigned}")
    return CheckResult("audit-42", ok,
                       "totals " + ", ".join(summaries) if ok
                       else "cell mismatch, run audit42 for details")


def check_entry_sums(max_n_42: int = 8, max_n_84: int = 7) -> CheckResult:
    """Entry sums are 6n^4 and 70n^4; the symbolic sum collapses at n=5."""
    bad = []
    for n in range(1, max_n_42 + 1):
        if cert42.build_certificate42(n).entry_sum() != 6 * n**4:
            bad.append(("(4,2)", n))
    for n in range(2, max_n_84 + 1):
        if cert84.build_certificate84(n).entry_sum() != 70 * n**4:
            bad.append(("(8,4)", n))
    sym = cert84.build_certificate84(5, params=cert84.SYMBOLIC).entry_sum()
    reduced = cert84.derive_param_system(5).reduce_affine(sym)
    if reduced != 70 * 5**4:
        bad.append(("symbolic n=5", reduced))
    return CheckResult(
        "entry-sums", not bad,
        f"6n^4 for n<={max_n_42}, 70n^4 for n<={max_n_84}, symbolic sum "
        f"collapses to 43750" if not bad else f"failures: {bad}")


def check_identity_84(max_n: int = 7, big: bool = False) -> CheckResult:
    """Assembled squares equal the diagonal-A coefficient polynomial."""
    top = 9 if big else max_n
    bad = []
    for n in range(1, top + 1):
        cert = cert84.build_certificate84(n)
        target = necklace.trace_coeff_necklace(
            TraceProblem(8, 4, n, diagonal_a=True))
        if cert84.assemble_sos_84(cert) != target:
            bad.append(n)
    return CheckResult("identity-84", not bad,
                       f"identity holds for n=1..{top}" if not bad
                       else f"identity fails at n={bad}")


def check_param_system() -> CheckResult:
    """The re-derived constraints match the published 11-equation system."""
    derived = cert84.derive_param_system(5)
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
        (cert84.derive_param_system(4).equivalent(derived),
         "n=4 derivation disagrees"),
    ) if not holds]
    return CheckResult(
        "param-system", not failures,
        f"derived system (n=5): {failures[0]}" if failures else
        f"rank {derived.rank}, equivalent to published system, published "
        f"values satisfy it, n=4 derivation agrees")


def check_psd_suite(max_n_gram: int = 8, max_n_schur: int = 6) -> CheckResult:
    """Structured PSD certificates for all certificate matrices."""
    problems = []
    notes = []
    for n in range(1, max_n_gram + 1):
        cert = cert42.build_certificate42(n)
        u, scale = cert42.build_q1_gram_factor(n)
        if not psdcert.verify_gram_factor(cert.q1, u, scale).psd:
            problems.append(f"gram n={n}")
        if n >= 2:
            left, right = cert42.q2_kron_factors(n)
            if not psdcert.verify_tensor_psd(cert.q2, left, right).psd:
                problems.append(f"tensor n={n}")
    for n in range(2, max_n_schur + 1):
        q2 = cert84.build_q2_84(n)
        split = n * (n - 1)
        comp = psdcert.schur_complement(q2, split)
        diag_ok = all(comp[i][i] == Fraction(52, 5) for i in range(comp.size))
        off_ok = all(comp[i][j] == 0 for i in range(comp.size)
                     for j in range(comp.size) if i != j)
        if not (diag_ok and off_ok and psdcert.verify_schur(q2, split).psd):
            problems.append(f"schur n={n}")
    q3 = cert84.build_certificate84(5).q3_matrix()
    cp_cert = psdcert.verify_charpoly_signs(q3)
    want = golden.load("q3_charpoly_n5_84")
    if not (cp_cert.psd and cp_cert.nullity == want["nullity"]
            and cp_cert.witness["charpoly"] == want["coeffs_desc"]):
        problems.append("q3 n=5 charpoly")
    for n_sub in (2, 3, 4):
        keep = cert84.z3_restriction_indices(5, n_sub)
        expected = cert84.build_certificate84(n_sub).q3_matrix()
        try:
            sub_cert = psdcert.verify_submatrix_psd(q3, keep, expected=expected)
        except psdcert.SubmatrixMismatch as exc:
            problems.append(f"q3 n={n_sub} pattern: {exc}")
            continue
        if not sub_cert.psd:
            problems.append(f"q3 n={n_sub} not psd")
    return CheckResult(
        "psd-certificates", not problems,
        "gram/tensor/schur/charpoly/submatrix routes all certify"
        if not problems else f"failures: {problems}", notes=notes)


def q3_psd_report(n: int) -> str:
    """Informational: PSD status of the degree-8 Q3 beyond the proven range."""
    cert = psdcert.verify_charpoly_signs(
        cert84.build_certificate84(n).q3_matrix())
    if cert.psd:
        return f"Q3(n={n}) with published values: PSD, nullity {cert.nullity}"
    k = cert.witness["violating_k"]
    return (f"Q3(n={n}) with published values: NOT PSD "
            f"(e_{k} = {cert.witness['violating_e']} < 0); unproven range")


def check_square_formula() -> CheckResult:
    """The explicit square expansion equals the r = 0 coefficient."""
    bad = []
    for m in (2, 4, 6):
        for n in (1, 2, 3):
            if necklace.expand_square_formula(m, n) != \
                    necklace.trace_coeff_necklace(TraceProblem(m, 0, n)):
                bad.append((m, n))
    return CheckResult("square-formula-r0", not bad,
                       "m in {2,4,6}, n<=3 all equal" if not bad
                       else f"mismatch at {bad}")


def check_sdp_roundtrip(tmpdir: Optional[str] = None) -> CheckResult:
    """Export/import identity; certificates pass verification; a
    perturbed certificate is rejected."""
    import os
    import tempfile

    problems = []
    ctx = tempfile.TemporaryDirectory() if tmpdir is None else None
    base = tmpdir or ctx.name
    try:
        basis42 = sdpio.certificate_basis_42(2)
        prob42 = sdpio.build_sdp(TraceProblem(4, 2, 2), basis42)
        path42 = os.path.join(base, "p42.dat-s")
        sdpio.export_sdpa(prob42, path42)
        if sdpio.import_sdpa(path42) != prob42:
            problems.append("(4,2,2) round trip")
        basis84 = sdpio.certificate_basis_84(3)
        prob84 = sdpio.build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis84)
        path84 = os.path.join(base, "p84.dat-s")
        sdpio.export_sdpa(prob84, path84)
        if sdpio.import_sdpa(path84) != prob84:
            problems.append("(8,4,3) round trip")

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
    finally:
        if ctx is not None:
            ctx.cleanup()
    return CheckResult("sdp-roundtrip", not problems,
                       "round trips exact, certificates accepted, "
                       "perturbation rejected" if not problems
                       else f"failures: {problems}")


def _random_poly(rng: random.Random, n: int = 3, max_terms: int = 4,
                 max_deg: int = 8) -> poly.Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        deg = rng.randint(0, max_deg)
        vs = [poly.var(rng.choice("ab"), rng.randint(1, n), rng.randint(1, n))
              for _ in range(deg)]
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mono = poly.mono_from_vars(vs)
        terms[mono] = terms.get(mono, 0) + coeff
    return poly.Polynomial(terms)


def check_properties(cases: int = 1000) -> CheckResult:
    """Ring laws on random polynomials, relabeling invariance and the
    a<->b swap symmetry."""
    rng = random.Random(0x5305)
    problems = []
    ran = 0
    while ran < cases:
        p, q, r = (_random_poly(rng) for _ in range(3))
        if p + q != q + p:
            problems.append("commutativity")
        if (p * q) * r != p * (q * r):
            problems.append("associativity")
        if p * (q + r) != p * q + p * r:
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


def run_all(big: bool = False) -> List[CheckResult]:
    results = [
        check_dual_oracle(),
        check_counterexample(),
        check_identity_42(),
        check_audit_42(),
        check_entry_sums(),
        check_identity_84(big=big),
        check_param_system(),
        check_psd_suite(),
        check_square_formula(),
        check_sdp_roundtrip(),
        check_properties(),
    ]
    top = 9 if big else 7
    results[5].notes.extend(q3_psd_report(n) for n in range(6, top + 1))
    return results
