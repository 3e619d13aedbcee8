"""Acceptance criteria, one test per criterion.

Every comparison is exact (tolerance zero); a criterion passes only on
literal equality.  Run with ``pytest tests/test_acceptance.py -s`` to see
one pass/fail line per criterion with timings.
"""

import time

import pytest

from tracesos import checks
from tracesos.cert42 import assemble_sos_42, build_certificate42
from tracesos.cert84 import assemble_sos_84, build_certificate84
from tracesos.necklace import TraceProblem, trace_coeff_necklace
from tracesos.poly import Polynomial, relabel, var_parts


def _report(number: int, result: checks.CheckResult, started: float):
    elapsed = time.time() - started
    status = "PASS" if result.ok else "FAIL"
    print(f"\n{status} criterion-{number} [{result.name}] "
          f"({elapsed:.1f}s): {result.detail}")
    for note in result.notes:
        print(f"     note: {note}")
    assert result.ok, result.detail


def test_criterion_1_dual_oracle():
    t0 = time.time()
    result = checks.check_dual_oracle()
    assert time.time() - t0 < 60, "dual-oracle run exceeded one minute"
    _report(1, result, t0)


def test_criterion_2_counterexample():
    t0 = time.time()
    _report(2, checks.check_counterexample(), t0)


def test_criterion_3_identity_42():
    t0 = time.time()
    _report(3, checks.check_identity_42(), t0)


def test_criterion_4_audit_42():
    t0 = time.time()
    result = checks.check_audit_42()
    assert "n=3:486" in result.detail
    _report(4, result, t0)


def test_criterion_5_entry_sums():
    t0 = time.time()
    _report(5, checks.check_entry_sums(), t0)


def test_criterion_6_identity_84():
    t0 = time.time()
    cert5 = build_certificate84(5)
    assert assemble_sos_84(cert5) == trace_coeff_necklace(
        TraceProblem(8, 4, 5, diagonal_a=True))
    assert time.time() - t0 < 300, "n = 5 identity exceeded five minutes"
    _report(6, checks.check_identity_84(), t0)


def _labels(mono) -> set:
    return {x for _, i, j in map(var_parts, mono) for x in (i, j)}


@pytest.mark.parametrize("problem, sos", [
    (lambda n: TraceProblem(4, 2, n),
     lambda n: assemble_sos_42(build_certificate42(n))),
    (lambda n: TraceProblem(8, 4, n, diagonal_a=True),
     lambda n: assemble_sos_84(build_certificate84(n))),
], ids=["(4,2)", "(8,4)"])
def test_identity_at_n4_decides_every_n(problem, sos):
    # the premises of the restriction lemma (cert42, cert84, necklace): no
    # monomial of either side uses more than arc_count = 4 labels, and the
    # size-6 squares kept to a label set S are the size-|S| squares under
    # the increasing map onto S
    p, squares = problem(6), sos(6)
    assert p.arc_count == 4
    for side in (squares, trace_coeff_necklace(p)):
        assert max(len(_labels(m)) for m in side.terms) <= p.arc_count

    def on(labels: set) -> Polynomial:
        return Polynomial({m: c for m, c in squares.terms.items()
                           if _labels(m) <= labels})

    for n_s in range(1, 6):
        assert on(set(range(1, n_s + 1))) == sos(n_s), n_s
    assert on({2, 4, 5}) == relabel(sos(3), {1: 2, 2: 4, 3: 5})


def test_restricted_psd_matrices_are_the_smaller_ones():
    # the premises of check_psd_suite's sizes: the size-6 (4,2) Q1 and U
    # and (8,4) Q2, kept to the positions whose labels lie in a set S, are
    # the size-|S| matrices under the increasing map onto S
    from tracesos import cert42, cert84
    from tracesos.psdcert import RationalMatrix

    q1, q2 = cert42.build_q1(6), cert84.build_q2_84(6)
    u, _ = cert42.build_q1_gram_factor(6)

    def inside(labels, s: set) -> list:
        return [a for a, lab in enumerate(labels) if set(lab) <= s]

    for s in [set(range(1, n_s + 1)) for n_s in range(1, 6)] + [{2, 4, 5}]:
        n_s, cols = len(s), inside(u.col_labels, s)
        assert q1.submatrix(inside(q1.row_labels, s)) == cert42.build_q1(n_s)
        assert RationalMatrix([[u[k - 1][c] for c in cols] for k in sorted(s)]
                              ) == cert42.build_q1_gram_factor(n_s)[0], s
        assert q2.submatrix(inside([lab[1:] for lab in q2.row_labels], s)
                            ) == cert84.build_q2_84(n_s), s


def test_identity_checks_catch_a_defect_first_seen_at_n4(monkeypatch):
    # each defect needs two disjoint pairs, or two indices outside {i, j},
    # so both sides still agree at n = 1..3 and first differ at n = 4; so
    # does each matrix, and a PSD suite sized at n <= 3 would miss it
    from tracesos import cert42, cert84
    from tracesos.psdcert import RationalMatrix

    build_q1, build_q2 = cert42.build_q1, cert84.build_q2_84
    before = {n: (build_q1(n), cert84.build_q2_84(n)) for n in range(1, 4)}

    def q1_plus_one_between_disjoint_pairs(n):
        q1 = build_q1(n)
        labels = q1.row_labels
        return RationalMatrix(
            [[q + (len(x) == len(y) == 2 and not set(x) & set(y))
              for y, q in zip(labels, row)]
             for x, row in zip(labels, q1.rows)], row_labels=labels)

    def q2_plus_one_between_disjoint_pairs(n):
        labels = cert84.q2_labels(n)
        return RationalMatrix(
            [[q + (not set(x[1:]) & set(y[1:])) for y, q in zip(labels, row)]
             for x, row in zip(labels, build_q2(n).rows)], row_labels=labels)

    monkeypatch.setattr(cert42, "build_q1", q1_plus_one_between_disjoint_pairs)
    monkeypatch.setattr(cert84, "build_q2_84", q2_plus_one_between_disjoint_pairs)
    # published (3, 6) reads x13 = 2 at different k; x14 = 8
    monkeypatch.setitem(cert84.Q3_TABLE, (3, 6), ("k", "x15", "x14"))
    assert before == {n: (cert42.build_q1(n), cert84.build_q2_84(n))
                      for n in range(1, 4)}
    for check in (checks.check_identity_42, checks.check_identity_84):
        result = check()
        assert not result.ok
        assert result.detail.startswith("identity fails at n=[4];"), \
            result.detail
    suite = checks.check_psd_suite()
    assert not suite.ok
    assert "'gram n=4: entry (4,9)" in suite.detail, suite.detail
    assert "'q2 n=4: entry" in suite.detail, suite.detail


def test_criterion_7_param_system():
    t0 = time.time()
    _report(7, checks.check_param_system(), t0)


def test_criterion_8_psd_certificates():
    t0 = time.time()
    result = checks.check_psd_suite()
    assert time.time() - t0 < 120, "PSD suite exceeded two minutes"
    _report(8, result, t0)


def test_criterion_9_square_formula():
    t0 = time.time()
    _report(9, checks.check_square_formula(), t0)


def test_criterion_10_sdp_roundtrip():
    t0 = time.time()
    _report(10, checks.check_sdp_roundtrip(), t0)


def test_criterion_11_property_suites():
    t0 = time.time()
    result = checks.check_properties()
    assert "ring-law" in result.detail
    _report(11, result, t0)
