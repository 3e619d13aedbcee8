"""Acceptance criteria, one test per criterion.

Every comparison is exact (tolerance zero); a criterion passes only on
literal equality.  Run with ``pytest tests/test_acceptance.py -s`` to see
one pass/fail line per criterion with timings.
"""

import time

import pytest

from tracesos import checks
from tracesos.cert84 import assemble_sos_84, build_certificate84
from tracesos.necklace import TraceProblem, trace_coeff_necklace


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


@pytest.mark.big
def test_criterion_6_identity_84_big():
    t0 = time.time()
    _report(6, checks.check_identity_84(big=True), t0)


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
