from fractions import Fraction

import pytest

from tracesos import golden
from tracesos.cert42 import (
    accounting_audit,
    assemble_sos_42,
    build_certificate42,
    build_q1_gram_factor,
    classify_necklace,
    entry_count,
    index_sets,
    q2_kron_factors,
    z2_vector,
)
from tracesos.necklace import Necklace, TraceProblem, enumerate_necklaces, \
    trace_coeff_matrix, trace_coeff_necklace
from tracesos.poly import mono_str, quadratic_form
from tracesos.psdcert import verify_gram_factor, verify_tensor_psd


def test_index_sets_order():
    assert index_sets(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert len(index_sets(5)) == 5 + 10


def test_q1_entries_are_intersection_counts():
    cert = build_certificate42(4)
    labels = index_sets(4)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            assert cert.q1[i][j] == 6 * len(set(x) & set(y))


def test_entry_count_is_the_certificate_size():
    for n in range(1, 8):
        c = build_certificate42(n)
        vectors = [c.z1, *c.z2_family.values()]
        assert entry_count(n) == (len(c.q1.rows) ** 2 + len(c.q2.rows) ** 2
                                  + sum(map(len, vectors))), n
    assert entry_count(0) == entry_count(-3) == 0


def test_n1_certificate():
    cert = build_certificate42(1)
    assert cert.q1.rows == ((Fraction(6),),)
    assert [mono_str(m) for m in cert.z1] == ["a[1,1]*b[1,1]"]
    assert cert.z2_family == {}


def test_n3_matches_published_tables():
    cert = build_certificate42(3)
    assert [list(row) for row in cert.q1.rows] == \
        golden.load("q1_n3_42")["rows"]
    assert [list(row) for row in cert.q2.rows] == \
        golden.load("q2_n3_42")["rows"]
    assert [list(l) for l in cert.q1.row_labels] == \
        golden.load("q1_n3_42")["labels"]
    assert [mono_str(m) for m in cert.z1] == \
        golden.load("z1_n3_42")["entries"]
    vectors = golden.load("z2_n3_42")["vectors"]
    for (i, j), vec in cert.z2_family.items():
        assert [mono_str(m) for m in vec] == vectors[f"{i}_{j}"]


def test_assembly_identity():
    for n in range(1, 5):
        cert = build_certificate42(n)
        assert assemble_sos_42(cert) == \
            trace_coeff_necklace(TraceProblem(4, 2, n)), n
    cert3 = build_certificate42(3)
    assert assemble_sos_42(cert3) == trace_coeff_matrix(TraceProblem(4, 2, 3))


def test_symmetrized_assembly_agrees():
    """The half-sum over all ordered pairs equals the i < j assembly."""
    for n in (2, 3):
        cert = build_certificate42(n)
        half_q2 = [[x / 2 for x in row] for row in cert.q2.rows]
        symmetrized = quadratic_form(
            [(cert.q1.rows, cert.z1)]
            + [(half_q2, z2_vector(n, i, j))
               for i in range(1, n + 1) for j in range(1, n + 1) if i != j])
        assert symmetrized == assemble_sos_42(cert)


def test_classification_published_examples():
    # split-accounting pair: same monomial, different collections
    first = Necklace(("a", "a", "b", "b"), (2, 2, 2, 3))
    tag = classify_necklace(first)
    assert tag.collection == "C2c"
    assert tag.cell == ("Q1", (2,), (2, 3))
    second = Necklace(("a", "b", "a", "b"), (2, 2, 3, 2))
    tag2 = classify_necklace(second)
    assert tag2.collection == "C4"
    assert tag2.cell == ("Q2", (2, 3), "UR", 2, 2)
    # alternating letters, uniform edges: one of the six on a diagonal 6
    uniform = Necklace(("a", "b", "a", "b"), (4, 4, 4, 4))
    tag3 = classify_necklace(uniform)
    assert tag3.collection == "C2a"
    assert tag3.cell == ("Q1", (4,), (4,))


def test_classification_is_total_and_single_valued():
    tags = set()
    for k in enumerate_necklaces(TraceProblem(4, 2, 3)):
        tag = classify_necklace(k)
        assert tag.collection in {"C1", "C2a", "C2b", "C2c", "C2d", "C3", "C4"}
        tags.add(tag.collection)
    assert tags == {"C1", "C2a", "C2b", "C2c", "C2d", "C3", "C4"}


def test_classifier_rejects_other_shapes():
    with pytest.raises(ValueError):
        classify_necklace(Necklace(("a", "b", "b", "b"), (1, 1, 1, 1)))
    with pytest.raises(ValueError):
        classify_necklace(Necklace(("a",) * 6, (1,) * 6))


def test_c1_balanced_edge_structure():
    # collection 1: two balanced edges matching, unbalanced mismatched
    for k in enumerate_necklaces(TraceProblem(4, 2, 3)):
        if classify_necklace(k).collection != "C1":
            continue
        balanced = [k.edges[t] for t in range(4)
                    if k.letters[t] != k.letters[(t + 1) % 4]]
        unbalanced = [k.edges[t] for t in range(4)
                      if k.letters[t] == k.letters[(t + 1) % 4]]
        assert len(balanced) == 2 and balanced[0] == balanced[1]
        assert len(unbalanced) == 2 and unbalanced[0] != unbalanced[1]


def test_audit_small_sizes():
    r1 = accounting_audit(1)
    assert r1.ok and r1.total_assigned == 6
    assert r1.counts == {("Q1", (1,), (1,)): 6}
    r2 = accounting_audit(2)
    assert r2.ok and r2.total_assigned == 96
    r3 = accounting_audit(3)
    assert r3.ok and r3.total_assigned == 486
    assert "clean" in r3.summary()


def test_audit_entry_sum_identity_n2():
    n = 2
    q_sum = 6 * (n + 2 * n * (n - 1) + 2 * (n * (n - 1) // 2) * (n - 1)) \
        + (n * (n - 1) // 2) * 12 * n**2
    assert q_sum == 96 == 6 * n**4
    cert = build_certificate42(n)
    assert cert.entry_sum() == 96


def test_audit_budget():
    from tracesos.necklace import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        accounting_audit(3, budget=10)


def test_audit_failure_raises():
    report = accounting_audit(2)
    assert report.ok
    report.mismatches.append((("Q1", (1,), (1,)), 6, 5))
    assert not report.ok
    assert "1 mismatches" in report.summary()


def test_audit_reads_the_built_matrices(monkeypatch):
    from tracesos import cert42
    from tracesos.psdcert import RationalMatrix

    real = cert42.build_q2

    def bad_q2(n):
        rows = [list(row) for row in real(n).rows]
        rows[0][1] = rows[1][0] = Fraction(5)
        return RationalMatrix(rows)

    monkeypatch.setattr(cert42, "build_q2", bad_q2)
    report = accounting_audit(2)
    assert not report.ok
    assert report.mismatches == [
        (("Q2", (1, 2), "UL", 1, 2), 5, 4), (("Q2", (1, 2), "UL", 2, 1), 5, 4)]


def test_entry_sums_up_to_8():
    for n in range(1, 9):
        assert build_certificate42(n).entry_sum() == 6 * n**4


def test_gram_factor_family():
    for n in (1, 3, 4):
        cert = build_certificate42(n)
        u, scale = build_q1_gram_factor(n)
        assert scale == 6
        got = verify_gram_factor(cert.q1, u, scale)
        assert got.psd
    u3, _ = build_q1_gram_factor(3)
    assert [list(row) for row in u3.rows] == \
        golden.load("u_n3_42")["rows"]


def test_q2_kron_structure():
    for n in (2, 3, 4):
        cert = build_certificate42(n)
        left, right = q2_kron_factors(n)
        assert verify_tensor_psd(cert.q2, left, right).psd


def test_z2_vector_shape():
    vec = z2_vector(3, 1, 2)
    assert len(vec) == 6
    assert mono_str(vec[0]) == "a[1,1]*b[1,2]"
    assert mono_str(vec[3]) == "a[1,2]*b[1,1]"
    with pytest.raises(ValueError):
        z2_vector(3, 2, 2)
