from collections import Counter
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracesos.necklace import (
    BudgetExceeded,
    Necklace,
    TraceProblem,
    _growth_strings,
    _mat_mul,
    _symbolic_matrix,
    enumerate_necklaces,
    expand_square_formula,
    letter_patterns,
    planned_visits,
    rotation_class_count,
    rotation_classes,
    trace_coeff_matrix,
    trace_coeff_necklace,
    word_trace,
)
from tracesos.poly import (Polynomial, mono_from_vars, mono_str, swap_ab, var,
                           var_parts)


def necklace_monomial(k: Necklace):
    """Per-cycle reference monomial: vertex t contributes the entry of its
    letter's matrix at its two incident edge labels."""
    letters, edges = k
    return mono_from_vars(var(s, edges[t - 1], edges[t])
                          for t, s in enumerate(letters))


def test_problem_validation():
    with pytest.raises(ValueError):
        TraceProblem(3, 2, 1)
    with pytest.raises(ValueError):
        TraceProblem(4, 1, 1)
    with pytest.raises(ValueError):
        TraceProblem(4, 6, 1)
    with pytest.raises(ValueError):
        TraceProblem(4, 2, 0)
    with pytest.raises(ValueError, match="r must be even"):
        TraceProblem(4, 2, 1)._replace(r=3)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_necklaces(TraceProblem(4, 2, 3))) == 486
    assert sum(1 for _ in enumerate_necklaces(TraceProblem(4, 0, 1))) == 1
    assert TraceProblem(8, 4, 2).cycle_count() == 17920
    assert sum(1 for _ in enumerate_necklaces(TraceProblem(8, 4, 2))) == 17920


def test_enumeration_is_deterministic_and_unique():
    seen = list(enumerate_necklaces(TraceProblem(4, 2, 2)))
    assert len(set(seen)) == len(seen) == 96
    assert seen[0].letters == ("a", "a", "b", "b")
    assert seen[0].edges == (1, 1, 1, 1)
    assert seen[1].edges == (1, 1, 1, 2)  # odometer, rightmost fastest


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        list(enumerate_necklaces(TraceProblem(4, 2, 3), budget=485))
    with pytest.raises(BudgetExceeded):
        trace_coeff_necklace(TraceProblem(8, 4, 9, diagonal_a=True),
                             budget=1000)
    with pytest.raises(BudgetExceeded):
        trace_coeff_matrix(TraceProblem(8, 4, 9, diagonal_a=True),
                           budget=1000)


def test_published_figure_monomials():
    # quad cycle with letters a,a,b,b and drawn edges 2,4,5,9
    k = Necklace(("a", "a", "b", "b"), (2, 4, 5, 9))
    assert mono_str(necklace_monomial(k)) == "a[2,4]*a[2,9]*b[4,5]*b[5,9]"
    # the fifth and sixth drawn necklaces carry the same monomial without
    # being rotations or reflections of one another
    k5 = Necklace(("a", "a", "b", "b"), (5, 6, 5, 5))
    k6 = Necklace(("a", "b", "a", "b"), (5, 6, 5, 5))
    assert necklace_monomial(k5) == necklace_monomial(k6)
    assert mono_str(necklace_monomial(k5)) == "a[5,5]*a[5,6]*b[5,5]*b[5,6]"


def test_diagonal_monomials():
    k = Necklace(("a", "b", "a", "b"), (7, 7, 7, 7))
    assert mono_str(necklace_monomial(k)) == "a[7,7]^2*b[7,7]^2"
    for k in enumerate_necklaces(TraceProblem(4, 2, 3, diagonal_a=True)):
        assert all(i == j for kind, i, j
                   in map(var_parts, necklace_monomial(k)) if kind == "a"), k


def test_diagonal_count_conservation():
    # the diagonal enumeration is the full one filtered to the cycles whose
    # a-vertices sit between equal labels; every other cycle vanishes
    for m, r, n in [(8, 4, 2), (6, 2, 3), (4, 0, 2), (4, 4, 2)]:
        full = list(enumerate_necklaces(TraceProblem(m, r, n)))
        live = {k for k in full
                if all(k.edges[t - 1] == k.edges[t]
                       for t, s in enumerate(k.letters) if s == "a")}
        p = TraceProblem(m, r, n, diagonal_a=True)
        diag = list(enumerate_necklaces(p))
        assert len(full) == TraceProblem(m, r, n).cycle_count()
        assert len(diag) == len(set(diag)) == comb(m, r) * n ** max(r, 1)
        assert set(diag) == live, (m, r, n)


def test_rotation_classes():
    for m in range(1, 13):
        for r in range(m + 1):
            assert sum(w for _, w in rotation_classes(m, r)) == comb(m, r)
    assert sorted(w for _, w in rotation_classes(8, 4)) == [2, 4] + [8] * 8
    assert planned_visits(TraceProblem(8, 4, 9, diagonal_a=True),
                          skip_zero=True) == 10 * 9**4
    assert planned_visits(TraceProblem(8, 4, 2)) == 10 * 2**8


def test_rotation_class_count_is_the_listed_count():
    for m in range(1, 15):
        for r in range(m + 1):
            assert rotation_class_count(m, r) == len(rotation_classes(m, r))


def test_budget_refuses_before_listing_a_pattern(monkeypatch):
    def refuse(m, r):
        raise AssertionError("letter patterns listed")

    monkeypatch.setattr("tracesos.necklace.letter_patterns", refuse)
    p = TraceProblem(24, 12, 2)
    assert planned_visits(p) == 1891127787520
    with pytest.raises(BudgetExceeded, match="needs 1891127787520 visits"):
        trace_coeff_necklace(p, budget=10**8)


def stirling2(size: int, k: int) -> int:
    """Set partitions of ``size`` items into k blocks."""
    if not size or not k:
        return int(size == k)
    return k * stirling2(size - 1, k) + stirling2(size - 1, k - 1)


def test_growth_strings():
    for size, most, count in [(4, 4, 15), (8, 8, 4140), (8, 3, 1094)]:
        strings = _growth_strings(size, most)
        assert len(strings) == count == sum(stirling2(size, k)
                                            for k in range(most + 1))
        assert len({s for s, _ in strings}) == count
        for s, k in strings:
            assert k == len(set(s)) <= most
            assert [v for t, v in enumerate(s) if v not in s[:t]] == \
                list(range(k))
    # each labelling by [n] is one growth string R and one injective
    # relabelling of its k values, so the strings cover n^L exactly
    for size in range(1, 7):
        for n in range(1, 6):
            assert sum(perm(n, k) for _, k in
                       _growth_strings(size, min(n, size))) == n**size


def test_oracle_matches_its_definition():
    # the rotation-class sum equals the plain sum over every cycle; the
    # cut cases have n below the arc count, so the growth strings stop at
    # n values, and the lifted ones have n above it, so they stop at the
    # arc count and every term is lifted to a larger label set
    grid = [TraceProblem(m, r, n, diagonal_a=diag)
            for m in (2, 4, 6, 8) for r in sorted({0, 2, m - 2, m})
            for n in (1, 2, 3) for diag in (False, True)]
    cut = [TraceProblem(6, 2, 4), TraceProblem(6, 4, 4)]
    lifted = [TraceProblem(4, 2, 5), TraceProblem(4, 4, 5),
              TraceProblem(2, 0, 3), TraceProblem(4, 0, 3, diagonal_a=True),
              TraceProblem(6, 2, 4, diagonal_a=True),
              TraceProblem(8, 4, 5, diagonal_a=True),
              TraceProblem(8, 4, 6, diagonal_a=True)]
    assert all(1 < p.n < p.arc_count for p in cut)
    assert all(p.n > p.arc_count for p in lifted)
    for p in grid + cut + lifted:
        want = Polynomial(Counter(map(necklace_monomial,
                                      enumerate_necklaces(p))))
        assert trace_coeff_necklace(p) == want, p


def test_cycle_labels_are_its_monomial_labels():
    # every edge label sits on its two end vertices' variables, which is
    # what lets the oracle relabel the terms on {1..k} by any injective map
    for p in [TraceProblem(4, 2, 3), TraceProblem(6, 4, 3),
              TraceProblem(2, 0, 3), TraceProblem(8, 4, 4, diagonal_a=True),
              TraceProblem(6, 2, 3, diagonal_a=True),
              TraceProblem(4, 0, 3, diagonal_a=True)]:
        for k in enumerate_necklaces(p):
            assert set(k.edges) == {
                x for _, i, j in map(var_parts, necklace_monomial(k))
                for x in (i, j)}, k


def test_trace_coeff_scalar_case():
    p = trace_coeff_necklace(TraceProblem(4, 2, 1))
    want = Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 2 + [var("b", 1, 1)] * 2), 6)
    assert p == want
    assert trace_coeff_matrix(TraceProblem(4, 2, 1)) == want


def test_counterexample_evaluations():
    assign = {("a", 1, 1): 1, ("a", 1, 2): -3, ("a", 2, 2): 1,
              ("b", 1, 1): 2, ("b", 1, 2): 0, ("b", 2, 2): -1}
    assert word_trace("ABAB", 2).substitute(assign) == -31
    assert trace_coeff_necklace(TraceProblem(4, 2, 2)).substitute(assign) == 138


def test_word_trace_scalar():
    assert word_trace("AABB", 1) == Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 2 + [var("b", 1, 1)] * 2))


def test_dual_oracle_small():
    for m, r, n, diag in [(2, 0, 2, False), (2, 2, 2, False), (4, 2, 2, False),
                          (4, 4, 2, False), (6, 2, 2, False),
                          (8, 4, 3, True), (6, 4, 2, True), (8, 4, 6, True)]:
        p = TraceProblem(m, r, n, diagonal_a=diag)
        assert trace_coeff_necklace(p) == trace_coeff_matrix(p), (m, r, n)


def full_powering_coeff(p: TraceProblem) -> Polynomial:
    """Reference t^r coefficient with no use of symmetry: every entry of
    every t-slice H'[s] = H[s]*A + H[s-1]*B by a full product, then
    sum_s trace(H[s]*H[r-s]) over all n^2 index pairs of every s."""
    n, r = p.n, p.r
    a = _symbolic_matrix(n, "a", p.diagonal_a)
    b = _symbolic_matrix(n, "b", False)
    zero = [[Polynomial.zero()] * n for _ in range(n)]
    h = ([a, b] + [zero] * r)[:r + 1]
    for _ in range(p.m // 2 - 1):
        ha = [_mat_mul(hs, a) for hs in h]
        hb = [_mat_mul(hs, b) for hs in h[:-1]]
        h = ha[:1] + [[[x + y for x, y in zip(row_a, row_b)]
                       for row_a, row_b in zip(ha[s], hb[s - 1])]
                      for s in range(1, r + 1)]
    total = Polynomial.zero()
    for s in range(r + 1):
        for i in range(n):
            for k in range(n):
                total = total + h[s][i][k] * h[r - s][k][i]
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m, r, diag", [
    (2, 0, False), (2, 0, True), (4, 2, False), (4, 2, True), (4, 4, False),
    (6, 2, False), (6, 4, False), (6, 4, True), (8, 4, True)])
def test_matrix_oracle_matches_full_powering(m, r, diag, n):
    # r = 0, r = m, r/2 odd and r/2 even, at general and diagonal A: the
    # upper-triangle powering and the once-per-pair trace change no term
    p = TraceProblem(m, r, n, diagonal_a=diag)
    assert trace_coeff_matrix(p) == full_powering_coeff(p)


def test_square_formula_examples():
    assert expand_square_formula(2, 1) == Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 2))
    for m in (2, 4, 6, 8):
        for n in (1, 2, 3):
            assert expand_square_formula(m, n) == \
                trace_coeff_necklace(TraceProblem(m, 0, n)), (m, n)


def test_ab_swap_symmetry():
    for m, r, n in [(4, 0, 2), (6, 2, 2), (4, 2, 3)]:
        lhs = trace_coeff_necklace(TraceProblem(m, r, n))
        rhs = swap_ab(trace_coeff_necklace(TraceProblem(m, m - r, n)))
        assert lhs == rhs, (m, r, n)


def test_relabel_invariance():
    from tracesos.poly import relabel

    base = trace_coeff_necklace(TraceProblem(4, 2, 3))
    for perm in ({1: 2, 2: 1}, {2: 3, 3: 2}):
        assert relabel(base, perm) == base


@settings(derandomize=True)
@given(st.integers(0, 3), st.data())
def test_rotation_leaves_monomial_fixed(shift, data):
    m, r = 4, 2
    pattern = data.draw(st.sampled_from(letter_patterns(m, r)))
    edges = tuple(data.draw(st.integers(1, 4)) for _ in range(m))
    rotated = Necklace(pattern[shift:] + pattern[:shift],
                       edges[shift:] + edges[:shift])
    assert necklace_monomial(rotated) == necklace_monomial(Necklace(pattern, edges))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 0), (2, 2), (4, 2), (4, 0), (6, 2), (6, 6)]),
       st.integers(1, 2), st.booleans())
def test_dual_oracle_property(mr, n, diag):
    m, r = mr
    p = TraceProblem(m, r, n, diagonal_a=diag)
    assert trace_coeff_necklace(p) == trace_coeff_matrix(p)


def test_coefficient_mass():
    # without collection, every necklace contributes one unit
    p = TraceProblem(4, 2, 2)
    total = sum(c for c in trace_coeff_necklace(p).terms.values())
    assert total == p.cycle_count()
