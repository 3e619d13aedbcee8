import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracesos import cert84, checks, golden
from tracesos.cert84 import (
    Q3_CLASSES,
    Q3_FIXED,
    SYMBOLIC,
    Certificate84,
    InconsistentSystem,
    InvalidDimension,
    LinearForm,
    ParamSystem,
    assemble_sos_84,
    build_certificate84,
    build_q2_84,
    canonical_equation,
    coefficient_match_equations,
    decide_q3,
    derive_param_system,
    entry_count,
    equation_str,
    published_params,
    q2_labels,
    q3_blocks,
    q3_grid,
    z3_block_sizes,
    z3_labels,
    z3_restriction_indices,
    z3_vector,
)
from tracesos.necklace import TraceProblem, trace_coeff_matrix, \
    trace_coeff_necklace
from tracesos.poly import Polynomial, mono_from_vars, mono_str, var
from tracesos.psdcert import RationalMatrix, verify_ldlt


def test_block_sizes_sum():
    for n in range(2, 9):
        assert sum(z3_block_sizes(n)) == 6 * n - 6


def test_z3_vector_n2_degenerates():
    vec = z3_vector(2, 1, 2)
    assert len(vec) == 6
    sizes = z3_block_sizes(2)
    assert sizes == (2, 2, 0, 0, 1, 0, 1)
    texts = [mono_str(m) for m in vec]
    assert texts == [
        "a[1,1]^2*b[1,1]*b[1,2]",
        "a[2,2]^2*b[1,2]*b[2,2]",
        "a[1,1]*a[2,2]*b[1,1]*b[1,2]",
        "a[1,1]*a[2,2]*b[1,2]*b[2,2]",
        "a[1,1]^2*b[1,2]*b[2,2]",
        "a[2,2]^2*b[1,1]*b[1,2]",
    ]


def test_z3_vectors_match_published_n5():
    vectors = golden.load("z3_n5_84")["vectors"]
    for i in range(1, 6):
        for j in range(i + 1, 6):
            got = [mono_str(m) for m in z3_vector(5, i, j)]
            assert got == vectors[f"{i}_{j}"], (i, j)


def test_z2_and_q2_match_published_n5():
    cert = build_certificate84(5)
    assert [mono_str(m) for m in cert.z2] == \
        golden.load("z2_n5_84")["entries"]
    assert [list(row) for row in cert.q2.rows] == \
        golden.load("q2_n5_84")["rows"]
    assert mono_str(cert.z2[0]) == "a[1,1]^2*b[1,2]^2"
    assert len(cert.z2) == 5 * 4 + 10


def test_q2_from_its_pairs_is_the_entry_rule():
    # the rule Q2 was built from, one call per entry
    def entry(u, v):
        if u == v:
            return 20 if u[0] == "o" else 36
        return 16 if u[0] != v[0] and sorted(u[1:]) == sorted(v[1:]) else 0

    for n in range(1, 10):
        labels = q2_labels(n)
        want = RationalMatrix([[entry(u, v) for v in labels] for u in labels],
                              row_labels=labels)
        got = build_q2_84(n)
        assert (got.rows, got.row_labels, got.col_labels) == \
            (want.rows, want.row_labels, want.col_labels), n


def _z3_vector_per_label(n, i, j):
    """The z3 constructor that looked up four variables per label."""
    out = []
    for block, side, k in z3_labels(n, i, j):
        at = {"i": i, "j": j, "k": k, "s": i if side == "i" else j}
        p, q = (at[c] for c in cert84.Z3_A_PART[block])
        out.append(mono_from_vars([var("a", p, p), var("a", q, q),
                                   var("b", i, k), var("b", j, k)]))
    return out


def test_entry_count_is_the_certificate_size():
    for n in range(1, 8):
        c = build_certificate84(n)
        vectors = [c.z1, c.z2, *c.z3_family.values()]
        assert entry_count(n) == (len(c.q1.rows) ** 2 + len(c.q2.rows) ** 2
                                  + len(c.q3) ** 2 + sum(map(len, vectors))), n
    assert entry_count(0) == entry_count(-3) == 0


def test_z3_vector_is_the_per_label_constructor():
    for n in range(2, 10):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert z3_vector(n, i, j) == _z3_vector_per_label(n, i, j)


def _q3_grid_per_entry(n, vals):
    """Q3 with the table rule walked for every entry, one Fraction each."""
    labels = z3_labels(n, 1, 2)

    def value(rule):
        if isinstance(rule, int):
            return Fraction(rule)
        return rule if vals is None else vals[int(rule[1:])]

    return tuple(tuple(value(cert84._q3_rule(u, v)) for v in labels)
                 for u in labels)


def test_q3_resolved_per_label_class_is_the_per_entry_walk():
    points = [(None, published_params()), (SYMBOLIC, None)]
    points += [(x, x) for x in _match_points()[1:3]]
    rules = {x for rule in cert84.Q3_TABLE.values() for x in _leaves(rule)}
    for n in range(2, 13):
        for params, vals in points:
            grid = q3_grid(n, params)
            assert grid == _q3_grid_per_entry(n, vals), (n, params)
            assert all(type(x) in (Fraction, str) for row in grid for x in row)
            # one object per rule: an int rule's Fraction is shared
            assert len({id(x) for row in grid for x in row}) <= len(rules)


def _leaves(rule):
    if not isinstance(rule, tuple):
        return [rule]
    return _leaves(rule[1]) + _leaves(rule[2])


def test_q3_matches_published_n5():
    cert = build_certificate84(5)
    rows = golden.load("q3_n5_84")["rows"]
    assert [list(row) for row in cert.q3] == rows
    assert cert.q3[0][1] == 24  # x9
    assert list(cert.q3[0]) == \
        [120, 24, 40, 30, 12, 12, 12, 20, 8, 20, 8, 20, 8,
         20, 20, 20, 20, 10, 10, 10, 4, 4, 4, 4]


def test_q3_symbolic_matches_published_pattern():
    grid = q3_grid(5, params=SYMBOLIC)
    want = golden.load("q3_symbolic_n5_84")["entries"]
    for i in range(24):
        for j in range(24):
            x = grid[i][j]
            if isinstance(x, str):
                assert x == want[i][j], (i, j)
            else:
                assert type(x) is Fraction and x == want[i][j], (i, j)


def test_q3_is_structurally_symmetric():
    for n in (2, 3, 5):
        grid = q3_grid(n, params=SYMBOLIC)
        d = len(grid)
        for i in range(d):
            for j in range(d):
                assert grid[i][j] == grid[j][i]


def test_restricted_grid_is_the_smaller_grid():
    for params in (None, SYMBOLIC):
        grids = {n: q3_grid(n, params) for n in range(2, 10)}
        for n in range(3, 10):
            for n_sub in range(2, n):
                keep = z3_restriction_indices(n, n_sub)
                assert tuple(tuple(grids[n][u][v] for v in keep)
                             for u in keep) == grids[n_sub], (n, n_sub)


def test_q1_is_70_identity():
    cert = build_certificate84(3)
    assert cert.q1.rows == tuple(
        tuple(Fraction(70 if i == j else 0) for j in range(3))
        for i in range(3))
    assert [mono_str(m) for m in cert.z1] == [
        "a[1,1]^2*b[1,1]^2", "a[2,2]^2*b[2,2]^2", "a[3,3]^2*b[3,3]^2"]


def test_invalid_dimension():
    with pytest.raises(InvalidDimension):
        build_certificate84(0)
    with pytest.raises(ValueError):
        z3_vector(3, 2, 2)


def test_n1_convention_matches_scalar_coefficient():
    cert = build_certificate84(1)
    assert cert.z2 == [] and cert.z3_family == {}
    want = Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 4 + [var("b", 1, 1)] * 4), 70)
    assert assemble_sos_84(cert) == want
    assert trace_coeff_necklace(TraceProblem(8, 4, 1, diagonal_a=True)) == want


def test_identity_small_n():
    for n in range(2, 5):
        cert = build_certificate84(n)
        target = trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True))
        assert assemble_sos_84(cert) == target, n


def test_identity_n5_against_matrix_oracle():
    cert = build_certificate84(5)
    target = trace_coeff_matrix(TraceProblem(8, 4, 5, diagonal_a=True))
    assert assemble_sos_84(cert) == target


def test_missing_param_values_rejected():
    with pytest.raises(ValueError):
        build_certificate84(3, params={1: 30})


def test_entry_sums():
    assert build_certificate84(2).entry_sum() == 1120
    assert build_certificate84(5).entry_sum() == 43750


def test_symbolic_entry_sum_reduces_to_constant():
    sym = build_certificate84(5, params=SYMBOLIC).entry_sum()
    assert isinstance(sym, LinearForm)
    assert str(build_certificate84(2, params=SYMBOLIC).entry_sum()) == \
        "824 + 4*x1 + 4*x2 + 2*x3 + 4*x4 + 2*x9 + 2*x10"
    system = derive_param_system(5)
    x_part = {k: c for k, c in sym.items() if k}
    assert system.implies(canonical_equation(x_part, 70 * 5**4 - sym[0]))
    assert not system.implies(canonical_equation(x_part, 70 * 5**4 + 1 - sym[0]))


def test_derive_param_system_refuses_small_n():
    with pytest.raises(InvalidDimension):
        derive_param_system(3)


def test_derived_system_matches_published():
    derived = derive_param_system(5)
    published = ParamSystem.published()
    assert derived.rank == 11
    assert len(derived.equations) == 11
    assert derived.equivalent(published)
    for eq in published.equations:
        assert derived.contains(eq), equation_str(eq)
    assert derived.contains(((( 1, 1), (2, 1)), 32))
    assert derived.contains((((13, 1), (21, 1), (22, 1)), 8))


def test_param_check_names_first_failed_condition(monkeypatch):
    from tracesos import checks

    assert checks.check_param_system().detail.startswith("rank 11, equivalent")
    published = ParamSystem.published()
    weaker = ParamSystem.from_equations(published.equations[1:])
    monkeypatch.setattr(ParamSystem, "published", classmethod(lambda cls: weaker))
    result = checks.check_param_system()
    assert not result.ok
    assert result.detail == \
        "derived system (n=5): not equivalent to the published system"


def test_run_all_derives_each_system_once(monkeypatch):
    from collections import Counter

    from tracesos import cert84, checks

    calls = Counter()
    derive = cert84.derive_param_system

    def counting(n):
        calls[n] += 1
        return derive(n)

    monkeypatch.setattr(cert84, "derive_param_system", counting)
    assert all(result.ok for result in checks.run_all())
    assert calls == {5: 1}


def test_entry_sums_do_not_derive_the_system(monkeypatch):
    # the collapse is checked against the published system, so a failed
    # derivation is reported once, by param-system
    def fails(n):
        raise InconsistentSystem(f"derived system (n={n}): planted")

    monkeypatch.setattr(cert84, "derive_param_system", fails)
    assert checks.check_entry_sums().ok
    result = checks.check_param_system()
    assert not result.ok and result.detail == "derived system (n=5): planted"


@pytest.mark.parametrize("dropped", range(11))
def test_entry_sum_collapse_needs_every_published_equation(monkeypatch,
                                                           dropped):
    published = ParamSystem.published().equations
    weaker = ParamSystem.from_equations(published[:dropped]
                                        + published[dropped + 1:])
    monkeypatch.setattr(ParamSystem, "published", classmethod(lambda cls: weaker))
    result = checks.check_entry_sums()
    assert not result.ok
    assert result.detail.startswith("failures: [('symbolic n=5', '25670 + ")


def test_renamed_q3_parameter_fails_the_param_check(monkeypatch):
    # x7 at block pair (1, 3) renamed to x8: the derivation still succeeds
    # but its system is no longer the published one
    from tracesos import cert84, checks

    monkeypatch.setitem(cert84.Q3_TABLE, (1, 3), "x8")
    result = checks.check_param_system()
    assert not result.ok
    assert result.detail == \
        "derived system (n=5): not equivalent to the published system"


def _rref_or_none(system):
    try:
        return system.rref()
    except InconsistentSystem:
        return None


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.tuples(st.dictionaries(st.integers(1, 6),
                                          st.integers(-6, 6).filter(bool),
                                          min_size=1, max_size=4),
                          st.integers(-9, 9)), min_size=2, max_size=4),
       st.data())
def test_row_operations_leave_rref_unchanged(rows, data):
    # adding f times row i to row j keeps the solution set, so the rref
    # (or the inconsistency) must not move, and it stays exact
    i, j = data.draw(st.permutations(range(len(rows))))[:2]
    f = data.draw(st.integers(-4, 4).filter(bool))
    coeffs = dict(rows[j][0])
    for k, c in rows[i][0].items():
        coeffs[k] = coeffs.get(k, 0) + f * c
    assume(any(coeffs.values()))
    combined = rows[:j] + [(coeffs, rows[j][1] + f * rows[i][1])] + rows[j + 1:]
    before, after = (_rref_or_none(ParamSystem.from_equations(
        canonical_equation(c, r) for c, r in eqs)) for eqs in (rows, combined))
    assert before == after
    for terms, rhs in before or ():
        assert all(type(c) is Fraction for _, c in terms)
        assert type(rhs) is Fraction


def test_canonical_equation_reads_ints_and_fractions_alike():
    cases = [({3: -4, 1: 0, 7: 6}, 10), ({2: 6, 5: -9}, -12), ({4: -1}, 0),
             ({1: 12, 2: 18}, 30), ({1: Fraction(1, 2), 2: 3}, Fraction(5, 3))]
    for coeffs, rhs in cases:
        got = canonical_equation(coeffs, rhs)
        assert got == canonical_equation(
            {k: Fraction(c) for k, c in coeffs.items()}, Fraction(rhs))
        assert all(type(c) is int for _, c in got[0]) and type(got[1]) is int
    # negative first coefficient, gcd 2; fractions cleared by their lcm
    assert canonical_equation({3: -4, 1: 0, 7: 6}, 10) == (((3, 2), (7, -3)), -5)
    assert canonical_equation({1: 12, 2: 18}, 30) == (((1, 2), (2, 3)), 5)
    assert canonical_equation({1: Fraction(1, 2), 2: 3}, Fraction(5, 3)) == \
        (((1, 3), (2, 18)), 10)
    with pytest.raises(ValueError, match="empty equation"):
        canonical_equation({1: 0, 2: Fraction(0)}, 3)


@pytest.fixture(scope="module")
def derived5():
    return derive_param_system(5)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_implies_is_membership_in_the_span(derived5, data):
    # a rational combination of the system's equations, its constant
    # shifted by c, is implied iff c = 0, and iff adding it to the system
    # leaves the rref unchanged
    picks = data.draw(st.lists(st.tuples(
        st.sampled_from(derived5.equations),
        st.fractions(-5, 5, max_denominator=6).filter(bool)),
        min_size=1, max_size=4))
    shift = data.draw(st.one_of(
        st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4)))
    coeffs, rhs = {}, Fraction(0)
    for (terms, r), f in picks:
        for k, c in terms:
            coeffs[k] = coeffs.get(k, 0) + f * c
        rhs += f * r
    assume(any(coeffs.values()))
    eq = canonical_equation(coeffs, rhs + shift)
    joined = ParamSystem.from_equations(derived5.equations + (eq,))
    assert derived5.implies(eq) == (shift == 0)
    assert derived5.implies(eq) == (_rref_or_none(joined) == derived5.rref())


def test_derivation_stable_between_n4_and_n5():
    assert derive_param_system(4).equivalent(derive_param_system(5))


def test_matching_conditions_follow_from_system_for_all_n():
    # with symbolic parameters, every coefficient of (assembled - target)
    # vanishes on the full system's solution set, for each n in 2..7
    from tracesos.cert84 import coefficient_match_equations

    full = derive_param_system(5)
    for n in (2, 3, 6, 7):
        forced = coefficient_match_equations(n)
        assert all(full.implies(eq) for eq in forced.equations), n
    for n in (6, 7):
        assert coefficient_match_equations(n).equivalent(full), n


def test_unknown_param_keys_rejected():
    with pytest.raises(ValueError, match="unknown parameters x0, x23"):
        build_certificate84(2, params={**published_params(), 0: 7, 23: 5})


def test_negative_parameter_values_rejected():
    vals = published_params()
    vals[5] = -1
    with pytest.raises(ValueError):
        build_certificate84(3, params=vals)


def test_published_values_satisfy_each_equation():
    vals = published_params()
    assert vals[9] + vals[10] == 36
    system = derive_param_system(4)
    assert system.satisfied_by(vals)
    off = dict(vals)
    off[9] += 1
    assert not system.satisfied_by(off)


def test_system_implies_and_membership():
    system = derive_param_system(4)
    # a consequence that is not one of the raw equations
    combo = ((( 1, 1), (2, 1), (9, 1), (10, 1)), 68)
    assert system.implies(combo)
    assert not system.contains(combo)
    assert not system.implies((((1, 1),), 5))


def test_n4_identity_still_holds_under_any_system_solution():
    # move along the solution set: x1 += 2, x2 -= 2 keeps the system
    vals = published_params()
    vals[1] += 2
    vals[2] -= 2
    vals[17] += 2  # x2 + x17 + x18 = 32 must stay satisfied
    system = derive_param_system(4)
    assert system.satisfied_by(vals)
    for n in (2, 3):
        cert = build_certificate84(n, params=vals)
        assert assemble_sos_84(cert) == \
            trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True)), n


def _match_points():
    """The published x, x moved along the solution set, and seeded
    nonnegative points off the system."""
    moved = published_params()
    moved[1] += 2
    moved[2] -= 2
    moved[17] += 2
    rng = random.Random(25)
    off = [{k: Fraction(rng.randint(0, 40), rng.randint(1, 4))
            for k in range(1, 23)} for _ in range(3)]
    return [published_params(), moved, *off]


def test_matched_system_holds_exactly_where_the_identity_does():
    # the symbolic Q3 names x_k where Q3(x) holds x_k, and the matched
    # system holds at x exactly when the squares at x are the target
    for n in (3, 4):
        names = q3_grid(n, SYMBOLIC)
        system = coefficient_match_equations(n)
        target = trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True))
        holds = []
        for x in _match_points():
            assert q3_grid(n, x) == tuple(
                tuple(x[int(e[1:])] if isinstance(e, str) else e for e in row)
                for row in names), n
            identity = assemble_sos_84(build_certificate84(n, x)) == target
            assert system.satisfied_by(x) == identity, n
            holds.append(identity)
        assert holds == [True, True, False, False, False], n


def test_symbolic_certificate_is_refused():
    cert = build_certificate84(3, params=SYMBOLIC)
    assert cert.symbolic and not build_certificate84(3).symbolic
    for use in (assemble_sos_84, Certificate84.q3_matrix):
        with pytest.raises(ValueError, match="Q3 carries unresolved parameters"):
            use(cert)


def _block_entry(blocks, u, v):
    """The entry that F, G, A, B give for the pair-(1, 2) labels u, v."""
    f, g, a, b = blocks
    fixed = {lab: p for p, lab in enumerate(Q3_FIXED)}
    cls = {c: p for p, c in enumerate(Q3_CLASSES)}
    if u in fixed and v in fixed:
        return f[fixed[u]][fixed[v]]
    if u in fixed or v in fixed:
        u, v = (u, v) if u in fixed else (v, u)
        return g[fixed[u]][cls[v[:2]]]
    return (a if u[2] == v[2] else b)[cls[u[:2]]][cls[v[:2]]]


def test_blocks_predict_every_q3_entry():
    for params in (None, SYMBOLIC):
        blocks = q3_blocks(params)
        labels = z3_labels(6, 1, 2)
        assert q3_grid(6, params) == tuple(
            tuple(_block_entry(blocks, u, v) for v in labels) for u in labels)


def test_symbolic_blocks_name_every_parameter():
    names = {x for grid in q3_blocks(SYMBOLIC) for row in grid for x in row
             if isinstance(x, str)}
    assert names == {f"x{k}" for k in range(1, 23)}


def _q3_points():
    """The published x; seeded nonnegative points far from it and near
    it; and two points where S, not M, refutes Q3(4) and Q3(5)."""
    rng = random.Random(2004)
    pub = published_params()
    far = [{k: Fraction(rng.randint(0, 40), rng.randint(1, 4))
            for k in range(1, 23)} for _ in range(3)]
    near = [{k: max(Fraction(0), v + Fraction(rng.randint(-20, 20), 100))
             for k, v in pub.items()} for _ in range(3)]
    return [pub, *far, *near, {**pub, 5: Fraction(20)}, {**pub, 16: Fraction(9)}]


@pytest.mark.parametrize("x", _q3_points())
def test_block_decision_is_the_full_decision(x):
    for n in range(2, 13):
        q = RationalMatrix(q3_grid(n, x))
        full, got = verify_ldlt(q), decide_q3(n, x)
        assert (got.psd, got.nullity) == (full.psd, full.nullity), n
        if not got.psd:  # the lifted witness, on the full Q3(n)
            v = got.vector
            assert sum(v[i] * sum(a * b for a, b in zip(q[i], v))
                       for i in range(q.size)) == got.value < 0, n


def test_s_refutes_where_m_does_not():
    x = {**published_params(), 5: Fraction(20)}
    assert [decide_q3(n, x).block for n in range(3, 7)] == [
        "", "S", "S", "M(1/4)"]


def test_q3_report_builds_no_full_q3(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full Q3 built")

    monkeypatch.setattr(cert84, "build_certificate84", refuse)
    monkeypatch.setattr(cert84, "q3_grid", refuse)
    assert checks.q3_psd_report(6) == (
        "Q3(n=6) with published values: NOT PSD (vᵀQv = -23689/164772 < 0 "
        "for v lifted from M(1/4)); so NOT PSD for every n ≥ 6")
    note = checks.q3_psd_report(7)
    assert note.startswith("Q3(n=7) with published values: NOT PSD (")
    assert note.endswith("so NOT PSD for every n ≥ 7")
