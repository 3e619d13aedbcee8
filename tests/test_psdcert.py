import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tracesos import golden
from tracesos.cert42 import build_certificate42, q2_kron_factors
from tracesos.cert84 import build_certificate84, build_q2_84, \
    z3_restriction_indices
from tracesos.psdcert import (
    FactorMismatch,
    NotAKroneckerProduct,
    PsdCertificate,
    RationalMatrix,
    SingularLeadingBlock,
    charpoly,
    replay,
    schur_complement,
    verify_charpoly_signs,
    verify_gram_factor,
    verify_ldlt,
    verify_schur,
    verify_tensor_psd,
)


def test_matrix_basics():
    m = RationalMatrix([[1, 2], [2, 5]])
    assert m.is_symmetric() and m.size == 2
    assert m.entry_sum() == 10 and m[0][0] + m[1][1] == 6
    assert m.submatrix([1]).rows == ((Fraction(5),),)
    r = RationalMatrix([[0, 1], [2, 0]])
    assert not r.is_symmetric()
    with pytest.raises(ValueError):
        r.require_symmetric()
    blob = json.dumps(m.to_jsonable())
    assert RationalMatrix.from_jsonable(json.loads(blob)) == m


def test_entries_are_shared_fractions():
    half = Fraction(1, 2)
    raw = [[1, 1.0, True, "1", 7], [7, "1/2", 0.5, half, "1/2"],
           [2**70, 2**70, -0.25, "-1/4", 0]]
    m = RationalMatrix(raw)
    for row, given in zip(m.rows, raw):
        for x, g in zip(row, given):
            assert type(x) is Fraction and x == Fraction(g), g
    assert m[1][3] is half  # a Fraction is kept as given
    # equal non-Fraction inputs (1, 1.0 and True are equal keys) share one
    # object; an equal input of another kind ("1") gets its own
    for same in ([(0, 0), (0, 1), (0, 2)], [(0, 4), (1, 0)], [(1, 1), (1, 4)],
                 [(2, 0), (2, 1)]):
        assert len({id(m[i][j]) for i, j in same}) == 1, same
    assert m[0][3] is not m[0][0] and m[1][2] is not half
    assert all(type(x) is Fraction for row in m.rows for x in row)


def test_int_rows_give_the_witnesses_of_per_entry_fractions():
    rng = random.Random(35)
    mats = [build_q2_84(3).rows, [[4, 2, 2], [2, 2, 1], [2, 1, 3]],
            [[1, 3], [3, 1]], [[0, 0, 0], [0, 1, 1], [0, 1, 1]]]
    for _ in range(20):
        d = rng.randint(1, 6)
        u = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        gram = [[sum(a * b for a, b in zip(r, c)) for c in u] for r in u]
        mats.append([[x - rng.randint(0, 2) * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(gram)])
    for rows in mats:
        ints = [[int(x) for x in row] for row in rows]
        shared = RationalMatrix(ints)
        fresh = RationalMatrix([[Fraction(x) for x in row] for row in ints])
        assert verify_ldlt(shared).to_jsonable() == verify_ldlt(fresh).to_jsonable()
        assert charpoly(shared) == charpoly(fresh)
        assert (verify_charpoly_signs(shared).to_jsonable()
                == verify_charpoly_signs(fresh).to_jsonable())


def test_charpoly_identity_2x2():
    coeffs = charpoly(RationalMatrix([[1, 0], [0, 1]]))
    assert coeffs == [1, -2, 1]


def test_charpoly_sanity_trace_det():
    m = RationalMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    coeffs = charpoly(m)
    assert coeffs[1] == -sum(m[i][i] for i in range(m.size))
    # det = (-1)^d * constant coefficient
    det = Fraction(2 * (12 - 1) - 1 * 4)
    assert coeffs[-1] == -det if m.size % 2 else det


def test_charpoly_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for trial in range(8):
        d = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(d)] for _ in range(d)]
        got = charpoly(RationalMatrix(rows))
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                            for x in row] for row in rows])
        want = sm.charpoly().all_coeffs()
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == \
            list(want), trial


def berkowitz_over_fractions(q):
    """The Fraction Berkowitz body that charpoly ran before it cleared
    denominators, kept as the reference for the integer kernel."""
    d = q.size
    rows = [list(r) for r in q.rows]
    if d == 0:
        return [Fraction(1)]
    p = [Fraction(1), -rows[0][0]]
    for k in range(2, d + 1):
        a = rows[k - 1][k - 1]
        row = rows[k - 1][: k - 1]
        col = [rows[i][k - 1] for i in range(k - 1)]
        t = [Fraction(1), -a]
        vec = row
        for _ in range(k - 1):
            t.append(-sum(vec[i] * col[i] for i in range(k - 1)))
            vec = [sum(vec[i] * rows[i][j] for i in range(k - 1))
                   for j in range(k - 1)]
        new = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            acc = Fraction(0)
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc += t[i - j] * p[j]
            new[i] = acc
        p = new
    return p


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)))


@st.composite
def square_matrices(draw):
    """Square matrices with d <= 8, not necessarily symmetric: mixed
    denominators up to 10^4, negative entries and zero rows."""
    d = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    for i in draw(st.sets(st.integers(0, max(d - 1, 0)), max_size=d)):
        rows[i] = [Fraction(0)] * d
    return RationalMatrix(rows)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices())
def test_integer_charpoly_equals_fraction_berkowitz(q):
    got = charpoly(q)
    assert got == berkowitz_over_fractions(q)
    assert all(type(c) is Fraction for c in got)


def test_integer_charpoly_edge_cases():
    empty = RationalMatrix([])
    assert charpoly(empty) == [1] == berkowitz_over_fractions(empty)
    single = RationalMatrix([[Fraction(-7, 9)]])
    assert charpoly(single) == [1, Fraction(7, 9)]
    q3 = build_certificate84(6).q3_matrix()
    assert charpoly(q3) == berkowitz_over_fractions(q3)


def fraction_det(rows):
    """Determinant by Fraction elimination with row swaps."""
    a, det = [list(r) for r in rows], Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv], det = a[piv], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def principal_minor_charpoly(q):
    """(-1)^k e_k for k = 0..d, e_k the sum of the k-by-k principal minors."""
    return [(-1) ** k * sum((fraction_det([[q[i][j] for j in s] for i in s])
                             for s in itertools.combinations(range(q.size), k)),
                            Fraction(0))
            for k in range(q.size + 1)]


def poly_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def hidden_block_diagonal(rng, blocks):
    """The block-diagonal matrix of ``blocks``, its indices shuffled by a
    seeded permutation."""
    d = sum(len(b) for b in blocks)
    at = list(itertools.accumulate(map(len, blocks), initial=0))
    perm = rng.sample(range(d), d)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for block, start in zip(blocks, at):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[perm[start + i]][perm[start + j]] = x
    return RationalMatrix(rows)


def seeded_block(rng, size, symmetric):
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             if rng.random() < 0.6 else Fraction(0) for _ in range(size)]
            for _ in range(size)]
    if rng.random() < 0.3:
        rows[rng.randrange(size)] = [Fraction(0)] * size  # a zero row
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)]
                for i in range(size)]
    return rows


def test_charpoly_is_the_product_over_hidden_blocks():
    rng = random.Random(30)
    cases = [[], [[[Fraction(-7, 9)]]], [[[Fraction(0)] * 3] * 3],
             [[[Fraction(70)]]] * 6]  # 0x0, 1x1, a zero block, 70*I
    for trial in range(60):
        cases.append([seeded_block(rng, rng.randint(1, 4), trial % 2 == 0)
                      for _ in range(rng.randint(1, 4))])
    for blocks in cases:
        q = hidden_block_diagonal(rng, blocks)
        got = charpoly(q)
        want = [Fraction(1)]
        for block in blocks:
            want = poly_product(
                want, principal_minor_charpoly(RationalMatrix(block)))
        assert got == want, blocks
        if q.size <= 7:
            assert got == principal_minor_charpoly(q), blocks
    assert charpoly(RationalMatrix([[70 if i == j else 0 for j in range(6)]
                                    for i in range(6)])) == [
        math.comb(6, k) * (-70) ** k for k in range(7)]


def test_q3_charpoly_matches_published():
    q3 = build_certificate84(5).q3_matrix()
    coeffs = charpoly(q3)
    assert [str(c) for c in coeffs] == \
        golden.load("q3_charpoly_n5_84")["coeffs_desc"]
    # trace check: x^23 coefficient is minus the diagonal sum
    assert coeffs[1] == -624 == -sum(q3[i][i] for i in range(q3.size))
    assert coeffs[-1] == 0  # det 0


def test_charpoly_sign_examples():
    psd = verify_charpoly_signs(RationalMatrix([[1, 0], [0, 0]]))
    assert psd.psd and psd.nullity == 1
    bad = verify_charpoly_signs(RationalMatrix([[1, 0], [0, -1]]))
    assert not bad.psd
    assert bad.witness["violating_k"] == 2
    assert bad.witness["violating_e"] == "-1"
    q3 = build_certificate84(5).q3_matrix()
    cert = verify_charpoly_signs(q3)
    assert cert.psd and cert.nullity == 6


def test_gram_factor_certificates():
    for n in (1, 3, 4):
        cert = build_certificate42(n)
        from tracesos.cert42 import build_q1_gram_factor

        u, scale = build_q1_gram_factor(n)
        assert verify_gram_factor(cert.q1, u, scale).psd
    with pytest.raises(FactorMismatch):
        verify_gram_factor(RationalMatrix([[5]]), RationalMatrix([[1]]), 6)


def test_gram_factor_with_fractional_entries():
    # denominators 2, 3 and 6: U is cleared with L = 6, and U is 2 x 3,
    # so scale * U^T U is 3 x 3
    u = RationalMatrix([[Fraction(1, 2), Fraction(-2, 3), 1],
                        [Fraction(5, 6), 0, Fraction(-7, 6)]])
    scale = Fraction(5, 4)
    rows = [[scale * sum(r[i] * r[j] for r in u.rows) for j in range(3)]
            for i in range(3)]
    q = RationalMatrix(rows)
    cert = verify_gram_factor(q, u, scale)
    assert cert.psd and cert.witness["scale"] == "5/4"
    assert replay(cert, q).to_jsonable() == cert.to_jsonable()
    assert [str(x) for x in rows[2]] == ["-85/144", "-5/6", "425/144"]
    rows[2][1] += Fraction(1, 7)
    with pytest.raises(FactorMismatch) as exc:
        verify_gram_factor(RationalMatrix(rows), u, scale)
    assert str(exc.value) == "entry (2,1): expected -29/42, factor gives -5/6"
    with pytest.raises(FactorMismatch) as exc:
        verify_gram_factor(RationalMatrix([[1, 0], [0, 1]]), u, scale)
    assert str(exc.value) == "shape (3, 3) != (2, 2)"


def test_tensor_certificates():
    one = RationalMatrix([[1]])
    assert verify_tensor_psd(one, one, one).psd
    cert = build_certificate42(3)
    left, right = q2_kron_factors(3)
    got = verify_tensor_psd(cert.q2, left, right)
    assert got.psd
    with pytest.raises(NotAKroneckerProduct):
        verify_tensor_psd(RationalMatrix([[1, 0], [0, 2]]), one, one)
    # the right shape with one entry off
    rows = [list(row) for row in cert.q2.rows]
    rows[4][2] += 1
    with pytest.raises(NotAKroneckerProduct) as exc:
        verify_tensor_psd(RationalMatrix(rows), left, right)
    assert str(exc.value) == ("target is not the Kronecker product of the "
                              "given (2, 2) and (3, 3) factors")
    indefinite = RationalMatrix([[1, 0], [0, -1]])
    got = verify_tensor_psd(indefinite, indefinite, one)
    assert not got.psd
    assert quadratic_value(
        indefinite, got.witness["product_cert"]["witness"]["vector"]) < 0
    assert replay(got, indefinite).to_jsonable() == got.to_jsonable()
    # (-1) (x) (-1) = (1): neither factor is PSD, the product is
    minus = RationalMatrix([[-1]])
    got = verify_tensor_psd(one, minus, minus)
    assert got.psd and got.witness["product_cert"]["witness"]["rank"] == 1
    both = verify_tensor_psd(one, one, one)
    assert "product_cert" not in both.witness


def test_schur_examples():
    sc = schur_complement(RationalMatrix([[1, 0], [0, 1]]), 1)
    assert sc.rows == ((Fraction(1),),)
    # one ordered/unordered slice of the degree-8 second matrix
    slice3 = RationalMatrix([[20, 0, 16], [0, 20, 16], [16, 16, 36]])
    comp = schur_complement(slice3, 2)
    assert comp.rows == ((Fraction(52, 5),),)
    # a bare 2x2 for the complement formula itself
    comp2 = schur_complement(RationalMatrix([[20, 16], [16, 36]]), 1)
    assert comp2.rows == ((Fraction(36) - Fraction(256, 20),),)
    assert comp2[0][0] == Fraction(116, 5)


def test_schur_on_degree8_q2():
    for n in (2, 4, 6):
        q2 = build_q2_84(n)
        split = n * (n - 1)
        comp = schur_complement(q2, split)
        assert all(comp[i][i] == Fraction(52, 5) for i in range(comp.size))
        assert all(comp[i][j] == 0 for i in range(comp.size)
                   for j in range(comp.size) if i != j)
        assert verify_schur(q2, split).psd


def test_schur_singular_leading_block():
    # the leading block [[0,0],[0,0]] is PSD but singular
    singular = RationalMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 1]])
    with pytest.raises(SingularLeadingBlock):
        schur_complement(singular, 2)
    with pytest.raises(SingularLeadingBlock,
                       match=r"^leading block singular at column 0$"):
        verify_schur(singular, 2)


def test_schur_not_psd_leading_block_is_a_verdict():
    # diag(1, -1, 0) is NOT PSD and singular: q is NOT PSD, no complement
    q = RationalMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0],
                        [0, 0, 0, 1]])
    cert = verify_schur(q, 3)
    assert not cert.psd and cert.nullity is None
    assert set(cert.witness) == {"split", "leading_cert"}
    lead = cert.witness["leading_cert"]
    assert lead["method"] == "ldlt" and not lead["psd"]
    assert lead["witness"] == {"index": 1, "vector": ["0", "1", "0"],
                               "value": "-1"}
    replay(PsdCertificate.from_jsonable(lead), q.submatrix(range(3)))
    assert replay(cert, q).to_jsonable() == cert.to_jsonable()
    assert not verify_ldlt(q).psd


def test_schur_invertible_but_not_pd_leading_block():
    # leading block [[0,1],[1,0]] is invertible yet indefinite
    m = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cert = verify_schur(m, 2)
    assert not cert.psd


def test_ldlt():
    pd = verify_ldlt(RationalMatrix([[4, 2], [2, 2]]))
    assert pd.psd and pd.nullity == 0
    assert pd.witness == {"pivots": ["4", "1"], "rank": 2}
    # a zero diagonal entry with a zero row is skipped, not a failure
    singular = verify_ldlt(RationalMatrix([[0, 0, 0], [0, 1, 1], [0, 1, 1]]))
    assert singular.psd and singular.nullity == 2
    assert singular.witness == {"pivots": ["0", "1", "0"], "rank": 1}
    # a negative reduced pivot: v = (-3, 1) gives 9 - 18 + 1 = -8
    neg = verify_ldlt(RationalMatrix([[1, 3], [3, 1]]))
    assert not neg.psd and neg.nullity is None
    assert neg.witness == {"index": 1, "vector": ["-3", "1"], "value": "-8"}
    # a zero diagonal entry with a nonzero row: two basis vectors
    zero = verify_ldlt(RationalMatrix([[0, 1], [1, 0]]))
    assert not zero.psd and zero.witness["index"] == 0
    assert zero.witness["value"] == "-4"
    assert quadratic_value(RationalMatrix([[0, 1], [1, 0]]),
                           zero.witness["vector"]) == -4


def test_q3_restrictions_are_psd():
    # Q3(5) is PSD, and each Q3(n_sub) is its principal submatrix on the
    # restriction indices, hence PSD; verify_ldlt agrees on each one
    q3 = build_certificate84(5).q3_matrix()
    full = verify_charpoly_signs(q3)
    assert full.psd and full.nullity == 6
    for n_sub in (2, 3, 4):
        sub = q3.submatrix(z3_restriction_indices(5, n_sub))
        assert sub == build_certificate84(n_sub).q3_matrix(), n_sub
        assert verify_ldlt(sub).psd, n_sub


def test_psd_suite_names_a_broken_restriction(monkeypatch):
    from tracesos import cert84, checks

    indices = cert84.z3_restriction_indices
    monkeypatch.setattr(cert84, "z3_restriction_indices",
                        lambda n, n_sub: indices(n, n_sub)[::-1])
    result = checks.check_psd_suite()
    assert not result.ok
    assert "q3 n=2: not the restriction of Q3(5)" in result.detail, result.detail


def test_psd_suite_builds_no_whole_certificate84(monkeypatch):
    # the suite reads only Q3 grids of the (8,4) certificate
    from tracesos import cert84, checks

    def refuse(*args, **kwargs):
        raise AssertionError("whole Certificate84 built")

    monkeypatch.setattr(cert84, "build_certificate84", refuse)
    result = checks.check_psd_suite()
    assert result.ok, result.detail


def test_principal_minor_monotonicity_spot_check():
    q3 = build_certificate84(5).q3_matrix()
    assert verify_charpoly_signs(q3).psd
    rng = random.Random(11)
    for _ in range(6):
        keep = sorted(rng.sample(range(24), 3))
        assert verify_ldlt(q3.submatrix(keep)).psd, keep


def test_method_cross_agreement():
    for n in (2, 3, 4):
        q2 = build_certificate42(n).q2
        left, right = q2_kron_factors(n)
        via_tensor = verify_tensor_psd(q2, left, right).psd
        via_signs = verify_charpoly_signs(q2).psd
        assert via_tensor == via_signs is True


def test_witness_replay_is_bit_identical():
    cases = []
    cert42_obj = build_certificate42(3)
    from tracesos.cert42 import build_q1_gram_factor

    u, scale = build_q1_gram_factor(3)
    cases.append((verify_gram_factor(cert42_obj.q1, u, scale), cert42_obj.q1))
    left, right = q2_kron_factors(3)
    cases.append((verify_tensor_psd(cert42_obj.q2, left, right), cert42_obj.q2))
    q2_84 = build_q2_84(3)
    cases.append((verify_schur(q2_84, 6), q2_84))
    q3 = build_certificate84(3).q3_matrix()
    cases.append((verify_charpoly_signs(q3), q3))
    cases.append((verify_ldlt(q3), q3))
    q3_6 = build_certificate84(6).q3_matrix()
    cases.append((verify_ldlt(q3_6), q3_6))
    assert [cert.psd for cert, _ in cases[-2:]] == [True, False]
    for cert, matrix in cases:
        blob = json.dumps(cert.to_jsonable(), sort_keys=True)
        revived = PsdCertificate.from_jsonable(json.loads(blob))
        again = replay(revived, matrix)
        assert json.dumps(again.to_jsonable(), sort_keys=True) == blob
    with pytest.raises(ValueError):
        replay(cases[0][0], RationalMatrix([[1]]))


def test_replay_refuses_the_submatrix_method():
    # a restriction is PSD with its parent and has no route of its own
    q = RationalMatrix([[2, 1], [1, 2]])
    cert = PsdCertificate(method="submatrix", psd=True,
                          matrix_hash=q.content_hash(), witness={"keep": [0]})
    with pytest.raises(ValueError, match="unknown certificate method 'submatrix'"):
        replay(cert, q)


def quadratic_value(q, vector):
    """v^T Q v as the double sum over all entries, apart from psdcert."""
    v = [Fraction(x) for x in vector]
    return sum(q[i][j] * v[i] * v[j]
               for i in range(len(v)) for j in range(len(v)))


def test_ldlt_replay_rejects_a_tampered_witness():
    q = build_certificate84(6).q3_matrix()
    cert = verify_ldlt(q)
    assert cert.witness["index"] == 16
    assert cert.witness["value"] == "-636602/8570187"
    assert quadratic_value(q, cert.witness["vector"]) == Fraction(-636602, 8570187)
    blob = json.dumps(cert.to_jsonable())

    def tampered(edit):
        obj = json.loads(blob)
        edit(obj["witness"])
        return PsdCertificate.from_jsonable(obj)

    k = cert.witness["index"]
    for edit in (lambda w: w["vector"].__setitem__(k, "2"),
                 lambda w: w["vector"].pop(),
                 lambda w: w["vector"].__setitem__(0, "x"),
                 lambda w: w.__setitem__("value", "-1"),
                 lambda w: w.__setitem__("vector", ["0"] * q.size),
                 lambda w: w.__setitem__("value", "1")):
        with pytest.raises(ValueError):
            replay(tampered(edit), q)
    # the untouched certificate replays to itself
    assert replay(tampered(lambda w: None), q).to_jsonable() == cert.to_jsonable()
    # a negative value that is stated for a PSD matrix cannot be replayed
    psd_q = build_certificate84(3).q3_matrix()
    forged = PsdCertificate(method="ldlt", psd=False,
                            matrix_hash=psd_q.content_hash(),
                            witness={"index": 0, "value": "-1",
                                     "vector": ["1"] + ["0"] * (psd_q.size - 1)})
    with pytest.raises(ValueError):
        replay(forged, psd_q)
    # verify_ldlt never issues a verdict for a non-symmetric matrix
    skew = RationalMatrix([[-1, 1], [0, 1]])
    forged = PsdCertificate(method="ldlt", psd=False,
                            matrix_hash=skew.content_hash(),
                            witness={"index": 0, "value": "-1",
                                     "vector": ["1", "0"]})
    with pytest.raises(ValueError, match="not symmetric"):
        replay(forged, skew)


def assert_ldlt_agrees_with_charpoly(q):
    got = verify_ldlt(q)
    want = verify_charpoly_signs(q)
    assert (got.psd, got.nullity) == (want.psd, want.nullity)
    if got.psd:
        assert got.witness["rank"] == q.size - got.nullity
    else:
        value = quadratic_value(q, got.witness["vector"])
        assert value < 0 and str(value) == got.witness["value"]
        assert replay(got, q) is got


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices with d <= 7: random ones, Gram products
    B^T B (rank deficient when B has fewer rows), with a zeroed row and
    column, a negative diagonal entry, or a zero diagonal entry with a
    nonzero row."""
    d = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("random", "gram", "zero_row",
                                 "negative_diagonal", "zero_diagonal")))
    if kind == "random":
        flat = draw(st.lists(SMALL, min_size=d * d, max_size=d * d))
        rows = [[flat[min(i, j) * d + max(i, j)] for j in range(d)]
                for i in range(d)]
    else:
        k = draw(st.integers(0, d))
        b = draw(st.lists(st.lists(SMALL, min_size=d, max_size=d),
                          min_size=k, max_size=k)) or [[0] * d]
        rows = [[sum(row[i] * row[j] for row in b) for j in range(d)]
                for i in range(d)]
    i = draw(st.integers(0, d - 1))
    if kind == "zero_row":
        for j in range(d):
            rows[i][j] = rows[j][i] = Fraction(0)
    elif kind == "negative_diagonal":
        rows[i][i] = -draw(st.fractions(min_value=Fraction(1, 3),
                                        max_value=4, max_denominator=3))
    elif kind == "zero_diagonal" and d > 1:
        j = draw(st.integers(0, d - 2))
        j += j >= i
        rows[i][i] = Fraction(0)
        rows[i][j] = rows[j][i] = draw(SMALL.filter(bool))
    return RationalMatrix(rows)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_matrices())
def test_ldlt_agrees_with_charpoly_signs(q):
    assert_ldlt_agrees_with_charpoly(q)


def test_ldlt_agrees_with_charpoly_on_q3():
    for n in range(2, 8):
        assert_ldlt_agrees_with_charpoly(build_certificate84(n).q3_matrix())


def test_ldlt_agrees_on_the_psd_suite_matrices():
    # every matrix check_psd_suite certifies, and the parts it splits off
    mats = []
    for n in range(1, 9):
        cert = build_certificate42(n)
        mats.append(cert.q1)
        if n >= 2:
            mats += [cert.q2, *q2_kron_factors(n)]
    for n in range(2, 7):
        q2 = build_q2_84(n)
        split = n * (n - 1)
        mats += [q2, q2.submatrix(list(range(split))),
                 schur_complement(q2, split)]
    q3 = build_certificate84(5).q3_matrix()
    mats += [q3] + [q3.submatrix(z3_restriction_indices(5, n_sub))
                    for n_sub in (2, 3, 4)]
    for q in mats:
        assert_ldlt_agrees_with_charpoly(q)
