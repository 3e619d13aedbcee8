import copy
import itertools
import json
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tracesos import sdpio
from tracesos.cert42 import build_certificate42
from tracesos.cert84 import SYMBOLIC, InconsistentSystem, \
    derive_param_system, build_certificate84, published_params
from tracesos.necklace import TraceProblem, trace_coeff_necklace
from tracesos.poly import mono_key, mono_str, parse_monomial, var, var_parts
from tracesos.sdpio import (
    BasisBlock,
    BasisSpec,
    RationalizationFailed,
    auto_basis,
    build_sdp,
    export_sdpa,
    import_sdpa,
    rationalize_and_verify,
    reduce_to_parameters,
    certificate_basis_42,
    certificate_basis_84,
)


def test_auto_basis_401_single_square():
    p = TraceProblem(4, 0, 1)
    prob = build_sdp(p, auto_basis(p))
    assert prob.blocks == (("G", 1),)
    (con,) = prob.constraints
    assert con.name == "match:a[1,1]^4"
    assert con.lhs == (((0, 0, 0), Fraction(1)),)
    assert con.rhs == 1
    # feasible point is exactly q = [1]
    assert rationalize_and_verify(prob, {"G": [[1]]}, 1).accepted


def test_vectors_and_bases_hold_monomials():
    """Every certificate and basis vector entry is a monomial: the sorted
    tuple of its variables, ints that read as (kind, i, j) with i <= j."""
    def is_var(v):
        kind, i, j = var_parts(v)
        return (type(v) is int and var(kind, i, j) == v
                and kind in ("a", "b") and 1 <= i <= j)

    def is_monomial(m):
        return (isinstance(m, tuple) and list(m) == sorted(m)
                and all(is_var(v) for v in m))

    c42, c84 = build_certificate42(3), build_certificate84(4)
    vectors = [c42.z1, *c42.z2_family.values(),
               c84.z1, c84.z2, *c84.z3_family.values()]
    for basis in (certificate_basis_42(3), certificate_basis_84(4),
                  auto_basis(TraceProblem(4, 2, 2)),
                  auto_basis(TraceProblem(8, 4, 2, diagonal_a=True))):
        for block in basis.blocks:
            vectors.extend(block.vectors)
    entries = [m for vec in vectors for m in vec]
    assert len(entries) > 100
    assert all(is_monomial(m) for m in entries)


def test_published_certificate_is_feasible_422():
    basis = certificate_basis_42(2)
    prob = build_sdp(TraceProblem(4, 2, 2), basis)
    cert = build_certificate42(2)
    sol = {"Q1": cert.q1.rows, "Q2": cert.q2.rows}
    report = rationalize_and_verify(prob, sol, 1)
    assert report.accepted
    assert set(report.psd_certs) == {"Q1", "Q2"}


def test_perturbed_certificate_is_rejected():
    basis = certificate_basis_42(2)
    prob = build_sdp(TraceProblem(4, 2, 2), basis)
    cert = build_certificate42(2)
    sol = {"Q1": [list(map(float, row)) for row in cert.q1.rows],
           "Q2": [list(map(float, row)) for row in cert.q2.rows]}
    sol["Q1"][0][0] += 1.0
    report = rationalize_and_verify(prob, sol, 1)
    assert not report.accepted
    assert report.violations
    name, got, want = report.violations[0]
    assert name.startswith("match:") and got != want


def test_match_constraints_cover_target_exactly():
    from tracesos.poly import mono_str

    p = TraceProblem(4, 2, 2)
    prob = build_sdp(p, certificate_basis_42(2))
    target = trace_coeff_necklace(p)
    target_names = {f"match:{mono_str(k)}" for k in target.terms}
    nonzero = {c.name for c in prob.match_constraints() if c.rhs != 0}
    assert nonzero == target_names
    # products outside the coefficient polynomial are pinned to zero
    extras = [c for c in prob.match_constraints() if c.rhs == 0]
    assert all(c.lhs for c in extras)
    assert "match:a[1,1]*a[2,2]*b[1,1]*b[2,2]" in {c.name for c in extras}


def test_roundtrip_422_and_843(tmp_path):
    basis = certificate_basis_42(2)
    prob = build_sdp(TraceProblem(4, 2, 2), basis)
    path = tmp_path / "p42.dat-s"
    export_sdpa(prob, str(path))
    assert import_sdpa(str(path)) == prob
    head = path.read_text().splitlines()
    assert head[1].startswith("* meta m=4 r=2 n=2 diagonal_a=0 basis_hash=")
    basis84 = certificate_basis_84(3)
    prob84 = build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis84)
    path84 = tmp_path / "p84.dat-s"
    export_sdpa(prob84, str(path84))
    assert import_sdpa(str(path84)) == prob84


def test_roundtrip_421(tmp_path):
    p = TraceProblem(4, 2, 1)
    prob = build_sdp(p, certificate_basis_42(1))
    path = tmp_path / "p.dat-s"
    export_sdpa(prob, str(path))
    again = import_sdpa(str(path))
    assert again == prob
    export_sdpa(again, str(tmp_path / "p2.dat-s"))
    assert (tmp_path / "p2.dat-s").read_text() == path.read_text()


def _sdpa_violations(text, x):
    """The constraints k of a sparse SDPA file that the block matrices x
    violate, read as the standard format: a body line (k, b, i, j, v)
    sets F_k's block b at (i, j) and at (j, i) to v, and constraint k is
    tr(F_k X) = c_k."""
    body = [line.split() for line in text.splitlines()
            if line.strip() and line[0] not in '*"']
    n_con, c = int(body[0][0]), [Fraction(t) for t in body[3]]
    f = [{} for _ in range(n_con)]
    for k, b, i, j, v in body[4:]:
        for key in ((b, i, j), (b, j, i)):
            f[int(k) - 1][key] = Fraction(v)
    return [k + 1 for k in range(n_con)
            if sum(v * x[int(b) - 1][int(i) - 1][int(j) - 1]
                   for (b, i, j), v in f[k].items()) != c[k]]


@pytest.mark.parametrize("m, n", [(4, 2), (4, 3), (8, 3), (8, 5)])
def test_published_blocks_satisfy_the_standard_sdpa_reading(tmp_path, m, n):
    if m == 4:
        p, basis, cert = (TraceProblem(4, 2, n), certificate_basis_42(n),
                          build_certificate42(n))
        x = [cert.q1.rows, cert.q2.rows]
    else:
        p, basis, cert = (TraceProblem(8, 4, n, diagonal_a=True),
                          certificate_basis_84(n), build_certificate84(n))
        x = [cert.q1.rows, cert.q2.rows, cert.q3]
    path = tmp_path / "p.dat-s"
    export_sdpa(build_sdp(p, basis), str(path))
    assert _sdpa_violations(path.read_text(), x) == []


def test_import_rejects_malformed_body_lines(tmp_path, capsys):
    p = TraceProblem(4, 2, 1)
    path = tmp_path / "p.dat-s"
    export_sdpa(build_sdp(p, certificate_basis_42(1)), str(path))
    lines = path.read_text().splitlines()
    k, b, i, j, v = lines[-1].split()
    for bad in (f"99 {b} {i} {j} {v}", f"0 {b} {i} {j} {v}",
                f"{k} 9 {i} {j} {v}", f"{k} {b} 9 {j} {v}", f"{k} {b} {i} {j}",
                f"{k} x {i} {j} {v}"):
        tampered = tmp_path / "bad.dat-s"
        tampered.write_text("\n".join(lines[:-1] + [bad]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"SDPA body line {bad!r}")):
            import_sdpa(str(tampered))
    # a non-integer index is an input error of sdp-verify, not a traceback
    from tracesos.cli import main

    solution = tmp_path / "sol.json"
    solution.write_text('{"Q1": [[6]]}')
    assert main(["sdp-verify", "--prob", str(tampered),
                 "--solution", str(solution)]) == 2
    assert f"SDPA body line {bad!r}" in capsys.readouterr().err
    # the right-hand side (fourth line after the comments) shares the
    # token memo; a bad token there is still named with its line
    at = next(idx for idx, line in enumerate(lines) if line[0] != "*") + 3
    bad = " ".join(["x"] + lines[at].split()[1:])
    tampered.write_text("\n".join(lines[:at] + [bad] + lines[at + 1:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"SDPA line {bad!r}")):
        import_sdpa(str(tampered))



def test_import_rejects_malformed_header_lines(tmp_path, capsys):
    # a negative block size is SDPA's diagonal block, which this format
    # lacks, and a size of 0 would make a solution look wrong; each refusal
    # names its line and sdp-verify calls it an input error
    from tracesos.cli import main

    path = tmp_path / "p.dat-s"
    export_sdpa(build_sdp(TraceProblem(4, 2, 1), certificate_basis_42(1)),
                str(path))
    lines = path.read_text().splitlines()
    meta, con = 1, next(idx for idx, line in enumerate(lines)
                        if line.startswith("* con"))
    n_con, dims, rhs = con + 1, con + 3, con + 4
    solution = tmp_path / "sol.json"
    solution.write_text('{"Q1": [[6]]}')
    tampered = tmp_path / "bad.dat-s"
    for at, bad in ((dims, "-2"), (dims, "0"), (meta, "* meta m"),
                    (meta, "* meta m=x"), (con, "* con x y"), (n_con, "x"),
                    (dims, "1 1"), (rhs, "6 6")):
        tampered.write_text("\n".join(lines[:at] + [bad] + lines[at + 1:])
                            + "\n")
        with pytest.raises(ValueError, match=re.escape(f"SDPA line {bad!r}")):
            import_sdpa(str(tampered))
        assert main(["sdp-verify", "--prob", str(tampered),
                     "--solution", str(solution)]) == 2, bad
        assert f"SDPA line {bad!r}" in capsys.readouterr().err
    assert main(["sdp-verify", "--prob", str(path),
                 "--solution", str(solution)]) == 0


def test_import_refuses_block_lines_that_do_not_fit_the_header(tmp_path,
                                                               capsys):
    # the labels must name the header's blocks one to one; otherwise a
    # block is dropped and sdp-verify fails on it with a traceback
    from tracesos.cli import main

    path = tmp_path / "p.dat-s"
    export_sdpa(build_sdp(TraceProblem(4, 2, 2), certificate_basis_42(2)),
                str(path))
    text = path.read_text()
    assert "* block Q1 3\n* block Q2 4\n" in text
    cert = build_certificate42(2)
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "Q1": [[float(x) for x in row] for row in cert.q1.rows],
        "Q2": [[float(x) for x in row] for row in cert.q2.rows]}))
    tampered = tmp_path / "bad.dat-s"
    for block_lines, says in (
            ("* block Q1 3\n", "SDPA file has 1 '* block' lines for 2 blocks"),
            ("* block Q1 3\n* block Q2 4\n* block Q3 1\n",
             "SDPA file has 3 '* block' lines for 2 blocks"),
            ("* block Q1 3\n* block Q1 4\n",
             "SDPA '* block' labels repeat: ['Q1', 'Q1']")):
        tampered.write_text(text.replace("* block Q1 3\n* block Q2 4\n",
                                         block_lines))
        with pytest.raises(ValueError, match=re.escape(says)):
            import_sdpa(str(tampered))
        assert main(["sdp-verify", "--prob", str(tampered),
                     "--solution", str(solution)]) == 2, says
        assert capsys.readouterr().err == f"error: {says}\n"
    assert main(["sdp-verify", "--prob", str(path),
                 "--solution", str(solution)]) == 0


_TOKEN = st.one_of(st.integers(-2, 12).map(str), st.text(max_size=4),
                   st.sampled_from(["*", "block", "con", "meta", "m=4", "x",
                                    "1/2", "1/0", "nan", "1e3"]))
_VALID = ["* tracesos coefficient-matching SDP",
          "* meta m=4 r=2 n=1 diagonal_a=0 basis_hash=217944a9ed511750",
          "* block Q1 1", "* con 1 match:a[1,1]^2*b[1,1]^2",
          "1", "1", "1", "6", "1 1 1 1 1"]
_LINE = st.one_of(st.sampled_from(_VALID), st.text(max_size=30),
                  st.lists(_TOKEN, max_size=6).map(" ".join))
# random files, and valid ones with some lines replaced (None keeps one)
_FILE = st.one_of(
    st.lists(_LINE, max_size=14),
    st.lists(st.one_of(st.none(), st.none(), _LINE),
             min_size=len(_VALID), max_size=len(_VALID) + 2).map(
        lambda new: [v if x is None else x
                     for v, x in zip(_VALID + ["", ""], new)]))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILE)
def test_import_raises_only_value_error(tmp_path, lines):
    path = tmp_path / "fuzz.dat-s"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        import_sdpa(str(path))
    except ValueError:
        pass


def test_published_point_satisfies_843_problem():
    basis = certificate_basis_84(3)
    prob = build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis)
    c84 = build_certificate84(3)
    sol = {"Q1": c84.q1.rows, "Q2": c84.q2.rows, "Q3": c84.q3}
    assert rationalize_and_verify(prob, sol, 1).accepted


def test_reduction_to_parameters_n3():
    basis = certificate_basis_84(3)
    prob = build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis)
    system, checked = reduce_to_parameters(prob, basis)
    # at n = 3 two entry classes never meet a monomial, so two of the
    # published equations cannot appear; the rest are reproduced verbatim
    assert len(system.equations) == 9 and system.rank == 9
    assert checked > 0
    full = derive_param_system(5)
    assert all(full.implies(eq) for eq in system.equations)
    assert not system.equivalent(full)
    assert system.satisfied_by(published_params())
    missing = [eq for eq in full.equations if not system.contains(eq)]
    assert sorted(missing) == sorted([
        (((5, 1), (6, 1)), 8),
        (((13, 1), (21, 1), (22, 1)), 8),
    ])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_reduction_to_parameters_gives_full_system(n):
    basis = certificate_basis_84(n)
    prob = build_sdp(TraceProblem(8, 4, n, diagonal_a=True), basis)
    system, _ = reduce_to_parameters(prob, basis)
    assert system.equivalent(derive_param_system(5))


def test_certificate_basis_grids_are_the_symbolic_certificate():
    for n in range(2, 6):
        cert = build_certificate84(n, params=SYMBOLIC)
        grids = [b.grid for b in certificate_basis_84(n).blocks]
        assert grids == [cert.q1.rows, cert.q2.rows, cert.q3], n
    # one pinned Q1 entry off by one: the problem rebuilt over that grid
    # reduces to a failed constant identity
    basis = certificate_basis_84(3)
    q1 = basis.blocks[0]
    rows = [list(row) for row in q1.grid]
    rows[0][0] += 1
    basis = BasisSpec((q1._replace(grid=rows),) + basis.blocks[1:])
    prob = build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis)
    with pytest.raises(InconsistentSystem) as err:
        reduce_to_parameters(prob, basis)
    assert str(err.value) == ("constant identity fails in "
                              "match:a[1,1]^4*b[1,1]^4: 71 != 70")


def test_reduction_requires_matching_basis():
    basis = certificate_basis_84(3)
    prob = build_sdp(TraceProblem(8, 4, 3, diagonal_a=True), basis)
    with pytest.raises(ValueError):
        reduce_to_parameters(prob, certificate_basis_84(4))


def test_reduction_rejects_free_entries():
    basis = certificate_basis_42(2)  # no ansatz at all
    prob = build_sdp(TraceProblem(4, 2, 2), basis)
    with pytest.raises(InconsistentSystem):
        reduce_to_parameters(prob, basis)


def test_rationalization_failures():
    p = TraceProblem(4, 0, 1)
    prob = build_sdp(p, auto_basis(p))
    with pytest.raises(RationalizationFailed):
        rationalize_and_verify(prob, {}, 10)
    with pytest.raises(RationalizationFailed):
        rationalize_and_verify(prob, {"G": [[float("nan")]]}, 10)
    with pytest.raises(RationalizationFailed):
        rationalize_and_verify(prob, {"G": [[1, 2]]}, 10)
    with pytest.raises(RationalizationFailed, match=r"block G entry \(0,0\)"):
        rationalize_and_verify(prob, {"G": [[None]]}, 10)
    # the lower triangle is not rounded or used, but must hold numbers
    cert = build_certificate42(2)
    prob422 = build_sdp(TraceProblem(4, 2, 2), certificate_basis_42(2))
    floats = {k: [[float(x) for x in row] for row in m.rows]
              for k, m in (("Q1", cert.q1), ("Q2", cert.q2))}
    assert rationalize_and_verify(prob422, floats, 10**4).accepted
    for label, i, j, bad, says in (
            ("Q1", 1, 0, None, "expected a number, got None"),
            ("Q2", 3, 0, "not a number", "Invalid literal"),
            ("Q2", 2, 1, float("nan"), "cannot convert NaN"),
            ("Q1", 2, 1, True, "expected a number, got True")):
        sol = copy.deepcopy(floats)
        sol[label][i][j] = bad
        with pytest.raises(RationalizationFailed, match=re.escape(
                f"block {label} entry ({i},{j}): ")) as info:
            rationalize_and_verify(prob422, sol, 10**4)
        assert says in str(info.value)
    # a whole or fraction entry below the diagonal is taken and ignored
    sol = copy.deepcopy(floats)
    sol["Q1"][1][0], sol["Q2"][3][0] = 7, "1/3"
    assert rationalize_and_verify(prob422, sol, 10**4).accepted
    # a bound below 1 is refused before any entry is read, whole or float
    for entry in (1, 1.0):
        assert rationalize_and_verify(prob, {"G": [[entry]]}, 1).accepted
        with pytest.raises(RationalizationFailed, match=re.escape(
                "denominator bound must be at least 1, got 0")):
            rationalize_and_verify(prob, {"G": [[entry]]}, 0)


def test_nearest_is_limit_denominator():
    rng = random.Random(30)
    cases = [(k + 0.5, 1) for k in range(-5, 5)]  # exact ties
    cases += [(x, bound) for x in (0.0, 3.0, -0.25, 0.375) for bound in (1, 8)]
    for _ in range(3000):
        x = rng.choice((-1, 1)) * 10 ** rng.uniform(-8, 8)
        cases.append((x, rng.choice((1, 2, 7, 10**4, rng.randint(1, 10**9)))))
    for x, bound in cases:
        f = Fraction(x)
        assert sdpio._nearest(f, bound) == f.limit_denominator(bound), (x, bound)


def test_rationalization_rounds_to_nearby_rationals():
    p = TraceProblem(4, 0, 1)
    prob = build_sdp(p, auto_basis(p))
    report = rationalize_and_verify(prob, {"G": [[1.0000000001]]}, 10**4)
    assert report.accepted
    assert report.blocks["G"][0][0] == 1


def test_basis_hash_changes_with_content():
    b2 = certificate_basis_42(2)
    b3 = certificate_basis_42(3)
    assert b2.content_hash() != b3.content_hash()
    assert b2.content_hash() == certificate_basis_42(2).content_hash()


def _half_degree_monomials(p):
    """The auto basis before pruning: every monomial of a-degree (m-r)/2
    and b-degree r/2."""
    from tracesos.poly import var

    n = range(1, p.n + 1)
    a = ([var("a", i, i) for i in n] if p.diagonal_a
         else [var("a", i, j) for i in n for j in n if i <= j])
    b = [var("b", i, j) for i in n for j in n if i <= j]
    return {tuple(sorted(x + y))
            for x in itertools.combinations_with_replacement(a, (p.m - p.r) // 2)
            for y in itertools.combinations_with_replacement(b, p.r // 2)}


_PRUNED = [((8, 6, 3, False), 336, 225), ((8, 4, 4, True), 550, 172),
           ((6, 2, 3, False), 126, 81), ((6, 4, 3, False), 126, 81),
           ((8, 2, 3, False), 336, 225), ((4, 2, 3, False), 36, 24),
           ((6, 2, 4, True), 100, 22)]


def _auto_vectors(p):
    """The auto basis of p: its blocks' vectors joined, and each vector's
    block label."""
    blocks = auto_basis(p).blocks
    assert all(len(b.vectors) == 1 for b in blocks)
    return ([z for b in blocks for z in b.vectors[0]],
            {z: b.label for b in blocks for z in b.vectors[0]})


@pytest.mark.parametrize("args, full, kept", _PRUNED)
def test_auto_basis_drops_only_provably_zero_rows(args, full, kept):
    from tracesos.poly import mono_mul
    from tracesos.sdpio import _connected

    p = TraceProblem(*args[:3], diagonal_a=args[3])
    unpruned = _half_degree_monomials(p)
    vectors, block_of = _auto_vectors(p)
    assert (len(unpruned), len(vectors)) == (full, kept)
    target = trace_coeff_necklace(p).terms
    # the connectivity lemma decides "z*z is a target monomial"
    for z in unpruned:
        assert _connected(z) == (mono_mul(z, z) in target), z
    # each dropped z: the match row of z*z holds only G[z][z], rhs 0, even
    # with every pair of kept vectors in one block
    off_diagonal = {mono_mul(v, w) for i, v in enumerate(vectors)
                    for w in vectors[i + 1:]}
    for z in unpruned - set(vectors):
        square = mono_mul(z, z)
        assert square not in target and square not in off_diagonal, z
    # and nothing kept could be dropped by the same argument, its witness
    # pair lying in one block
    in_block = {mono_mul(v, w) for i, v in enumerate(vectors)
                for w in vectors[i + 1:] if block_of[v] == block_of[w]}
    for z in vectors:
        square = mono_mul(z, z)
        assert square in target or square in in_block, z


@pytest.mark.parametrize("n", [2, 3, 4])
def test_auto_basis_keeps_every_certificate_vector(n):
    c42, c84 = build_certificate42(n), build_certificate84(n)
    for vectors, p in (
            ([c42.z1, *c42.z2_family.values()], TraceProblem(4, 2, n)),
            ([c84.z1, c84.z2, *c84.z3_family.values()],
             TraceProblem(8, 4, n, diagonal_a=True))):
        used = {m for vec in vectors for m in vec}
        kept, block_of = _auto_vectors(p)
        assert used and used <= set(kept), p
        # each certificate vector lies in one sign class
        for vec in vectors:
            assert len({block_of[m] for m in vec}) == 1, (p, vec)


def test_auto_basis_shrinks_the_863_problem(tmp_path):
    p = TraceProblem(8, 6, 3)
    prob = build_sdp(p, auto_basis(p))
    path = tmp_path / "auto.dat-s"
    export_sdpa(prob, str(path))
    assert prob.blocks == (("G", 45), ("G1,2", 60), ("G1,3", 60),
                           ("G2,3", 60))
    assert len(prob.constraints) == 1749
    assert os.path.getsize(path) == 194_843
    assert import_sdpa(str(path)) == prob
    # match rows are named by mono_str, in strictly increasing mono_key order
    texts = [c.name[len("match:"):] for c in prob.match_constraints()]
    keys = [mono_key(parse_monomial(t)) for t in texts]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert [mono_str(parse_monomial(t)) for t in texts] == texts


@pytest.mark.parametrize("args", [(4, 2, 3, False), (6, 2, 3, False),
                                  (8, 6, 3, False), (8, 4, 4, True)])
def test_target_monomials_are_even_at_every_label(args):
    """The premise of the sign-class split: conjugating A and B by a
    diagonal sign matrix leaves the trace unchanged, so no target
    monomial has a label of odd degree."""
    from tracesos.sdpio import _odd_labels

    p = TraceProblem(*args[:3], diagonal_a=args[3])
    target = trace_coeff_necklace(p).terms
    assert target and all(_odd_labels(z) == () for z in target)


def test_auto_basis_blocks_are_sign_classes():
    from tracesos.sdpio import _odd_labels

    p = TraceProblem(8, 4, 4, diagonal_a=True)
    blocks = auto_basis(p).blocks
    assert [b.label for b in blocks] == [
        "G", "G1,2", "G1,2,3,4", "G1,3", "G1,4", "G2,3", "G2,4", "G3,4"]
    assert [b.dim for b in blocks] == [28, 22, 12, 22, 22, 22, 22, 22]
    for b in blocks:
        assert {"G" + ",".join(map(str, _odd_labels(z)))
                for z in b.vectors[0]} == {b.label}
    # a basis of one class keeps its one-block label
    for args in ((4, 0, 1), (4, 2, 1)):
        assert [b.label for b in auto_basis(TraceProblem(*args)).blocks] \
            == ["G"]


def _published_pieces(m, n):
    """(vector, Gram rows) of each square of the published (m, r) =
    (4, 2) or diagonal-A (8, 4) certificate at size n."""
    if m == 4:
        c = build_certificate42(n)
        return [(c.z1, c.q1.rows)] + [(z, c.q2.rows)
                                      for z in c.z2_family.values()]
    c = build_certificate84(n)
    return ([(c.z1, c.q1.rows), (c.z2, c.q2.rows)]
            + [(z, c.q3) for z in c.z3_family.values()])


def _embed_in_auto_basis(basis, pieces):
    """The auto-basis Gram blocks of the sum of squares sum z^T Q z over
    the pieces (z, Q), each z inside one block."""
    where = {z: (b.label, k) for b in basis.blocks
             for k, z in enumerate(b.vectors[0])}
    grams = {b.label: [[Fraction(0)] * b.dim for _ in range(b.dim)]
             for b in basis.blocks}
    for vec, q in pieces:
        (label,) = {where[z][0] for z in vec}
        at = [where[z][1] for z in vec]
        for u, v in itertools.product(range(len(vec)), repeat=2):
            grams[label][at[u]][at[v]] += q[u][v]
    return grams


@pytest.mark.parametrize("m, n", [(4, 2), (4, 3), (4, 4), (8, 2), (8, 3)])
def test_published_certificates_are_feasible_in_the_auto_basis(m, n):
    p = (TraceProblem(4, 2, n) if m == 4
         else TraceProblem(8, 4, n, diagonal_a=True))
    basis = auto_basis(p)
    prob = build_sdp(p, basis)
    grams = _embed_in_auto_basis(basis, _published_pieces(m, n))
    report = rationalize_and_verify(prob, grams, 1)
    assert report.accepted, report.reason
    assert set(report.psd_certs) == {b.label for b in basis.blocks}
    assert len(basis.blocks) > 1


def test_cli_verifies_the_published_422_certificate_in_the_auto_basis(
        tmp_path, capsys):
    from tracesos.cli import main

    prob = tmp_path / "auto.dat-s"
    assert main(["sdp-export", "--m", "4", "--r", "2", "--n", "2",
                 "--basis", "auto", "--out", str(prob)]) == 0
    assert "blocks [('G', 3), ('G1,2', 4)]" in capsys.readouterr().out
    grams = _embed_in_auto_basis(auto_basis(TraceProblem(4, 2, 2)),
                                 _published_pieces(4, 2))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({label: [[str(x) for x in row] for row in rows]
                               for label, rows in grams.items()}))
    assert main(["sdp-verify", "--prob", str(prob), "--solution", str(sol),
                 "--den-bound", "1"]) == 0
    assert capsys.readouterr().out.startswith("accepted")


def _coefficients(prob):
    return ([c for con in prob.constraints for _, c in con.lhs]
            + [con.rhs for con in prob.constraints])


@pytest.mark.parametrize("p, basis", [
    (TraceProblem(4, 2, 3), certificate_basis_42(3)),
    (TraceProblem(8, 4, 5, diagonal_a=True), certificate_basis_84(5))])
def test_whole_coefficients_are_ints(tmp_path, p, basis):
    prob = build_sdp(p, basis)
    path = tmp_path / "p.dat-s"
    export_sdpa(prob, str(path))
    again = import_sdpa(str(path))
    for built in (prob, again):
        assert {type(c) for c in _coefficients(built)} == {int}
    assert again == prob


def test_fractional_coefficient_stays_exact(tmp_path):
    # 0.5 * G[0][0] = 1 has the one solution G = [[2]]
    path = tmp_path / "half.dat-s"
    path.write_text("* con 1 half\n1\n1\n1\n1\n1 1 1 1 0.5\n")
    prob = import_sdpa(str(path))
    ((_, coeff),) = prob.constraints[0].lhs
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    assert rationalize_and_verify(prob, {"B0": [[2]]}, 1).accepted
    report = rationalize_and_verify(prob, {"B0": [[1 / 3]]}, 3)
    assert not report.accepted
    assert report.violations == [("half", Fraction(1, 6), 1)]


def test_each_float_entry_is_rounded_once(monkeypatch):
    p = TraceProblem(8, 4, 5, diagonal_a=True)
    prob = build_sdp(p, certificate_basis_84(5))
    cert = build_certificate84(5)
    exact = {"Q1": cert.q1.rows, "Q2": cert.q2.rows, "Q3": cert.q3}
    rng = random.Random(5)
    noisy = {}
    for label, rows in exact.items():
        d = len(rows)
        out = [[0.0] * d for _ in range(d)]
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            out[i][j] = out[j][i] = float(rows[i][j]) + rng.uniform(-5e-7, 5e-7)
        noisy[label] = out
    calls = []
    rounding = sdpio._nearest

    def counted(f, bound):
        calls.append(f)
        return rounding(f, bound)

    monkeypatch.setattr(sdpio, "_nearest", counted)
    report = rationalize_and_verify(prob, noisy, 10**4)
    assert len(calls) == sum(d * (d + 1) // 2 for d in (5, 30, 24))
    assert report.accepted and not report.violations, report.reason
    assert {k: m.rows for k, m in report.blocks.items()} == exact
