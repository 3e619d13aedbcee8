import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracesos import checks
from tracesos.poly import (
    MONO_ONE,
    Polynomial,
    mono_from_vars,
    mono_key,
    mono_mul,
    mono_str,
    parse_monomial,
    quadratic_form,
    relabel,
    sum_of_products,
    swap_ab,
    var,
    var_parts,
)


def test_var_canonical_order():
    assert var("a", 3, 2) == var("a", 2, 3)
    assert var_parts(var("a", 3, 2)) == ("a", 2, 3)
    assert var_parts(var("b", 7, 7)) == ("b", 7, 7)
    with pytest.raises(ValueError):
        var("c", 1, 1)
    with pytest.raises(ValueError):
        var("a", 0, 1)


def test_var_order_is_triple_order():
    # the lemma of poly.var: the ints sort as their (kind, i, j) triples,
    # at the ends of each index field and on seeded draws
    edges = [1, 2, 9, 10, 99, 100, 16382, 16383]
    triples = [(kind, i, j) for kind in "ab" for i in edges for j in edges
               if i <= j]
    rng = random.Random(32)
    for _ in range(2000):
        i, j = sorted(rng.randint(1, 16383) for _ in range(2))
        triples.append((rng.choice("ab"), i, j))
    vs = [var(*t) for t in triples]
    assert [var_parts(v) for v in vs] == triples
    assert all(type(v) is int and 0 < v < 1 << 29 for v in vs)
    assert sorted(vs) == [var(*t) for t in sorted(triples)]
    for x, y in itertools.product(vs[:150], repeat=2):
        assert (x < y) == (var_parts(x) < var_parts(y)), (x, y)


def test_var_refuses_indices_outside_its_fields():
    for i, j in ((0, 1), (1, 0), (16384, 1), (1, 16384), (16384, 16384)):
        with pytest.raises(ValueError):
            var("a", i, j)
    assert var_parts(var("b", 16383, 16383)) == ("b", 16383, 16383)
    with pytest.raises(ValueError, match="below 16384"):
        parse_monomial("a[1,16384]")


def test_monomial_basics():
    m = mono_from_vars([var("a", 2, 1), var("b", 1, 1), var("a", 1, 2)])
    assert tuple(map(var_parts, m)) == (("a", 1, 2), ("a", 1, 2), ("b", 1, 1))
    assert mono_str(m) == "a[1,2]^2*b[1,1]"
    assert mono_str(MONO_ONE) == "1"
    assert mono_mul(m, MONO_ONE) == m
    assert parse_monomial(mono_str(m)) == m
    assert parse_monomial("1") == MONO_ONE


variables = st.builds(var, st.sampled_from("ab"), st.integers(1, 4),
                      st.integers(1, 4))
monomials = st.lists(variables, max_size=8).map(mono_from_vars)


@settings(max_examples=300, derandomize=True)
@given(monomials)
def test_monomial_text_round_trip(m):
    assert parse_monomial(mono_str(m)) == m


@settings(max_examples=300, derandomize=True)
@given(monomials, monomials, monomials)
def test_mono_mul_laws(m1, m2, m3):
    assert mono_mul(m1, m2) == mono_mul(m2, m1) == mono_from_vars(m1 + m2)
    assert mono_mul(mono_mul(m1, m2), m3) == mono_mul(m1, mono_mul(m2, m3))
    assert mono_mul(m1, MONO_ONE) == mono_mul(MONO_ONE, m1) == m1


@settings(max_examples=300, derandomize=True)
@given(st.lists(monomials, max_size=12))
def test_output_order_is_the_exponent_pair_order(monos):
    monos = list(dict.fromkeys(monos))
    # the pre-change monomial: sorted (variable, exponent) pairs
    pairs = {}
    for m in monos:
        counts = {}
        for v in m:
            counts[v] = counts.get(v, 0) + 1
        pairs[m] = tuple(sorted(counts.items()))
    assert sorted(monos, key=mono_key) == sorted(monos, key=pairs.get)


def _runs(m):
    """The (variable, exponent) runs of a monomial, each variable read as
    its (kind, i, j) triple."""
    return [(var_parts(v), len(list(run))) for v, run in itertools.groupby(m)]


def test_mono_key_sorts_as_its_runs():
    a, b = var("a", 1, 1), var("b", 1, 2)
    for low, high in (((a, b, b), (a, a, b)), ((a, a), (a, a, a)),
                      ((a, a), (a, a, b))):
        assert _runs(low) < _runs(high)
        assert mono_key(low) < mono_key(high)
    rng = random.Random(30)
    pool = [var(kind, i, j) for kind in "ab" for i in (1, 2, 3)
            for j in range(i, 4)]
    monos = list({mono_from_vars(rng.choices(pool[:rng.randint(1, 12)],
                                             k=rng.randint(0, 8)))
                  for _ in range(3000)})
    assert sorted(monos, key=mono_key) == sorted(monos, key=_runs)
    for x, y in itertools.product(monos[:150], repeat=2):
        assert (mono_key(x) < mono_key(y)) == (_runs(x) < _runs(y)), (x, y)
    # the text is each run's variable, with ^e when e > 1, joined by *
    assert max(e for m in monos for _, e in _runs(m)) == 8
    assert {var_parts(v)[0] for m in monos for v in m} == {"a", "b"}
    for m in monos + [MONO_ONE]:
        want = "*".join(f"{kind}[{i},{j}]" + (f"^{e}" if e > 1 else "")
                        for (kind, i, j), e in _runs(m)) or "1"
        assert mono_str(m) == want, m


def test_index_canonicalization_merges_products():
    # a[2,1] * a[1,2]b[2,2] -> a[1,2]^2 b[2,2]
    p = Polynomial.variable(var("a", 2, 1))
    q = Polynomial.monomial(mono_from_vars([var("a", 1, 2), var("b", 2, 2)]))
    prod = p * q
    assert prod == Polynomial.monomial(
        mono_from_vars([var("a", 1, 2), var("a", 1, 2), var("b", 2, 2)]))


def test_add_cancels_to_zero():
    m = mono_from_vars([var("a", 1, 1), var("b", 1, 1)])
    p = Polynomial.monomial(m, 1)
    q = Polynomial.monomial(m, -1)
    assert p + q == Polynomial.zero()
    assert not (p + q)
    with pytest.raises(TypeError):  # equal by terms, so not hashable
        hash(p)
    assert Polynomial.monomial(m, 2) + Polynomial.monomial(m, 3) == \
        Polynomial.monomial(m, 5)


def test_mul_examples():
    a12, b12 = Polynomial.variable(var("a", 1, 2)), Polynomial.variable(var("b", 1, 2))
    assert a12 * b12 == Polynomial.monomial(
        mono_from_vars([var("a", 1, 2), var("b", 1, 2)]))
    z11 = Polynomial.monomial(mono_from_vars([var("a", 1, 1), var("b", 1, 1)]))
    z12 = Polynomial.monomial(mono_from_vars([var("a", 1, 2), var("b", 1, 2)]))
    assert z11 * z12 == Polynomial.monomial(mono_from_vars(
        [var("a", 1, 1), var("a", 1, 2), var("b", 1, 1), var("b", 1, 2)]))


def test_substitute_scalar_and_partial():
    m = mono_from_vars([var("a", 1, 1)] * 2 + [var("b", 1, 1)] * 2)
    p = Polynomial.monomial(m, 6)
    assert p.substitute({("a", 1, 1): 1, ("b", 1, 1): 2}) == 24
    # substitute only evaluates: a partial assignment is refused
    with pytest.raises(KeyError):
        p.substitute({("a", 1, 1): 1})


def test_serialization_round_trip():
    p = Polynomial({
        mono_from_vars([var("a", 1, 2), var("b", 2, 3)]): Fraction(3, 7),
        mono_from_vars([var("b", 1, 1)]): Fraction(-1, 3),
        MONO_ONE: 4,
    })
    blob = json.dumps(p.to_jsonable())
    q = Polynomial.from_jsonable(json.loads(blob))
    assert p == q
    # serialization order is deterministic
    assert json.dumps(q.to_jsonable()) == blob


def test_text_form():
    # repr shows the JSON form: (monomial text, coefficient) in mono_key order
    p = Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 2 + [var("b", 1, 1)] * 2), 6)
    assert repr(p) == "Polynomial([['a[1,1]^2*b[1,1]^2', '6']])"
    assert repr(Polynomial.zero()) == "Polynomial([])"
    # scaling is Polynomial.scale; a number does not multiply a Polynomial
    with pytest.raises(TypeError):
        p * 2
    with pytest.raises(TypeError):
        Fraction(1, 2) * p
    assert p.scale(Fraction(1, 2)) == Polynomial.monomial(
        mono_from_vars([var("a", 1, 1)] * 2 + [var("b", 1, 1)] * 2), 3)


def test_swap_and_relabel():
    m = mono_from_vars([var("a", 1, 2), var("b", 1, 1)])
    p = Polynomial.monomial(m, 3)
    assert swap_ab(p) == Polynomial.monomial(
        mono_from_vars([var("b", 1, 2), var("a", 1, 1)]), 3)
    assert relabel(p, {1: 2, 2: 1}) == Polynomial.monomial(
        mono_from_vars([var("a", 1, 2), var("b", 2, 2)]), 3)
    assert swap_ab(swap_ab(p)) == p


def test_quadratic_form_matches_direct_expansion():
    z = [(var("a", 1, 1),), (var("b", 1, 2),)]
    x, y = (Polynomial.monomial(m) for m in z)
    q = [[Fraction(2), Fraction(3)], [Fraction(3), Fraction(5)]]
    direct = (x * x).scale(2) + (x * y).scale(6) + (y * y).scale(5)
    assert quadratic_form([(q, z)]) == direct
    # every weight here is whole, so every coefficient is stored as an int
    assert all(type(c) is int for c in quadratic_form([(q, z)]).terms.values())


@st.composite
def polynomials(draw, n=3, max_terms=4, max_deg=8):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        deg = draw(st.integers(0, max_deg))
        vs = [var(draw(st.sampled_from("ab")), draw(st.integers(1, n)),
                  draw(st.integers(1, n))) for _ in range(deg)]
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        mono = mono_from_vars(vs)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms)


@settings(derandomize=True)
@given(polynomials(), polynomials())
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=60, derandomize=True)
@given(polynomials(max_deg=4), polynomials(max_deg=4), polynomials(max_deg=4))
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, derandomize=True)
@given(polynomials(max_deg=4), polynomials(max_deg=4), polynomials(max_deg=4))
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_property_suite_draws_the_same_polynomials():
    # the generator check_properties used with one poly.var call per draw
    def reference(rng):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            deg = rng.randint(0, 8)
            vs = [var(rng.choice("ab"), rng.randint(1, 3), rng.randint(1, 3))
                  for _ in range(deg)]
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            mono = mono_from_vars(vs)
            terms[mono] = terms.get(mono, 0) + coeff
        return Polynomial(terms)

    rng, ref = random.Random(0x5305), random.Random(0x5305)
    for case in range(1002):
        assert checks._random_poly(rng) == reference(ref), case
    assert rng.getstate() == ref.getstate()


def quadratic_form_per_pair(grid, z):
    """Reference kernel: z^T M z for one block, each product z_u*z_v built
    as a Polynomial and weighted by q or 2q."""
    d = len(z)
    acc = {}
    for u in range(d):
        for v in range(u, d):
            q = grid[u][v]
            if q == 0:
                continue
            w = q if v == u else 2 * q
            product = Polynomial.monomial(z[u]) * Polynomial.monomial(z[v])
            for m, c in product.terms.items():
                acc[m] = acc[m] + w * c if m in acc else w * c
    return Polynomial(acc)


def quadratic_form_reference(blocks):
    total = Polynomial.zero()
    for grid, z in blocks:
        total = total + quadratic_form_per_pair(grid, z)
    return total


@st.composite
def grid_entries(draw):
    if draw(st.booleans()):
        return Fraction(0)
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))


@st.composite
def symmetric_grids(draw):
    """A symmetric list-of-lists grid of rationals, sometimes with zero
    rows or all zero."""
    d = draw(st.integers(0, 4))
    entries = grid_entries()
    grid = [[Fraction(0)] * d for _ in range(d)]
    if draw(st.integers(0, 5)) == 0:
        return grid
    zero_rows = draw(st.sets(st.integers(0, max(d - 1, 0)), max_size=2))
    for u in range(d):
        for v in range(u, d):
            if u not in zero_rows and v not in zero_rows:
                grid[u][v] = grid[v][u] = draw(entries)
    return grid


@st.composite
def block_lists(draw):
    """Blocks drawn from a pool of grids: a pool grid can serve several
    blocks, and a block can take an equal copy that is a distinct object."""
    pool = draw(st.lists(symmetric_grids(), min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        grid = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            grid = [list(row) for row in grid]
        z = [draw(monomials) for _ in grid]
        blocks.append((grid, z))
    return blocks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block_lists())
def test_quadratic_form_matches_per_pair_expansion(blocks):
    assert quadratic_form(blocks) == quadratic_form_reference(blocks)


def test_quadratic_form_edge_blocks():
    x = (var("a", 1, 2),)
    xx = mono_mul(x, x)
    assert quadratic_form([]) == Polynomial.zero()
    assert quadratic_form([((), [])]) == Polynomial.zero()
    shared = [[Fraction(1, 2), Fraction(-3, 4)], [Fraction(-3, 4), Fraction(0)]]
    blocks = [(shared, [x, xx]), ([[Fraction(2, 3)]], [x]),
              (shared, [xx, MONO_ONE]),
              ([row[:] for row in shared], [MONO_ONE, x]),
              ([[Fraction(0), Fraction(3)], [Fraction(3), Fraction(1)]],
               [MONO_ONE, x])]
    assert quadratic_form(blocks) == quadratic_form_reference(blocks)
    # weights of opposite sign at one monomial cancel out of the result
    cancel = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert quadratic_form([(cancel, [x, x])]) == Polynomial.zero()


def _squares(grid, z):
    """z^T M z with every ordered pair (u, v) its own product, for
    sum_of_products."""
    return [(Polynomial.monomial(z[u], grid[u][v]), Polynomial.monomial(z[v]))
            for u in range(len(z)) for v in range(len(z)) if grid[u][v]]


def test_quadratic_form_is_the_sum_of_squares_of_both_certificates():
    from tracesos.cert42 import build_certificate42
    from tracesos.cert84 import build_certificate84

    for n in range(1, 5):
        c42, c84 = build_certificate42(n), build_certificate84(n)
        blocks = ([(c42.q1.rows, c42.z1)]
                  + [(c42.q2.rows, z) for z in c42.z2_family.values()],
                  [(c84.q1.rows, c84.z1), (c84.q2.rows, c84.z2)]
                  + [(c84.q3, z) for z in c84.z3_family.values()])
        for block_list in blocks:
            assert quadratic_form(block_list) == sum_of_products(
                pair for grid, z in block_list for pair in _squares(grid, z)), n


class FreshGrid:
    """A grid that makes new entry objects on every read, so the id of a
    dropped entry can come back on another value."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, u):
        return [Fraction(x.numerator, x.denominator) for x in self.rows[u]]


def test_quadratic_form_drops_a_cancelled_coefficient():
    x, y = (var("a", 1, 2),), (var("b", 1, 1),)
    # x^2 gets 1 - 2*1 + 1 = 0, each of one and minus one object at two entries
    one, minus = Fraction(1), Fraction(-1)
    grid = [[one, minus, Fraction(3)], [minus, one, Fraction(1, 2)],
            [Fraction(3), Fraction(1, 2), Fraction(0)]]
    p = quadratic_form([(grid, [x, x, y])])
    assert p.terms == {mono_mul(x, y): 7}
    assert quadratic_form([(FreshGrid(grid), [x, x, y])]).terms == p.terms


def test_quadratic_form_on_a_grid_of_fresh_entries():
    # a distinct value at every entry of the upper triangle, whole or not:
    # a weight listed by the id of an entry that was since dropped would
    # land on another entry's product
    z = [(var("a", 1, k),) for k in range(1, 17)]
    for den in (1, 7):
        fresh = [[Fraction(100 * min(u, v) + max(u, v) + 1, den)
                  for v in range(16)] for u in range(16)]
        assert (quadratic_form([(FreshGrid(fresh), z)])
                == quadratic_form([(fresh, z)])
                == quadratic_form_reference([(fresh, z)])), den
