"""Refusals of invalid arguments: each raises one ValueError (or subclass)
whose message names the cause."""

import pytest

from tracesos.cert42 import build_certificate42
from tracesos.cert84 import InvalidDimension, decide_q3
from tracesos.necklace import expand_square_formula, word_trace
from tracesos.poly import parse_monomial
from tracesos.psdcert import RationalMatrix, verify_gram_factor, verify_schur

ONE = RationalMatrix([[1]])


@pytest.mark.parametrize("call, kind, message", [
    (lambda: build_certificate42(0), ValueError, "n must be positive, got 0"),
    (lambda: decide_q3(1), InvalidDimension, "Q3 needs n >= 2, got 1"),
    (lambda: decide_q3(5, params="symbolic"), ValueError,
     "deciding Q3 needs numeric parameters"),
    (lambda: expand_square_formula(3, 2), ValueError,
     "m must be a positive even integer, got 3"),
    (lambda: word_trace("AC", 2), ValueError, "word letters must be 'A' or 'B'"),
    (lambda: parse_monomial("a1,2]"), ValueError, "bad monomial factor 'a1,2]'"),
    (lambda: parse_monomial("a[1,2]^0"), ValueError,
     "bad exponent in 'a[1,2]^0'"),
    (lambda: RationalMatrix([[1, 2]]).size, ValueError, "matrix is not square"),
    (lambda: verify_gram_factor(ONE, ONE, 0), ValueError,
     "scale must be positive"),
    (lambda: verify_schur(RationalMatrix([[1, 0], [0, 1]]), 0), ValueError,
     "split must be in 1..1"),
], ids=["cert42 n=0", "decide_q3 n=1", "decide_q3 symbolic", "square odd m",
        "word letter", "monomial bracket", "monomial exponent", "not square",
        "gram scale 0", "schur split 0"])
def test_refusal_names_its_cause(call, kind, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
