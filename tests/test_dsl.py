import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divaria.dsl import ParseError, parse_variety
from divaria.errors import InputError
from divaria.perms import random_perm
from divaria.words import DiPoly, MultilinearPoly, all_dishapes, all_shapes
from support import parse_expression


def test_parse_associator():
    p = parse_expression("(x1*x2)*x3 - x1*(x2*x3)")
    assert isinstance(p, MultilinearPoly) and len(p.terms) == 2


def test_parse_anticommutativity():
    p = parse_expression("identity x1*x2 + x2*x1".removeprefix("identity "))
    assert p == parse_expression("x2*x1 + x1*x2")


def test_repeated_variable_is_semantic_error():
    with pytest.raises(InputError):
        parse_expression("x1*x1")


def test_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 * )")
    assert "column" in str(err.value)


def test_coefficients_and_left_assoc():
    p = parse_expression("1/2 x1*x2*x3")
    ((shape, perm),) = p.terms
    assert str(p) == "1/2 (x1*x2)*x3"
    q = parse_expression("2 x1*x2 - x2*x1 - x1*x2")
    assert q == parse_expression("x1*x2 - x2*x1")


def test_distribution_over_parens():
    p = parse_expression("(x1*x2 + x2*x1)*x3")
    assert p == parse_expression("(x1*x2)*x3 + (x2*x1)*x3")


def test_mixed_products_rejected():
    with pytest.raises(InputError):
        parse_expression("x1*(x2|-x3)")


def test_variety_file_parsing():
    text = """
# a comment
variety demo
vars x1 x2 x3
identity (x1*x2)*x3 - x1*(x2*x3)
identity x1*x2 - x2*x1
"""
    s = parse_variety(text)
    assert s.name == "demo" and len(s.identities) == 2
    again = parse_variety("variety demo\n" + "".join(f"identity {t}\n" for t in s.identities))
    assert again == s


def test_variety_header_required():
    with pytest.raises(InputError):
        parse_variety("identity x1*x2 - x2*x1\n")


def test_variety_must_be_single_product():
    with pytest.raises(InputError):
        parse_variety("variety bad\nidentity x1|-x2 - x2-|x1\n")


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    di = rng.random() < 0.5
    n = rng.randint(2, 4) if di else rng.randint(1, 4)  # a bare x1 parses as one-product
    cls = DiPoly if di else MultilinearPoly
    shapes = all_dishapes(n) if di else all_shapes(n)
    p = cls(n)
    for _ in range(rng.randint(1, 4)):
        p = p + cls(n, {(rng.choice(shapes), random_perm(n, rng)): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))})
    if p.is_zero():
        return
    assert parse_expression(str(p)) == p
