import importlib
import random
import re
import time
from fractions import Fraction
from pathlib import Path

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
    assert parse_expression("2 (x1*x2 + x2*x1)") == parse_expression("2 x1*x2 + 2 x2*x1")


def test_mixed_products_rejected():
    with pytest.raises(InputError):
        parse_expression("x1*(x2|-x3)")


# 2 ** 14 monomials, past the bound at the last product
_PAST_BOUND = "*".join(f"(x{i}*x{i + 1} + x{i + 1}*x{i})" for i in range(1, 28, 2))


@pytest.mark.parametrize("text,column,message", [
    ("x1*(x2|-x3) +", 3, "mixing '*' with dialgebra products"),
    ("(x1*x2)*(x2*x3)", 8, "a variable occurs on both sides of a product (not multilinear)"),
    ("x1*x2 - x2*x1 + x1*x3", 15, "summands use different variables (not multilinear)"),
    (_PAST_BOUND, _PAST_BOUND.rindex("*(") + 1, "identity expands to more than 10000 monomials"),
], ids=["mixing", "shared-variable", "different-variables", "expansion"])
def test_refused_where_written(text, column, message):
    # a product or sum is refused at its operator, before it is expanded
    # and before the rest of the line is read
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == f"line 1, column {column}: {message}"


def test_product_of_sums_parses_in_one_pass():
    text = "*".join(f"(x{i}*x{i + 1} + x{i + 1}*x{i})" for i in range(1, 24, 2))
    start = time.perf_counter()
    p = parse_expression(text)
    assert time.perf_counter() - start < 0.5
    assert p.arity == 24 and len(p.terms) == 2 ** 12


def test_readme_states_the_bounds_of_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.findall(r"`(\w+)\.([A-Z_]+)` = (\d+)", readme)
    assert {(m, n) for m, n, _v in stated} >= {
        ("dsl", "MAX_NESTING"), ("dsl", "MAX_OPERATORS"), ("dsl", "MAX_MONOMIALS")}
    for module, name, value in stated:
        assert getattr(importlib.import_module(f"divaria.{module}"), name) == int(value)


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


def test_second_variety_header_refused():
    with pytest.raises(ParseError) as err:
        parse_variety("variety v\nidentity x1*x2 - x2*x1\nvariety w\n")
    assert str(err.value) == "line 3, column 1: a second variety header"


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
