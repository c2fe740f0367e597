import random

import pytest

from symfree import (
    Equation,
    IntegerSet,
    ParseError,
    ValidationError,
    make_set,
    parse_equation,
    parse_set_text,
    set_text,
)


def test_parse_equation_examples():
    eq = parse_equation("1,1")
    assert eq.k == 2
    assert eq.a == (1, 1)
    assert eq.norm1 == 2

    eq = parse_equation("1,2,2")
    assert eq.k == 3
    assert eq.norm1 == 5

    eq = parse_equation("3,-5")
    assert eq.a == (3, -5)
    assert eq.norm1 == 8


def test_parse_equation_rejects_zero_coefficient():
    with pytest.raises(ValidationError):
        parse_equation("1,0,2")


def test_parse_equation_rejects_short_and_malformed():
    with pytest.raises(ValidationError):
        parse_equation("5")
    with pytest.raises(ParseError):
        parse_equation("1,x")
    with pytest.raises(ParseError):
        parse_equation("")
    with pytest.raises(ParseError):
        parse_equation("1,,2")


def test_equation_text_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(2, 5)
        coeffs = tuple(rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(k))
        eq = Equation(coeffs)
        assert parse_equation(eq.text()) == eq


def test_full_coefficients():
    assert parse_equation("1,2,2").full_coefficients() == (1, 2, 2, -1, -2, -2)
    assert parse_equation("3,-5").full_coefficients() == (3, -5, -3, 5)


def test_make_set_sorts_and_dedups():
    s = make_set([3, 1, 2], 10)
    assert s.elements == (1, 2, 3)
    assert s.domain_bound == 10
    assert make_set([5, 5], 5).elements == (5,)


def test_make_set_range_errors():
    with pytest.raises(ValidationError):
        make_set([0], 5)
    with pytest.raises(ValidationError):
        make_set([6], 5)
    with pytest.raises(ValidationError):
        make_set([1], 0)


def test_make_set_idempotent():
    s = make_set([9, 4, 4, 1], 9)
    again = make_set(s.elements, s.domain_bound)
    assert again == s


def test_integer_set_rejects_unsorted_tuple():
    with pytest.raises(ValidationError):
        IntegerSet((2, 1), 5)


def test_diagonal_assignments_always_solve():
    # x_{k+i} = x_i zeroes the full coefficient vector for any equation
    rng = random.Random(23)
    for _ in range(100):
        k = rng.randint(2, 4)
        coeffs = tuple(rng.choice([-1, 1]) * rng.randint(1, 7) for _ in range(k))
        eq = Equation(coeffs)
        half = [rng.randint(1, 50) for _ in range(k)]
        assert sum(c * v for c, v in zip(eq.full_coefficients(), half + half)) == 0


def test_parse_set_text_both_formats():
    assert parse_set_text("3\n1\n2\n") == [3, 1, 2]
    assert parse_set_text("[3, 1, 2]") == [3, 1, 2]
    assert parse_set_text("") == []
    assert parse_set_text("  \n \n") == []


def test_parse_set_text_errors():
    with pytest.raises(ParseError):
        parse_set_text("1\ntwo\n")
    with pytest.raises(ParseError):
        parse_set_text("[1, 2")
    with pytest.raises(ParseError):
        parse_set_text('{"a": 1}')


def test_set_text_round_trip():
    s = make_set([4, 9, 2], 9)
    assert parse_set_text(set_text(s)) == [2, 4, 9]
