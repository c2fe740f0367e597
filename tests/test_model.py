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
from symfree.model import bit_positions


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


def test_integer_set_membership():
    s = make_set([2, 3, 5, 7, 11], 12)
    assert [v for v in range(-1, 14) if v in s] == [2, 3, 5, 7, 11]
    assert 1 not in make_set([], 5)


def test_bit_positions_against_shift_scan():
    rng = random.Random(3)
    offsets = (0, 7, -40, 1 << 70, -(1 << 70))
    masks = [0, 1, 2, 1 << 70, (1 << 130) - 1] + [rng.getrandbits(rng.randint(1, 300)) for _ in range(50)]
    for mask in masks:
        for offset in offsets:
            expected = tuple(i + offset for i in range(mask.bit_length()) if mask >> i & 1)
            assert bit_positions(mask, offset) == expected
    # Wide masks, sparse to dense, from drawn positions: a shift scan over
    # 2^20 bits would be quadratic.
    for width in (1 << 16, 1 << 20):
        for n in (3, 300, 3000, 10**4):
            positions = sorted(rng.sample(range(width), n))
            raw = bytearray(width // 8)
            for p in positions:
                raw[p // 8] |= 1 << p % 8
            mask = int.from_bytes(raw, "little")
            for offset in offsets:
                assert bit_positions(mask, offset) == tuple(p + offset for p in positions)


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
