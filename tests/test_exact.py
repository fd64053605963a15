"""Tests for the integer/rational helpers."""

from fractions import Fraction

import pytest

from hkrees.closed_forms import SegreParams, segre_ehk
from hkrees.errors import ParameterError
from hkrees.exact import (
    binomial,
    factorial,
    format_fraction,
    format_ratio,
    parse_int,
    stirling2,
)

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_routes import parse_int_by_regex, stirling2_by_sum

# Reference triangle for S(n, k), n = 1..10, k = 1..10.
STIRLING_TABLE = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 7, 6, 1, 0, 0, 0, 0, 0, 0],
    [1, 15, 25, 10, 1, 0, 0, 0, 0, 0],
    [1, 31, 90, 65, 15, 1, 0, 0, 0, 0],
    [1, 63, 301, 350, 140, 21, 1, 0, 0, 0],
    [1, 127, 966, 1701, 1050, 266, 28, 1, 0, 0],
    [1, 255, 3025, 7770, 6951, 2646, 462, 36, 1, 0],
    [1, 511, 9330, 34105, 42525, 22827, 5880, 750, 45, 1],
]


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return tri


def test_binomial_against_pascal():
    tri = pascal_triangle(25)
    for n in range(25):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_small_cases():
    assert binomial(4, 2) == 6
    assert binomial(10, 5) == 252
    for n in range(0, 12):
        assert binomial(n, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-3, 0) == 0
    assert binomial(-3, 2) == 0


def test_factorial_negative_rejected():
    with pytest.raises(ParameterError):
        factorial(-1)


def test_stirling_table_entries():
    for n in range(1, 11):
        for k in range(1, 11):
            assert stirling2(n, k) == STIRLING_TABLE[n - 1][k - 1]


def test_stirling_named_values():
    assert stirling2(7, 3) == 301
    assert stirling2(10, 4) == 34105
    for n in range(0, 15):
        assert stirling2(n, n) == 1


def test_stirling_dual_paths_agree():
    for n in range(31):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_by_sum(n, k)


def test_stirling_bad_input():
    with pytest.raises(ParameterError):
        stirling2(-1, 0)
    with pytest.raises(ParameterError):
        stirling2_by_sum(2, -1)


def test_vanishing_alternating_sums():
    # sum_i (-1)^i C(c, i) i^n = 0 for 0 <= n <= c - 1
    for c in range(1, 13):
        for n in range(c):
            total = sum(
                (-1) ** i * binomial(c, i) * i**n for i in range(c + 1)
            )
            assert total == 0, (c, n)


def test_fraction_round_trip():
    assert format_fraction(Fraction(4, 3)) == "4/3"
    assert format_fraction(Fraction(6, 3)) == "2"
    assert format_fraction(5) == "5"
    assert format_fraction(-5) == "-5"
    assert format_fraction(Fraction(-7, 2)) == "-7/2"
    assert format_fraction(True) == "1"  # through Fraction, not str(True)
    assert format_fraction(0.75) == "3/4"
    assert Fraction(format_fraction(Fraction(899, 360))) == Fraction(899, 360)


@pytest.mark.parametrize("text, value", [("0", 0), ("12", 12), ("-3", -3),
                                         ("007", 7)])
def test_parse_int_reads_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["", "-", "+1", " 1", "1 ", "1_0", "--1",
                                  "1.0", "0x1", "\uff11", "\u0663", "1\n"])
def test_parse_int_rejects_everything_else(text):
    with pytest.raises(ParameterError, match="bad integer"):
        parse_int(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+_ \n\u00b2\u0661\uff11", max_size=8))
@example("-")
@example("-0")
@example("\u00b2")
@example("-\u0661")
def test_parse_int_matches_the_regex(text):
    """isascii and isdigit after one optional minus accept what
    -?[0-9]+ matches, and reject the rest with the same error."""
    try:
        expected = parse_int_by_regex(text)
    except ParameterError as err:
        with pytest.raises(ParameterError) as got:
            parse_int(text)
        assert str(got.value) == str(err)
    else:
        assert parse_int(text) == expected


@pytest.mark.parametrize("num, den", [(0, 5), (6, 3), (-6, 4), (899, 360),
                                      (10**30, 10**12), (7, 1)])
def test_format_ratio_spells_the_fraction(num, den):
    assert format_ratio(num, den) == format_fraction(Fraction(num, den))


def test_fractions_are_canonical():
    x = segre_ehk(SegreParams(3, 4))
    assert x.denominator > 0
    from math import gcd

    assert gcd(abs(x.numerator), x.denominator) == 1
