"""Exact dyadic arithmetic and rendering."""

from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from orientcorr import (
    DyadicProb,
    SignedDyadic,
    TripleCorrelation,
    fraction_to_decimal,
    parse_dyadic,
)
from orientcorr.dyadic import _strip_twos
from support import ref_strip_twos


def test_normal_form():
    assert DyadicProb.of(12, 6) == DyadicProb.of(3, 4)
    assert DyadicProb.of(0, 9) == DyadicProb.zero()
    assert DyadicProb.of(0, 9).exp == 0
    assert DyadicProb.of(1 << 10, 10) == DyadicProb.of(1, 0)


def test_rejects_values_over_one():
    with pytest.raises(ValueError):
        DyadicProb.of(9, 3)
    with pytest.raises(ValueError):
        DyadicProb.of(-1, 3)


def test_string_forms():
    assert str(DyadicProb.of(7, 10)) == "7/2^10"
    assert str(SignedDyadic.of(-25, 10)) == "-25/2^10"
    assert str(SignedDyadic.of(0, 10)) == "0/2^0"
    assert parse_dyadic("7/2^10") == DyadicProb.of(7, 10)
    with pytest.raises(ValueError):
        parse_dyadic("7/10")


def test_fraction_bridge():
    p = DyadicProb.from_fraction(Fraction(26, 1024))
    assert (p.num, p.exp) == (13, 9)
    with pytest.raises(ValueError):
        DyadicProb.from_fraction(Fraction(1, 3))


def test_signed_sign_matches_zero():
    assert SignedDyadic.of(0, 4).sign == 0
    assert SignedDyadic.of(-3, 4).sign == -1
    assert SignedDyadic.of(3, 4).sign == 1


def test_from_scaled_covariance_sign_is_integer_exact():
    # 14 * 32 - 21 * 21 = 7: a covariance far below float noise when scaled.
    cor = TripleCorrelation.from_scaled(21, 21, 14, 5)
    assert cor.cov == SignedDyadic.of(7, 10)
    cor = TripleCorrelation.from_scaled(21, 21, 13, 5)
    assert cor.cov == SignedDyadic.of(-25, 10)


@given(st.integers(0, 2**40), st.integers(0, 60))
def test_normalization_preserves_value(num, exp):
    if num > (1 << exp):
        num %= (1 << exp) + 1
    p = DyadicProb.of(num, exp)
    assert p.as_fraction() == Fraction(num, 1 << exp)
    assert p.num % 2 == 1 or (p.num == 0 and p.exp == 0)
    assert parse_dyadic(str(p)) == p


@given(st.integers(-2**20, 2**20), st.integers(0, 300), st.integers(0, 320))
@example(0, 0, 5)
@example(1, 0, 0)
@example(3, 7, 4)      # fewer twos allowed than the numerator holds
@example(-5, 12, 3)
@example(1, 300, 0)
def test_strip_twos_matches_halving_loop(factor, twos, exp):
    num = factor << twos
    assert _strip_twos(num, exp) == ref_strip_twos(num, exp)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(0, 8))
def test_decimal_rendering_matches_decimal_module(num, den, places):
    value = Fraction(num, den)
    quantum = Decimal(1).scaleb(-places)
    want = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        quantum, rounding=ROUND_HALF_EVEN)
    assert Decimal(fraction_to_decimal(value, places)) == want


def test_decimal_rendering_half_even_ties():
    assert fraction_to_decimal(Fraction(1, 8), 2) == "0.12"
    assert fraction_to_decimal(Fraction(3, 8), 2) == "0.38"
    assert fraction_to_decimal(Fraction(-1, 8), 2) == "-0.12"
    assert fraction_to_decimal(Fraction(-1, 80000000), 6) == "0.000000"
