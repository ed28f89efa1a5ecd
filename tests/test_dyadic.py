"""Exact dyadic arithmetic and rendering."""

import random
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from orientcorr import (
    DyadicProb,
    SignedDyadic,
    TripleCorrelation,
    parse_dyadic,
)
from orientcorr.dyadic import _strip_twos, ratio_to_decimal
from support import ref_fraction_to_decimal, ref_strip_twos


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


# Signed numerators over 2^exp, exp <= 5000: any value in [-1, 1], or one of
# magnitude at most 2^-1020, which covers the subnormal band and underflow.
_SIGNED_DYADICS = st.integers(0, 5000).flatmap(lambda exp: st.tuples(
    st.integers(-(1 << exp), 1 << exp)
    | st.integers(-(1 << max(exp - 1020, 0)), 1 << max(exp - 1020, 0)),
    st.just(exp)))


@given(_SIGNED_DYADICS)
@example((0, 0))
@example((-1, 0))
@example((1, 1074))             # the least subnormal double
@example((-1, 1075))            # half of it: a tie that rounds to -0.0
@example((3, 1076))             # three quarters of it: rounds up to it
@example(((1 << 52) - 1, 1074)) # the largest subnormal
@example((-1, 5000))            # a negative covariance that underflows to -0.0
@example(((1 << 53) + 1, 54))   # a tie between doubles next to 1/2
@example(((1 << 53) + 3, 54))   # the tie on the other side
def test_float_is_the_fraction_float_bit_for_bit(case):
    cov = SignedDyadic.of(*case)
    for value in (cov, cov.magnitude):
        # hex() tells the two zeros apart.
        assert float(value).hex() == float(value.as_fraction()).hex()


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
    assert Decimal(ratio_to_decimal(value.numerator, value.denominator, places)) == want


def test_decimal_rendering_half_even_ties():
    assert ratio_to_decimal(1, 8, 2) == "0.12"
    assert ratio_to_decimal(3, 8, 2) == "0.38"
    assert ratio_to_decimal(-1, 8, 2) == "-0.12"
    assert ratio_to_decimal(-1, 80000000, 6) == "0.000000"


@given(st.fractions(), st.integers(0, 12))
def test_decimal_rendering_matches_the_divmod_reference(value, places):
    assert ratio_to_decimal(value.numerator, value.denominator, places) == \
        ref_fraction_to_decimal(value, places)


def test_ratio_rendering_matches_the_divmod_reference():
    # Unreduced pairs of both signs, zeros, power-of-two denominators (whose
    # ties need many places) and every k/2000, at 0-8 places.
    rng = random.Random(20261020)
    cases = [(rng.randrange(-10**30, 10**30) >> rng.randrange(110),
              rng.choice((rng.randrange(1, 10 ** rng.randrange(1, 25)), 1 << rng.randrange(40))),
              rng.randrange(9))
             for _ in range(20_000)]
    cases += [(0, den, places) for den in (1, 3, 1 << 70) for places in range(9)]
    cases += [(k, 2000, places) for k in range(-2000, 2001) for places in range(9)]
    for num, den, places in cases:
        want = ref_fraction_to_decimal(Fraction(num, den), places)
        assert ratio_to_decimal(num, den, places) == want, (num, den, places)


@pytest.mark.parametrize("places", range(5))
def test_decimal_rendering_of_every_k_over_2000(places):
    # Holds exact ties of both signs and both parities at 0-3 places, and
    # negative values that round to zero, which print without a minus.
    for k in range(-2000, 2000):
        value = Fraction(k, 2000)
        assert ratio_to_decimal(value.numerator, value.denominator, places) == \
            ref_fraction_to_decimal(value, places)
