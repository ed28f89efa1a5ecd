"""Exact dyadic rationals for orientation probabilities.

Every probability that comes out of counting orientations has the form
num / 2**exp, so we keep numerator and exponent as Python ints and never
touch floating point except for display.  Covariances can be negative,
hence the separate signed wrapper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


def _strip_twos(num: int, exp: int) -> tuple[int, int]:
    # Normal form: numerator odd, or the exact zero 0/2^0.
    if num == 0:
        return 0, 0
    twos = min((num & -num).bit_length() - 1, exp)
    return num >> twos, exp - twos


class DyadicProb(NamedTuple):
    """A probability num / 2**exp with 0 <= value <= 1, stored in normal form."""

    num: int
    exp: int

    @classmethod
    def of(cls, num: int, exp: int) -> "DyadicProb":
        if num < 0 or exp < 0:
            raise ValueError(f"negative component in dyadic {num}/2^{exp}")
        num, exp = _strip_twos(num, exp)
        if num > (1 << exp):
            raise ValueError(f"dyadic {num}/2^{exp} exceeds 1")
        return cls(num, exp)

    @classmethod
    def zero(cls) -> "DyadicProb":
        return cls(0, 0)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "DyadicProb":
        den = value.denominator
        if den & (den - 1) != 0:
            raise ValueError(f"{value} has no power-of-two denominator")
        return cls.of(value.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        # Correctly rounded int division, as Fraction.__float__ does, with no gcd.
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"


class SignedDyadic(NamedTuple):
    """A signed dyadic rational: sign in {-1, 0, 1} plus a magnitude."""

    sign: int
    magnitude: DyadicProb

    @classmethod
    def of(cls, signed_num: int, exp: int) -> "SignedDyadic":
        if signed_num == 0:
            return cls(0, DyadicProb.zero())
        sign = 1 if signed_num > 0 else -1
        return cls(sign, DyadicProb.of(abs(signed_num), exp))

    def as_fraction(self) -> Fraction:
        return self.sign * self.magnitude.as_fraction()

    def __float__(self) -> float:
        return self.sign * float(self.magnitude)

    def __str__(self) -> str:
        prefix = "-" if self.sign < 0 else ""
        return prefix + str(self.magnitude)


def parse_dyadic(text: str) -> DyadicProb:
    """Inverse of str(DyadicProb): accepts 'NUM/2^EXP'."""
    num_part, sep, exp_part = text.partition("/2^")
    if not sep:
        raise ValueError(f"not a dyadic string: {text!r}")
    return DyadicProb.of(int(num_part), int(exp_part))


class TripleCorrelation(NamedTuple):
    """Exact joint law of the two path events for one (a, s, b) triple.

    p_c is P(path a->s), p_d is P(path s->b), p_cd their joint probability,
    cov the exact covariance p_cd - p_c * p_d.
    """

    p_c: DyadicProb
    p_d: DyadicProb
    p_cd: DyadicProb
    cov: SignedDyadic

    @classmethod
    def from_scaled(cls, n_c: int, n_d: int, n_cd: int, exp: int) -> "TripleCorrelation":
        # Covariance sign decided on integers: n_cd * 2^exp - n_c * n_d, never floats.
        cov_num = n_cd * (1 << exp) - n_c * n_d
        return cls(
            p_c=DyadicProb.of(n_c, exp),
            p_d=DyadicProb.of(n_d, exp),
            p_cd=DyadicProb.of(n_cd, exp),
            cov=SignedDyadic.of(cov_num, 2 * exp),
        )


def ratio_to_decimal(num: int, den: int, places: int) -> str:
    """Render num / den (den > 0) to fixed decimal places, rounding half to even."""
    q, r = divmod(abs(num) * 10**places, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    whole, frac = divmod(q, 10**places)
    text = f"{whole}.{frac:0{places}d}" if places else str(whole)
    return "-" + text if num < 0 and q else text
