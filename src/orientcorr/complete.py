"""Exact reachability probabilities on randomly oriented complete graphs.

unreachable_prob(n, k) is the probability that, after orienting every edge
of the complete graph on n vertices by a fair coin, none of k marked
vertices has a directed path to a further marked target vertex.
joint_unreachable_prob(n, k) additionally requires that the target has no
path to yet another marked vertex.  Scaled by 2^C(n,2), the number of
tournaments on n labelled vertices, both are tournament counts U_n and J_n.
No edge leaves the set the k-set reaches, and the target and the third
vertex lie outside it, so splitting by that set gives, with
G = sum_m 2^C(m,2) x^m/m!, the identities U^(k) G = G^(k) G' and
J^(k) G = G^(k) U^(1) of exponential generating functions:
  U_n = sum_{i=k}^{n-1} C(n-k-1, i-k) 2^(C(i,2)+C(n-i,2))
        - sum_{j=k+1}^{n-1} C(n-k-1, j-k-1) U_j 2^C(n-j,2),
  J_n = sum_{i=k}^{n-2} C(n-k-2, i-k) 2^C(i,2) U^(1)_{n-i}
        - sum_{j=k+2}^{n-1} C(n-k-2, j-k-2) J_j 2^C(n-j,2).
Each state sums integers from smaller n and builds one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .dyadic import DyadicProb

# Exact forms of the decimal constants in the envelope bounds.
_C_SINGLE_UPPER = Fraction(16, 5)       # 3.2
_C_JOINT_UPPER = Fraction(104, 5)       # 20.8
_C_SUM2_A = Fraction(28, 5)             # 5.6
_C_SUM2_B = Fraction(68, 5)             # 13.6
_C_SUM3 = Fraction(4)
_C_MARGIN_1 = Fraction(32, 5)           # 6.4
_C_MARGIN_2 = Fraction(256, 25)         # 10.24


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _scaled(value: Fraction, n: int) -> int:
    """value * 2^C(n,2) for a value whose denominator divides 2^C(n,2): a shifted numerator."""
    return value.numerator << (_pairs(n) + 1 - value.denominator.bit_length())


@lru_cache(maxsize=None)
def unreachable_prob(n: int, k: int) -> Fraction:
    """P(no directed path from any of a k-set to the target) on K_n."""
    if k == 0:
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        return Fraction(1)
    if n < k + 1:
        raise ValueError(f"need n >= k+1, got n={n}, k={k}")
    w = n - k - 1
    total = sum(comb(w, i - k) << (_pairs(i) + _pairs(n - i)) for i in range(k, n))
    total -= sum(comb(w, j - k - 1) * _scaled(unreachable_prob(j, k), j) << _pairs(n - j)
                 for j in range(k + 1, n))
    return DyadicProb.of(total, _pairs(n)).as_fraction()


@lru_cache(maxsize=None)
def joint_unreachable_prob(n: int, k: int) -> Fraction:
    """P(k-set has no path to the target and the target none to a third vertex)."""
    if k == 0:
        return unreachable_prob(n, 1)
    if n < k + 2:
        raise ValueError(f"need n >= k+2, got n={n}, k={k}")
    w = n - k - 2
    total = sum(comb(w, i - k) * _scaled(unreachable_prob(n - i, 1), n - i) << _pairs(i)
                for i in range(n - 2, k - 1, -1))
    total -= sum(comb(w, j - k - 2) * _scaled(joint_unreachable_prob(j, k), j) << _pairs(n - j)
                 for j in range(k + 2, n))
    return DyadicProb.of(total, _pairs(n)).as_fraction()


def relative_covariance(n: int) -> Fraction:
    """(p_joint - p_single^2) / p_joint for K_n, n >= 3."""
    single = unreachable_prob(n, 1)
    joint = joint_unreachable_prob(n, 1)
    return (joint - single * single) / joint


def covariance_sign(n: int) -> int:
    """Sign of the covariance of the two no-path events on K_n, n >= 3."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    # The joint probability is positive, so it cannot flip the sign.
    rel = relative_covariance(n)
    return (rel > 0) - (rel < 0)


@dataclass(frozen=True)
class KnRow:
    """One table row: exact no-path probabilities on K_n.

    scaled_single and scaled_joint are the numerators over 2^C(n,2); the
    joint columns are absent for n = 2.
    """

    n: int
    p_single: DyadicProb
    scaled_single: int
    p_joint: DyadicProb | None
    scaled_joint: int | None
    rel_cov: Fraction | None


def table_row(n: int) -> KnRow:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    single = unreachable_prob(n, 1)
    if n == 2:
        return KnRow(n, DyadicProb.from_fraction(single), _scaled(single, n), None, None, None)
    joint = joint_unreachable_prob(n, 1)
    return KnRow(
        n=n,
        p_single=DyadicProb.from_fraction(single),
        scaled_single=_scaled(single, n),
        p_joint=DyadicProb.from_fraction(joint),
        scaled_joint=_scaled(joint, n),
        rel_cov=relative_covariance(n),
    )


def double_binomial_sum(n: int) -> Fraction:
    """Auxiliary sum bounding the single-event envelope slack.

    Sum over k of C(n,k) * sum over m of C(n-k,m) / 2^(k*m), both indices
    starting at 1.  By the binomial theorem the sum over m is
    (1 + 2^-k)^(n-k) - 1 = ((2^k + 1)^(n-k) - 2^(k(n-k))) / 2^(k(n-k)), so
    the terms are accumulated as one integer numerator over 2^top, the
    largest of those denominators.
    """
    if n < 2:
        return Fraction(0)
    top = (n // 2) * ((n + 1) // 2)
    num = 0
    for k in range(1, n):
        e = k * (n - k)
        num += comb(n, k) * (((1 << k) + 1) ** (n - k) - (1 << e)) << (top - e)
    return Fraction(num, 1 << top)


def triple_binomial_sum(n: int) -> Fraction:
    """Auxiliary sum bounding the joint-event envelope slack (three indices).

    Sum over k, i, m >= 1 of C(n,k) C(n-k,i) C(k,m) / 2^(k*i + m*j) with
    j = n-k-i >= 1 and m <= k.  The sum over m is (1 + 2^-j)^k - 1 =
    ((2^j + 1)^k - 2^(jk)) / 2^(jk), and k*i + j*k = k(n-k) does not depend
    on i, so each k contributes one integer over 2^(k(n-k)).
    """
    if n < 3:
        return Fraction(0)
    top = (n // 2) * ((n + 1) // 2)
    num = 0
    for k in range(1, n):
        inner = 0
        for i in range(1, n - k):
            j = n - k - i
            inner += comb(n - k, i) * (((1 << j) + 1) ** k - (1 << (j * k)))
        num += comb(n, k) * inner << (top - k * (n - k))
    return Fraction(num, 1 << top)


def sign_margin(n: int) -> Fraction:
    """Error budget whose staying under 5 certifies positive covariance."""
    return (
        Fraction(1, 2) ** (n - 5)
        + _C_MARGIN_1 * Fraction(7, 8) ** (n - 1)
        + _C_MARGIN_2 * Fraction(49, 64) ** (n - 1)
    )


@dataclass(frozen=True)
class BoundRow:
    """Exact-rational verdicts for the analytic bounds at one n.

    The field order is the key order of a `bounds --json` row.
    """

    n: int
    single_lower_ok: bool
    single_upper_ok: bool
    joint_lower_ok: bool | None
    joint_upper_ok: bool | None
    sum2_bound_a_ok: bool
    sum2_bound_b_ok: bool
    sum3_bound_ok: bool
    margin_below_5: bool | None
    margin_decreased: bool | None
    single_scaled_limit: float
    joint_scaled_limit: float | None

    def all_ok(self) -> bool:
        checks = [
            self.single_lower_ok, self.single_upper_ok, self.joint_lower_ok,
            self.joint_upper_ok, self.sum2_bound_a_ok, self.sum2_bound_b_ok,
            self.sum3_bound_ok, self.margin_decreased,
        ]
        return all(c for c in checks if c is not None)


def bound_report(n_max: int) -> list[BoundRow]:
    """Check every analytic bound exactly for 2 <= n <= n_max."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    half = Fraction(1, 2)
    rows = []
    prev_margin = None
    for n in range(2, n_max + 1):
        single = unreachable_prob(n, 1)
        single_lo = half ** (n - 2) * (1 - half ** (n - 1))
        single_hi = half ** (n - 2) * (1 + _C_SINGLE_UPPER * Fraction(7, 8) ** (n - 1))
        if n >= 3:
            joint = joint_unreachable_prob(n, 1)
            joint_lo = half ** (2 * n - 3) * (3 - 2 * half ** (n - 3))
            joint_hi = half ** (2 * n - 3) * (3 + _C_JOINT_UPPER * Fraction(7, 8) ** (n - 3))
            joint_lower_ok = joint_lo <= joint
            joint_upper_ok = joint <= joint_hi
            joint_limit = float(joint / half ** (2 * n - 3))
            margin = sign_margin(n)
            margin_below = margin < 5
            margin_dec = margin < prev_margin if prev_margin is not None else None
            prev_margin = margin
        else:
            joint_lower_ok = joint_upper_ok = None
            joint_limit = None
            margin_below = margin_dec = None
        sum2 = double_binomial_sum(n)
        sum3 = triple_binomial_sum(n)
        rows.append(BoundRow(
            n=n,
            single_lower_ok=single_lo <= single,
            single_upper_ok=single <= single_hi,
            joint_lower_ok=joint_lower_ok,
            joint_upper_ok=joint_upper_ok,
            sum2_bound_a_ok=sum2 <= _C_SUM2_A * Fraction(7, 4) ** n,
            sum2_bound_b_ok=sum2 <= _C_SUM2_B * Fraction(13, 8) ** n,
            sum3_bound_ok=sum3 <= _C_SUM3 * Fraction(7, 4) ** n,
            margin_below_5=margin_below,
            margin_decreased=margin_dec,
            single_scaled_limit=float(single / half ** (n - 2)),
            joint_scaled_limit=joint_limit,
        ))
    return rows
