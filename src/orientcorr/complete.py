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
One bottom-up pass over n fills a list of these counts for every n up to
the largest asked for, in Python ints, and nothing is normalised on the
way; a Fraction or DyadicProb is built only for the n a caller reads, and
the fractions module loads only when a Fraction is built.
Each command runs one pass: `table` and `bound_report` read all their
rows from it, and the two lru-cached probabilities are views of it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .dyadic import DyadicProb

if TYPE_CHECKING:
    from fractions import Fraction


def _single_counts(n_max: int, k: int) -> list[int]:
    """U_n for the k-set, every n <= n_max; 0 below the smallest valid n."""
    e = [m * (m - 1) // 2 for m in range(n_max + 1)]
    u = [0] * (n_max + 1)
    for n in range(k + 1, n_max + 1):
        # Term i of the first sum and term j = i + 1 of the second share C(w, i-k).
        w = n - k - 1
        total = 0
        for i in range(k, n - 1):
            c = comb(w, i - k)
            total += (c << (e[i] + e[n - i])) - (c * u[i + 1] << e[n - i - 1])
        u[n] = total + (1 << e[n - 1])  # i = n - 1, where C(w, w) = 1 and C(1,2) = 0
    return u


def _joint_counts(n_max: int, k: int, single: list[int]) -> list[int]:
    """J_n for the k-set, every n <= n_max, from single = U_m at k = 1 for m <= n_max."""
    e = [m * (m - 1) // 2 for m in range(n_max + 1)]
    joint = [0] * (n_max + 1)
    for n in range(k + 2, n_max + 1):
        # Term i of the first sum and term j = i + 2 of the second share C(w, i-k).
        w = n - k - 2
        total = single[2] << e[n - 2]  # i = n - 2, where C(w, w) = 1
        for i in range(k, n - 2):
            c = comb(w, i - k)
            total += (c * single[n - i] << e[i]) - (c * joint[i + 2] << e[n - i - 2])
        joint[n] = total
    return joint


def _laws(n_max: int) -> tuple[list[int], list[int]]:
    """The single and joint counts at k = 1 for every n <= n_max: the K_n pass."""
    single = _single_counts(n_max, 1)
    return single, _joint_counts(n_max, 1, single)


@lru_cache(maxsize=None)
def unreachable_prob(n: int, k: int) -> Fraction:
    """P(no directed path from any of a k-set to the target) on K_n."""
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if n < k + 1:
        raise ValueError(f"need n >= k+1, got n={n}, k={k}")
    from fractions import Fraction

    return Fraction(_single_counts(n, k)[n], 1 << comb(n, 2))


@lru_cache(maxsize=None)
def joint_unreachable_prob(n: int, k: int) -> Fraction:
    """P(k-set has no path to the target and the target none to a third vertex)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if n < k + 2:
        raise ValueError(f"need n >= k+2, got n={n}, k={k}")
    from fractions import Fraction

    return Fraction(_joint_counts(n, k, _single_counts(n, 1))[n], 1 << comb(n, 2))


def _rel_cov_ratio(n: int) -> tuple[int, int]:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return table_row(n).rel_cov_ratio()


def relative_covariance(n: int) -> Fraction:
    """(p_joint - p_single^2) / p_joint for K_n, n >= 3.
    Each call runs the K_n pass from 2 to n: to loop over n, read table_rows once."""
    from fractions import Fraction

    return Fraction(*_rel_cov_ratio(n))


def covariance_sign(n: int) -> int:
    """Sign of the covariance of the two no-path events on K_n, n >= 3.
    Each call runs the K_n pass from 2 to n: to loop over n, read table_rows once."""
    # The denominator J 2^E is positive, so the unreduced numerator carries the sign.
    num, _ = _rel_cov_ratio(n)
    return (num > 0) - (num < 0)


class KnRow(NamedTuple):
    """One table row: exact no-path probabilities on K_n.

    scaled_single and scaled_joint are the numerators over 2^C(n,2); the
    joint columns are absent for n = 2.
    """

    n: int
    p_single: DyadicProb
    scaled_single: int
    p_joint: DyadicProb | None
    scaled_joint: int | None

    def rel_cov_ratio(self) -> tuple[int, int] | None:
        """The relative covariance as an unreduced (numerator, denominator) pair; None for n = 2."""
        if self.scaled_joint is None:
            return None
        # With S, J the counts over 2^E: rel_cov = (J 2^E - S^2) / (J 2^E).
        den = self.scaled_joint << comb(self.n, 2)
        return den - self.scaled_single * self.scaled_single, den


def _row(n: int, single: int, joint: int) -> KnRow:
    e = comb(n, 2)
    head = (n, DyadicProb.of(single, e), single)
    if n == 2:
        return KnRow(*head, None, None)
    return KnRow(*head, DyadicProb.of(joint, e), joint)


def table_row(n: int) -> KnRow:
    """The row for K_n, n >= 2.
    Each call runs the K_n pass from 2 to n: to loop over n, read table_rows once."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    single, joint = _laws(n)
    return _row(n, single[n], joint[n])


def table_rows(n_max: int) -> list[KnRow]:
    """The rows for 2 <= n <= n_max, all read off one pass."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    single, joint = _laws(n_max)
    return [_row(n, single[n], joint[n]) for n in range(2, n_max + 1)]


# The auxiliary sums and the sign margin live only as integers over a fixed
# power of two (or 25 times one), the form in which bound_report compares
# them with its bounds; no Fraction of them is ever built.

def _scaled_sums(n_max: int) -> list[tuple[int, int, int]]:
    """(top, sum2, sum3) for every n <= n_max: both auxiliary sums times 2^top, in one pass.

    top is the largest k(n-k) with 0 < k < n.  sum2, which bounds the
    single-event envelope slack, is the sum over k, m >= 1 of
    C(n,k) C(n-k,m) / 2^(k*m); sum3, which bounds the joint-event slack, is
    the sum over k, i, m >= 1 of C(n,k) C(n-k,i) C(k,m) / 2^(k*i + m*j) with
    j = n-k-i >= 1 and m <= k.  With r = n-k and P[a][b] = (2^a + 1)^b, the
    binomial theorem makes each k one integer over 2^(kr):
      sum2: C(n,k) (P[k][r] - 2^(kr)),
      sum3: C(n,k) (M(k,r) - 2^k - P[r][k] - P[k][r] + 1 + 2^(kr)),
    where M(k,r) = sum_j C(r,j) P[j][k] = sum_t C(k,t) P[t][r], summed over
    the shorter index.  P is built once, by columns, since every sum reads a
    column: cols[b][a] = P[a][b] for a + b <= n_max.
    """
    bases = [(1 << a) + 1 for a in range(n_max + 1)]
    cols = [[1] * (n_max + 1)]
    pascal = [[1]]  # pascal[n][k] = C(n, k)
    for b in range(1, n_max + 1):
        cols.append(list(map(mul, cols[-1], bases[:n_max + 1 - b])))
        pascal.append([1, *map(add, pascal[-1], pascal[-1][1:]), 1])
    sums = []
    for n in range(n_max + 1):
        top = (n // 2) * ((n + 1) // 2)
        sum2 = sum3 = 0
        for k in range(1, n):
            r, e = n - k, k * (n - k)
            mixed = sum(map(mul, pascal[min(k, r)], cols[max(k, r)]))
            c, own = pascal[n][k], cols[r][k]
            sum2 += c * (own - (1 << e)) << (top - e)
            sum3 += c * (mixed - (1 << k) - cols[k][r] - own + 1 + (1 << e)) << (top - e)
        sums.append((top, sum2, sum3))
    return sums


def _scaled_margin(n: int) -> int:
    """The sign margin times 25 * 64^(n-1), an integer for n >= 1.

    The margin is the error budget whose staying under 5 certifies positive
    covariance: 2^(5-n) + (32/5)(7/8)^(n-1) + (256/25)(49/64)^(n-1),
    scaled term by term.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 25 * (1 << (5 * n - 1)) + 160 * 56 ** (n - 1) + 256 * 49 ** (n - 1)


class BoundRow(NamedTuple):
    """Exact verdicts for the analytic bounds at one n.

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

    def checks(self) -> tuple[bool | None, ...]:
        """The eight pass/fail verdicts in `bounds` column order; None where n is too small."""
        return (self.single_lower_ok, self.single_upper_ok, self.joint_lower_ok,
                self.joint_upper_ok, self.sum2_bound_a_ok, self.sum2_bound_b_ok,
                self.sum3_bound_ok, self.margin_decreased)

    def all_ok(self) -> bool:
        return False not in self.checks()


def bound_report(n_max: int) -> list[BoundRow]:
    """Check every analytic bound exactly for 2 <= n <= n_max.

    Each bound is a sum of powers of 1/2, 7/8, 49/64, 7/4 or 13/8 times a
    constant over 5 or 25, and each law an integer over a power of two, so
    every check is one integer comparison with both sides multiplied by
    their denominators.  With S, J the counts over 2^E and E = C(n,2):
      single: 2^-(n-2) (1 - 2^-(n-1)) <= S/2^E <= 2^-(n-2) (1 + 3.2 (7/8)^(n-1)),
      joint:  2^-(2n-3) (3 - 2^-(n-4)) <= J/2^E <= 2^-(2n-3) (3 + 20.8 (7/8)^(n-3)),
      sums:   sum2 <= 5.6 (7/4)^n, sum2 <= 13.6 (13/8)^n, sum3 <= 4 (7/4)^n,
    and the margin M(n) = _scaled_margin(n), the sign margin times
    25 64^(n-1), decreases when M(n) < 64 M(n-1).  The scaled limits are
    S 2^(n-2) / 2^E and J 2^(2n-3) / 2^E, each one correctly rounded int
    division.
    """
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    singles, joints = _laws(n_max)
    sums = _scaled_sums(n_max)
    rows = []
    prev_margin = None
    for n in range(2, n_max + 1):
        e = n * (n - 1) // 2
        single = singles[n]
        if n >= 3:
            joint = joints[n]
            joint_lower_ok = ((3 << (n - 3)) - 2) << e <= joint << (3 * n - 6)
            joint_upper_ok = 5 * joint << (5 * n - 12) <= ((15 << 3 * (n - 3)) + 104 * 7 ** (n - 3)) << e
            joint_limit = joint / (1 << (e - 2 * n + 3))
            margin = _scaled_margin(n)
            margin_below = margin < 125 << 6 * (n - 1)
            margin_dec = margin < 64 * prev_margin if prev_margin is not None else None
            prev_margin = margin
        else:
            joint_lower_ok = joint_upper_ok = None
            joint_limit = None
            margin_below = margin_dec = None
        top, sum2, sum3 = sums[n]
        rows.append(BoundRow(
            n=n,
            single_lower_ok=((1 << (n - 1)) - 1) << e <= single << (2 * n - 3),
            single_upper_ok=5 * single << (4 * n - 5) <= ((5 << 3 * (n - 1)) + 16 * 7 ** (n - 1)) << e,
            joint_lower_ok=joint_lower_ok,
            joint_upper_ok=joint_upper_ok,
            sum2_bound_a_ok=5 * sum2 << 2 * n <= 28 * 7 ** n << top,
            sum2_bound_b_ok=5 * sum2 << 3 * n <= 68 * 13 ** n << top,
            sum3_bound_ok=sum3 << 2 * n <= 7 ** n << (top + 2),
            margin_below_5=margin_below,
            margin_decreased=margin_dec,
            single_scaled_limit=single / (1 << (e - n + 2)),
            joint_scaled_limit=joint_limit,
        ))
    return rows
