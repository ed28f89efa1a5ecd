"""Complete-graph recursions, the scaled table, and the analytic bounds."""

import dataclasses
import sys
from fractions import Fraction

import pytest

from orientcorr import (
    Triple,
    bound_report,
    complete_graph,
    count_events,
    covariance_sign,
    double_binomial_sum,
    fraction_to_decimal,
    joint_unreachable_prob,
    relative_covariance,
    sign_margin,
    table_row,
    triple_binomial_sum,
    unreachable_prob,
)
from support import (
    ref_double_binomial_sum,
    ref_joint_unreachable_prob,
    ref_out_set_counts,
    ref_triple_binomial_sum,
    ref_unreachable_prob,
)

# Golden rows: scaled no-path probabilities over 2^C(n,2) and the relative
# covariance to six decimals.  Cross-checked against exhaustive enumeration
# for n <= 7 (see test_recursion_equals_enumeration and the acceptance
# suite); the larger rows pin the recursion against regressions.
GOLDEN_ROWS = {
    2: (1, None, None),
    3: (3, 1, "-0.125000"),
    4: (16, 4, "0.000000"),
    5: (150, 26, "0.154898"),
    6: (2504, 272, "0.296523"),
    7: (77472, 4672, "0.387428"),
    8: (4677904, 139696, "0.416449"),
    9: (571023120, 7928624, "0.401547"),
    10: (142058571776, 917140928, "0.374613"),
    11: (71626948215168, 220836999808, "0.355191"),
    12: (72752562631695616, 109473061398784, "0.344746"),
    13: (148346259329909191680, 110228037783934976, "0.339426"),
}


def test_base_cases():
    assert unreachable_prob(1, 0) == 1
    assert unreachable_prob(2, 1) == Fraction(1, 2)
    assert unreachable_prob(3, 1) == Fraction(3, 8)
    assert joint_unreachable_prob(2, 0) == Fraction(1, 2)
    assert joint_unreachable_prob(3, 1) == Fraction(1, 8)


def test_domain_errors():
    with pytest.raises(ValueError):
        unreachable_prob(0, 0)
    with pytest.raises(ValueError):
        unreachable_prob(3, 3)
    with pytest.raises(ValueError):
        joint_unreachable_prob(3, 2)
    for n, k in [(5, -1), (3, -2), (6, -3), (0, -1)]:
        for prob in (unreachable_prob, joint_unreachable_prob):
            with pytest.raises(ValueError, match="need k >= 0"):
                prob(n, k)
    with pytest.raises(ValueError):
        covariance_sign(2)
    with pytest.raises(ValueError):
        table_row(1)
    with pytest.raises(ValueError):
        bound_report(2)


@pytest.mark.parametrize("n", sorted(GOLDEN_ROWS))
def test_table_rows_match_goldens(n):
    scaled_single, scaled_joint, rel = GOLDEN_ROWS[n]
    row = table_row(n)
    assert row.scaled_single == scaled_single
    assert row.scaled_joint == scaled_joint
    if rel is None:
        assert row.rel_cov is None
    else:
        assert fraction_to_decimal(row.rel_cov, 6) == rel


def test_recursion_equals_enumeration():
    # The two independent routes to P(no path): conditioning recursion vs
    # walking every orientation.  Complement counts give the no-path side.
    for n in range(3, 7):
        counts = count_events(complete_graph(n), Triple(0, 1, 2))
        total = counts.total
        no_single = Fraction(total - counts.n_c, total)
        no_joint = Fraction(total - counts.n_c - counts.n_d + counts.n_cd, total)
        assert unreachable_prob(n, 1) == no_single
        assert joint_unreachable_prob(n, 1) == no_joint


def test_recursions_match_fraction_reference():
    # Every valid state up to n = 30 against the recursions written directly
    # in Fraction arithmetic.
    for n in range(1, 31):
        for k in range(n):
            assert unreachable_prob(n, k) == ref_unreachable_prob(n, k), (n, k)
        for k in range(n - 1):
            assert joint_unreachable_prob(n, k) == ref_joint_unreachable_prob(n, k), (n, k)


def test_table_rows_match_out_set_recursion():
    # A second oracle, carried to large n: it sums over a's reach set with
    # an explicit count of the tournaments in which a reaches everything,
    # which the library's recursions never form.
    single, joint = ref_out_set_counts(120)
    for n in range(2, 121):
        row = table_row(n)
        assert row.scaled_single == single[n], n
        assert row.scaled_joint == joint.get(n), n


def _recursion_depth():
    """The depth the interpreter counts here: the lowest recursion limit it accepts."""
    limit = sys.getrecursionlimit()
    low, high = 1, limit
    while low < high:
        mid = (low + high) // 2
        try:
            sys.setrecursionlimit(mid)
            high = mid
        except RecursionError:
            low = mid + 1
    sys.setrecursionlimit(limit)
    return low


def test_cold_row_keeps_few_states_and_a_flat_stack():
    # Each state reads only smaller n of the same two caches, visited from
    # the bottom up, so a cold row needs O(n) states and a stack of fixed
    # depth.
    unreachable_prob.cache_clear()
    joint_unreachable_prob.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 30)
    try:
        row = table_row(150)
    finally:
        sys.setrecursionlimit(limit)
    assert row.rel_cov is not None
    states = unreachable_prob.cache_info().currsize + joint_unreachable_prob.cache_info().currsize
    assert states <= 2 * 150


def test_auxiliary_sums_match_triple_loop_reference():
    for n in range(0, 41):
        assert double_binomial_sum(n) == ref_double_binomial_sum(n), n
        assert triple_binomial_sum(n) == ref_triple_binomial_sum(n), n


def test_sign_sequence():
    assert [covariance_sign(n) for n in range(3, 16)] == [-1, 0] + [1] * 11


def test_monotone_in_set_size():
    for n in range(2, 12):
        values = [unreachable_prob(n, k) for k in range(n)]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_joint_below_single():
    for n in range(3, 12):
        for k in range(1, n - 1):
            assert joint_unreachable_prob(n, k) <= unreachable_prob(n, k)


def test_auxiliary_sums():
    assert double_binomial_sum(0) == 0
    assert double_binomial_sum(1) == 0
    assert double_binomial_sum(2) == 1
    assert triple_binomial_sum(2) == 0
    # Hand-expanded: only k=1, i=1 contributes C(3,1)*C(2,1)/2 * C(1,1)/2.
    assert triple_binomial_sum(3) == Fraction(3, 2)


def test_auxiliary_sums_against_direct_fraction_sums():
    for n in range(2, 14):
        direct2 = sum(
            Fraction(1, 2) ** (k * m) * _comb(n, k) * _comb(n - k, m)
            for k in range(1, n) for m in range(1, n - k + 1))
        assert double_binomial_sum(n) == direct2
        direct3 = sum(
            Fraction(1, 2) ** (k * i + m * (n - k - i)) * _comb(n, k) * _comb(n - k, i) * _comb(k, m)
            for k in range(1, n) for i in range(1, n - k) for m in range(1, k + 1))
        assert triple_binomial_sum(n) == direct3


def _comb(n, k):
    from math import comb
    return comb(n, k)


def test_bound_report_all_true_to_40():
    rows = bound_report(40)
    assert [r.n for r in rows] == list(range(2, 41))
    assert all(r.all_ok() for r in rows)


def test_bound_row_checks_are_the_verdicts_in_column_order():
    rows = bound_report(5)
    verdicts = ("single_lower_ok", "single_upper_ok", "joint_lower_ok", "joint_upper_ok",
                "sum2_bound_a_ok", "sum2_bound_b_ok", "sum3_bound_ok", "margin_decreased")
    for r in rows:
        assert r.checks() == tuple(getattr(r, name) for name in verdicts)
    # n = 2 has no joint verdicts: None is not a failure, False is.
    assert rows[0].checks()[2:4] == (None, None) and rows[0].all_ok()
    assert not dataclasses.replace(rows[2], margin_decreased=False).all_ok()


def test_margin_first_below_five_at_eight():
    assert sign_margin(7) > 5
    assert sign_margin(8) < 5
    by_n = {r.n: r for r in bound_report(10)}
    assert by_n[7].margin_below_5 is False
    assert by_n[8].margin_below_5 is True


def test_envelope_equalities_at_small_n():
    # The lower envelopes are tight at the smallest admissible n.
    assert unreachable_prob(3, 1) == Fraction(1, 2) * (1 - Fraction(1, 4))
    assert joint_unreachable_prob(3, 1) == Fraction(1, 8) * (3 - 2)


def test_relative_covariance_is_the_ratio_of_the_exact_laws():
    for n in range(3, 121):
        single, joint = unreachable_prob(n, 1), joint_unreachable_prob(n, 1)
        assert relative_covariance(n) == (joint - single * single) / joint


def test_relative_covariance_trend_toward_one_third():
    deviations = [abs(relative_covariance(n) - Fraction(1, 3)) for n in range(10, 16)]
    assert all(x > y for x, y in zip(deviations, deviations[1:]))


def test_scaled_limits_near_targets():
    by_n = {r.n: r for r in bound_report(30)}
    assert 0.95 < by_n[30].single_scaled_limit < 1.05
    assert 2.85 < by_n[30].joint_scaled_limit < 3.15
