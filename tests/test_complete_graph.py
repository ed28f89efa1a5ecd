"""Complete-graph recursions, the scaled table, and the analytic bounds."""

import ast
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orientcorr import (
    Triple,
    bound_report,
    complete_graph,
    count_events,
    covariance_sign,
    joint_unreachable_prob,
    relative_covariance,
    table_row,
    table_rows,
    unreachable_prob,
)
from orientcorr.complete import _scaled_double_sum, _scaled_margin, _scaled_triple_sum, _sum_exponent
from orientcorr.dyadic import ratio_to_decimal
from support import (
    ref_bound_report,
    ref_double_binomial_sum,
    ref_joint_unreachable_prob,
    ref_out_set_counts,
    ref_sign_margin,
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
    with pytest.raises(ValueError, match=r"need n >= k\+1, got n=0, k=0"):
        unreachable_prob(0, 0)
    with pytest.raises(ValueError, match=r"need n >= k\+1, got n=3, k=3"):
        unreachable_prob(3, 3)
    with pytest.raises(ValueError, match=r"need n >= k\+2, got n=3, k=2"):
        joint_unreachable_prob(3, 2)
    # k = 0 needs n >= 2, and the message names the caller's own k.
    for n in (1, 0):
        with pytest.raises(ValueError, match=rf"need n >= k\+2, got n={n}, k=0"):
            joint_unreachable_prob(n, 0)
    for n, k in [(5, -1), (3, -2), (6, -3), (0, -1)]:
        for prob in (unreachable_prob, joint_unreachable_prob):
            with pytest.raises(ValueError, match="need k >= 0"):
                prob(n, k)
    with pytest.raises(ValueError):
        covariance_sign(2)
    with pytest.raises(ValueError):
        table_row(1)
    with pytest.raises(ValueError):
        table_rows(1)
    with pytest.raises(ValueError):
        bound_report(2)


@pytest.mark.parametrize("n", sorted(GOLDEN_ROWS))
def test_table_rows_match_goldens(n):
    scaled_single, scaled_joint, rel = GOLDEN_ROWS[n]
    row = table_row(n)
    assert row.scaled_single == scaled_single
    assert row.scaled_joint == scaled_joint
    if rel is None:
        assert row.rel_cov_ratio() is None
    else:
        value = relative_covariance(n)
        assert ratio_to_decimal(value.numerator, value.denominator, 6) == rel


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


def test_small_k_sets_match_fraction_reference_to_60():
    # k = 0 runs the same recurrences as every other k: no marked vertex
    # reaches the target, and with none the joint law is the single law at
    # k = 1 (the target must reach no third vertex).
    for n in range(1, 61):
        for k in range(min(6, n)):
            assert unreachable_prob(n, k) == ref_unreachable_prob(n, k), (n, k)
        for k in range(min(6, n - 1)):
            assert joint_unreachable_prob(n, k) == ref_joint_unreachable_prob(n, k), (n, k)
        assert unreachable_prob(n, 0) == 1
        if n >= 2:
            assert joint_unreachable_prob(n, 0) == unreachable_prob(n, 1)


def test_table_rows_match_out_set_recursion():
    # A second oracle, carried to large n: it sums over a's reach set with
    # an explicit count of the tournaments in which a reaches everything,
    # which the library's recursions never form.  The rows come from the
    # one pass that `table` runs.
    single, joint = ref_out_set_counts(120)
    rows = table_rows(120)
    assert [row.n for row in rows] == list(range(2, 121))
    for row in rows:
        assert row.scaled_single == single[row.n], row.n
        assert row.scaled_joint == joint.get(row.n), row.n
    assert rows[-1] == table_row(120)


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
    # A row reads its counts off one loop over n, not through the two
    # cached probabilities, so a cold row leaves no state in their caches
    # and needs a stack of fixed depth.
    unreachable_prob.cache_clear()
    joint_unreachable_prob.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 30)
    try:
        row = table_row(150)
    finally:
        sys.setrecursionlimit(limit)
    assert row.rel_cov_ratio() is not None
    states = unreachable_prob.cache_info().currsize + joint_unreachable_prob.cache_info().currsize
    assert states == 0


def test_complete_holds_no_memo_but_the_two_cleared_caches():
    """complete.py memoises nothing but unreachable_prob and joint_unreachable_prob.

    The benchmark worker (perfbench/worker.py) clears exactly those two
    lru_caches before each query, as a fresh process starts with them empty.
    Any other memo in the module (a cache decorator, or a module-level dict,
    list or set filled at run time) would carry results from one query to
    the next, and its warm hits would read as a speed-up of the code.
    """
    path = Path(__file__).resolve().parent.parent / "src" / "orientcorr" / "complete.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    cached = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if "cache" in name:
                    cached.add(node.name)
        assert not isinstance(node, (ast.Global, ast.Nonlocal)), ast.unparse(node)
    assert cached == {"unreachable_prob", "joint_unreachable_prob"}
    mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            value = node.value
            called = value.func.id if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) else ""
            assert not isinstance(value, mutable), ast.unparse(node)
            assert called not in {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}, \
                ast.unparse(node)


def _double_sum(n):
    return Fraction(_scaled_double_sum(n), 1 << _sum_exponent(n))


def _triple_sum(n):
    return Fraction(_scaled_triple_sum(n), 1 << _sum_exponent(n))


def test_auxiliary_sums_match_triple_loop_reference():
    for n in range(0, 61):
        scale = 1 << _sum_exponent(n)
        assert _scaled_double_sum(n) == ref_double_binomial_sum(n) * scale, n
        assert _scaled_triple_sum(n) == ref_triple_binomial_sum(n) * scale, n


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
    assert _double_sum(0) == 0
    assert _double_sum(1) == 0
    assert _double_sum(2) == 1
    assert _triple_sum(2) == 0
    # Hand-expanded: only k=1, i=1 contributes C(3,1)*C(2,1)/2 * C(1,1)/2.
    assert _triple_sum(3) == Fraction(3, 2)


def test_auxiliary_sums_against_direct_fraction_sums():
    for n in range(2, 14):
        direct2 = sum(
            Fraction(1, 2) ** (k * m) * _comb(n, k) * _comb(n - k, m)
            for k in range(1, n) for m in range(1, n - k + 1))
        assert _double_sum(n) == direct2
        direct3 = sum(
            Fraction(1, 2) ** (k * i + m * (n - k - i)) * _comb(n, k) * _comb(n - k, i) * _comb(k, m)
            for k in range(1, n) for i in range(1, n - k) for m in range(1, k + 1))
        assert _triple_sum(n) == direct3


def _comb(n, k):
    from math import comb
    return comb(n, k)


def test_bound_report_all_true_to_40():
    rows = bound_report(40)
    assert [r.n for r in rows] == list(range(2, 41))
    assert all(r.all_ok() for r in rows)


def test_bound_report_matches_the_fraction_oracle():
    # Every verdict, the margin_decreased chain and both float columns,
    # against the checks done in Fraction arithmetic.  A row depends on n
    # only, not on n_max, so the oracle runs once; every n_max to 60 and a
    # few larger ones show that (all 148 up to 150 take about 6 s).
    oracle = ref_bound_report(150)
    for n_max in [*range(3, 61), 80, 100, 120, 150]:
        assert bound_report(n_max) == oracle[:n_max - 1], n_max


def test_sign_margin_matches_the_fraction_oracle():
    for n in range(1, 151):
        assert _scaled_margin(n) == ref_sign_margin(n) * 25 * 64 ** (n - 1), n
    with pytest.raises(ValueError, match="need n >= 1"):
        _scaled_margin(0)


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
    # The margin is under 5 when its scaled form is under 5 * 25 * 64^(n-1).
    assert _scaled_margin(7) > 125 * 64 ** 6
    assert _scaled_margin(8) < 125 * 64 ** 7
    by_n = {r.n: r for r in bound_report(10)}
    assert by_n[7].margin_below_5 is False
    assert by_n[8].margin_below_5 is True


def test_envelope_equalities_at_small_n():
    # The lower envelopes are tight at the smallest admissible n.
    assert unreachable_prob(3, 1) == Fraction(1, 2) * (1 - Fraction(1, 4))
    assert joint_unreachable_prob(3, 1) == Fraction(1, 8) * (3 - 2)


def test_relative_covariance_is_the_ratio_of_the_exact_laws():
    # The laws come from one pass; each view runs a pass of its own, and the
    # views are checked against the rows in test_views_match_the_rows.
    for row in table_rows(120)[1:]:
        single, joint = row.p_single.as_fraction(), row.p_joint.as_fraction()
        assert relative_covariance(row.n) == (joint - single * single) / joint


def test_views_match_the_rows():
    # The two cached probabilities and the rows read the same counts.
    rows = table_rows(60)
    for n in (2, 3, 4, 5, 17, 31, 60):
        row = rows[n - 2]
        assert unreachable_prob(n, 1) == row.p_single.as_fraction()
        if n >= 3:
            assert joint_unreachable_prob(n, 1) == row.p_joint.as_fraction()
            rel = relative_covariance(n)
            assert covariance_sign(n) == (rel > 0) - (rel < 0)
    assert joint_unreachable_prob(60, 0) == unreachable_prob(60, 1)


def test_covariance_sign_is_the_sign_of_the_relative_covariance():
    for n in range(3, 151):
        rel = relative_covariance(n)
        assert covariance_sign(n) == (rel > 0) - (rel < 0), n
    for n in (2, 1, 0, -1):
        with pytest.raises(ValueError, match=f"need n >= 3, got {n}"):
            covariance_sign(n)


def test_relative_covariance_trend_toward_one_third():
    deviations = [abs(relative_covariance(n) - Fraction(1, 3)) for n in range(10, 16)]
    assert all(x > y for x, y in zip(deviations, deviations[1:]))


def test_scaled_limits_near_targets():
    by_n = {r.n: r for r in bound_report(30)}
    assert 0.95 < by_n[30].single_scaled_limit < 1.05
    assert 2.85 < by_n[30].joint_scaled_limit < 3.15
