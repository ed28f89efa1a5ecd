"""Output checks: every CLI result of a round against an independent oracle.

check_query(query, output) returns one verdict per operation the query
performs: None when the result is right, otherwise a one-line reason.  A
crash, a nonzero exit or a mismatch is one failed operation.  The oracles are
in oracle.py.  Cycles and complete graphs are also checked against the
program's own closed forms (orientcorr.closed_form, orientcorr.complete),
which share no code with its orientation walk.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import oracle
from orientcorr import closed_form, complete

# Scaled K_n table integers for n <= 13, as published with the source paper:
# n -> (scaled_single, scaled_joint, rel_cov to six places).
FROZEN_KN_ROWS = {
    2: ("1", None, None),
    3: ("3", "1", "-0.125000"),
    4: ("16", "4", "0.000000"),
    5: ("150", "26", "0.154898"),
    6: ("2504", "272", "0.296523"),
    7: ("77472", "4672", "0.387428"),
    8: ("4677904", "139696", "0.416449"),
    9: ("571023120", "7928624", "0.401547"),
    10: ("142058571776", "917140928", "0.374613"),
    11: ("71626948215168", "220836999808", "0.355191"),
    12: ("72752562631695616", "109473061398784", "0.344746"),
    13: ("148346259329909191680", "110228037783934976", "0.339426"),
}
MC_TOLERANCE_SE = 5


class Mismatch(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _records(output: dict) -> list[dict]:
    _expect(output["code"] == 0, f"exit code {output['code']}: {output['stderr'].strip()[-200:]}")
    try:
        return [json.loads(line) for line in output["stdout"].splitlines()]
    except json.JSONDecodeError as exc:
        raise Mismatch(f"unparsable output: {exc}") from None


def _one_record(output: dict, command: str) -> dict:
    records = _records(output)
    _expect(len(records) == 1, f"{len(records)} records, expected 1")
    rec = records[0]
    _expect(rec.get("command") == command, f"command {rec.get('command')!r}")
    return rec


def _complete_law(n: int) -> tuple[Fraction, Fraction]:
    """(P(a -> s), P(a -> s and s -> b)) on K_n from the complete-graph recursions."""
    miss = complete.unreachable_prob(n, 1)
    both_miss = complete.joint_unreachable_prob(n, 1)
    return 1 - miss, 1 - 2 * miss + both_miss


def _check_exact(query: dict, output: dict) -> None:
    rec = _one_record(output, "exact")
    n, edges, (a, s, b) = query["n"], query["edges"], query["triple"]
    m = len(edges)
    _expect((rec["n"], rec["m"], rec["a"], rec["s"], rec["b"]) == (n, m, a, s, b), "echoed input differs")
    n_c, n_d, n_cd = oracle.exact_counts(n, edges, (a, s, b))
    _expect((rec["n_c"], rec["n_d"], rec["n_cd"]) == (n_c, n_d, n_cd),
            f"counts {(rec['n_c'], rec['n_d'], rec['n_cd'])} != oracle {(n_c, n_d, n_cd)}")
    for key, count in (("p_c", n_c), ("p_d", n_d), ("p_cd", n_cd)):
        _expect(rec[key]["exact"] == oracle.dyadic(count, m), f"{key} {rec[key]['exact']}")
        _expect(rec[key]["float"] == float(Fraction(count, 1 << m)), f"{key} float")
    cov = n_cd * (1 << m) - n_c * n_d
    _expect(rec["cov"]["sign"] == (cov > 0) - (cov < 0), "cov sign")
    _expect(rec["cov"]["magnitude"] == oracle.dyadic(abs(cov), 2 * m), "cov magnitude")
    if query["family"] == "cycle":
        cor = closed_form.cycle_correlation(closed_form.cycle_triple_from_labels(n, a, s, b))
        _expect([rec[k]["exact"] for k in ("p_c", "p_d", "p_cd")]
                == [str(cor.p_c), str(cor.p_d), str(cor.p_cd)], "differs from cycle closed form")
    if query["family"] == "complete":
        p_c, p_cd = _complete_law(n)
        _expect((Fraction(n_c, 1 << m), Fraction(n_cd, 1 << m)) == (p_c, p_cd),
                "differs from complete-graph recursion")


def _check_mc(query: dict, output: dict) -> None:
    rec = _one_record(output, "mc")
    n, edges, (a, s, b) = query["n"], query["edges"], query["triple"]
    samples, seed = query["samples"], query["mc_seed"]
    _expect((rec["n"], rec["m"], rec["a"], rec["s"], rec["b"], rec["samples"], rec["seed"])
            == (n, len(edges), a, s, b, samples, seed), "echoed input differs")
    c, d, cd = oracle.sampled_counts(n, edges, (a, s, b), samples, seed)
    got = (rec["count_c"], rec["count_d"], rec["count_cd"], rec["count_neither"])
    _expect(got == (c, d, cd, samples - c - d + cd), f"counts {got} != sample-stream replay")
    _expect((rec["p_c_hat"], rec["p_d_hat"], rec["p_cd_hat"]) == (c / samples, d / samples, cd / samples),
            "estimates differ from counts")
    _expect(rec["cov_hat"] == cd / samples - (c / samples) * (d / samples), "cov_hat differs from counts")
    se = _delta_se(cd / samples, c / samples, d / samples, samples)
    _expect(math.isclose(rec["se_cov"], se, rel_tol=1e-9, abs_tol=1e-9), f"se_cov {rec['se_cov']} != {se}")
    if query["family"] == "complete":
        # Tolerances use the standard errors of the exact law: the estimated
        # ones vanish when every sample lands in one cell.
        p_c, p_cd = _complete_law(n)
        tol = MC_TOLERANCE_SE
        for key, p in (("p_c_hat", p_c), ("p_d_hat", p_c), ("p_cd_hat", p_cd)):
            _expect(abs(rec[key] - p) <= tol * math.sqrt(p * (1 - p) / samples),
                    f"{key} {rec[key]} more than {tol} se from {float(p)}")
        se = _delta_se(float(p_cd), float(p_c), float(p_c), samples)
        _expect(abs(rec["cov_hat"] - float(p_cd - p_c * p_c)) <= tol * se,
                f"cov_hat {rec['cov_hat']} more than {tol} se from {float(p_cd - p_c * p_c)}")


def _delta_se(p_cd: float, p_c: float, p_d: float, samples: int) -> float:
    """Delta-method standard error of p_cd - p_c * p_d over the 2x2 cells."""
    cells = ((p_cd, 1 - p_c - p_d), (p_c - p_cd, -p_d), (p_d - p_cd, -p_c))
    mean = sum(q * g for q, g in cells)
    var = sum(q * g * g for q, g in cells) - mean * mean
    return math.sqrt(max(var, 0.0) / samples)


def _graph_verdict(meta: dict, index: int, rec: dict | None, expected: tuple[int, int, int]) -> None:
    _expect(rec is not None, "record missing")
    n, edges = meta["n"], meta["edges"]
    _expect((rec.get("type"), rec.get("index"), rec.get("graph6"), rec.get("n"), rec.get("m"))
            == ("graph", index, meta["graph6"], n, len(edges)), "record header differs from input")
    signs = (rec["neg_triples"], rec["zero_triples"], rec["pos_triples"])
    _expect(sum(signs) == n * (n - 1) * (n - 2), f"{sum(signs)} triples, expected n(n-1)(n-2)")
    _expect(signs == expected, f"signs {signs} != oracle {expected}")
    family = meta["family"]
    if family == "tree":
        _expect(signs == oracle.tree_signs(n, edges), "violates the forest dichotomy")
    elif family == "cycle":
        _expect(signs[1:] == (0, 0), "cycle triple not negative")
    elif family == "complete":
        # All triples of K_n share one sign; signs is ordered (neg, zero, pos).
        _expect(signs[complete.covariance_sign(n) + 1] == sum(signs),
                "differs from complete-graph covariance sign")
    _expect((rec["class_i"], rec["class_ii"], rec["class_iii"]) == _classes(signs), "class flags")
    _expect(rec["outerplanar"] is oracle.is_outerplanar(n, edges), "outerplanarity")


def _classes(signs: tuple[int, int, int]) -> tuple[bool, bool, bool]:
    neg, zero, pos = signs
    return pos == 0, (neg > 0 and pos > 0) or zero > 0, neg == 0


def _check_census(query: dict, output: dict) -> list[str | None]:
    graphs = query["graphs"]
    try:
        records = _records(output)
    except Mismatch as exc:
        return [str(exc)] * (len(graphs) + 1)
    signs = [oracle.census_signs(g["n"], g["edges"]) for g in graphs]
    verdicts = [_verdict(_graph_verdict, meta, index,
                         records[index] if index < len(records) - 1 else None, signs[index])
                for index, meta in enumerate(graphs)]
    expected = {"type": "summary", "graphs": len(graphs), "errors": 0, "skipped": 0}
    for key, flags in zip(("class_i", "class_ii", "class_iii"), zip(*map(_classes, signs))):
        expected[key] = sum(flags)

    def summary() -> None:
        _expect(len(records) == len(graphs) + 1, f"{len(records)} records for {len(graphs)} graphs")
        _expect(records[-1] == expected, f"summary {records[-1]}")
    verdicts.append(_verdict(summary))
    return verdicts


def _check_bounds(query: dict, output: dict) -> None:
    rec = _one_record(output, "bounds")
    _expect(rec["all_ok"] is True, "bounds report a failed check")
    _expect([r["n"] for r in rec["rows"]] == list(range(2, query["max_n"] + 1)), "row range")
    for r in rec["rows"]:
        flags = [v for k, v in r.items() if k.endswith("_ok") or k == "margin_decreased"]
        _expect(all(v is not False for v in flags), f"failed check at n={r['n']}")


def _table_row_verdict(n: int, row: dict | None) -> None:
    _expect(row is not None, "row missing")
    single, joint = oracle.kn_scaled(n)
    exp = n * (n - 1) // 2
    expected = {"n": n, "scaled_single": str(single),
                "p_single": oracle.decimal(Fraction(single, 1 << exp), 4),
                "scaled_joint": None, "p_joint": None, "rel_cov": None}
    if joint is not None:
        expected.update(scaled_joint=str(joint), p_joint=oracle.decimal(Fraction(joint, 1 << exp), 7),
                        rel_cov=oracle.decimal(Fraction(joint * (1 << exp) - single * single,
                                                        joint * (1 << exp)), 6))
    _expect(row == expected, f"row differs from integer recursion at n={n}")
    if n in FROZEN_KN_ROWS:
        _expect((row["scaled_single"], row["scaled_joint"], row["rel_cov"]) == FROZEN_KN_ROWS[n],
                f"row differs from frozen values at n={n}")


def _check_table(query: dict, output: dict) -> list[str | None]:
    ns = range(2, query["max_n"] + 1)
    try:
        rows = {r["n"]: r for r in _one_record(output, "table")["rows"]}
    except (Mismatch, KeyError, TypeError) as exc:
        return [f"table: {exc}"] * len(ns)
    return [_verdict(_table_row_verdict, n, rows.get(n)) for n in ns]


def _verdict(check, *args) -> str | None:
    try:
        check(*args)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def check_query(query: dict, output: dict) -> list[str | None]:
    """One verdict per operation of the query: None if right, else the reason."""
    kind = query["kind"]
    if kind == "classify":
        return _check_census(query, output)
    if kind == "table":
        return _check_table(query, output)
    single = {"exact": _check_exact, "mc": _check_mc, "bounds": _check_bounds}[kind]
    return [_verdict(single, query, output)]
