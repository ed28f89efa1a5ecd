"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single [PASS]/[FAIL] line on
the real stdout (bypassing capture) and then asserts, so a plain verbose
pytest run shows the complete scorecard.
"""

import json
from fractions import Fraction

import pytest

from orientcorr import (
    CycleTriple,
    SignedDyadic,
    Triple,
    TripleCorrelation,
    bound_report,
    classify,
    complete_graph,
    count_events,
    covariance_sign,
    cycle_correlation,
    cycle_graph,
    exact_correlation,
    forest_correlation,
    joint_unreachable_prob,
    mc_estimate,
    relative_covariance,
    sweep_sources,
    unreachable_prob,
)
from orientcorr.cli import main
from support import diamond, tree_corpus
from test_complete_graph import GOLDEN_ROWS

K5_EDGES = "5\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{status}] criterion {num}: {detail}")
        assert ok, f"criterion {num}: {detail}"
    return _report


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_criterion_01_scaled_table(report, capsys):
    code, out, _ = run_cli(capsys, ["--json", "table", "--max-n", "13"])
    rec = json.loads(out)
    ok = code == 0 and [r["n"] for r in rec["rows"]] == list(range(2, 14))
    for row in rec["rows"]:
        single, joint, rel = GOLDEN_ROWS[row["n"]]
        got_joint = int(row["scaled_joint"]) if row["scaled_joint"] is not None else None
        ok = ok and int(row["scaled_single"]) == single
        ok = ok and got_joint == joint and row["rel_cov"] == rel
    report(1, ok, "complete-graph table n=2..13 reproduces all frozen "
                  "scaled integers and 6-decimal relative covariances")


def test_criterion_02_near_clique_covariances(report):
    pos = exact_correlation(diamond(), Triple(0, 2, 1)).cov
    neg = exact_correlation(diamond(), Triple(2, 0, 3)).cov
    ok = pos == SignedDyadic.of(7, 10) and neg == SignedDyadic.of(-25, 10)
    report(2, ok, "near-clique labelings give covariance +7/1024 and -25/1024 exactly")


def test_criterion_03_recursion_equals_enumeration(report):
    ok = True
    for n in range(3, 8):
        counts = count_events(complete_graph(n), Triple(0, 1, 2), threads=2)
        total = counts.total
        no_path = Fraction(total - counts.n_c, total)
        no_either = Fraction(total - counts.n_c - counts.n_d + counts.n_cd, total)
        ok = ok and no_path == unreachable_prob(n, 1)
        ok = ok and no_either == joint_unreachable_prob(n, 1)
    report(3, ok, "recursion matches exhaustive enumeration on complete graphs n=3..7")


def test_criterion_04_sign_sequence(report):
    signs = [covariance_sign(n) for n in range(3, 16)]
    ok = signs == [-1, 0] + [1] * 11
    report(4, ok, "complete-graph covariance signs n=3..15 run -, 0, then all +")


def test_criterion_05_cycle_closed_form(report):
    ok = True
    for n in range(3, 11):
        g = cycle_graph(n)
        ceiling = -Fraction(1, 4) ** n
        for c in range(1, n - 1):
            for d in range(1, n - c):
                cor = cycle_correlation(CycleTriple(n, c, d))
                ok = ok and cor == exact_correlation(g, Triple(0, c, (c + d) % n))
                cov = cor.cov.as_fraction()
                ok = ok and cov <= ceiling
                ok = ok and (cov == ceiling) == (c == 1 and d == 1)
    report(5, ok, "cycle closed form matches enumeration for n=3..10; "
                  "cov <= -(1/2)^(2n), tight exactly when c=d=1")


def _tree_distances(g, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            row = g.adjacency[v]
            w = 0
            while row:
                if row & 1 and w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
                row >>= 1
                w += 1
        frontier = nxt
    return dist


def test_criterion_06_forest_dichotomy(report):
    trees = tree_corpus()
    ok = len(trees) >= 50
    for g in trees:
        joints = sweep_sources(g)
        for s in range(g.n):
            joint = joints[s]
            from_s = _tree_distances(g, s)
            for a in range(g.n):
                from_a = _tree_distances(g, a)
                for b in range(g.n):
                    if len({a, s, b}) != 3:
                        continue
                    verdict = forest_correlation(g, Triple(a, s, b))
                    enumerated = TripleCorrelation.from_scaled(
                        joint[a][s], joint[s][b], joint[a][b], g.m)
                    ok = ok and verdict.correlation == enumerated
                    via_s = from_a[s] + from_s[b] == from_a[b]
                    ok = ok and (verdict.kind == "independent") == via_s
    report(6, ok, f"forest dichotomy matches enumeration on {len(trees)} trees; "
                  "verdicts follow the via-middle path test")


def test_criterion_07_bound_report(report):
    rows = bound_report(40)
    ok = all(r.all_ok() for r in rows)
    by_n = {r.n: r for r in rows}
    ok = ok and by_n[8].margin_below_5 is True
    ok = ok and all(by_n[n].margin_decreased for n in range(4, 41))
    report(7, ok, "exact bound report rows n=2..40 all pass; sign margin "
                  "decreasing and below 5 from n=8")


def test_criterion_08_limit_trend(report):
    single = float(unreachable_prob(30, 1) * 2 ** 28)
    joint = float(joint_unreachable_prob(30, 1) * 2 ** 57)
    ok = 0.95 < single < 1.05 and 2.85 < joint < 3.15
    gaps = [abs(relative_covariance(n) - Fraction(1, 3)) for n in range(10, 16)]
    ok = ok and all(late < early for early, late in zip(gaps, gaps[1:]))
    report(8, ok, "scaled no-path probabilities near limits 1 and 3 at n=30; "
                  "|rel_cov - 1/3| strictly decreasing over n=10..15")


def test_criterion_09_classifier(report):
    k4 = classify(complete_graph(4))
    ok = k4.class_i and k4.class_ii and k4.class_iii
    for n in (5, 6):
        flags = classify(complete_graph(n), threads=4)
        ok = ok and flags.class_iii and not flags.class_i
    for n in range(3, 9):
        ok = ok and classify(cycle_graph(n)).class_i
    for g in tree_corpus():
        ok = ok and classify(g).class_i
    ok = ok and classify(diamond()).class_ii
    report(9, ok, "class flags correct on cliques, cycles, all test trees, "
                  "and the near-clique")


def test_criterion_10_mc_calibration(report, capsys, tmp_path):
    g = complete_graph(5)
    t = Triple(0, 1, 2)
    truth = 26 / 1024
    samples = 100_000
    hits = 0
    for seed in range(200):
        est = mc_estimate(g, t, samples, seed)
        frac = est.count_neither / samples
        se = (frac * (1 - frac) / samples) ** 0.5
        hits += abs(frac - truth) <= 3 * se
    ok = hits >= 198
    for seed in (0, 1):
        ok = ok and mc_estimate(g, t, samples, seed) == mc_estimate(
            g, t, samples, seed, threads=8)
    path = tmp_path / "k5.txt"
    path.write_text(K5_EDGES)
    argv = ["--json", "mc", "--edges", str(path), "--a", "0", "--s", "1", "--b", "2",
            "--samples", "100000", "--seed", "7"]
    ok = ok and run_cli(capsys, argv + ["--threads", "1"]) == run_cli(
        capsys, argv + ["--threads", "8"])
    report(10, ok, f"no-path frequency within 3 se of 26/1024 in {hits}/200 "
                   "seeded runs; worker split byte-identical")


def test_criterion_11_determinism(report, capsys, tmp_path):
    path = tmp_path / "p8.txt"
    path.write_text("8\n" + "".join(f"{v} {v + 1}\n" for v in range(7)))
    commands = [
        ["kn", "--n", "10"],
        ["table", "--max-n", "13"],
        ["--json", "exact", "--graph6", "D~{", "--a", "0", "--s", "1", "--b", "2"],
        ["cycle", "--n", "8", "--c", "2", "--d", "3"],
        ["forest", "--edges", str(path), "--a", "0", "--s", "3", "--b", "7"],
        ["--json", "classify", "--graph6", "C~"],
        ["--json", "bounds", "--max-n", "20"],
    ]
    ok = True
    for argv in commands:
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        ok = ok and first == second == run_cli(capsys, argv + ["--threads", "1"]) \
            == run_cli(capsys, argv + ["--threads", "8"])
    report(11, ok, "every exact command byte-identical across consecutive "
                   "runs and across 1 vs 8 threads")
