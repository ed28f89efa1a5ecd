"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, ends with a result line that holds
   exactly the metrics BENCHMARK.json names, with their units, and prints the
   workload's own end-to-end metrics and fail_ratio above it.
2. The outerplanarity oracle gives the known answer on a few graphs.
3. Each checker, fed a wrong answer, counts a failed operation.  The fault is
   put into a copy of a real round's output, never into the program.

Exits 0 when every case passes; prints one line per case.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def metrics_cases(spec: dict):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = _bench(workload, trace)
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            extra = {"fail_ratio"} | (set(run.PRINTED) | set(run.WORKLOAD_METRICS[workload]) if not trace else set())
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1 and got == wanted
                  and all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
                  and set(wanted) | extra <= printed)
            yield f"{workload} --trace {trace}: metrics emitted", ok


def oracle_cases():
    """The outerplanarity oracle on graphs whose answer is known."""
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    known = (
        ("K4", 4, k4, False),
        ("K2,3", 5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], False),
        ("K4 with two edges subdivided", 6, [(0, 1), (0, 2), (0, 4), (4, 3), (1, 2), (1, 3), (2, 5), (5, 3)], False),
        ("K4 with a pendant path", 6, k4 + [(3, 4), (4, 5)], False),
        ("C9", 9, [(i, (i + 1) % 9) for i in range(9)], True),
        ("fan on 8 vertices", 8, [(0, i) for i in range(1, 8)] + [(i, i + 1) for i in range(1, 7)], True),
        ("star on 9 vertices", 9, [(0, i) for i in range(1, 9)], True),
        ("two triangles joined by a path", 7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)], True),
    )
    for name, n, edges, expected in known:
        yield f"oracle: {name} outerplanar is {expected}", oracle.is_outerplanar(n, edges) is expected


def _edit_record(output: dict, edit, pick=lambda record: True) -> dict:
    """A copy of output with its first JSON line that pick() accepts changed by edit(record)."""
    bad = copy.deepcopy(output)
    lines = bad["stdout"].splitlines()
    line = next(i for i, x in enumerate(lines) if pick(json.loads(x)))
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record)
    bad["stdout"] = "".join(x + "\n" for x in lines)
    return bad


def _set(path, value):
    def edit(record):
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return edit


def _unreduced(dyadic: str) -> str:
    """'N/2^E' -> '2N/2^(E+1)': the same value, not in lowest terms."""
    num, exp = dyadic.split("/2^")
    return f"{2 * int(num)}/2^{int(exp) + 1}"


# (workload, query label, description, corrupt(output) -> output)
FAULTS = (
    ("triple", "gnp6", "exact n_cd off by one", lambda o: _edit_record(o, _set(["n_cd"], lambda v: v + 1))),
    ("triple", "small5", "exact p_c not in lowest terms",
     lambda o: _edit_record(o, _set(["p_c", "exact"], _unreduced))),
    ("triple", "cycle8", "exact run crashed", lambda o: {**o, "code": None}),
    ("triple", "k5", "mc count_c off by one", lambda o: _edit_record(o, _set(["count_c"], lambda v: v + 1))),
    ("triple", "gnp12", "mc se_cov wrong", lambda o: _edit_record(o, _set(["se_cov"], lambda v: v * 2 + 1e-3))),
    ("census", "stream", "census sign moved", lambda o: _edit_record(
        o, lambda r: r.update(neg_triples=r["neg_triples"] - 1, pos_triples=r["pos_triples"] + 1))),
    # Both have m <= 2n - 3, so the edge bound alone cannot tell.
    ("census", "stream", "census non-outerplanar graph reported outerplanar",
     lambda o: _edit_record(o, _set(["outerplanar"], True),
                            lambda r: r.get("outerplanar") is False and r["m"] <= 2 * r["n"] - 3)),
    ("census", "stream", "census outerplanar graph reported not outerplanar",
     lambda o: _edit_record(o, _set(["outerplanar"], False),
                            lambda r: r.get("outerplanar") is True and r["m"] >= r["n"])),
    ("census", "stream", "census record dropped",
     lambda o: {**o, "stdout": "".join(x + "\n" for x in o["stdout"].splitlines()[1:])}),
    ("kn-table", "bounds", "bounds not all_ok", lambda o: _edit_record(o, _set(["all_ok"], False))),
    ("kn-table", "table", "frozen table row changed",
     lambda o: _edit_record(o, _set(["rows", 8, "scaled_joint"], lambda v: str(int(v) + 2)))),
    ("kn-table", "table", "table row past the frozen range changed",
     lambda o: _edit_record(o, _set(["rows", 12, "rel_cov"], "0.000000"))),
)


def fault_cases():
    rounds = {w: run.run_round(w, 1, False, True) for w in {f[0] for f in FAULTS}}
    for workload, r in rounds.items():
        verdicts = [v for q, o in zip(r["queries"], r["outputs"]) for v in check.check_query(q, o)]
        yield f"{workload}: real outputs pass", all(v is None for v in verdicts)
    for workload, label, what, corrupt in FAULTS:
        r = rounds[workload]
        index = next(i for i, q in enumerate(r["queries"]) if q["label"] == label)
        outputs = list(r["outputs"])
        outputs[index] = corrupt(outputs[index])
        verdicts = [v for q, o in zip(r["queries"], outputs) for v in check.check_query(q, o)]
        failed = sum(v is not None for v in verdicts)
        yield f"{workload}: {what} -> fail_ratio {failed}/{len(verdicts)}", failed > 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name, ok in [*oracle_cases(), *metrics_cases(spec), *fault_cases()]:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
