"""The orientcorr benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs rounds of the workload, each in a fresh interpreter (worker.py), until
the next round would end past --seconds (at least MIN_ROUNDS rounds).  The
work is deterministic and host interference only adds time, so set-up and
wall time are taken from the fastest round; other metrics are medians over
rounds.  The host's speed drifts over minutes, so the wall time that the
result line carries is wall_norm: each round's wall time over the time of a
fixed reference kernel run in the same interpreter (worker.reference_s).
Every output is checked against an independent oracle (check.py).
Prints each metric by name with its unit, then a run record, then, as the
last line, one JSON object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, plus tracing overhead.  --tiny shrinks every input (used by
selftest.py).  Exits 1 if any output check fails, 2 if the program's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_norm": "ref", "peak_rss_mb": "MB"}
# In the printed lines only: the raw times behind wall_norm, and metrics of
# one workload (every metric in the final JSON line is required on every
# workload).
PRINTED = {"wall_s": "s", "reference_s": "s"}
WORKLOAD_METRICS = {
    "triple": {"exact_orient_per_s": "1/s", "mc_samples_per_s": "1/s"},
    "census": {"graph_p50_s": "s", "graph_p90_s": "s"},
    "kn-table": {},
}
# per-layer metric -> (span name, field of spans.layer_totals, unit)
LAYERS = {
    "enumeration.count_events.self_s": ("enumeration.count_events", "self_s", "s"),
    "enumeration.count_events.words": ("enumeration.count_events", "words", "count"),
    "enumeration.sweep_source.self_s": ("enumeration.sweep_source", "self_s", "s"),
    "enumeration.sweep_source.calls": ("enumeration.sweep_source", "calls", "count"),
    "enumeration.sweep_source.words": ("enumeration.sweep_source", "words", "count"),
    "enumeration.sweep_source.small_m_s": ("enumeration.sweep_source", "small_m_s", "s"),
    "montecarlo.mc_estimate.self_s": ("montecarlo.mc_estimate", "self_s", "s"),
    "montecarlo.mc_estimate.samples": ("montecarlo.mc_estimate", "samples", "count"),
    "montecarlo.mc_estimate.words64": ("montecarlo.mc_estimate", "words64", "count"),
    "montecarlo.gnp_generate.s": ("montecarlo.gnp_generate", "s", "s"),
    "graphs.parse.s": ("graphs.parse", "s", "s"),
    "graphs.is_connected.s": ("graphs.is_connected", "s", "s"),
    "classify.classify.self_s": ("classify.classify", "self_s", "s"),
    "classify.classify_stream.self_s": ("classify.classify_stream", "self_s", "s"),
    "classify.is_outerplanar.s": ("classify.is_outerplanar", "s", "s"),
    "classify.has_minor.calls": ("classify.has_minor", "calls", "count"),
    "complete.recursion.s": ("complete.recursion", "s", "s"),
    "complete.recursion.misses": ("complete.recursion", "misses", "count"),
    "complete.table_row.self_s": ("complete.table_row", "self_s", "s"),
    "complete.bound_report.self_s": ("complete.bound_report", "self_s", "s"),
    "dyadic.from_fraction.s": ("dyadic.from_fraction", "s", "s"),
    "dyadic.from_scaled.s": ("dyadic.from_scaled", "s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}
RUN_LAYERS = {"proc.cpu_util": "ratio", "trace.overhead_ratio": "ratio", "trace.library_share": "ratio"}


def run_round(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = trace
    result["wall_s"] = sum(o["wall_s"] for o in result["outputs"])
    result["wall_norm"] = result["wall_s"] / statistics.mean(result["reference_s"])
    result["cpu_s"] = sum(o["cpu_s"] for o in result["outputs"])
    return result


def check_rounds(rounds: list[dict]) -> tuple[int, list[str]]:
    """(operations attempted, reasons of failed ones) over all rounds.

    Rounds repeat the same inputs, so an output identical to one already
    checked shares its verdicts.
    """
    import check  # imports orientcorr from src/ for the closed-form oracles

    seen: dict[tuple, list] = {}
    attempted, failures = 0, []
    for r in rounds:
        for query, output in zip(r["queries"], r["outputs"]):
            key = (json.dumps(query, sort_keys=True), output["code"], output["stdout"])
            if key not in seen:
                seen[key] = check.check_query(query, output)
            verdicts = seen[key]
            attempted += len(verdicts)
            failures += [f"{query['label']}: {v}" for v in verdicts if v is not None]
    return attempted, failures


def end_to_end(workload: str, rounds: list[dict]) -> dict[str, float]:
    """Fastest set-up and wall time and median peak RSS over untraced rounds,
    plus the workload's own metrics."""
    metrics = {
        "setup_s": min(r["setup_s"] for r in rounds),
        "wall_norm": min(r["wall_norm"] for r in rounds),
        "wall_s": min(r["wall_s"] for r in rounds),
        "reference_s": statistics.median(t for r in rounds for t in r["reference_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    if workload == "triple":
        for name, kind, work in (("exact_orient_per_s", "exact", lambda q: 1 << len(q["edges"])),
                                 ("mc_samples_per_s", "mc", lambda q: q["samples"])):
            metrics[name] = statistics.median(
                sum(work(q) for q in r["queries"] if q["kind"] == kind)
                / sum(o["wall_s"] for q, o in zip(r["queries"], r["outputs"]) if q["kind"] == kind)
                for r in rounds)
    if workload == "census":
        # Per-record latency: time between consecutive stream lines, pooled
        # over rounds.  The last line is the summary, not a graph.
        latencies = []
        for r in rounds:
            stamps = r["outputs"][0]["line_s"][:-1]
            latencies += [b - a for a, b in zip([0.0] + stamps, stamps)]
        cuts = statistics.quantiles(latencies, n=10)
        metrics["graph_p50_s"], metrics["graph_p90_s"] = cuts[4], cuts[8]
    return metrics


def per_layer(rounds: list[dict]) -> dict[str, float]:
    """Medians over traced rounds of each layer, plus untraced CPU use and overhead."""
    import spans

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for r in traced:
        totals = spans.layer_totals(r["spans"])
        values = {name: totals.get(span, {}).get(field, 0) for name, (span, field, _) in LAYERS.items()}
        k = r["timed_from"]
        timed = [[n, s, e, p - k if p >= 0 else -1, c] for n, s, e, p, c in r["spans"][k:]]
        # Self times sum to the cli.main spans, which cover the round, so only
        # the library layers' share can show time no layer accounts for.
        timed_totals = spans.layer_totals(timed)
        library_s = sum(t["self_s"] for name, t in timed_totals.items() if name != "cli")
        values["trace.library_share"] = library_s / r["wall_s"]
        per_round.append(values)
    metrics = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    metrics["proc.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in plain)
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in plain))
    return metrics


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, rounds: list[dict], units: dict[str, str]) -> dict:
    import numpy
    import workloads

    return {
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workload": args.workload, "threads": workloads.THREADS[args.workload],
        "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED, "seconds": args.seconds, "tiny": args.tiny,
        "round_wall_s": [r["wall_s"] for r in rounds], "round_setup_s": [r["setup_s"] for r in rounds],
        "round_reference_s": [r["reference_s"] for r in rounds],
        "traced_rounds": sum(r["traced"] for r in rounds),
        "units": units,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "orientcorr" / "__init__.py").is_file():
        print(f"run.py: no orientcorr source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    started = time.perf_counter()
    rounds: list[dict] = []
    while True:
        # --trace 1 alternates untraced and traced rounds, untraced first.
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, args.seed, traced, args.tiny))
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    attempted, failures = check_rounds(rounds)
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if args.trace:
        units = {**{name: unit for name, (_, _, unit) in LAYERS.items()}, **RUN_LAYERS}
        values, reported = per_layer(rounds), set(units)
    else:
        units = {**END_TO_END, **PRINTED, **WORKLOAD_METRICS[args.workload]}
        values, reported = end_to_end(args.workload, rounds), set(END_TO_END)
    values["fail_ratio"], units["fail_ratio"] = len(failures) / attempted, "ratio"
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({"run_record": run_record(args, rounds, units)}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in reported},
    }))
    return 0 if not failures else 1

if __name__ == "__main__":
    sys.exit(main())
