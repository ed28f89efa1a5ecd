"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload census --seed 1 --trace 0

Imports orientcorr from the checkout's src/, builds the round's inputs from
the seed, then calls orientcorr.cli.main once per query with stdin and
stdout replaced by in-memory buffers, as a user running the command would
see it.  Prints one JSON object: set-up time, peak RSS, the queries, each
invocation's exit code, output, wall and CPU time and line timestamps, and,
with --trace 1, the recorded spans (those from timed_from on belong to the
timed phase, the rest to set-up).  The reference kernel is timed just before
and just after the queries (reference_s).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class StampedWriter(io.StringIO):
    """Captured stdout that records when each output line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        written = super().write(text)
        if "\n" in text:
            self.stamps.extend([time.perf_counter()] * text.count("\n"))
        return written


def reference_s() -> float:
    """Seconds taken by a fixed kernel that shares no code with orientcorr.

    It mixes what the workloads do: a Python loop over ints and a dict,
    big-integer products, and numpy bitwise work on small arrays.  On a shared
    host its time follows the host's speed, so the runner can scale round
    times by it.
    """
    import numpy as np

    start = time.perf_counter()
    table, x = {}, 1
    for i in range(200_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + i
    product = 1
    for i in range(1, 3000):
        product *= i
    words = np.arange(1 << 13, dtype=np.uint64)
    reach = np.zeros((1 << 10, 9, 9), dtype=bool)
    for k in range(300):
        words = (words ^ (words >> np.uint64(7))) * np.uint64(0x9E3779B97F4A7C15)
        reach |= reach[:, :, k % 9, None] & reach[:, None, k % 9, :]
    return time.perf_counter() - start


def run_query(cli, query: dict) -> dict:
    out, err = StampedWriter(), io.StringIO()
    sys.stdin = io.StringIO(query["stdin"])
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(query["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed operation, not a lost round
            code = None
            err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    sys.stdin = sys.__stdin__
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": wall, "cpu_s": cpu, "line_s": [t - start for t in out.stamps]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from orientcorr import cli, complete
    import spans
    import workloads

    caches = (complete.unreachable_prob, complete.joint_unreachable_prob)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install(tracer)
    queries = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - start

    timed_from = len(tracer.spans) if tracer else 0
    reference = [reference_s()]
    outputs = []
    for query in queries:
        # Each command starts with cold recursion caches, as a fresh process does.
        for cache in caches:
            cache.cache_clear()
        outputs.append(run_query(cli, query))
    reference.append(reference_s())
    print(json.dumps({
        "setup_s": setup_s,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": queries,
        "outputs": outputs,
        "spans": tracer.spans if tracer else None,
        "timed_from": timed_from,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
