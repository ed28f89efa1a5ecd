"""Layer spans recorded from outside the program.

install() replaces each traced public function of orientcorr with a wrapper
that opens a span (name, start, end, parent, counts) around the call.  A
`from .enumeration import sweep_source` binds the function again in the
importing module, so the wrapper is installed in every orientcorr module
that holds the original, not only where it is defined.  Spans stay in
memory; the worker writes them out when the round ends, and
layer_totals() turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

# (module, attribute, span name, counts(*args, **kwargs) -> dict or None)
_FUNCTIONS = (
    ("orientcorr.cli", "main", "cli", None),
    ("orientcorr.enumeration", "count_events", "enumeration.count_events",
     lambda g, *a, **k: {"words": 1 << g.m}),
    ("orientcorr.enumeration", "sweep_source", "enumeration.sweep_source",
     lambda g, *a, **k: {"words": 1 << g.m, "small_m": int(g.m < 10)}),
    ("orientcorr.montecarlo", "mc_estimate", "montecarlo.mc_estimate",
     lambda g, t, samples, *a, **k: {"samples": samples, "words64": samples * -(-g.m // 64)}),
    ("orientcorr.montecarlo", "gnp_generate", "montecarlo.gnp_generate", None),
    ("orientcorr.graphs", "parse_graph6", "graphs.parse", None),
    ("orientcorr.graphs", "parse_edge_list", "graphs.parse", None),
    ("orientcorr.graphs", "is_connected", "graphs.is_connected", None),
    ("orientcorr.classify", "classify", "classify.classify", None),
    ("orientcorr.classify", "classify_stream", "classify.classify_stream", None),
    ("orientcorr.classify", "is_outerplanar", "classify.is_outerplanar", None),
    ("orientcorr.classify", "has_minor", "classify.has_minor", None),
    ("orientcorr.complete", "table_row", "complete.table_row", None),
    ("orientcorr.complete", "bound_report", "complete.bound_report", None),
)
_CLASSMETHODS = (
    ("orientcorr.dyadic", "DyadicProb", "from_fraction", "dyadic.from_fraction"),
    ("orientcorr.dyadic", "TripleCorrelation", "from_scaled", "dyadic.from_scaled"),
)
_RECURSIONS = ("unreachable_prob", "joint_unreachable_prob")


class Tracer:
    """In-memory span log: [name, start, end, parent index or -1, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()  # each thread nests its own spans
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, counts: dict | None = None) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1, counts or {}]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()


def _wrap(tracer: Tracer, name: str, fn, counts):
    if inspect.isgeneratorfunction(fn):
        # A generator's work happens while it is resumed: one span per resume,
        # so the consumer's time between items is not charged to it.
        @functools.wraps(fn)
        def resumed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item
        return resumed

    @functools.wraps(fn)
    def called(*args, **kwargs):
        idx = tracer.open(name, counts(*args, **kwargs) if counts else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return called


def _wrap_recursions(tracer: Tracer, originals):
    """Wrap the lru-cached recursions, timing only the outermost call.

    The recursions call each other and themselves through the module globals,
    so inner calls reach the wrapper too; they pass straight through.  The
    outermost span records the cache misses it caused.
    """
    depth = [0]

    def wrap(fn):
        @functools.wraps(fn)
        def called(*args):
            if depth[0]:
                return fn(*args)
            before = sum(f.cache_info().misses for f in originals)
            depth[0] += 1
            idx = tracer.open("complete.recursion")
            try:
                return fn(*args)
            finally:
                tracer.close(idx)
                depth[0] -= 1
                tracer.spans[idx][4]["misses"] = sum(f.cache_info().misses for f in originals) - before
        return called
    return [wrap(fn) for fn in originals]


def _rebind(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "orientcorr" or modname.startswith("orientcorr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already imported orientcorr package."""
    for modname, attr, name, counts in _FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        _rebind(original, _wrap(tracer, name, original, counts))
    for modname, clsname, attr, name in _CLASSMETHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        setattr(cls, attr, classmethod(_wrap(tracer, name, vars(cls)[attr].__func__, None)))
    complete = importlib.import_module("orientcorr.complete")
    originals = [getattr(complete, attr) for attr in _RECURSIONS]
    for original, wrapper in zip(originals, _wrap_recursions(tracer, originals)):
        _rebind(original, wrapper)


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
        for key, value in counts.items():
            t[key] = t.get(key, 0) + value
        if counts.get("small_m"):
            t["small_m_s"] = t.get("small_m_s", 0.0) + end - start - child[i]
    return totals
