"""Exhaustive walk over the 2^m orientations of a graph, and its kernel.

An orientation is an integer word: bit i set means edge i = (u, v) of the
canonical sorted edge list is directed u -> v, clear means v -> u.  All
counts are exact integers, so chunked or threaded runs aggregate to the
same numbers as a single pass regardless of how the range is split.

The batch kernel is bit-sliced: bit j of a uint64 word stands for
orientation (or Monte Carlo sample) 64 k + j, so one AND acts on 64 of
them.  A batch of W words is a pair (planes, live): plane i, a (W,) row of
an (m, W) array, has a bit set where edge i = (u, v) points u -> v, and
live marks the bits that are real orientations (all but the unused part of
the one word of an m < 6 walk, or the tail of the last sample word).  The
kernel closes reachability in one of two ways, for two kinds of traffic:

* from the two sources of one triple, by arc relaxation (_relax): a sweep
  carries what a reaches and what s reaches across every edge, the way it
  points, and sweeps repeat until one changes nothing.  The arcs run
  outward by BFS distance from {a, s} (_arcs), every other sweep runs them
  backward, a sweep skips the arcs whose tail the sweep before left
  unchanged, and each arc writes through per-vertex row views into one
  preallocated temporary (_close).  count_events (`exact`) and montecarlo
  (`mc`) use it.  It stays: Warshall for one triple took 8.5-9.9 ms
  against 3.7-4.2 ms on C16 and 0.29 s against 0.05 s on C20.
* from every vertex at once, by bitset Warshall (_sweep_all) on an
  (n, n, W) array whose entry [x, v] says, for each of 64 W orientations,
  whether x reaches v.  sweep_sources (`classify`) reads the counts of
  every triple (a, s, b) from it.  It stays: a frontier from every source
  took 120-171 ms against 53-63 ms on the `census` stream.

Both reduce by popcount into exact int64 integers.  One batch loop,
run_batches, cuts the words into batches, builds each batch's live mask,
feeds it its planes (a contiguous range of orientations here, sampled bits
in montecarlo), shares the batches among the threads and sums the
per-batch reductions.  A triple batch is the largest power of two of words,
at most 2^10, whose m edge planes and 2n reach rows fit a 4 MiB budget; a
sweep batch, the largest whose (n, n, W) reach array fits 1 MiB.

numpy loads on the first kernel call, not on import: only the functions
that build arrays import it, so the closed forms (`kn`, `table`, `bounds`,
`cycle`, `forest`) run without it.  run_batches imports it before any pool
thread starts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
import os
from typing import TYPE_CHECKING, Callable

from .dyadic import TripleCorrelation
from .graphs import Graph, Triple, distances

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 30
# The kernel sums counts in int64, which holds a count of 2^62 words but
# not of 2^63.
MAX_CAP = 62
# Bytes of bitset arrays one batch may hold at once: each array of a triple
# batch, or the (n, n, W) reach words of a sweep and their temporaries.
_BATCH_BYTES = 1 << 22


class OverCapError(RuntimeError):
    """Raised when an exhaustive walk over orientations would exceed the edge cap."""


@dataclass(frozen=True)
class OrientationCounts:
    """Occurrence counts over all 2^m orientations of one triple's events."""

    m: int
    n_c: int
    n_d: int
    n_cd: int

    @property
    def total(self) -> int:
        return 1 << self.m


def resolve_threads(threads: int) -> int:
    if threads == 0:
        return os.cpu_count() or 1
    if threads < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# Bit-sliced batches: bit j of word k stands for orientation (or sample) 64 k + j.

# Bit j of plane i < 6 is bit i of j: within one word the six low edges
# run through all 64 patterns.
_LOW_PLANES = [sum(1 << j for j in range(64) if j >> i & 1) for i in range(6)]
# Bytes of one (n, n, W) array in a sweep batch: the reach planes, one
# Warshall step's temporary and the reduce's temporaries each stay within
# it, so together they fit the budget.  With half the budget for the
# reach planes, the K7 sweep took 56 ms against 34 ms (2-vCPU Xeon, 2 MiB
# L2 a core).
_SWEEP_BYTES = _BATCH_BYTES // 4


@cache
def _low_planes() -> np.ndarray:
    """_LOW_PLANES as a (6,) uint64 array, built on the first call."""
    import numpy as np

    return np.array(_LOW_PLANES, dtype=np.uint64)


def _edge_planes(m: int, lo: int, hi: int) -> np.ndarray:
    """Direction planes of edges 0..m-1 over words lo..hi-1, shape (m, hi - lo) of uint64.

    Bit j of word k of plane i is bit i of orientation 64 * (lo + k) + j:
    set when edge i = (u, v) points u -> v.
    """
    import numpy as np

    planes = np.empty((m, hi - lo), dtype=np.uint64)
    planes[:6] = _low_planes()[:m, None]
    # Edges 6 and up are constant within a word: all ones when bit i - 6 of
    # its index is set, else all zeros.
    high = np.arange(max(m - 6, 0), dtype=np.uint64)[:, None]
    planes[6:] = -(np.arange(lo, hi, dtype=np.uint64) >> high & np.uint64(1))
    return planes


def _batch_words(n: int, m: int) -> int:
    # The largest power of two of words, at most 2^10 (2^16 orientations or
    # samples), whose m planes and 2n reach rows fit the budget.  The
    # 64 ceil(m / 64) words that sampling draws for a word fit it too: they
    # outnumber m + 2n only when n <= 31, so m <= 465 and they are at most
    # 512 a word, 4 MiB at the 2^10 ceiling, which then sets the batch.
    fit = _BATCH_BYTES // (8 * (m + 2 * n))
    return min(1 << 10, 1 << fit.bit_length() - 1)


def _sweep_batch(n: int) -> int:
    # The largest power of two of words whose (n, n, W) uint64 reach planes
    # fit _SWEEP_BYTES.
    fit = _SWEEP_BYTES // (8 * n * n)
    return 1 << max(fit.bit_length() - 1, 0)


def _arcs(g: Graph, t: Triple) -> list[tuple[int, int, int, bool]]:
    """The arcs one sweep from a and s runs, in order, as (tail, head, edge, along).

    along says whether the arc runs the way edge = (u, v) is listed, u -> v.
    The arcs run outward by BFS distance from {a, s}: edges by the
    distances of their two ends, each edge's near end first.  Edges that a
    and s cannot reach never carry a bit and are left out.  In edge-index
    order the same sweeps took 150 sweeps against 130 on the `triple`
    stream and 3,340 against 562 on P25 from its top vertex.
    """
    dist = distances(g.adjacency, 1 << t.a | 1 << t.s)
    edges = [i for i, (u, v) in enumerate(g.edges) if u in dist]
    edges.sort(key=lambda i: sorted(dist[x] for x in g.edges[i]))
    arcs = []
    for i in edges:
        u, v = g.edges[i]
        out, into = (u, v, i, True), (v, u, i, False)
        arcs += [out, into] if dist[u] <= dist[v] else [into, out]
    return arcs


def _close(arcs: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]], reach: np.ndarray) -> int:
    """Sweep the arcs over reach in place until a sweep changes nothing; return the sweeps run.

    An arc (tail vertex, tail row, head row, plane) ORs tail row & plane
    into head row.  The list of arcs is reversed in place between sweeps:
    every other sweep runs the arcs backward, so what one
    sweep carried out from the sources the next can carry back in: C16
    from a = 0 with s opposite closes in 5 sweeps, against 13 outward only.
    A sweep runs only the arcs whose tail row the sweep before changed; the
    others have carried all their tail holds.  On K7 that runs 192 arcs a
    batch against 252, though a tail first reached within a sweep waits
    for the next, so long paths take more, cheaper sweeps.
    """
    import numpy as np

    carry = np.empty_like(reach[0])
    before = np.empty_like(reach)
    diff = np.empty(reach.shape, dtype=bool)
    sweep, sweeps = arcs, 0
    while sweep:
        np.copyto(before, reach)
        for _, tail, head, plane in sweep:
            np.bitwise_or(head, np.bitwise_and(tail, plane, out=carry), out=head)
        changed = np.not_equal(before, reach, out=diff).any(axis=(1, 2)).tolist()
        arcs.reverse()
        sweep = [arc for arc in arcs if changed[arc[0]]]
        sweeps += 1
    return sweeps


def _relax(n: int, t: Triple, arcs: list[tuple[int, int, int, bool]], planes: np.ndarray,
           live: np.ndarray) -> np.ndarray:
    """[#a->s, #s->b, #both] over one batch, by relaxing the arcs _arcs(g, t) lists."""
    import numpy as np

    # reach[x] holds the orientations in which a reaches x (row 0) and those
    # in which s does (row 1): one contiguous block a vertex, which the
    # arcs read and write whole.
    reach = np.zeros((n, 2, len(live)), dtype=np.uint64)
    reach[t.a, 0] = live
    reach[t.s, 1] = live
    rows, backs = list(reach), planes ^ live
    _close([(u, rows[u], rows[v], (planes if along else backs)[i]) for u, v, i, along in arcs],
           reach)
    c, d = reach[t.s, 0], reach[t.b, 1]
    return np.bitwise_count(np.stack([c, d, c & d])).sum(axis=1, dtype=np.int64)


def _sweep_all(g: Graph, planes: np.ndarray, live: np.ndarray) -> np.ndarray:
    """(n, n, n) counts [s][a][b] of orientations with a -> s and s -> b, over one batch."""
    import numpy as np

    n = g.n
    # reach[x, v] has bit j of word k set when x reaches v in orientation
    # 64 k + j of the batch.  Every vertex reaches itself.
    reach = np.zeros((n, n, len(live)), dtype=np.uint64)
    u, v = np.array(g.edges, dtype=np.intp).reshape(g.m, 2).T
    planes = planes & live
    reach[u, v] = planes
    reach[v, u] = planes ^ live
    diagonal = np.arange(n)
    reach[diagonal, diagonal] = live
    # Bitset Warshall: after step k, x reaches v through vertices 0..k.
    for k in range(n):
        reach |= reach[:, k, None] & reach[None, k]
    # joint[s, a, b] counts the bits of reach[a, s] & reach[s, b], for as
    # many middle vertices s at a time as fit their temporary in
    # _SWEEP_BYTES: all of them for small graphs, one for large walks.
    joint = np.empty((n,) * 3, dtype=np.int64)
    step = max(1, _SWEEP_BYTES // reach.nbytes)
    for lo in range(0, n, step):
        mid = slice(lo, lo + step)
        both = reach[:, mid].transpose(1, 0, 2)[:, :, None] & reach[mid, None]
        np.add.reduce(np.bitwise_count(both), axis=-1, out=joint[mid])
    return joint


# ---------------------------------------------------------------------------
# The batch loop shared by every exhaustive walk and by Monte Carlo.

def run_batches(
    count: int,
    planes: Callable[[int, int], np.ndarray],
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    step: int,
    threads: int = 1,
) -> np.ndarray:
    """Sum reduce(planes(lo, hi), live) over `count` orientations or samples, 64 a word.

    planes(lo, hi) returns the (m, hi - lo) edge planes of words lo..hi-1
    and reduce maps them to an int64 count array.  live marks the bits of
    those words that lie below `count`: all of them but the tail of the
    last word, so a reduce counts nothing outside it.  The words are cut
    into batches of `step`, shared among `threads` threads, never more
    than the cores or the batches.
    """
    # Here, not in run: the first import then never runs on a pool thread.
    import numpy as np

    words = -(-count // 64)

    def run(lo: int) -> np.ndarray:
        hi = min(words, lo + step)
        live = np.full(hi - lo, ~np.uint64(0))
        live[-1] = (1 << min(64, count - 64 * (hi - 1))) - 1
        return reduce(planes(lo, hi), live)

    starts = range(0, words, step)
    threads = min(resolve_threads(threads), len(starts))
    # os.cpu_count() reads sysfs on every call (about 5 us), which a stream
    # of small graphs would pay once per graph: only a walk of several
    # batches asks it.
    if threads > 1 and (threads := min(threads, os.cpu_count() or 1)) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(run, starts))
    return sum(map(run, starts))


def triple_counts(
    g: Graph,
    t: Triple,
    count: int,
    planes: Callable[[int, int], np.ndarray],
    *,
    threads: int = 1,
) -> list[int]:
    """[#a->s, #s->b, #both] over `count` orientations or samples, 64 a word."""
    return run_batches(count, planes, partial(_relax, g.n, t, _arcs(g, t)),
                       step=_batch_words(g.n, g.m), threads=threads).tolist()


def check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"enumeration cap must be >= 0, got {cap}")
    if cap > MAX_CAP:
        raise ValueError(f"enumeration cap {cap} is over the maximum of {MAX_CAP}: "
                         f"counts of a walk over more than 2^{MAX_CAP} orientations "
                         f"overflow 64-bit integers")


def _walk_size(g: Graph, cap: int) -> int:
    check_cap(cap)
    if g.m > cap:
        raise OverCapError(
            f"graph has {g.m} edges, over the enumeration cap of {cap}; "
            f"use the Monte Carlo estimator for graphs this large"
        )
    return 1 << g.m


def count_events(
    g: Graph,
    t: Triple,
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> OrientationCounts:
    """Count, over all orientations, how often a->s, s->b, and both hold."""
    t.validate(g.n)
    total = _walk_size(g, cap)
    n_c, n_d, n_cd = triple_counts(g, t, total, partial(_edge_planes, g.m), threads=threads)
    return OrientationCounts(m=g.m, n_c=n_c, n_d=n_d, n_cd=n_cd)


def exact_correlation(g: Graph, t: Triple, **kwargs) -> TripleCorrelation:
    """Exact joint law of the two path events, from exhaustive counting."""
    counts = count_events(g, t, **kwargs)
    return TripleCorrelation.from_scaled(counts.n_c, counts.n_d, counts.n_cd, counts.m)


def sweep_sources(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[list[list[int]]]:
    """Joint counts for every middle vertex s and ordered pair (a, b), in one walk.

    joint[s][a][b] counts orientations with both a -> s and s -> b.  Every
    vertex reaches itself, so joint[s][a][s] counts a -> s and joint[s][s][b]
    counts s -> b; callers exclude s when forming triples.
    """
    return run_batches(_walk_size(g, cap), partial(_edge_planes, g.m), partial(_sweep_all, g),
                       step=_sweep_batch(g.n), threads=threads).tolist()


def sweep_source(
    g: Graph,
    s: int,
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> tuple[list[int], list[int], list[list[int]]]:
    """Joint counts for every ordered pair around one middle vertex s.

    Returns (into_counts, from_counts, joint) where joint[a][b] counts
    orientations with both a -> s and s -> b: sweep_sources(g)[s] with its
    column s and row s.  into_counts[s] and joint rows/columns at s include
    s itself reaching s; callers exclude s when forming triples.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"vertex {s} out of range for n={g.n}")
    joint = sweep_sources(g, cap=cap, threads=threads)[s]
    return [row[s] for row in joint], list(joint[s]), joint
