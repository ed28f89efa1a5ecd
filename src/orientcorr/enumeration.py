"""Exhaustive walk over the 2^m orientations of a graph, and its kernel.

An orientation is an integer word: bit i set means edge i = (u, v) of the
canonical sorted edge list is directed u -> v, clear means v -> u.  All
counts are exact integers, so chunked or threaded runs aggregate to the
same numbers as a single pass regardless of how the range is split.

The batch kernel evaluates many orientation words at once.  For a batch of
B words it builds per-vertex out-neighbour bitsets of shape (n, B), one
uint64 lane per word, and closes reachability by frontier expansion: each
step ORs in masks[v] on the lanes whose frontier holds v, so a step costs
O(n) word operations per orientation.  One batch loop, run_batches, cuts
the index range into power-of-two batches, feeds each its words (a
contiguous range here, sampled bits in montecarlo), shares the batches among
the threads and sums the per-batch reductions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
import os
from typing import Callable

import numpy as np

from .dyadic import TripleCorrelation
from .errors import OverCapError
from .graphs import Graph, Triple, bfs_layers

DEFAULT_CAP = 30
# The kernel sums counts in int64, which holds a count of 2^62 words but
# not of 2^63.
MAX_CAP = 62
# Bytes of (n, B) uint64 arrays one batch may hold at once.
_BATCH_BYTES = 1 << 22
_ONE = np.uint64(1)


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


def _out_adjacency(g: Graph, orientation: int) -> list[int]:
    out = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if orientation >> i & 1:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return out


def _reach_set(out_adj: list[int], source: int) -> int:
    """Bitset of vertices reachable from source by forward frontier expansion."""
    return sum(bfs_layers(out_adj, 1 << source))


def reachable(g: Graph, orientation: int, source: int, target: int) -> bool:
    """Is there a directed path source -> target under this orientation word?

    One word at a time, in pure Python: the reference the batch kernel is
    tested against.  Only the low m bits of the word are meaningful.
    """
    return bool(_reach_set(_out_adjacency(g, orientation), source) >> target & 1)


# ---------------------------------------------------------------------------
# Bitset batch kernel.

def batch_masks(g: Graph, words: np.ndarray) -> np.ndarray:
    """Out-neighbour bitsets of every vertex, shape (n, B), for B words.

    words has shape (B, W); edge i takes bit i % 64 of column i // 64.
    The complemented words ~words reverse every edge, so they give the
    in-neighbour bitsets.
    """
    masks = np.zeros((g.n, words.shape[0]), dtype=np.uint64)
    for i, (u, v) in enumerate(g.edges):
        fwd = words[:, i // 64] >> np.uint64(i % 64) & _ONE
        masks[u] |= fwd << np.uint64(v)
        masks[v] |= (fwd ^ _ONE) << np.uint64(u)
    return masks


def batch_reach(masks: np.ndarray, source: int) -> np.ndarray:
    """Bitset of the vertices reachable from source, one uint64 per word."""
    reach = np.full(masks.shape[1], 1 << source, dtype=np.uint64)
    frontier = reach.copy()
    live = 1 << source  # vertices in the frontier of at least one word
    while live:
        grown = np.zeros_like(reach)
        while live:
            v = (live & -live).bit_length() - 1
            live &= live - 1
            grown |= masks[v] * (frontier >> np.uint64(v) & _ONE)
        frontier = grown & ~reach
        reach |= frontier
        live = int(np.bitwise_or.reduce(frontier))
    return reach


def _batch_size(n: int, planes: int) -> int:
    # The largest power of two of words whose `planes` (n, B) uint64 arrays
    # fit the budget, so every arange batch is an aligned block.  At most
    # 2^16 words, so per-batch float32 counts in sweep_source stay exact.
    fit = _BATCH_BYTES // (8 * n * planes)
    return min(1 << 16, max(1 << 10, 1 << fit.bit_length() - 1))


def triple_counts(g: Graph, t: Triple, words: np.ndarray) -> np.ndarray:
    """[#a->s, #s->b, #both] over a batch of orientation words."""
    masks = batch_masks(g, words)
    c = batch_reach(masks, t.a) >> np.uint64(t.s) & _ONE
    d = batch_reach(masks, t.s) >> np.uint64(t.b) & _ONE
    return np.array([np.count_nonzero(c), np.count_nonzero(d), np.count_nonzero(c & d)],
                    dtype=np.int64)


def _vertex_bits(sets: np.ndarray, n: int) -> np.ndarray:
    """(B,) uint64 vertex bitsets as a (B, n) float32 0/1 matrix."""
    octets = sets.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").astype(np.float32)


def _sweep_joint(g: Graph, s: int, words: np.ndarray) -> np.ndarray:
    """(n, n) counts of words with a -> s and s -> b, over one batch."""
    into = _vertex_bits(batch_reach(batch_masks(g, ~words), s), g.n)
    outof = _vertex_bits(batch_reach(batch_masks(g, words), s), g.n)
    # Exact in float32: every entry is at most the batch size, 2^16 < 2^24.
    return (into.T @ outof).astype(np.int64)


# ---------------------------------------------------------------------------
# The batch loop shared by every exhaustive walk and by Monte Carlo.

def run_batches(
    g: Graph,
    count: int,
    words: Callable[[int, int], np.ndarray],
    reduce: Callable[[np.ndarray], np.ndarray],
    *,
    threads: int = 1,
    planes: int = 1,
) -> np.ndarray:
    """Sum reduce(words(lo, hi)) over batches covering [0, count).

    words(lo, hi) returns the orientation words of indices lo..hi-1 and
    reduce maps them to an int64 count array.  The range is cut into
    batches sized for `planes` (n, B) uint64 arrays, shared among `threads`
    threads.
    """
    step = _batch_size(g.n, planes)

    def run(lo: int) -> np.ndarray:
        return reduce(words(lo, min(count, lo + step)))

    starts = range(0, count, step)
    threads = min(resolve_threads(threads), len(starts))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(run, starts))
    return sum(map(run, starts))


def _arange_words(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.uint64)[:, None]


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
    t.validate(g)
    total = _walk_size(g, cap)
    n_c, n_d, n_cd = run_batches(g, total, _arange_words, partial(triple_counts, g, t),
                                 threads=threads).tolist()
    return OrientationCounts(m=g.m, n_c=n_c, n_d=n_d, n_cd=n_cd)


def exact_correlation(g: Graph, t: Triple, **kwargs) -> TripleCorrelation:
    """Exact joint law of the two path events, from exhaustive counting."""
    counts = count_events(g, t, **kwargs)
    return TripleCorrelation.from_scaled(counts.n_c, counts.n_d, counts.n_cd, counts.m)


def sweep_source(
    g: Graph,
    s: int,
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> tuple[list[int], list[int], list[list[int]]]:
    """Joint counts for every ordered pair around one middle vertex s.

    One pass over all orientations yields, for each orientation, the set of
    vertices with a path into s and the set reachable from s.  Returns
    (into_counts, from_counts, joint) where joint[a][b] counts orientations
    with both a -> s and s -> b.  into_counts[s] and joint rows/columns at s
    include s itself reaching s; callers exclude s when forming triples.
    """
    total = _walk_size(g, cap)
    joint = run_batches(g, total, _arange_words, partial(_sweep_joint, g, s),
                        threads=threads, planes=3).tolist()
    # s reaches itself in every orientation, so column s of the joint counts
    # is the into count and row s the from count.
    return [row[s] for row in joint], list(joint[s]), joint
