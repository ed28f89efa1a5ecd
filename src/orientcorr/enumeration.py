"""Exhaustive walk over the 2^m orientations of a graph, and its kernel.

An orientation is an integer word: bit i set means edge i = (u, v) of the
canonical sorted edge list is directed u -> v, clear means v -> u.  All
counts are exact integers, so chunked or threaded runs aggregate to the
same numbers as a single pass regardless of how the range is split.

The batch kernel evaluates many orientation words at once.  For a batch of
B words it builds per-vertex out-neighbour bitsets of shape (n, B), one
lane per word (batch_masks).  A lane is the narrowest unsigned integer
that holds n bits: uint8 up to n = 8, uint16 to 16, uint32 to 32, else
uint64, so small graphs move a quarter or an eighth of the bytes.  The
orientation words themselves stay uint64.  The kernel closes reachability
in one of two ways, for two kinds of traffic:

* from one source, by frontier expansion (batch_reach): each step ORs in
  masks[v] on the lanes whose frontier holds v, O(n) word operations per
  orientation.  count_events (`exact`) and montecarlo (`mc`) need two
  sources per triple.  It stays: Warshall took 0.41-0.44 s against
  0.11-0.12 s on C20 `exact` and 0.49-0.50 s against 0.20-0.22 s on `mc`
  (100k samples, n = 40, m = 58).
* from every vertex at once, by bitset Warshall on the whole (n, B) array
  (_close_all), n vectorised steps.  sweep_sources (`classify`) reads the
  counts of every triple (a, s, b) from it, one float32 matmul per s.  It
  stays: a frontier from every source took 120-171 ms against 53-63 ms on
  the `census` stream and 0.41-0.55 s against 0.25-0.26 s on K7 `classify`.

One batch loop, run_batches, cuts the index range into power-of-two
batches, feeds each its words (a contiguous range here, sampled bits in
montecarlo), shares the batches among the threads and sums the per-batch
reductions.
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
from .graphs import Graph, Triple, bfs_layers, members

DEFAULT_CAP = 30
# The kernel sums counts in int64, which holds a count of 2^62 words but
# not of 2^63.
MAX_CAP = 62
# Bytes of (n, B) bitset arrays one batch may hold at once, at 8 bytes a lane.
_BATCH_BYTES = 1 << 22


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

def _lane(n: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned integer type that holds a set of n vertices.

    Kernel arithmetic on the lanes takes lane-typed scalars: under NEP 50 a
    np.uint64 operand would widen a narrower array back to 8 bytes a lane.
    """
    for lane in (np.uint8, np.uint16, np.uint32):
        if n <= 8 * np.dtype(lane).itemsize:
            return lane
    return np.uint64


def batch_masks(g: Graph, words: np.ndarray) -> np.ndarray:
    """Out-neighbour bitsets of every vertex, shape (n, B), for B words.

    words has shape (B, W) of uint64; edge i takes bit i % 64 of column
    i // 64, read here as bit i % 8 of octet i // 8.  The bitsets come in
    the narrowest lane type that holds n bits.  The complemented words
    ~words reverse every edge, so they give the in-neighbour bitsets.
    """
    lane = _lane(g.n)
    # Octet k of every word in one contiguous row: a strided column read
    # per edge cost about twice as much.
    octets = np.ascontiguousarray(words.astype("<u8", copy=False).view(np.uint8).T)
    masks = np.zeros((g.n, words.shape[0]), dtype=lane)
    for i, (u, v) in enumerate(g.edges):
        fwd = octets[i >> 3] >> (i & 7) & 1
        masks[u] |= fwd * lane(1 << v)
        masks[v] |= (fwd ^ 1) * lane(1 << u)
    return masks


def batch_reach(masks: np.ndarray, source: int) -> np.ndarray:
    """Bitset of the vertices reachable from source, one lane of masks' type per word."""
    lane = masks.dtype.type
    reach = np.full(masks.shape[1], 1 << source, dtype=lane)
    frontier = reach.copy()
    grown = np.empty_like(reach)
    scratch = np.empty_like(reach)
    live = 1 << source  # vertices in the frontier of at least one word
    while live:
        grown.fill(0)
        for v in members(live):
            np.right_shift(frontier, lane(v), out=scratch)
            scratch &= lane(1)
            scratch *= masks[v]
            grown |= scratch
        np.invert(reach, out=scratch)
        np.bitwise_and(grown, scratch, out=frontier)
        reach |= frontier
        live = int(np.bitwise_or.reduce(frontier))
    return reach


def _batch_size(n: int, planes: int) -> int:
    # The largest power of two of words whose `planes` (n, B) arrays of
    # 8-byte lanes fit the budget, so every arange batch is an aligned
    # block.  Lanes are 8 bytes only above n = 32, so for smaller graphs
    # this is an upper bound.  At most 2^16 words, so per-batch float32
    # counts in sweep_sources stay exact.
    fit = _BATCH_BYTES // (8 * n * planes)
    return min(1 << 16, max(1 << 10, 1 << fit.bit_length() - 1))


def triple_counts(g: Graph, t: Triple, words: np.ndarray) -> np.ndarray:
    """[#a->s, #s->b, #both] over a batch of orientation words."""
    masks = batch_masks(g, words)
    lane = masks.dtype.type
    c = batch_reach(masks, t.a) >> lane(t.s) & lane(1)
    d = batch_reach(masks, t.s) >> lane(t.b) & lane(1)
    return np.array([np.count_nonzero(c), np.count_nonzero(d), np.count_nonzero(c & d)],
                    dtype=np.int64)


def _close_all(reach: np.ndarray) -> np.ndarray:
    """Close (n, B) out-neighbour bitsets in place into reach bitsets.

    Bitset Warshall: step k ORs reach[k] into the lanes of every row that
    reaches k, so after it each row holds what its vertex reaches through
    vertices 0..k.  Every vertex reaches itself.
    """
    n = reach.shape[0]
    lane = reach.dtype.type
    reach |= (lane(1) << np.arange(n, dtype=lane))[:, None]
    scratch = np.empty_like(reach)
    for k in range(n):
        np.right_shift(reach, lane(k), out=scratch)
        scratch &= lane(1)
        scratch *= reach[k]
        reach |= scratch
    return reach


def _vertex_bits(sets: np.ndarray, n: int) -> np.ndarray:
    """Vertex bitsets of any lane type as 0/1 uint8, with a last axis of n vertices."""
    vertices = np.arange(n)
    little = sets.astype(sets.dtype.newbyteorder("<"), copy=False)
    octets = little.view(np.uint8).reshape(*sets.shape, sets.dtype.itemsize)
    bits = octets[..., vertices >> 3]
    bits >>= (vertices & 7).astype(np.uint8)
    bits &= 1
    return bits


def _sweep_all(g: Graph, words: np.ndarray) -> np.ndarray:
    """(n, n, n) counts [s][a][b] of words with a -> s and s -> b, over one batch."""
    # bits[v, w, x] = 1 when v reaches x in word w.
    bits = _vertex_bits(_close_all(batch_masks(g, words)), g.n)
    joint = np.empty((g.n,) * 3, dtype=np.int64)
    for s in range(g.n):
        # Exact in float32: every entry is at most the batch size, 2^16 < 2^24.
        joint[s] = bits[:, :, s].astype(np.float32) @ bits[s].astype(np.float32)
    return joint


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
    batches sized for `planes` (n, B) lane arrays, shared among `threads`
    threads.  The 4 MiB budget counts 8 bytes a lane, an upper bound on
    the narrow lanes of graphs with n <= 32.
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
    total = _walk_size(g, cap)
    # The closure holds two (n, B) lane planes, and its bits n/8 more; the
    # 4 MiB budget counts 8 bytes a lane, an upper bound.
    return run_batches(g, total, _arange_words, partial(_sweep_all, g),
                       threads=threads, planes=2 + (g.n + 7) // 8).tolist()


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
