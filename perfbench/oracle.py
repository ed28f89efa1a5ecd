"""Independent oracles for the benchmark's output checks.

Nothing here imports orientcorr.  The orientation convention, the sample
stream and the complete-graph recursion are re-derived from their written
definitions (README: "The orientation convention", "Reproducible sampling"),
so a defect in the program cannot hide behind the same defect in its checker:

* reach is closed with Warshall's algorithm, not the program's frontier BFS;
* the complete-graph probabilities use the all-integer form of the
  recursion, u(n,k) = U(n,k) * 2^(C(n,2) - C(k,2)), not Fractions;
* outerplanarity is decided by searching for a circular vertex order with
  no crossing chords, not by the forbidden-minor search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _closure(n: int, edges, words: np.ndarray) -> np.ndarray:
    """Reflexive-transitive reach, shape (B, n, n), for a batch of orientations.

    words has shape (B, W): edge i is oriented u -> v when bit i % 64 of
    word i // 64 is set, v -> u otherwise.
    """
    reach = np.zeros((words.shape[0], n, n), dtype=bool)
    for i, (u, v) in enumerate(edges):
        fwd = (words[:, i // 64] >> np.uint64(i % 64)) & np.uint64(1) == np.uint64(1)
        reach[:, u, v] = fwd
        reach[:, v, u] = ~fwd
    diag = np.arange(n)
    reach[:, diag, diag] = True
    for k in range(n):
        reach |= reach[:, :, k, None] & reach[:, None, k, :]
    return reach


def _chunk(n: int) -> int:
    return max(1 << 10, (1 << 21) // (n * n))


def _all_words(n: int, m: int):
    step = _chunk(n)
    for lo in range(0, 1 << m, step):
        yield np.arange(lo, min(1 << m, lo + step), dtype=np.uint64)[:, None]


def mix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 output for each counter, per the documented stream contract."""
    with np.errstate(over="ignore"):
        x = np.uint64(seed % (1 << 64)) + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def _sample_words(n: int, m: int, samples: int, seed: int):
    width = (m + 63) // 64
    step = _chunk(n)
    for lo in range(0, samples, step):
        rows = np.arange(lo, min(samples, lo + step), dtype=np.uint64)[:, None]
        yield mix64(seed, rows * np.uint64(width) + np.arange(width, dtype=np.uint64))


def _triple_counts(n, edges, triple, batches) -> tuple[int, int, int]:
    a, s, b = triple
    n_c = n_d = n_cd = 0
    for words in batches:
        reach = _closure(n, edges, words)
        c, d = reach[:, a, s], reach[:, s, b]
        n_c += int(c.sum())
        n_d += int(d.sum())
        n_cd += int((c & d).sum())
    return n_c, n_d, n_cd


def exact_counts(n: int, edges, triple) -> tuple[int, int, int]:
    """(n_c, n_d, n_cd) over all 2^m orientations."""
    return _triple_counts(n, edges, triple, _all_words(n, len(edges)))


def sampled_counts(n: int, edges, triple, samples: int, seed: int) -> tuple[int, int, int]:
    """(count_c, count_d, count_cd) over the seeded sample stream."""
    return _triple_counts(n, edges, triple, _sample_words(n, len(edges), samples, seed))


def census_signs(n: int, edges) -> tuple[int, int, int]:
    """(neg, zero, pos): covariance signs over every ordered triple of distinct vertices."""
    m = len(edges)
    hits = np.zeros((n, n), dtype=np.int64)       # hits[x, y]: orientations with x -> y
    joint = np.zeros((n, n, n), dtype=np.int64)   # joint[s, a, b]: a -> s and s -> b
    for words in _all_words(n, m):
        reach = _closure(n, edges, words).astype(np.int64)
        hits += reach.sum(axis=0)
        joint += np.einsum("was,wsb->sab", reach, reach)
    neg = zero = pos = 0
    for s in range(n):
        for a in range(n):
            for b in range(n):
                if len({a, s, b}) < 3:
                    continue
                diff = int(joint[s, a, b]) * (1 << m) - int(hits[a, s]) * int(hits[s, b])
                neg += diff < 0
                zero += diff == 0
                pos += diff > 0
    return neg, zero, pos


def tree_signs(n: int, edges) -> tuple[int, int, int]:
    """(neg, zero, pos) on a tree by the forest dichotomy.

    A triple is independent when s lies on the unique a-b path and mutually
    exclusive (so negatively correlated) otherwise.
    """
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    zero = 0
    for a in range(n):
        parent = {a: a}
        order = [a]
        for x in order:
            for y in nbrs[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        for b in range(n):
            if b == a:
                continue
            x = parent[b]
            while x != a:
                zero += 1
                x = parent[x]
    return n * (n - 1) * (n - 2) - zero, zero, 0


def is_outerplanar(n: int, edges) -> bool:
    """Is there a circular order of the vertices in which no two edges cross as chords?

    That is the definition of outerplanarity (all vertices on the outer face).
    Vertices of degree <= 1 never decide it and are stripped first; the order
    is then built by backtracking, one position at a time, rejecting a vertex
    as soon as one of its chords back to the placed vertices crosses a chord
    already drawn.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    leaves = [v for v in range(n) if len(nbrs[v]) <= 1]
    alive = set(range(n))
    while leaves:
        v = leaves.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in nbrs[v]:
            nbrs[u].discard(v)
            if len(nbrs[u]) <= 1:
                leaves.append(u)
    m = sum(len(nbrs[v]) for v in alive) // 2
    if len(alive) >= 2 and m > 2 * len(alive) - 3:
        return False
    pos: dict[int, int] = {}

    def extend(chords: list[tuple[int, int]]) -> bool:
        if len(pos) == len(alive):
            return True
        k = len(pos)
        for v in alive - pos.keys():
            # A chord (i, k) to the newest position crosses (p, q), q < k, iff p < i < q.
            back = [pos[u] for u in nbrs[v] if u in pos]
            if any(p < i < q for i in back for p, q in chords):
                continue
            pos[v] = k
            if extend(chords + [(i, k) for i in back]):
                return True
            del pos[v]
            if k == 0:
                break  # the circle has no start: one vertex at position 0 is enough
        return False

    return extend([])


@lru_cache(maxsize=None)
def _u(n: int, k: int) -> int:
    if k == 0:
        return 1 << comb(n, 2)
    return sum(comb(n - k - 1, i) * (2**k - 1) ** i * _u(n - k, i) << comb(i, 2)
               for i in range(n - k))


@lru_cache(maxsize=None)
def _j(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 2 else _u(n, 1)
    return sum(comb(n - k - 2, i) * (2**k - 1) ** i * _j(n - k, i) << comb(i, 2)
               for i in range(n - k - 1))


def kn_scaled(n: int) -> tuple[int, int | None]:
    """K_n no-path counts over 2^C(n,2): single miss, and joint miss (None for n = 2)."""
    return _u(n, 1), (_j(n, 1) if n >= 3 else None)


def decimal(value: Fraction, places: int) -> str:
    """Fixed-point rendering, rounding half to even."""
    q = round(value * 10**places)
    whole, frac = divmod(abs(q), 10**places)
    return ("-" if q < 0 else "") + f"{whole}.{frac:0{places}d}"


def dyadic(num: int, exp: int) -> str:
    """num / 2^exp in lowest terms as 'NUM/2^EXP'; zero is '0/2^0'."""
    if num == 0:
        return "0/2^0"
    twos = min((num & -num).bit_length() - 1, exp)
    return f"{num >> twos}/2^{exp - twos}"
