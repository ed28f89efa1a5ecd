"""Seeded Monte Carlo estimation for graphs beyond the enumeration cap.

Randomness contract (fixed; golden outputs live in the test suite):

* One 64-bit word w is produced per counter value t by the splitmix64
  output function applied to seed + (t + 1) * 0x9E3779B97F4A7C15 mod 2^64:

      z = x;  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
              z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2^64
              w = z ^ (z >> 31)

* Sample j of an estimation run uses counters j*W .. j*W + W - 1, where
  W = ceil(m / 64); edge i takes bit i % 64 of word i // 64.  Because each
  sample depends only on (seed, j), any split of the sample range across
  workers reproduces the single-worker stream bit for bit.

* The G(n,p) generator uses one counter per candidate edge, in canonical
  edge order over all C(n,2) pairs, and includes the edge when the 64-bit
  output is strictly below floor(p * 2^64).

The covariance standard error comes from the delta method on the 2x2
indicator multinomial: with cell frequencies q11, q10, q01, q00 and
gradient g = (1 - pc - pd, -pd, -pc, 0) of pcd - pc*pd, the variance
estimate is (sum q_i g_i^2 - (sum q_i g_i)^2) / samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
import math

import numpy as np

from .enumeration import run_batches, triple_counts
from .graphs import Graph, Triple, graph_from_edges

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(seed: int, counter: int) -> int:
    """The counter-based generator: 64 output bits for one counter value."""
    x = (seed + (counter + 1) * _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_batch(seed: int, counters: np.ndarray) -> np.ndarray:
    x = (np.uint64(seed & _MASK64) + (counters + np.uint64(1)) * np.uint64(_GOLDEN))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class McEstimate:
    """Sampled joint law of the two path events, with exact cell counts."""

    samples: int
    seed: int
    count_c: int
    count_d: int
    count_cd: int
    count_neither: int
    p_c_hat: float
    p_d_hat: float
    p_cd_hat: float
    cov_hat: float
    se_cov: float


def _sample_words(seed: int, nwords: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, nwords) orientation words of samples lo..hi-1."""
    counters = np.arange(lo, hi, dtype=np.uint64)[:, None] * np.uint64(nwords)
    return _mix64_batch(seed, counters + np.arange(nwords, dtype=np.uint64))


def delta_method_se(count_c: int, count_d: int, count_cd: int, samples: int) -> float:
    q11 = count_cd / samples
    q10 = (count_c - count_cd) / samples
    q01 = (count_d - count_cd) / samples
    pc = q11 + q10
    pd = q11 + q01
    grads = (1.0 - pc - pd, -pd, -pc)
    cells = (q11, q10, q01)
    mean = sum(q * grd for q, grd in zip(cells, grads))
    var = sum(q * grd * grd for q, grd in zip(cells, grads)) - mean * mean
    return math.sqrt(max(var, 0.0) / samples)


def mc_estimate(g: Graph, t: Triple, samples: int, seed: int, *, threads: int = 1) -> McEstimate:
    """Estimate the triple correlation from `samples` random orientations."""
    t.validate(g)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n_c, n_d, n_cd = run_batches(g, samples, partial(_sample_words, seed, (g.m + 63) // 64),
                                 partial(triple_counts, g, t), threads=threads).tolist()
    return McEstimate(
        samples=samples,
        seed=seed,
        count_c=n_c,
        count_d=n_d,
        count_cd=n_cd,
        count_neither=samples - n_c - n_d + n_cd,
        p_c_hat=n_c / samples,
        p_d_hat=n_d / samples,
        p_cd_hat=n_cd / samples,
        cov_hat=n_cd / samples - (n_c / samples) * (n_d / samples),
        se_cov=delta_method_se(n_c, n_d, n_cd, samples),
    )


def gnp_generate(n: int, p: float, seed: int) -> Graph:
    """Deterministic G(n, p): each candidate edge kept by its own counter draw."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    threshold = math.floor(Fraction(p) * (1 << 64))
    edges = []
    counter = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mix64(seed, counter) < threshold:
                edges.append((u, v))
            counter += 1
    return graph_from_edges(n, edges)
