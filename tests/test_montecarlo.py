"""Seeded sampling: fixed generator outputs, determinism, statistical sanity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orientcorr import (
    GraphFormatError,
    Triple,
    complete_graph,
    delta_method_se,
    exact_correlation,
    gnp_generate,
    graph_from_edges,
    mc_estimate,
    mix64,
)
from orientcorr import enumeration
from orientcorr.graphs import MAX_VERTICES
from orientcorr.montecarlo import _sample_words
from support import diamond, reachable

# Frozen outputs of the generator for seed 42, counters 0..3.  These pin the
# bit stream itself: any change to the mixing constants breaks reproducibility
# of every published estimate.
MIX64_SEED42 = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
)


def test_mix64_frozen_outputs():
    for counter, expect in enumerate(MIX64_SEED42):
        assert mix64(42, counter) == expect


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 40)))
def test_mix64_batch_matches_scalar(seed, counter):
    [[word]] = _sample_words(seed, 1, counter, counter + 1).tolist()
    assert word == mix64(seed, counter)


@pytest.mark.parametrize("nwords", [1, 2, 3])
def test_sample_words_are_the_broadcast_counter_grid(nwords):
    # Word w of sample j is mix64 of counter j * nwords + w: the (samples, 1)
    # + (nwords,) grid of counters the words were first drawn from, here
    # for samples 2^40 .. 2^40 + 99, with a seed that wraps the sum.
    seed, lo, hi = (1 << 64) - 3, 1 << 40, (1 << 40) + 100
    grid = np.arange(lo, hi, dtype=np.uint64)[:, None] * np.uint64(nwords) + np.arange(
        nwords, dtype=np.uint64)
    expect = [[mix64(seed, counter) for counter in row] for row in grid.tolist()]
    assert _sample_words(seed, nwords, lo, hi).tolist() == expect


def test_single_edge_bit_alignment():
    # One edge, one word: sample j is decided by bit 0 of counter j.
    g = graph_from_edges(3, [(0, 1)])
    t = Triple(0, 1, 2)
    for seed in range(20):
        est = mc_estimate(g, t, 1, seed)
        assert est.count_c == mix64(seed, 0) & 1
    est = mc_estimate(g, t, 64, 7)
    assert est.count_c == sum(mix64(7, j) & 1 for j in range(64))


def test_multi_word_bit_alignment():
    # 78 edges need two 64-bit words per sample; check the advertised layout
    # (edge i = bit i % 64 of word i // 64) against the scalar generator.
    g = complete_graph(13)
    t = Triple(0, 1, 2)
    seed, samples = 2024, 50
    nwords = (g.m + 63) // 64
    assert nwords == 2
    expect_c = expect_d = expect_cd = 0
    for j in range(samples):
        orientation = 0
        for w in range(nwords):
            orientation |= mix64(seed, j * nwords + w) << (64 * w)
        c = reachable(g, orientation, t.a, t.s)
        d = reachable(g, orientation, t.s, t.b)
        expect_c += c
        expect_d += d
        expect_cd += c and d
    est = mc_estimate(g, t, samples, seed)
    assert (est.count_c, est.count_d, est.count_cd) == (expect_c, expect_d, expect_cd)


def test_thread_split_is_invisible(monkeypatch):
    # 10,001 samples are 157 words of 64, the last holding 17.  Batches of
    # 1, 3 and 97 words all end in that partial word, and every thread
    # count starts a pool; the reference is the default single batch on
    # one thread.
    g = diamond()
    t = Triple(0, 2, 1)
    base = mc_estimate(g, t, 10_001, 5, threads=1)
    for size in (1, 3, 97):
        monkeypatch.setattr(enumeration, "_batch_words", lambda n, m, size=size: size)
        for threads in (2, 4, 8):
            again = mc_estimate(g, t, 10_001, 5, threads=threads)
            assert again == base


@pytest.mark.parametrize("samples", [1, 63, 65, 200])
def test_partial_last_word_replays_through_scalar_mix64(samples):
    # Samples fill 64-sample words, and only the first `samples` bits of the
    # last word count: the rest of it is drawn but masked off.
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    t = Triple(0, 2, 4)
    c = [reachable(g, mix64(11, j), t.a, t.s) for j in range(samples)]
    d = [reachable(g, mix64(11, j), t.s, t.b) for j in range(samples)]
    est = mc_estimate(g, t, samples, 11)
    assert (est.count_c, est.count_d, est.count_cd) == (
        sum(c), sum(d), sum(x and y for x, y in zip(c, d)))


def test_seed_changes_the_stream():
    g = diamond()
    t = Triple(0, 2, 1)
    a = mc_estimate(g, t, 2000, 1)
    b = mc_estimate(g, t, 2000, 2)
    assert (a.count_c, a.count_d, a.count_cd) != (b.count_c, b.count_d, b.count_cd)


def test_trivial_target_unreachable():
    # Vertex 2 is isolated: the second event never happens.
    g = graph_from_edges(3, [(0, 1)])
    est = mc_estimate(g, Triple(0, 1, 2), 4096, 9)
    assert est.p_d_hat == 0.0
    assert est.count_cd == 0
    assert est.cov_hat == 0.0
    assert est.count_neither == est.samples - est.count_c
    # p_c is exactly 1/2; allow 4 standard errors.
    assert abs(est.p_c_hat - 0.5) <= 4 * math.sqrt(0.25 / est.samples)


def test_estimates_near_exact_on_diamond():
    g = diamond()
    t = Triple(0, 2, 1)
    exact = exact_correlation(g, t)
    est = mc_estimate(g, t, 1_000_000, 31, threads=4)
    for est_p, truth in ((est.p_c_hat, exact.p_c), (est.p_d_hat, exact.p_d),
                         (est.p_cd_hat, exact.p_cd)):
        p = float(truth)
        assert abs(est_p - p) <= 4 * math.sqrt(p * (1 - p) / est.samples)
    assert abs(est.cov_hat - float(exact.cov)) <= 4 * est.se_cov


def test_delta_method_closed_cases():
    # Independent halves: variance of p11 - p1.p.1 reduces to 1/16, se = 0.25/sqrt(N).
    assert delta_method_se(5000, 5000, 2500, 10000) == pytest.approx(0.0025)
    # Degenerate corners have zero variance.
    assert delta_method_se(0, 0, 0, 1000) == 0.0
    assert delta_method_se(1000, 1000, 1000, 1000) == 0.0
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one sample, got {samples}"):
            delta_method_se(0, 0, 0, samples)


def test_sample_count_validation():
    g = diamond()
    with pytest.raises(ValueError):
        mc_estimate(g, Triple(0, 2, 1), 0, 1)
    with pytest.raises(ValueError):
        mc_estimate(g, Triple(0, 0, 1), 10, 1)


def test_gnp_deterministic_and_seed_sensitive():
    a = gnp_generate(12, 0.4, 77)
    b = gnp_generate(12, 0.4, 77)
    assert a == b
    c = gnp_generate(12, 0.4, 78)
    assert a != c


def test_gnp_extremes():
    assert gnp_generate(9, 0.0, 3).m == 0
    full = gnp_generate(9, 1.0, 3)
    assert full.m == 9 * 8 // 2
    assert full == complete_graph(9)
    with pytest.raises(ValueError):
        gnp_generate(5, 1.5, 0)


@given(st.integers(1, MAX_VERTICES),
       st.sampled_from([0.0, 2.0 ** -60, 1 - 2.0 ** -53, 1.0]) | st.floats(0.0, 1.0),
       st.integers(-(1 << 70), -1) | st.integers(0, (1 << 64) - 1) | st.integers(1 << 64, 1 << 70))
def test_gnp_replays_through_scalar_mix64(n, p, seed):
    # Candidate t is the t-th pair u < v in canonical order, kept when its
    # word mix64(seed, t) is below floor(p 2^64).
    threshold = math.floor(Fraction(p) * (1 << 64))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    expect = tuple(pair for t, pair in enumerate(pairs) if mix64(seed, t) < threshold)
    assert gnp_generate(n, p, seed).edges == expect


def test_gnp_rejects_a_vertex_count_before_drawing():
    # 2^40 vertices would ask for about 2^79 candidate words.
    for n in (0, MAX_VERTICES + 1, 1 << 40):
        with pytest.raises(GraphFormatError, match="vertex count"):
            gnp_generate(n, 0.5, 0)


def test_gnp_edge_count_plausible():
    # 435 candidate edges at p = 0.3: mean 130.5, sd about 9.6; stay within 5 sd.
    g = gnp_generate(30, 0.3, 11)
    assert 82 <= g.m <= 179


def test_mc_on_generated_graph_is_thread_stable():
    g = gnp_generate(13, 0.9, 3)
    assert g.m > 64
    t = Triple(0, 1, 2)
    assert mc_estimate(g, t, 5000, 9, threads=1) == mc_estimate(g, t, 5000, 9, threads=4)


def test_calibration_spot_check():
    # On the 5-clique the chance that neither endpoint event occurs is
    # 26/1024; one fixed-seed run should land within 4 binomial se.
    g = complete_graph(5)
    est = mc_estimate(g, Triple(0, 1, 2), 100_000, 0)
    p = 26 / 1024
    frac = est.count_neither / est.samples
    assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / est.samples)
