"""Exhaustive orientation counting: goldens, invariants, the batch kernel."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientcorr import (
    OverCapError,
    SignedDyadic,
    Triple,
    classify,
    complete_graph,
    count_events,
    exact_correlation,
    graph_from_edges,
    mix64,
    path_graph,
    reachable,
    sweep_source,
)
from orientcorr import enumeration
from orientcorr.dyadic import DyadicProb
from orientcorr.enumeration import _batch_size, _out_adjacency, batch_masks, triple_counts
from orientcorr.montecarlo import _sample_words
from support import diamond, random_graph, star


def test_diamond_positive_labeling():
    # a and b are the two degree-2 endpoints of the missing edge, s has
    # degree 3: the one four-vertex labeling with positive covariance.
    cor = exact_correlation(diamond(), Triple(0, 2, 1))
    assert cor.p_c == DyadicProb.of(21, 5)
    assert cor.p_d == DyadicProb.of(21, 5)
    assert cor.p_cd == DyadicProb.of(7, 4)
    assert cor.cov == SignedDyadic.of(7, 10)


def test_diamond_negative_labeling():
    # Same graph, roles turned around: s now one of the degree-2 pair.
    cor = exact_correlation(diamond(), Triple(2, 0, 3))
    assert cor.p_c == DyadicProb.of(21, 5)
    assert cor.p_d == DyadicProb.of(21, 5)
    assert cor.p_cd == DyadicProb.of(13, 5)
    assert cor.cov == SignedDyadic.of(-25, 10)


def test_triangle_golden():
    cor = exact_correlation(complete_graph(3), Triple(0, 1, 2))
    assert cor.cov == SignedDyadic.of(-1, 6)


def test_path_golden():
    cor = exact_correlation(path_graph(3), Triple(0, 1, 2))
    assert (cor.p_c, cor.p_d, cor.p_cd) == (
        DyadicProb.of(1, 1), DyadicProb.of(1, 1), DyadicProb.of(1, 2))
    assert cor.cov.sign == 0


def test_star_triple_golden():
    # Two leaves through the center: the paths fight over the center edge.
    cor = exact_correlation(star(5), Triple(0, 1, 2))
    assert cor.p_c == DyadicProb.of(1, 2)
    assert cor.p_d == DyadicProb.of(1, 2)
    assert cor.p_cd == DyadicProb.zero()
    assert cor.cov == SignedDyadic.of(-1, 4)


def test_over_cap_refusal_mentions_monte_carlo():
    with pytest.raises(OverCapError) as err:
        count_events(complete_graph(4), Triple(0, 1, 2), cap=5)
    assert "Monte Carlo" in str(err.value)


def test_triple_validation():
    with pytest.raises(ValueError):
        count_events(path_graph(3), Triple(0, 1, 1))
    with pytest.raises(ValueError):
        count_events(path_graph(3), Triple(0, 1, 5))


def test_reachability_against_matrix_powers():
    # Oracle: boolean adjacency-matrix powers.  Swept over every orientation
    # of every labeled graph on 4 vertices plus seeded graphs on 5 and 6.
    rng = random.Random(11)
    graphs = []
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for mask in range(1 << 6):
        graphs.append(graph_from_edges(4, [e for i, e in enumerate(pairs) if mask >> i & 1]))
    for n in (5, 6):
        for _ in range(6):
            graphs.append(random_graph(rng, n, 0.5))
    for g in graphs:
        for orientation in range(1 << g.m):
            adj = np.eye(g.n, dtype=bool)
            for i, (u, v) in enumerate(g.edges):
                if orientation >> i & 1:
                    adj[u, v] = True
                else:
                    adj[v, u] = True
            closure = adj
            for _ in range(g.n):
                closure = (closure.astype(np.uint8) @ closure.astype(np.uint8)) > 0
            for src in range(g.n):
                for dst in range(g.n):
                    assert reachable(g, orientation, src, dst) == bool(closure[src, dst])


def test_complement_event_covariance_identity():
    # Covariance is invariant under complementing both events; on the count
    # side that is an algebraic identity in the four cells.
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 6), 0.6)
        verts = rng.sample(range(g.n), 3)
        t = Triple(*verts)
        counts = count_events(g, t)
        total = counts.total
        neither = total - counts.n_c - counts.n_d + counts.n_cd
        direct = counts.n_cd * total - counts.n_c * counts.n_d
        complemented = neither * total - (total - counts.n_c) * (total - counts.n_d)
        assert direct == complemented
        assert SignedDyadic.of(direct, 2 * counts.m) == exact_correlation(g, t).cov


def test_reversal_swaps_the_two_events():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 6), 0.6)
        a, s, b = rng.sample(range(g.n), 3)
        fwd = exact_correlation(g, Triple(a, s, b))
        rev = exact_correlation(g, Triple(b, s, a))
        assert rev.p_c == fwd.p_d
        assert rev.p_d == fwd.p_c
        assert rev.p_cd == fwd.p_cd
        assert rev.cov == fwd.cov


def test_joint_bounded_by_marginals():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 7), rng.random())
        a, s, b = rng.sample(range(g.n), 3)
        counts = count_events(g, Triple(a, s, b))
        assert counts.n_cd <= min(counts.n_c, counts.n_d)


# ---------------------------------------------------------------------------
# The batch kernel against the one-word pure-Python oracle `reachable`.

def _oracle_sweep(g, s, orientations):
    """(into, from, joint) counts around s by one reachable() call per event."""
    into, outof = [0] * g.n, [0] * g.n
    joint = [[0] * g.n for _ in range(g.n)]
    for word in orientations:
        ins = [v for v in range(g.n) if reachable(g, word, v, s)]
        outs = [v for v in range(g.n) if reachable(g, word, s, v)]
        for a in ins:
            into[a] += 1
            for b in outs:
                joint[a][b] += 1
        for b in outs:
            outof[b] += 1
    return into, outof, joint


def _check_against_oracle(g, t):
    words = range(1 << g.m)
    into, outof, joint = _oracle_sweep(g, t.s, words)
    counts = count_events(g, t)
    assert (counts.n_c, counts.n_d, counts.n_cd) == (into[t.a], outof[t.b], joint[t.a][t.b])
    assert sweep_source(g, t.s) == (into, outof, joint)


@st.composite
def small_graphs_with_triple(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    return graph_from_edges(n, edges), Triple(*draw(st.permutations(range(n)))[:3])


@st.composite
def sparse_62_with_triple(draw):
    # n = 62 with few edges, all among a handful of vertices that include 61,
    # so the top vertex bit of the uint64 lanes takes part.
    others = sorted(draw(st.sets(st.integers(min_value=0, max_value=60), min_size=2, max_size=5)))
    verts = others + [61]
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=6))
    edges.append((draw(st.sampled_from(others)), 61))
    a, b = draw(st.permutations(others))[:2]
    role = draw(st.integers(min_value=0, max_value=2))
    triple = [(61, a, b), (a, 61, b), (a, b, 61)][role]
    return graph_from_edges(62, set(edges)), Triple(*triple)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_graphs_with_triple(), sparse_62_with_triple()))
@example((graph_from_edges(5, [(0, 1), (1, 2), (0, 2)]), Triple(0, 1, 2)))  # isolated 3 and 4
@example((graph_from_edges(4, [(0, 1), (1, 3)]), Triple(2, 1, 3)))  # isolated source
@example((graph_from_edges(62, [(0, 61), (30, 61), (0, 30)]), Triple(0, 61, 30)))
def test_kernel_matches_reachable_oracle(case):
    _check_against_oracle(*case)


def test_kernel_matches_oracle_on_seeded_graphs():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 6), 0.7)
        a, s, b = rng.sample(range(g.n), 3)
        _check_against_oracle(g, Triple(a, s, b))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
       start=st.integers(min_value=0, max_value=1 << 32),
       count=st.integers(min_value=1, max_value=4),
       order=st.permutations(range(12)))
def test_sample_range_replays_through_scalar_mix64(seed, start, count, order):
    # K12 has 66 edges: two 64-bit words per sample, edge i on bit i % 64
    # of word i // 64.  Nearly every orientation of K12 has both paths, so
    # the counts alone would not see a misplaced bit: the kernel's
    # out- and in-neighbour bitsets are compared with the replayed
    # orientation too.
    g = complete_graph(12)
    t = Triple(*order[:3])
    orientations = [mix64(seed, 2 * j) | mix64(seed, 2 * j + 1) << 64
                    for j in range(start, start + count)]
    into, outof, joint = _oracle_sweep(g, t.s, orientations)
    expect = [into[t.a], outof[t.b], joint[t.a][t.b]]
    words = _sample_words(seed, 2, start, start + count)
    assert triple_counts(g, t, words).tolist() == expect
    out_adj = [_out_adjacency(g, word) for word in orientations]
    assert batch_masks(g, words).T.tolist() == out_adj
    in_adj = [[sum(1 << u for u in range(g.n) if out[u] >> v & 1) for v in range(g.n)]
              for out in out_adj]
    assert batch_masks(g, ~words).T.tolist() == in_adj


def test_every_chunking_and_thread_count_agrees(monkeypatch):
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    t = Triple(0, 3, 5)
    reference = count_events(g, t, threads=1)
    for size in (1, 3, 32, 100, 1 << 16):
        monkeypatch.setattr(enumeration, "_batch_size", lambda n, planes, size=size: size)
        for threads in (1, 2, 3, 8):
            assert count_events(g, t, threads=threads) == reference


def test_sweep_source_matches_per_triple_counts():
    for g in (diamond(), complete_graph(4), star(5), path_graph(5)):
        for s in range(g.n):
            into, outof, joint = sweep_source(g, s)
            for a in range(g.n):
                for b in range(g.n):
                    if len({a, s, b}) != 3:
                        continue
                    counts = count_events(g, Triple(a, s, b))
                    assert into[a] == counts.n_c
                    assert outof[b] == counts.n_d
                    assert joint[a][b] == counts.n_cd


def test_sweep_source_over_cap():
    with pytest.raises(OverCapError):
        sweep_source(complete_graph(5), 0, cap=8)


def test_sweep_source_threads_are_used_and_agree(monkeypatch):
    # m = 17 gives 8 batches of 2^14 words at n = 7, so a thread count
    # above 1 runs them on a pool of that many workers.
    g = graph_from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                             if (u, v) not in {(0, 1), (2, 3), (4, 5), (0, 6)}])
    assert g.m == 17
    assert (1 << g.m) // _batch_size(g.n, 3) == 8
    pools = []

    class RecordingPool(enumeration.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(enumeration, "ThreadPoolExecutor", RecordingPool)
    for s in (0, 3, 6):
        reference = sweep_source(g, s, threads=1)
        for k in (2, 3):
            assert sweep_source(g, s, threads=k) == reference
    assert pools == [2, 3] * 3
    assert classify(g, threads=4) == classify(g, threads=1)


def test_cap_over_62_is_rejected_up_front():
    # Even a graph far under the cap is refused: the cap itself is invalid.
    with pytest.raises(ValueError, match="62"):
        count_events(path_graph(3), Triple(0, 1, 2), cap=63)
    with pytest.raises(ValueError, match="62"):
        sweep_source(path_graph(3), 1, cap=63)
    # A negative cap is invalid too, not a cap that every graph is over.
    with pytest.raises(ValueError, match=">= 0, got -1"):
        count_events(path_graph(3), Triple(0, 1, 2), cap=-1)
    with pytest.raises(ValueError, match=">= 0, got -1"):
        sweep_source(path_graph(3), 1, cap=-1)
    assert count_events(path_graph(3), Triple(0, 1, 2), cap=62).n_cd == 1


def test_batch_size_is_an_aligned_power_of_two():
    # Arange batches then start on multiples of their own size.
    for n in range(1, 63):
        for planes in (1, 3):
            size = _batch_size(n, planes)
            assert size & (size - 1) == 0
            assert 1 << 10 <= size <= 1 << 16
