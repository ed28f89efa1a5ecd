"""Exhaustive orientation counting: goldens, invariants, the batch kernel."""

from itertools import permutations
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
    cycle_graph,
    exact_correlation,
    forest_correlation,
    graph_from_edges,
    mix64,
    path_graph,
    sweep_source,
    sweep_sources,
)
from orientcorr import enumeration
from orientcorr.dyadic import DyadicProb
from orientcorr.enumeration import (
    _batch_words, _edge_planes, _sweep_batch, run_batches, triple_counts)
from orientcorr.graphs import members
from orientcorr.montecarlo import _sample_planes
from support import diamond, out_adjacency, random_graph, reach_set, reachable, star


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

def _oracle_sweeps(g, orientations):
    """joint[s][a][b] counts of a -> s and s -> b, from the one-word reach sets.

    Each word's reach sets come from `reach_set`, the pure-Python walk
    behind `reachable`; the loops run over set bits only, so the sparse
    n = 62 graphs stay cheap.
    """
    joint = [[[0] * g.n for _ in range(g.n)] for _ in range(g.n)]
    for word in orientations:
        out_adj = out_adjacency(g, word)
        reach = [reach_set(out_adj, v) for v in range(g.n)]
        into = [[] for _ in range(g.n)]
        for a, seen in enumerate(reach):
            for s in members(seen):
                into[s].append(a)
        for s, outs in enumerate(reach):
            for a in into[s]:
                for b in members(outs):
                    joint[s][a][b] += 1
    return joint


def _oracle_sweep(g, s, orientations):
    """(into, from, joint) counts around s, as sweep_source returns them."""
    joint = _oracle_sweeps(g, orientations)[s]
    return [row[s] for row in joint], joint[s], joint


def _check_against_oracle(g, t):
    words = range(1 << g.m)
    into, outof, joint = _oracle_sweep(g, t.s, words)
    counts = count_events(g, t)
    assert (counts.n_c, counts.n_d, counts.n_cd) == (into[t.a], outof[t.b], joint[t.a][t.b])
    assert sweep_source(g, t.s) == (into, outof, joint)
    assert sweep_sources(g) == _oracle_sweeps(g, words)


# a = 0 and s = 1 at BFS distance 0; 2..4 at 1..3 out from 0, then back in
# through 5 and 6, out again through 7 and 8 and in through 9 and 10.
ZIGZAG = graph_from_edges(11, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (6, 7), (7, 8),
                               (8, 9), (9, 10), (10, 1)])


@st.composite
def small_graphs_with_triple(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    return graph_from_edges(n, edges), Triple(*draw(st.permutations(range(n)))[:3])


@st.composite
def sparse_with_top_triple(draw, n):
    # n vertices with few edges, all among a handful of vertices that
    # include the top one, n - 1, which is a, s or b: so the last row of
    # the reach arrays takes part.
    top = n - 1
    others = sorted(draw(st.sets(st.integers(min_value=0, max_value=top - 1),
                                 min_size=2, max_size=5)))
    verts = others + [top]
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=6))
    edges.append((draw(st.sampled_from(others)), top))
    a, b = draw(st.permutations(others))[:2]
    role = draw(st.integers(min_value=0, max_value=2))
    triple = [(top, a, b), (a, top, b), (a, b, top)][role]
    return graph_from_edges(n, set(edges)), Triple(*triple)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_graphs_with_triple(), sparse_with_top_triple(62)))
@example((graph_from_edges(5, [(0, 1), (1, 2), (0, 2)]), Triple(0, 1, 2)))  # isolated 3 and 4
@example((graph_from_edges(4, [(0, 1), (1, 3)]), Triple(2, 1, 3)))  # isolated source
@example((graph_from_edges(62, [(0, 61), (30, 61), (0, 30)]), Triple(0, 61, 30)))
# 2 and 4 words on 62 vertices: the shortest batches of the all-sources sweep.
@example((graph_from_edges(62, [(0, 12), (0, 30), (0, 61), (12, 45), (12, 61), (30, 61), (45, 61)]),
          Triple(0, 61, 45)))
@example((graph_from_edges(62, [(0, 12), (0, 30), (0, 61), (12, 45), (12, 61), (30, 45), (30, 61),
                                (45, 61)]), Triple(12, 30, 61)))
@example((path_graph(7), Triple(6, 3, 0)))  # sourced at its top vertex
# When 1 -> 6, a zig-zag is the one a -> s path: out from {a, s} by BFS
# distance, back in, out and in again, so no two sweeps find it.
@example((ZIGZAG, Triple(0, 1, 8)))
# a cannot reach the 4-cycle 3..6, which holds b: its edges carry nothing.
@example((graph_from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
          Triple(0, 1, 5)))
@example((graph_from_edges(3, []), Triple(0, 1, 2)))  # edgeless: one orientation
def test_kernel_matches_reachable_oracle(case):
    _check_against_oracle(*case)


@pytest.mark.parametrize("t", [Triple(24, 12, 0), Triple(0, 12, 24)])
def test_long_path_sourced_at_an_end_matches_the_forest_law(t):
    # 2^24 orientations are past the pure-Python oracle, and a path is a
    # tree, so the forest dichotomy is the oracle.  From either end, a -> s
    # runs out from {a, s} by BFS distance and back in.
    g = path_graph(25)
    assert exact_correlation(g, t) == forest_correlation(g, t).correlation


def test_alternating_sweeps_close_a_cycle_in_five(monkeypatch):
    # On C16 from a = 0 with s opposite, each path runs out from {a, s} and
    # back in.  Sweeps that alternate direction take one sweep a turn and
    # close every batch in 5; sweeps that all run outward took 13.
    sweeps = []
    close = enumeration._close
    monkeypatch.setattr(enumeration, "_close",
                        lambda arcs, reach: sweeps.append(close(arcs, reach)) or sweeps[-1])
    count_events(cycle_graph(16), Triple(0, 8, 4))
    assert sweeps == [5]


# Sparse graphs on each side of 8, 16 and 32 vertices, the top vertex in the triple.
@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle_at_lane_boundaries(n, data):
    _check_against_oracle(*data.draw(sparse_with_top_triple(n)))


def test_kernel_matches_oracle_on_seeded_graphs():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 6), 0.7)
        a, s, b = rng.sample(range(g.n), 3)
        _check_against_oracle(g, Triple(a, s, b))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
       start=st.integers(min_value=0, max_value=1 << 26),
       count=st.integers(min_value=1, max_value=130),
       order=st.permutations(range(12)))
def test_sample_range_replays_through_scalar_mix64(seed, start, count, order):
    # Samples 64 start .. 64 start + count - 1, up to three words of 64
    # with the last one partial.  K12 has 66 edges: two 64-bit mix64 words
    # per sample, edge i on bit i % 64 of word i // 64.  Nearly every
    # orientation of K12 has both paths, so the counts alone would not see
    # a misplaced bit: every plane bit and the live mask are compared with
    # the replayed samples too.
    g = complete_graph(12)
    t = Triple(*order[:3])
    orientations = [mix64(seed, 2 * j) | mix64(seed, 2 * j + 1) << 64
                    for j in range(64 * start, 64 * start + count)]
    into, outof, joint = _oracle_sweep(g, t.s, orientations)

    def planes(lo, hi):
        return _sample_planes(seed, g.m, start + lo, start + hi)

    assert triple_counts(g, t, count, planes) == [into[t.a], outof[t.b], joint[t.a][t.b]]
    batches = []
    run_batches(count, planes, lambda *batch: batches.append(batch) or 0, step=1 << 10)
    [(words, live)] = batches
    assert words.shape == (g.m, -(-count // 64))
    live = int.from_bytes(live.astype("<u8").tobytes(), "little")
    assert live == (1 << count) - 1
    words = [int.from_bytes(plane.astype("<u8").tobytes(), "little") for plane in words]
    for j, orientation in enumerate(orientations):
        assert [plane >> j & 1 for plane in words] == [orientation >> i & 1 for i in range(g.m)]


def test_every_chunking_and_thread_count_agrees(monkeypatch):
    # m = 8: 256 orientations for count_events, 4 words of 64 for sweep_sources.
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    t = Triple(0, 3, 5)
    reference = count_events(g, t, threads=1)
    joints = sweep_sources(g, threads=1)
    for size in (1, 3, 32, 100, 1 << 16):
        monkeypatch.setattr(enumeration, "_batch_words", lambda n, m, size=size: size)
        monkeypatch.setattr(enumeration, "_sweep_batch", lambda n, size=size: size)
        for threads in (1, 2, 3, 8):
            assert count_events(g, t, threads=threads) == reference
            assert sweep_sources(g, threads=threads) == joints
    # 0 means every core, and one when the core count is unknown.
    for cores, expected in ((3, 3), (None, 1)):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda cores=cores: cores)
        assert enumeration.resolve_threads(0) == expected


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("lo", [0, 1, 5])
def test_edge_planes_hold_bit_i_of_each_orientation(m, lo):
    # Bit j of word k of edge i's plane is bit i of orientation 64 (lo + k) + j,
    # as out_adjacency reads that orientation.
    g = path_graph(m + 1)
    planes = _edge_planes(m, lo, lo + 3)
    assert planes.shape == (m, 3) and planes.dtype == np.uint64
    for k, words in enumerate(planes.T.tolist()):
        for j in range(64):
            out = out_adjacency(g, 64 * (lo + k) + j)
            for i, (u, v) in enumerate(g.edges):
                assert words[i] >> j & 1 == out[u] >> v & 1


@pytest.mark.parametrize("m", range(8))
def test_sub_word_walks_match_the_oracle(m):
    # Walks of m < 6 edges fill only part of their one 64-orientation word.
    # Vertex 5 is isolated, and m = 0 is the edgeless graph, whose only
    # counts come from every vertex reaching itself.
    pairs = [(0, 1), (1, 2), (0, 3), (2, 3), (3, 4), (1, 4), (0, 2)]
    g = graph_from_edges(6, pairs[:m])
    joints = _oracle_sweeps(g, range(1 << m))
    assert sweep_sources(g) == joints
    for a, s, b in permutations(range(g.n), 3):
        counts = count_events(g, Triple(a, s, b))
        assert (counts.n_c, counts.n_d, counts.n_cd) == (joints[s][a][s], joints[s][s][b],
                                                         joints[s][a][b])


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


def test_sweep_source_rejects_a_vertex_out_of_range():
    for s in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            sweep_source(path_graph(3), s)


def _record_pools(monkeypatch, cores):
    """Pretend the host has `cores` cores; the returned list collects each
    thread pool's max_workers as the pool is made."""
    pools = []

    class RecordingPool(enumeration.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(enumeration, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cores)
    return pools


def test_sweep_sources_threads_are_used_and_agree(monkeypatch):
    # K7 has 2^15 words of 64 orientations, 16 batches, so a thread count
    # above 1 runs them on a pool of that many workers, one pool per walk.
    g = complete_graph(7)
    assert (1 << g.m - 6) // _sweep_batch(g.n) == 16
    pools = _record_pools(monkeypatch, cores=8)
    reference = sweep_sources(g, threads=1)
    for k in (2, 3):
        assert sweep_sources(g, threads=k) == reference
    assert pools == [2, 3]
    assert classify(g, threads=2) == classify(g, threads=1)


def test_thread_pool_is_capped_at_the_cores(monkeypatch):
    # C8 has 4 words of 64 orientations; at one word a batch that is 4
    # batches, and on 2 cores a pool of 2 workers, however many threads
    # are asked for.  On one core no pool starts at all.
    pools = _record_pools(monkeypatch, cores=2)
    monkeypatch.setattr(enumeration, "_batch_words", lambda n, m: 1)
    g, t = cycle_graph(8), Triple(0, 2, 5)
    assert count_events(g, t, threads=10**6) == count_events(g, t, threads=1)
    assert pools == [2]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    assert count_events(g, t, threads=4) == count_events(g, t, threads=1)
    assert pools == [2]


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
    # Word ranges then start on multiples of their own size.  A triple batch
    # is the largest power of two of words, at most 2^10, whose planes and
    # reach rows, and whose sampled words, each fit the budget.
    for n in range(1, 63):
        for m in range(n * (n - 1) // 2 + 1):
            words = _batch_words(n, m)
            assert words & (words - 1) == 0
            per_word = 8 * max(m + 2 * n, 64 * -(-m // 64))
            assert per_word * words <= enumeration._BATCH_BYTES
            assert words == 1 << 10 or 2 * per_word * words > enumeration._BATCH_BYTES
        words = _sweep_batch(n)
        assert words & (words - 1) == 0
        assert 8 * n * n * words <= enumeration._SWEEP_BYTES
