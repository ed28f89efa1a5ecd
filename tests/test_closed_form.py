"""Cycle and forest closed forms against the exhaustive oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from orientcorr import (
    CycleTriple,
    SignedDyadic,
    Triple,
    TripleCorrelation,
    cycle_correlation,
    cycle_cov_bound,
    cycle_graph,
    cycle_triple_from_labels,
    exact_correlation,
    forest_correlation,
    graph_from_edges,
    path_graph,
    sweep_sources,
)
from orientcorr.dyadic import DyadicProb
from support import star, tree_corpus


def test_pentagon_adjacent_arcs_golden():
    cor = cycle_correlation(CycleTriple(5, 1, 1))
    assert cor.p_c == DyadicProb.of(17, 5)
    assert cor.p_d == DyadicProb.of(17, 5)
    assert cor.p_cd == DyadicProb.of(9, 5)
    assert cor.cov == SignedDyadic.of(-1, 10)


def test_triangle_via_cycle_formula():
    assert cycle_correlation(CycleTriple(3, 1, 1)).cov == SignedDyadic.of(-1, 6)


def test_arc_validation():
    with pytest.raises(ValueError):
        CycleTriple(5, 0, 2)
    with pytest.raises(ValueError):
        CycleTriple(5, 2, 3)


def test_replace_and_make_check_the_arcs_too():
    t = CycleTriple(5, 1, 1)
    assert t._replace(d=2) == CycleTriple._make([5, 1, 2]) == (5, 1, 2)
    assert type(t._replace(d=2)) is type(CycleTriple._make([5, 1, 2])) is CycleTriple
    with pytest.raises(ValueError, match=r"^arc lengths \(0, 1, 4\) must all be >= 1$"):
        t._replace(c=0)
    with pytest.raises(ValueError, match=r"^arc lengths \(1, 1, 0\) must all be >= 1$"):
        t._replace(n=2)
    with pytest.raises(ValueError, match=r"^arc lengths \(2, 3, 0\) must all be >= 1$"):
        CycleTriple._make((5, 2, 3))


def test_labeled_derivation():
    t = cycle_triple_from_labels(6, 0, 2, 3)
    assert (t.n, t.c, t.d) == (6, 2, 1)
    # Reflected rotation order: b sits on the short way from a to s.
    t = cycle_triple_from_labels(6, 4, 1, 0)
    assert (t.c, t.d) == (3, 1)
    with pytest.raises(ValueError):
        cycle_triple_from_labels(6, 1, 1, 3)
    # Labels outside 0..n-1 are refused, not reduced mod n.
    for labels in ((1, 8, 3), (-1, 2, 3)):
        with pytest.raises(ValueError, match="out of range for n=6"):
            cycle_triple_from_labels(6, *labels)


def test_labeled_derivation_matches_enumeration():
    for n in (5, 6):
        g = cycle_graph(n)
        for a in range(n):
            for s in range(n):
                for b in range(n):
                    if len({a, s, b}) != 3:
                        continue
                    derived = cycle_correlation(cycle_triple_from_labels(n, a, s, b))
                    assert derived == exact_correlation(g, Triple(a, s, b))


def test_cycle_formula_equals_enumeration_small():
    for n in range(3, 8):
        g = cycle_graph(n)
        for c in range(1, n - 1):
            for d in range(1, n - c):
                enumerated = exact_correlation(g, Triple(0, c, (c + d) % n))
                assert cycle_correlation(CycleTriple(n, c, d)) == enumerated


def test_cycle_cov_ceiling_equality_iff_adjacent():
    for n in range(3, 11):
        bound = cycle_cov_bound(n).as_fraction()
        for c in range(1, n - 1):
            for d in range(1, n - c):
                cov = cycle_correlation(CycleTriple(n, c, d)).cov.as_fraction()
                assert cov <= bound
                assert (cov == bound) == (c == 1 and d == 1)
    # No cycle has fewer than 3 vertices, so there is no ceiling to give.
    for n in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match=f"cycle needs at least 3 vertices, got {n}"):
            cycle_cov_bound(n)


def test_forest_path_through_middle_is_independent():
    verdict = forest_correlation(path_graph(5), Triple(0, 2, 4))
    assert verdict.kind == "independent"
    assert verdict.correlation.p_c == DyadicProb.of(1, 2)
    assert verdict.correlation.p_d == DyadicProb.of(1, 2)
    assert verdict.correlation.p_cd == DyadicProb.of(1, 4)
    assert verdict.correlation.cov.sign == 0


def test_forest_detour_is_mutually_exclusive():
    # Leaves through the star center: both events need the center edge, in
    # opposite directions.
    verdict = forest_correlation(star(5), Triple(0, 1, 2))
    assert verdict.kind == "mutually_exclusive"
    assert verdict.correlation.p_cd == DyadicProb.zero()
    assert verdict.correlation.cov == SignedDyadic.of(-1, 4)


def test_forest_cross_component_independence():
    g = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
    verdict = forest_correlation(g, Triple(0, 1, 3))
    assert verdict.kind == "independent"
    assert verdict.correlation.p_c == DyadicProb.of(1, 1)
    assert verdict.correlation.p_d == DyadicProb.zero()
    assert verdict.correlation.p_cd == DyadicProb.zero()
    assert verdict.correlation.cov.sign == 0
    # Middle vertex in its own component: both events die.
    verdict = forest_correlation(g, Triple(0, 3, 1))
    assert verdict.kind == "independent"
    assert verdict.correlation.p_c == DyadicProb.zero()


def test_rejects_graphs_with_cycles():
    with pytest.raises(ValueError):
        forest_correlation(cycle_graph(3), Triple(0, 1, 2))


def test_forest_dichotomy_matches_enumeration_on_tree_set():
    trees = tree_corpus()
    assert len(trees) >= 50
    for g in trees:
        total = 1 << g.m
        joints = sweep_sources(g)
        for s in range(g.n):
            joint = joints[s]
            for a in range(g.n):
                for b in range(g.n):
                    if len({a, s, b}) != 3:
                        continue
                    verdict = forest_correlation(g, Triple(a, s, b))
                    enumerated = TripleCorrelation.from_scaled(
                        joint[a][s], joint[s][b], joint[a][b], g.m)
                    cor = verdict.correlation
                    assert cor == enumerated
                    if verdict.kind == "independent":
                        assert cor.cov.sign == 0
                        assert cor.p_cd.as_fraction() == (
                            cor.p_c.as_fraction() * cor.p_d.as_fraction())
                    else:
                        assert cor.cov.sign == -1
                        assert cor.cov.as_fraction() == (
                            -cor.p_c.as_fraction() * cor.p_d.as_fraction())


@st.composite
def forests(draw):
    """Labelled forests on 3..8 vertices, disconnected ones included: each
    vertex after the first hangs off an earlier one or starts a new tree."""
    n = draw(st.integers(min_value=3, max_value=8))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=v - 1)))
        if parent is not None:
            edges.append((label[parent], label[v]))
    return graph_from_edges(n, edges)


@settings(max_examples=50, deadline=None)
@given(forests())
@example(graph_from_edges(5, [(0, 1), (2, 3), (3, 4)]))
@example(graph_from_edges(3, []))
def test_forest_dichotomy_matches_exact_walk_on_random_forests(g):
    for a in range(g.n):
        for s in range(g.n):
            for b in range(g.n):
                if len({a, s, b}) == 3:
                    t = Triple(a, s, b)
                    assert forest_correlation(g, t).correlation == exact_correlation(g, t)
