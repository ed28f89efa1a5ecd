"""Graph construction, graph6 round-trips, edge-list parsing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orientcorr import (
    GraphFormatError,
    Triple,
    complete_graph,
    cycle_graph,
    emit_graph6,
    graph_from_edges,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from orientcorr.graphs import MAX_VERTICES, components, distances, members
from support import random_graph, ref_components, ref_distances, star


# Hand-decoded goldens: 'D?{' unpacks to bits 000000 111100 over the pair
# sequence (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),(0,4),(1,4),(2,4),(3,4),
# which is the star with center 4.  'Bw' is 111 over three pairs: K3.

def test_star_golden():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))
    assert g == star(5)


def test_k3_golden():
    g = parse_graph6("Bw")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    # K3 is also the smallest cycle.
    assert cycle_graph(3) == g
    with pytest.raises(GraphFormatError, match="at least 3 vertices, got 2"):
        cycle_graph(2)


def test_k4_well_known_encoding():
    assert emit_graph6(complete_graph(4)) == "C~"
    assert parse_graph6("C~") == complete_graph(4)


def test_optional_header_prefix_and_newline():
    assert parse_graph6(">>graph6<<Bw\n") == complete_graph(3)


@pytest.mark.parametrize("bad, fragment", [
    ("", "empty"),
    ("B\x1c", "outside graph6 range"),
    ("~??", "multi-byte"),
    ("?", "vertex count 0"),
    ("Bww", "trailing garbage"),
    ("D?", "truncated"),
    ("Bx", "padding"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(bad)
    assert fragment in str(err.value)


def test_every_graph_on_at_most_5_vertices_roundtrips():
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=120)
@given(st.integers(1, 20), st.randoms(use_true_random=False))
def test_graph6_roundtrip(n, rnd):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.4]
    g = graph_from_edges(n, edges)
    text = emit_graph6(g)
    assert parse_graph6(text) == g
    assert emit_graph6(parse_graph6(text)) == text


def test_edge_list_roundtrip():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n")
    assert g == path_graph(4)


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("x\n0 1\n", "vertex count"),
    ("3\n0\n", "expected 'u v'"),
    ("3\n0 a\n", "non-integer"),
    ("3\n0 0\n", "self-loop"),
    ("3\n0 1\n1 0\n", "duplicate"),
    ("3\n0 7\n", "out of range"),
    ("63\n", "outside 1..62"),
])
def test_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


@given(st.integers(0, (1 << MAX_VERTICES) - 1))
def test_members_lists_set_bits_in_increasing_order(mask):
    assert list(members(mask)) == [v for v in range(MAX_VERTICES) if mask >> v & 1]


def test_edges_sorted_and_canonical():
    g = graph_from_edges(4, [(3, 2), (1, 0)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    assert not g.has_edge(0, 2)


def test_connectivity():
    assert is_connected(path_graph(6))
    assert is_connected(graph_from_edges(1, []))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(graph_from_edges(3, [(0, 1)]))


def test_random_graphs_connectivity_matches_reference():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        # Reference: union-find over the edge list.
        parent = list(range(g.n))
        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v
        for u, v in g.edges:
            parent[find(u)] = find(v)
        assert is_connected(g) == (len({find(v) for v in range(g.n)}) == 1)


@st.composite
def graphs_and_starts(draw):
    """A graph on 1..12 vertices, often a forest, and one or two start vertices."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        # A forest: each vertex hangs off an earlier one, or starts a tree.
        parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
        edges = [(u, v) for v, u in enumerate(parents, 1) if u >= 0]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return graph_from_edges(n, edges), draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))


@given(graphs_and_starts())
def test_distances_and_components_match_a_plain_bfs(case):
    g, start = case
    assert distances(g.adjacency, sum(1 << v for v in start)) == ref_distances(g.adjacency, start)
    assert components(g.adjacency) == ref_components(g.adjacency)
    assert is_connected(g) == (ref_components(g.adjacency) == 1)


def test_triple_validate_takes_the_vertex_count():
    Triple(0, 1, 2).validate(3)
    for triple, message in ((Triple(0, 1, 3), "vertex 3 out of range for n=3"),
                            (Triple(-1, 1, 2), "vertex -1 out of range for n=3"),
                            (Triple(0, 1, 0), "not distinct")):
        with pytest.raises(ValueError, match=message):
            triple.validate(3)
