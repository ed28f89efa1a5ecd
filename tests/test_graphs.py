"""Graph construction, graph6 round-trips, edge-list parsing."""

import ast
import random
import re

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


def test_petersen_published_golden():
    # The published graph6 string of the Petersen graph: outer 5-cycle,
    # spokes i-(i+5) and the inner pentagram 5-7-9-6-8-5.  Unlike the round
    # trips below, this pins the bit order against an outside reference.
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    pentagram = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    petersen = graph_from_edges(10, outer + spokes + pentagram)
    assert emit_graph6(petersen) == "IheA@GUAo"
    assert parse_graph6("IheA@GUAo") == petersen


def _error_case(text, message, tag):
    """One bad input and its full message, with the test id "<input>-<tag>"."""
    return pytest.param(text, message, id=f"{text}-{tag}")


@pytest.mark.parametrize("bad, message", [
    _error_case("", "empty graph6 string", "empty"),
    _error_case("B\x1c", "byte 1: character '\\x1c' outside graph6 range", "outside graph6 range"),
    _error_case("~??", "byte 0: multi-byte vertex counts (n > 62) not supported", "multi-byte"),
    _error_case("?", "byte 0: vertex count 0 outside 1..62", "vertex count 0"),
    _error_case("Bww", "byte 2: trailing garbage after graph data", "trailing garbage"),
    _error_case("D?", "byte 2: truncated, need 2 data characters", "truncated"),
    _error_case("Bx", "byte 1: nonzero padding bit", "padding"),
    _error_case("D?|", "byte 2: nonzero padding bit", "padding"),
    # Byte numbers count the optional header, so they index the whole line.
    _error_case(">>graph6<<", "empty graph6 string", "empty"),
    _error_case(">>graph6<<B!", "byte 11: character '!' outside graph6 range", "outside graph6 range"),
    _error_case(">>graph6<<~??", "byte 10: multi-byte vertex counts (n > 62) not supported", "multi-byte"),
    _error_case(">>graph6<<?", "byte 10: vertex count 0 outside 1..62", "vertex count 0"),
    _error_case(">>graph6<<Bww", "byte 12: trailing garbage after graph data", "trailing garbage"),
    _error_case(">>graph6<<D?\n", "byte 12: truncated, need 2 data characters", "truncated"),
    _error_case(">>graph6<<Bx", "byte 11: nonzero padding bit", "padding"),
])
def test_parse_errors(bad, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(bad)
    assert str(err.value) == message


def test_every_graph_on_at_most_5_vertices_roundtrips():
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=120)
@given(st.integers(1, MAX_VERTICES), st.floats(0, 1), st.randoms(use_true_random=False))
def test_graph6_roundtrip(n, p, rnd):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    g = graph_from_edges(n, edges)
    text = emit_graph6(g)
    assert parse_graph6(text) == g
    assert emit_graph6(parse_graph6(text)) == text


def test_graph6_roundtrip_at_the_vertex_limit():
    # 1891 pairs fill 315 characters and one bit of a 316th.
    empty = graph_from_edges(MAX_VERTICES, [])
    full = complete_graph(MAX_VERTICES)
    assert emit_graph6(empty) == "}" + "?" * 316
    assert emit_graph6(full) == "}" + "~" * 315 + "_"
    for g in (empty, full):
        assert parse_graph6(emit_graph6(g)) == g


def test_edge_list_roundtrip():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n")
    assert g == path_graph(4)


@pytest.mark.parametrize("text, message", [
    _error_case("", "empty edge list", "empty"),
    _error_case("\n \n", "empty edge list", "empty"),
    _error_case("x\n0 1\n", "first line must be the vertex count, got 'x'", "vertex count"),
    _error_case("3\n0\n", "line 2: expected 'u v', got '0'", "expected 'u v'"),
    _error_case("3\n0 a\n", "line 2: non-integer endpoint in '0 a'", "non-integer"),
    _error_case("3\n0 0\n", "self-loop at vertex 0", "self-loop"),
    _error_case("3\n0 1\n1 0\n", "duplicate edge (0, 1)", "duplicate"),
    _error_case("3\n0 7\n", "edge (0, 7) out of range for n=3", "out of range"),
    _error_case("63\n", "vertex count 63 outside 1..62", "outside 1..62"),
    # The first bad edge is reported: range, then self-loop, then duplicate.
    _error_case("3\n5 5\n", "edge (5, 5) out of range for n=3", "out of range"),
    _error_case("3\n2 2\n0 7\n", "self-loop at vertex 2", "self-loop"),
    _error_case("3\n0 1\n1 0\n2 2\n", "duplicate edge (0, 1)", "duplicate"),
    # Line numbers count blank lines, as an editor does.
    _error_case("3\n\n0 1\n1 x\n", "line 4: non-integer endpoint in '1 x'", "non-integer"),
    _error_case("\n\n3\n0 1\n1 2 3\n", "line 5: expected 'u v', got '1 2 3'", "expected 'u v'"),
    # Lines end only where a file read as text ends them, not at other
    # separators that str.splitlines knows.
    _error_case("3\n0 1\x851 2\n", "line 2: expected 'u v', got '0 1\\x851 2'", "expected 'u v'"),
    _error_case("3\n0 1\x0c1 x\n", "line 2: expected 'u v', got '0 1\\x0c1 x'", "expected 'u v'"),
])
def test_edge_list_errors(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


_G6_CHARS = st.characters(min_codepoint=60, max_codepoint=130)
_PLAIN_ROWS = st.one_of(
    st.sampled_from(["", " ", "\t", "x", "0", "1 2 3", "0 a"]),
    st.builds("{} {}".format, st.integers(-1, 6), st.integers(-1, 6)),
)
# Separators that str.splitlines breaks at but a file read as text does not.
_NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_EDGE_ROWS = _PLAIN_ROWS | st.builds("{}{}{}".format, _PLAIN_ROWS, st.sampled_from(_NOT_LINE_ENDS), _PLAIN_ROWS)
_GRAPH_TEXTS = st.one_of(
    st.text(),
    st.builds(lambda header, n, body: header + chr(63 + n) + body,
              st.sampled_from(["", ">>graph6<<"]), st.integers(0, 64), st.text(_G6_CHARS, max_size=12)),
    st.builds(lambda first, rows, sep, end: sep.join([first, *rows]) + end,
              st.sampled_from(["", " ", "3", "5", "x", "70"]), st.lists(_EDGE_ROWS, max_size=10),
              st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\n", "\r\n"])),
)


def _check_diagnostic(parse, text):
    try:
        parse(text)
    except GraphFormatError as exc:
        message = str(exc)
    else:
        return
    if line := re.match(r"line (\d+): ", message):
        lines = re.split(r"\r\n|\r|\n", text)  # as a file read as text
        k = int(line[1])
        assert 1 <= k <= len(lines) and lines[k - 1].strip(), message
        assert message.endswith(repr(lines[k - 1].strip())), message
    if byte := re.match(r"byte (\d+): character (.+) outside graph6 range$", message):
        assert text[int(byte[1])] == ast.literal_eval(byte[2]), message


@settings(max_examples=400)
@given(_GRAPH_TEXTS)
def test_parsers_raise_only_format_errors_that_point_into_the_text(text):
    _check_diagnostic(parse_graph6, text)
    _check_diagnostic(parse_edge_list, text)


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
