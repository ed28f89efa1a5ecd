"""Sign censuses, the three classes, streaming, minors and outerplanarity."""

import importlib
import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientcorr import (
    Triple,
    classify,
    classify_stream,
    complete_graph,
    cycle_graph,
    emit_graph6,
    exact_correlation,
    graph_from_edges,
    has_minor,
    is_connected,
    is_outerplanar,
    parse_graph6,
    path_graph,
)
from support import diamond, random_graph, star

# Frozen censuses (neg, zero, pos) over all ordered triples.
CENSUS = {
    "K4": (complete_graph(4), 0, 24, 0),
    "K5": (complete_graph(5), 0, 0, 60),
    "K6": (complete_graph(6), 0, 0, 120),
    "C4": (cycle_graph(4), 24, 0, 0),
    "C5": (cycle_graph(5), 60, 0, 0),
    "P5": (path_graph(5), 40, 20, 0),
    "star5": (star(5), 48, 12, 0),
    "diamond": (diamond(), 20, 0, 4),
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census_goldens(name):
    g, neg, zero, pos = CENSUS[name]
    flags = classify(g)
    assert (flags.neg_triples, flags.zero_triples, flags.pos_triples) == (neg, zero, pos)
    assert flags.total_triples == g.n * (g.n - 1) * (g.n - 2)
    assert not flags.disconnected
    # The stream reaches the census by its own path, so check it agrees.
    [record, _summary] = classify_stream([emit_graph6(g)])
    census = {key: value for key, value in asdict(flags).items() if key != "disconnected"}
    assert record == {"type": "graph", "index": 0, "graph6": emit_graph6(g), "n": g.n, "m": g.m, **census}


def test_class_flags_follow_census():
    k4 = classify(complete_graph(4))
    assert (k4.class_i, k4.class_ii, k4.class_iii) == (True, True, True)
    k5 = classify(complete_graph(5))
    assert (k5.class_i, k5.class_ii, k5.class_iii) == (False, False, True)
    c5 = classify(cycle_graph(5))
    assert (c5.class_i, c5.class_ii, c5.class_iii) == (True, False, False)
    p5 = classify(path_graph(5))
    assert (p5.class_i, p5.class_ii, p5.class_iii) == (True, True, False)
    dia = classify(diamond())
    assert (dia.class_i, dia.class_ii, dia.class_iii) == (False, True, False)


def _seeded_census_graphs():
    rng = random.Random(13)
    # n = 5, 6 and 7; the n = 7 graph has m = 15, so its walk spans two
    # batches of 2^14 words.
    graphs = [random_graph(rng, n, p) for n, p in ((5, 0.6), (6, 0.6), (7, 0.75))]
    # Two seeded parts side by side, on vertices 0..3 and 4..6.
    left, right = random_graph(rng, 4, 0.7), random_graph(rng, 3, 0.9)
    graphs.append(graph_from_edges(7, list(left.edges)
                                   + [(u + 4, v + 4) for u, v in right.edges]))
    return graphs


CENSUS_ORACLE_GRAPHS = [complete_graph(4), cycle_graph(4), diamond()] + _seeded_census_graphs()


def test_seeded_census_graphs_cover_batches_and_parts():
    *_, dense, two_parts = CENSUS_ORACLE_GRAPHS
    assert (dense.n, dense.m) == (7, 15)
    assert not is_connected(two_parts)
    assert {u < 4 for u, _ in two_parts.edges} == {True, False}  # both parts have edges


@pytest.mark.parametrize("g", CENSUS_ORACLE_GRAPHS)
def test_census_matches_per_triple_signs(g):
    # The per-triple walks close reach by frontier expansion from one
    # source, so they do not share the census's all-sources closure.
    neg = zero = pos = 0
    for a in range(g.n):
        for s in range(g.n):
            for b in range(g.n):
                if len({a, s, b}) != 3:
                    continue
                sign = exact_correlation(g, Triple(a, s, b)).cov.sign
                neg += sign < 0
                zero += sign == 0
                pos += sign > 0
    flags = classify(g, allow_disconnected=True)
    assert (flags.neg_triples, flags.zero_triples, flags.pos_triples) == (neg, zero, pos)
    assert flags.disconnected == (not is_connected(g))


def test_thread_count_does_not_change_census():
    assert classify(complete_graph(5), threads=4) == classify(complete_graph(5))


def test_small_and_disconnected_rejection():
    with pytest.raises(ValueError):
        classify(path_graph(2))
    two_parts = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        classify(two_parts)
    flags = classify(two_parts, allow_disconnected=True)
    assert flags.disconnected
    assert flags.total_triples == 24


def test_stream_mixed_input():
    lines = [
        emit_graph6(complete_graph(3)),
        "",
        "!!bad",
        emit_graph6(graph_from_edges(3, [(0, 1)])),
        emit_graph6(complete_graph(4)),
    ]
    records = list(classify_stream(lines, cap=3))
    kinds = [r["type"] for r in records]
    # The blank line yields nothing; K4 has 6 edges, over the cap of 3.
    assert kinds == ["graph", "error", "skipped", "skipped", "summary"]
    assert [r["index"] for r in records[:-1]] == [0, 2, 3, 4]
    k3 = records[0]
    assert (k3["n"], k3["m"]) == (3, 3)
    assert (k3["neg_triples"], k3["zero_triples"], k3["pos_triples"]) == (6, 0, 0)
    assert k3["class_i"] and not k3["class_iii"]
    assert records[2]["reason"] == "disconnected"
    assert "Monte Carlo" in records[3]["reason"]
    summary = records[-1]
    assert (summary["graphs"], summary["errors"], summary["skipped"]) == (1, 1, 2)
    assert summary["class_i"] == 1
    assert summary["class_iii"] == 0


def test_stream_skips_tiny_graphs():
    records = list(classify_stream([emit_graph6(path_graph(2))]))
    assert records[0]["type"] == "skipped"
    assert records[0]["reason"] == "fewer than 3 vertices"


@pytest.mark.parametrize("kwargs, named", [({"threads": -1}, "thread count"), ({"cap": -1}, "enumeration cap")],
                         ids=["threads", "cap"])
def test_stream_refuses_bad_arguments_before_any_record(kwargs, named):
    # The one line is skipped before any walk, so only an up-front check sees the argument.
    with pytest.raises(ValueError, match=named):
        next(classify_stream([emit_graph6(path_graph(2))], **kwargs))


def test_stream_tests_connectivity_once_per_graph(monkeypatch):
    # The package attribute orientcorr.classify is the function, not the module.
    module = importlib.import_module("orientcorr.classify")
    calls = []

    def counted(g):
        calls.append(g)
        return is_connected(g)

    monkeypatch.setattr(module, "is_connected", counted)
    lines = [emit_graph6(complete_graph(5)), emit_graph6(cycle_graph(6)),
             emit_graph6(graph_from_edges(4, [(0, 1), (2, 3)])), emit_graph6(path_graph(2)), "!!bad"]
    kinds = [r["type"] for r in classify_stream(lines)]
    assert kinds == ["graph", "graph", "skipped", "skipped", "error", "summary"]
    # Only the three graphs with n >= 3 are tested, each once.
    assert len(calls) == 3


def test_stream_outerplanar_flag():
    lines = [
        emit_graph6(complete_graph(3)),
        emit_graph6(complete_graph(4)),
        emit_graph6(diamond()),
        emit_graph6(path_graph(11)),
    ]
    records = list(classify_stream(lines, outerplanar=True))
    flags = [r["outerplanar"] for r in records if r["type"] == "graph"]
    # The probe has no vertex cap: the 11-path gets a verdict too.
    assert flags == [True, False, True, True]


def test_stream_without_flag_omits_field():
    records = list(classify_stream([emit_graph6(complete_graph(3))]))
    assert "outerplanar" not in records[0]


def k2(t):
    """K_{2,t}: vertices 0 and 1 joined to each of 2..t+1."""
    return graph_from_edges(t + 2, [(u, v) for u in (0, 1) for v in range(2, t + 2)])


PRISM = graph_from_edges(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_k4_minor_goldens():
    k4 = complete_graph(4)
    assert has_minor(complete_graph(4), k4)
    assert has_minor(complete_graph(5), k4)
    assert has_minor(PRISM, k4)
    assert not has_minor(diamond(), k4)
    assert not has_minor(cycle_graph(5), k4)
    assert not has_minor(star(6), k4)


def test_k23_minor_goldens():
    k23 = k2(3)
    assert has_minor(k23, k23)
    assert has_minor(complete_graph(5), k23)
    assert not has_minor(diamond(), k23)
    assert not has_minor(cycle_graph(5), k23)


def test_minor_search_bounds():
    assert not has_minor(complete_graph(3), complete_graph(4))
    with pytest.raises(ValueError):
        has_minor(path_graph(11), complete_graph(4))


def _labelled_graphs_to_5():
    """All 1,099 labelled graphs on 1-5 vertices."""
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            yield graph_from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def test_outerplanar_every_graph_on_at_most_5_vertices():
    # Every placement of both minimal obstructions, K4 and K2,3, with or
    # without more edges.
    k4, k23 = complete_graph(4), k2(3)
    for g in _labelled_graphs_to_5():
        assert is_outerplanar(g) == (not has_minor(g, k4) and not has_minor(g, k23)), g


def test_minor_search_does_not_depend_on_the_labelling_of_h():
    # The search places h's vertices in index order.  k2(3) lists its two
    # degree-3 vertices first; this copy lists them last.
    k23, k23_last = k2(3), graph_from_edges(5, [(u, v) for u in (3, 4) for v in range(3)])
    found = 0
    for g in _labelled_graphs_to_5():
        expected = has_minor(g, k23)
        assert has_minor(g, k23_last) == expected, g
        found += expected
    assert found == 106


def test_outerplanar_goldens():
    assert not is_outerplanar(k2(3))
    assert not is_outerplanar(PRISM)
    chorded = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    assert is_outerplanar(chorded)
    assert is_outerplanar(path_graph(7))


def _glued(*blocks):
    """Disjoint union of (n, edges) pieces, each sharing its vertex 0 with
    the previous piece's last vertex, so every joint is a cut vertex."""
    edges, base = [], 0
    for n, piece in blocks:
        edges += [(u + base, v + base) for u, v in piece]
        base += n - 1
    return graph_from_edges(base + 1, edges)


EDGE = (2, [(0, 1)])
TRIANGLE = (3, [(0, 1), (1, 2), (0, 2)])
K23_EDGES = (5, k2(3).edges)
K4_EDGES = (4, complete_graph(4).edges)
DIAMOND_EDGES = (4, diamond().edges)
# Pendant vertices 0 and 1 hang off the block {2, 3, 4, 5}, a diamond.  A
# reduction that counts the pendants into the diamond's block rejects it.
PENDANTS_ON_DIAMOND = graph_from_edges(
    7, [(0, 5), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


@st.composite
def small_graphs(draw):
    """Graphs on 3..9 vertices: random edge sets (often disconnected), or
    two random pieces glued at a cut vertex."""
    def piece(n, max_edges):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))

    if draw(st.booleans()):
        n = draw(st.integers(min_value=3, max_value=9))
        return graph_from_edges(n, piece(n, 2 * n))
    n1 = draw(st.integers(min_value=2, max_value=6))
    n2 = draw(st.integers(min_value=2, max_value=10 - n1))
    return _glued((n1, piece(n1, 2 * n1)), (n2, piece(n2, 2 * n2)))


@settings(max_examples=120, deadline=None)
@given(small_graphs())
@example(PENDANTS_ON_DIAMOND)
@example(_glued(TRIANGLE, TRIANGLE))                      # bowtie
@example(_glued(K23_EDGES, TRIANGLE))                     # K2,3 at a degree-2 vertex
@example(_glued(DIAMOND_EDGES, (5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)])))
def test_outerplanar_matches_forbidden_minors(g):
    # The last example glues a diamond to a K2,3 at a degree-3 vertex: both
    # blocks are K4-free and only the K2,3 is not outerplanar.
    expected = not has_minor(g, complete_graph(4)) and not has_minor(g, k2(3))
    assert is_outerplanar(g) == expected


MALFORMED_LINES = ["!!bad", "~", "B", "Bww", "A@", ">>graph6<<"]


@st.composite
def graph6_streams(draw):
    """Stream lines: graphs (random, often disconnected; connected; K6 with
    m = 15, over every cap drawn below; n < 3), malformed and blank lines,
    each with or without a line end."""
    graphs = st.one_of(small_graphs(), st.sampled_from([complete_graph(4), cycle_graph(5), diamond(), star(5),
                                                        complete_graph(6), path_graph(1), path_graph(2)]))
    line = st.one_of(graphs.map(emit_graph6), st.sampled_from(MALFORMED_LINES), st.just(""))
    return draw(st.lists(st.tuples(line, st.sampled_from(["", "\n", "\r\n"])).map("".join), max_size=8))


@settings(max_examples=80, deadline=None)
@given(graph6_streams(), st.integers(min_value=3, max_value=10))
def test_stream_summary_tallies_the_records_before_it(lines, cap):
    *records, summary = classify_stream(lines, cap=cap)
    # One record per non-blank line, in order, then the summary.
    assert [r["index"] for r in records] == [i for i, line in enumerate(lines) if line.rstrip("\r\n")]
    kinds = [r["type"] for r in records]
    graphs = [r for r in records if r["type"] == "graph"]
    assert list(summary.items()) == [
        ("type", "summary"), ("graphs", len(graphs)), ("errors", kinds.count("error")),
        ("skipped", kinds.count("skipped")),
        *((field, sum(r[field] for r in graphs)) for field in ("class_i", "class_ii", "class_iii")),
    ]
    for record in graphs:
        g = parse_graph6(record["graph6"])
        census = {key: value for key, value in vars(classify(g)).items() if key != "disconnected"}
        assert record == {"type": "graph", "index": record["index"], "graph6": record["graph6"],
                          "n": g.n, "m": g.m, **census}


def _fan(n):
    return graph_from_edges(n, [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)])


def _wheel(n):
    """Hub 0 joined to every vertex of the cycle 1..n-1."""
    return graph_from_edges(n, [(0, v) for v in range(1, n)]
                            + [(v, v % (n - 1) + 1) for v in range(1, n)])


def _triangulated_polygon(n, rng):
    """A random maximal outerplanar graph: cut random ears off a relabelled n-gon."""
    polygon = rng.sample(range(n), n)
    edges = {frozenset(pair) for pair in zip(polygon, polygon[1:] + polygon[:1])}
    while len(polygon) > 3:
        i = rng.randrange(len(polygon))
        edges.add(frozenset((polygon[i - 1], polygon[(i + 1) % len(polygon)])))
        del polygon[i]
    return graph_from_edges(n, [tuple(e) for e in edges])


OUTERPLANAR_PIECES = (EDGE, TRIANGLE, DIAMOND_EDGES, *((k, cycle_graph(k).edges) for k in (4, 5, 8)))


def _chain(rng, size):
    """Random outerplanar pieces for `_glued`, on `size` >= 3 vertices.

    Two edge pieces in a row meet at a cut vertex of degree 2; the other
    pieces go on either end, so that joint stays.
    """
    pieces, n = [EDGE, EDGE], 3
    while n < size:
        piece = rng.choice(OUTERPLANAR_PIECES)
        if n + piece[0] - 1 > size:
            piece = EDGE
        pieces.insert(rng.choice((0, len(pieces))), piece)
        n += piece[0] - 1
    return pieces


def test_outerplanar_past_the_minor_search_cap():
    # Every n up to the 62-vertex limit; the minor search stops at 10.
    rng = random.Random(6)
    for n in range(5, 63):
        polygon = _triangulated_polygon(n, rng)
        assert polygon.m == 2 * n - 3
        chain = _glued(*_chain(rng, n))
        assert chain.n == n
        for g in (cycle_graph(n), _fan(n), polygon, chain):
            assert is_outerplanar(g), (n, g.edges)
        for g in (_wheel(n), k2(n - 2)):
            assert not is_outerplanar(g), (n, g.edges)
        # One K2,3 or K4 piece anywhere in a chain of cut vertices.
        for bad in (K23_EDGES, K4_EDGES):
            if n < bad[0] + 2:
                continue
            pieces = _chain(rng, n - bad[0] + 1)
            at = rng.randrange(len(pieces) + 1)
            g = _glued(*pieces[:at], bad, *pieces[at:])
            assert g.n == n and not is_outerplanar(g), (n, g.edges)


def test_stream_outerplanar_past_ten_vertices():
    tree = graph_from_edges(12, [(v, v // 3) for v in range(1, 12)])
    records = list(classify_stream([emit_graph6(tree)], outerplanar=True))
    assert records[0]["outerplanar"] is True
