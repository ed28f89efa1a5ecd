"""Classify graphs by the covariance signs of their reachability triples.

Over all ordered triples (a, s, b) of distinct vertices:

* class I   - no triple is positively correlated;
* class III - no triple is negatively correlated;
* class II  - both signs occur, or some triple is exactly independent.

The classes overlap: a graph whose triples are all independent is in all
three.  Outerplanarity is decided by Mitchell's reduction of degree-2
vertices over the whole graph, so it has no vertex cap.  The brute-force
minor search `has_minor` is capped at 10 vertices; it is kept as the
independent check of that test.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, NamedTuple

from .enumeration import DEFAULT_CAP, OverCapError, check_cap, resolve_threads, sweep_sources
from .graphs import Graph, GraphFormatError, bfs_layers, is_connected, members, neighbours, parse_graph6

MINOR_MAX_VERTICES = 10

# Each class's roman name and its ClassFlags field, in print order.
CLASSES = (("I", "class_i"), ("II", "class_ii"), ("III", "class_iii"))


class ClassFlags(NamedTuple):
    """Triple-sign census and the resulting class memberships.

    The field order is the key order of the census in `classify --json`.
    """

    neg_triples: int
    zero_triples: int
    pos_triples: int
    class_i: bool
    class_ii: bool
    class_iii: bool
    disconnected: bool = False

    @property
    def total_triples(self) -> int:
        return self.neg_triples + self.zero_triples + self.pos_triples


def classify(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
    allow_disconnected: bool = False,
) -> ClassFlags:
    """Census the covariance sign of every ordered triple of g."""
    if g.n < 3:
        raise ValueError(f"classification needs n >= 3, got n={g.n}")
    disconnected = not is_connected(g)
    if disconnected and not allow_disconnected:
        raise ValueError("graph is disconnected; pass allow_disconnected to census it anyway")
    return ClassFlags(**_census(sweep_sources(g, cap=cap, threads=threads), g.m),
                      disconnected=disconnected)


def _census(sweep: list[list[list[int]]], m: int) -> dict:
    """The six census fields of ClassFlags, in field order, from a sweep_sources array."""
    neg = zero = pos = 0
    total = 1 << m
    # One walk gives every middle vertex.  The signs are taken in Python
    # integers: joint * 2^m reaches 2^(2m), past int64 above m = 31.
    for a, s, b in permutations(range(len(sweep)), 3):
        joint = sweep[s]
        diff = joint[a][b] * total - joint[a][s] * joint[s][b]
        if diff < 0:
            neg += 1
        elif diff > 0:
            pos += 1
        else:
            zero += 1
    return {"neg_triples": neg, "zero_triples": zero, "pos_triples": pos,
            "class_i": pos == 0, "class_ii": (neg > 0 and pos > 0) or zero > 0, "class_iii": neg == 0}


def classify_stream(
    lines: Iterable[str],
    *,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
    outerplanar: bool = False,
) -> Iterator[dict]:
    """Classify a stream of graph6 lines, yielding one record per line.

    Yields dicts with "type" in {"graph", "skipped", "error"}, then a final
    {"type": "summary"} record.  Disconnected and over-cap graphs are
    skipped, not fatal; malformed lines become error records.  A cap over
    the enumeration maximum or a negative thread count raises ValueError
    before any record.
    """
    check_cap(cap)
    resolve_threads(threads)
    summary = dict.fromkeys(("graphs", "errors", "skipped", *(field for _, field in CLASSES)), 0)
    for index, raw in enumerate(lines):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except GraphFormatError as exc:
            summary["errors"] += 1
            yield {"type": "error", "index": index, "graph6": line, "error": str(exc)}
            continue
        reason = None
        if g.n < 3:
            reason = "fewer than 3 vertices"
        elif not is_connected(g):
            reason = "disconnected"
        else:
            try:
                census = _census(sweep_sources(g, cap=cap, threads=threads), g.m)
            except OverCapError as exc:
                reason = str(exc)
        common = {"index": index, "graph6": line, "n": g.n, "m": g.m}
        if reason is not None:
            summary["skipped"] += 1
            yield {"type": "skipped", **common, "reason": reason}
            continue
        summary["graphs"] += 1
        for _, field in CLASSES:
            summary[field] += census[field]
        record = {"type": "graph", **common, **census}
        if outerplanar:
            record["outerplanar"] = is_outerplanar(g)
        yield record
    yield {"type": "summary", **summary}


# ---------------------------------------------------------------------------
# Minor containment by brute force over branch sets.

def _connected_subsets(g: Graph) -> list[int]:
    subsets = []
    for mask in range(1, 1 << g.n):
        if sum(bfs_layers([b & mask for b in g.adjacency], mask & -mask)) == mask:
            subsets.append(mask)
    # Small sets first so witnesses made of singletons are found immediately.
    subsets.sort(key=lambda mask: (mask.bit_count(), mask))
    return subsets


def has_minor(g: Graph, h: Graph) -> bool:
    """Does g contain h as a minor?  Brute force, g capped at 10 vertices.

    Searches for pairwise-disjoint connected branch sets, one per vertex of
    h, with an edge of g between every pair that is adjacent in h.
    """
    if g.n > MINOR_MAX_VERTICES:
        raise ValueError(f"minor search is capped at {MINOR_MAX_VERTICES} vertices, got n={g.n}")
    if h.n > g.n:
        return False
    subsets = _connected_subsets(g)
    nbr_of = {mask: neighbours(g.adjacency, mask) for mask in subsets}
    placed: list[int] = []

    def place(idx: int, used: int) -> bool:
        if idx == h.n:
            return True
        required = [j for j in range(idx) if h.has_edge(idx, j)]
        for mask in subsets:
            if mask & used:
                continue
            nbr = nbr_of[mask]
            if all(nbr & placed[j] for j in required):
                placed.append(mask)
                if place(idx + 1, used | mask):
                    return True
                placed.pop()
        return False

    return place(0, 0)


# ---------------------------------------------------------------------------
# Outerplanarity by degree-2 reduction.

def is_outerplanar(g: Graph) -> bool:
    """Can g be drawn in the plane with every vertex on the outer face?

    Mitchell's degree-2 reduction (S. L. Mitchell, IPL 9, 1979), run over
    the whole graph at once.  An outerplanar graph has a vertex of degree at
    most 2.  One of degree 0 or 1 is removed.  One of degree 2, v with
    neighbours u and w, is replaced by the edge uw: that cuts the triangle
    uvw off the outer face or, where uw is no edge, suppresses v.  `sided`
    holds the edges that stand for a u-w path through removed vertices.  An
    edge may stand for a second one only if it is a bridge once v is gone:
    otherwise the two paths and a third one around the rest of the graph
    give a K2,3 minor.  g is outerplanar exactly when every vertex goes.
    """
    nbrs = list(g.adjacency)
    # Degrees never rise, since uw takes v's place at both ends, and they
    # fall one at a time, so each vertex enters `low` once: at the start or
    # on falling to 2.
    low = [v for v in range(g.n) if nbrs[v].bit_count() <= 2]
    sided: set[tuple[int, int]] = set()
    removed = 0
    while low:
        v = low.pop()
        removed += 1
        around, nbrs[v] = nbrs[v], 0
        for x in members(around):
            nbrs[x] &= ~(1 << v)
        if around.bit_count() == 2:
            u, w = members(around)
            joined = nbrs[u] >> w & 1
            if joined and (u, w) in sided:
                nbrs[u] &= ~(1 << w)
                nbrs[w] &= ~(1 << u)
                if any(layer >> w & 1 for layer in bfs_layers(nbrs, 1 << u)):
                    return False
            nbrs[u] |= 1 << w
            nbrs[w] |= 1 << u
            sided.add((u, w))
            if not joined:
                continue  # uw took v's place at both ends: no degree moved
        low.extend(x for x in members(around) if nbrs[x].bit_count() == 2)
    return removed == g.n
