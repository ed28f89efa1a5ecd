"""Undirected simple graphs on at most 62 vertices.

Vertices are 0..n-1.  The edge list is kept sorted lexicographically with
u < v in every pair; edge index i in that list is the bit position used by
orientation words throughout the package (bit set means u -> v).
"""

from __future__ import annotations

import io
from typing import Iterator, NamedTuple, Sequence

MAX_VERTICES = 62

_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Raised when a graph description (graph6 or edge list) cannot be parsed."""


class Graph(NamedTuple):
    """n, the sorted edges, and adjacency[v], the bitset of v's neighbours.

    adjacency follows from n and edges, so it adds nothing to equality or hashing."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph, validating and canonicalizing the edge list."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    seen = set()
    adjacency = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return Graph(n, tuple(sorted(seen)), tuple(adjacency))


class Triple(NamedTuple):
    """An ordered triple (a, s, b) of distinct vertices: source, middle, target."""

    a: int
    s: int
    b: int

    def validate(self, n: int) -> None:
        """Raise ValueError unless a, s, b are distinct vertices of 0..n-1."""
        for v in (self.a, self.s, self.b):
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
        if len({self.a, self.s, self.b}) != 3:
            raise ValueError(f"triple {(self.a, self.s, self.b)} is not distinct")


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError(f"cycle needs at least 3 vertices, got {n}")
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])


def members(mask: int) -> Iterator[int]:
    """The vertices of the bitset `mask`, in increasing order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def neighbours(adjacency: Sequence[int], vertices: int) -> int:
    """Union of adjacency[v] over the vertices v in the bitset `vertices`."""
    nbr = 0
    for v in members(vertices):
        nbr |= adjacency[v]
    return nbr


def bfs_layers(adjacency: Sequence[int], start: int) -> Iterator[int]:
    """Breadth-first layers, as vertex bitsets, from the vertex set `start`.

    adjacency[v] is the bitset of v's neighbours (or out-neighbours).  The
    first layer is `start` itself; each later one holds the vertices first
    reached one step further out.  The layers are disjoint, so their sum is
    the reached set.
    """
    seen = frontier = start
    while frontier:
        yield frontier
        frontier = neighbours(adjacency, frontier) & ~seen
        seen |= frontier


def distances(adjacency: Sequence[int], start: int) -> dict[int, int]:
    """BFS distance from the vertex set `start` of each vertex it reaches."""
    return {v: d for d, layer in enumerate(bfs_layers(adjacency, start)) for v in members(layer)}


def components(adjacency: Sequence[int]) -> int:
    """The number of connected components of an undirected adjacency."""
    count = 0
    unseen = (1 << len(adjacency)) - 1
    while unseen:
        count += 1
        unseen -= sum(bfs_layers(adjacency, unseen & -unseen))
    return count


def is_connected(g: Graph) -> bool:
    return components(g.adjacency) == 1


# graph6 byte layout: header byte 63+n, then the upper triangle of the
# adjacency matrix in column-major order (_graph6_pairs), packed big-endian
# into 6-bit groups, each offset by 63.  Byte numbers in error messages count
# the optional ">>graph6<<" header.

def _graph6_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs in graph6 bit order: (0,1),(0,2),(1,2),(0,3),..."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\r\n")
    start = len(_G6_HEADER) if line.startswith(_G6_HEADER) else 0
    line = line[start:]
    if not line:
        raise GraphFormatError("empty graph6 string")
    for offset, ch in enumerate(line, start):
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"byte {offset}: character {ch!r} outside graph6 range")
    n = ord(line[0]) - 63
    if n == 63:
        raise GraphFormatError(f"byte {start}: multi-byte vertex counts (n > 62) not supported")
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"byte {start}: vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(line) - 1 < nchars:
        raise GraphFormatError(f"byte {start + len(line)}: truncated, need {nchars} data characters")
    if len(line) - 1 > nchars:
        raise GraphFormatError(f"byte {start + 1 + nchars}: trailing garbage after graph data")
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in line[1:])
    if "1" in bits[nbits:]:
        # Padding only fills the last data character, byte nchars.
        raise GraphFormatError(f"byte {start + nchars}: nonzero padding bit")
    return graph_from_edges(n, [pair for pair, bit in zip(_graph6_pairs(n), bits) if bit == "1"])


def emit_graph6(g: Graph) -> str:
    bits = "".join("1" if g.has_edge(u, v) else "0" for u, v in _graph6_pairs(g.n))
    bits += "0" * (-len(bits) % 6)
    chars = (chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))
    return chr(63 + g.n) + "".join(chars)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain format: first line n, then one 'u v' pair per line.

    Lines end at LF, CRLF or CR, as in a file read as text, and at no other
    Unicode separator. Blank lines are skipped; error messages number lines
    as the text does.
    """
    numbered = enumerate(io.StringIO(text, newline=None), start=1)
    lines = [(lineno, ln) for lineno, raw in numbered if (ln := raw.strip())]
    if not lines:
        raise GraphFormatError("empty edge list")
    (_, first), *rows = lines
    try:
        n = int(first)
    except ValueError:
        raise GraphFormatError(f"first line must be the vertex count, got {first!r}") from None
    edges = []
    for lineno, ln in rows:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {ln!r}") from None
        edges.append((u, v))
    return graph_from_edges(n, edges)
