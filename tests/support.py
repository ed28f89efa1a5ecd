"""Shared helpers for the test suite."""

from __future__ import annotations

import heapq
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from orientcorr import BoundRow, Graph, graph_from_edges, path_graph, table_rows
from orientcorr.cli import main
from orientcorr.graphs import bfs_layers


def diamond() -> Graph:
    """K4 minus the edge {0, 1}: vertices 0, 1 have degree 2; 2, 3 degree 3."""
    return graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def star(n: int) -> Graph:
    """Star with center n - 1, matching the 'D?{' golden layout for n = 5."""
    return graph_from_edges(n, [(v, n - 1) for v in range(n - 1)])


def tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return graph_from_edges(n, edges)


def tree_corpus(minimum: int = 50) -> list[Graph]:
    """A deterministic set of distinct trees on 3..8 vertices.

    Hand-built paths, stars and caterpillars, topped up with seeded random
    Pruefer codes until at least `minimum` distinct trees are collected.
    """
    trees: list[Graph] = []
    seen: set[Graph] = set()

    def add(g: Graph) -> None:
        if g not in seen:
            seen.add(g)
            trees.append(g)

    for n in range(3, 9):
        add(path_graph(n))
    for n in range(4, 9):
        add(star(n))
    # Caterpillars: a spine with legs hanging off interior spine vertices.
    add(graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]))
    add(graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)]))
    add(graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (2, 7)]))
    rng = random.Random(20240901)
    while len(trees) < minimum:
        n = rng.randint(5, 8)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        add(tree_from_pruefer(n, seq))
    return trees


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process: its exit code, stdout and stderr."""
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# Plain-Python BFS, one vertex at a time: the reference for the bitset
# walks in orientcorr.graphs and for the tree distances of the forest law.

def ref_distances(adjacency: Sequence[int], sources: Iterable[int]) -> dict[int, int]:
    """Distance from the vertices `sources` of each vertex they reach.

    adjacency[x] is the bitset of x's neighbours (or out-neighbours).
    """
    dist = {v: 0 for v in sources}
    queue = deque(dist)
    while queue:
        x = queue.popleft()
        for y in range(len(adjacency)):
            if adjacency[x] >> y & 1 and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def ref_components(adjacency: Sequence[int]) -> int:
    seen: set[int] = set()
    count = 0
    for v in range(len(adjacency)):
        if v not in seen:
            count += 1
            seen |= ref_distances(adjacency, [v]).keys()
    return count


# The walk's pure-Python oracle: one orientation word at a time, the
# reference the bit-sliced kernel in orientcorr.enumeration is tested
# against.  Bit i of the word set means edge i = (u, v) points u -> v.

def out_adjacency(g: Graph, orientation: int) -> list[int]:
    out = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if orientation >> i & 1:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return out


def reach_set(out_adj: list[int], source: int) -> int:
    """Bitset of vertices reachable from source by forward frontier expansion."""
    return sum(bfs_layers(out_adj, 1 << source))


def reachable(g: Graph, orientation: int, source: int, target: int) -> bool:
    """Is there a directed path source -> target under this orientation word?

    Only the low m bits of the word are meaningful.
    """
    return bool(reach_set(out_adjacency(g, orientation), source) >> target & 1)


# Reference forms of the complete-graph recursions and auxiliary sums, kept
# in plain Fraction arithmetic and literal loops as independent oracles for
# the integer-scaled code in orientcorr.complete.

@lru_cache(maxsize=None)
def ref_unreachable_prob(n: int, k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    scale = Fraction(1, 2 ** (k * (n - k)))
    for i in range(n - k):
        total += comb(n - k - 1, i) * (2**k - 1) ** i * scale * ref_unreachable_prob(n - k, i)
    return total


@lru_cache(maxsize=None)
def ref_joint_unreachable_prob(n: int, k: int) -> Fraction:
    if k == 0:
        return Fraction(1, 2) if n == 2 else ref_unreachable_prob(n, 1)
    total = Fraction(0)
    scale = Fraction(1, 2 ** (k * (n - k)))
    for i in range(n - k - 1):
        total += comb(n - k - 2, i) * (2**k - 1) ** i * scale * ref_joint_unreachable_prob(n - k, i)
    return total


def ref_out_set_counts(n_max: int) -> tuple[dict[int, int], dict[int, int]]:
    """Scaled single and joint no-path counts on K_n, n <= n_max, by out-sets.

    Conditions on the set R that a reaches: no edge leaves R, s lies
    outside it and beats all of R, so b lies outside it too, and what s
    reaches outside R is the same problem on K_{n-|R|}.  With R_k the
    tournaments on k vertices in which a reaches all, the single and joint
    counts over 2^C(n,2) are S_n and J_n.
    """
    def tournaments(m):
        return 2 ** comb(m, 2)

    reach_all = [0, 1]
    for k in range(2, n_max):
        reach_all.append(tournaments(k) - sum(
            comb(k - 1, j - 1) * reach_all[j] * tournaments(k - j) for j in range(1, k)))
    single = {n: sum(comb(n - 2, k - 1) * reach_all[k] * tournaments(n - k) for k in range(1, n))
              for n in range(2, n_max + 1)}
    joint = {n: sum(comb(n - 3, k - 1) * reach_all[k] * single[n - k] for k in range(1, n - 1))
             for n in range(3, n_max + 1)}
    return single, joint


def ref_double_binomial_sum(n: int) -> Fraction:
    total = 0
    top = n * n
    for k in range(1, n):
        for m in range(1, n - k + 1):
            total += comb(n, k) * comb(n - k, m) << (top - k * m)
    return Fraction(total, 1 << top)


@lru_cache(maxsize=None)
def _ref_m_sum(k: int, j: int) -> int:
    """The sum over 1 <= m <= k of C(k,m) / 2^(m*j), times 2^(k*j), term by term."""
    return sum(comb(k, m) << (k - m) * j for m in range(1, k + 1))


def ref_triple_binomial_sum(n: int) -> Fraction:
    total = 0
    top = n * n
    for k in range(1, n):
        for i in range(1, n - k):
            # The term's denominator 2^(k*i) times the m-sum's 2^(k*j) is 2^(k(n-k)).
            total += comb(n, k) * comb(n - k, i) * _ref_m_sum(k, n - k - i) << (top - k * (n - k))
    return Fraction(total, 1 << top)


# The analytic bounds as the library checked them before it compared
# integers: every envelope, sum bound and margin in Fraction arithmetic.
# The laws come from the library, whose own oracles are above; the
# auxiliary sums come from the reference loops above.

_C_SINGLE_UPPER = Fraction(16, 5)       # 3.2
_C_JOINT_UPPER = Fraction(104, 5)       # 20.8
_C_SUM2_A = Fraction(28, 5)             # 5.6
_C_SUM2_B = Fraction(68, 5)             # 13.6
_C_SUM3 = Fraction(4)
_C_MARGIN_1 = Fraction(32, 5)           # 6.4
_C_MARGIN_2 = Fraction(256, 25)         # 10.24


def ref_sign_margin(n: int) -> Fraction:
    return (
        Fraction(1, 2) ** (n - 5)
        + _C_MARGIN_1 * Fraction(7, 8) ** (n - 1)
        + _C_MARGIN_2 * Fraction(49, 64) ** (n - 1)
    )


def ref_bound_report(n_max: int) -> list[BoundRow]:
    half = Fraction(1, 2)
    rows_by_n = {row.n: row for row in table_rows(n_max)}
    rows = []
    prev_margin = None
    for n in range(2, n_max + 1):
        single = rows_by_n[n].p_single.as_fraction()
        single_lo = half ** (n - 2) * (1 - half ** (n - 1))
        single_hi = half ** (n - 2) * (1 + _C_SINGLE_UPPER * Fraction(7, 8) ** (n - 1))
        if n >= 3:
            joint = rows_by_n[n].p_joint.as_fraction()
            joint_lo = half ** (2 * n - 3) * (3 - 2 * half ** (n - 3))
            joint_hi = half ** (2 * n - 3) * (3 + _C_JOINT_UPPER * Fraction(7, 8) ** (n - 3))
            joint_lower_ok = joint_lo <= joint
            joint_upper_ok = joint <= joint_hi
            joint_limit = float(joint / half ** (2 * n - 3))
            margin = ref_sign_margin(n)
            margin_below = margin < 5
            margin_dec = margin < prev_margin if prev_margin is not None else None
            prev_margin = margin
        else:
            joint_lower_ok = joint_upper_ok = None
            joint_limit = None
            margin_below = margin_dec = None
        sum2 = ref_double_binomial_sum(n)
        sum3 = ref_triple_binomial_sum(n)
        rows.append(BoundRow(
            n=n,
            single_lower_ok=single_lo <= single,
            single_upper_ok=single <= single_hi,
            joint_lower_ok=joint_lower_ok,
            joint_upper_ok=joint_upper_ok,
            sum2_bound_a_ok=sum2 <= _C_SUM2_A * Fraction(7, 4) ** n,
            sum2_bound_b_ok=sum2 <= _C_SUM2_B * Fraction(13, 8) ** n,
            sum3_bound_ok=sum3 <= _C_SUM3 * Fraction(7, 4) ** n,
            margin_below_5=margin_below,
            margin_decreased=margin_dec,
            single_scaled_limit=float(single / half ** (n - 2)),
            joint_scaled_limit=joint_limit,
        ))
    return rows


def ref_strip_twos(num: int, exp: int) -> tuple[int, int]:
    """Dyadic normal form by halving one factor of two at a time."""
    if num == 0:
        return 0, 0
    while num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    return num, exp


def ref_fraction_to_decimal(value: Fraction, places: int) -> str:
    """Fixed decimal places by integer divmod and a hand-written half-to-even tie test."""
    negative = value < 0
    num = abs(value.numerator) * 10**places
    den = value.denominator
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**places)
    text = f"{whole}.{frac:0{places}d}" if places else str(whole)
    return "-" + text if negative and q else text
