"""Closed-form correlations for cycles and forests.

On a cycle, a path event succeeds along one of the two arcs, which gives
inclusion-exclusion over fully oriented arcs.  On a forest, paths are
unique, so the two events are either independent (the a-b path runs through
s, or a component boundary separates the triple) or mutually exclusive
(both events need the same edge in opposite directions).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import SignedDyadic, TripleCorrelation
from .graphs import Graph, Triple, components, distances


@dataclass(frozen=True)
class CycleTriple:
    """A triple on the n-cycle given by arc lengths in rotation order.

    c edges from a to s, d edges from s to b, n - c - d edges back to a;
    all three arcs must be nonempty.
    """

    n: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.c < 1 or self.d < 1 or self.n - self.c - self.d < 1:
            raise ValueError(f"arc lengths ({self.c}, {self.d}, {self.n - self.c - self.d}) must all be >= 1")


def _check_cycle(n: int) -> None:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")


def cycle_triple_from_labels(n: int, a: int, s: int, b: int) -> CycleTriple:
    """Arc lengths for labeled vertices on the standard cycle 0-1-...-(n-1)-0."""
    _check_cycle(n)
    Triple(a, s, b).validate(n)
    c = (s - a) % n
    d = (b - s) % n
    if c + d > n:
        # The rotation order is a, b, s; reflect the cycle (an automorphism,
        # so the joint law is unchanged) to make the three arcs nonempty.
        c, d = n - c, n - d
    return CycleTriple(n, c, d)


def cycle_correlation(t: CycleTriple) -> TripleCorrelation:
    """Exact correlation on the n-cycle; always negative."""
    n, c, d = t.n, t.c, t.d
    # Each probability is (count over 2^n): a->s along either arc, minus the
    # single orientation where both arcs point at s.
    n_c = (1 << (n - c)) + (1 << c) - 1
    n_d = (1 << (n - d)) + (1 << d) - 1
    n_cd = (1 << (n - c - d)) + 1
    return TripleCorrelation.from_scaled(n_c, n_d, n_cd, n)


def cycle_cov_bound(n: int) -> SignedDyadic:
    """The uniform ceiling -(1/2)^(2n) on cycle covariances; tight iff c = d = 1."""
    _check_cycle(n)
    return SignedDyadic.of(-1, 2 * n)


@dataclass(frozen=True)
class ForestVerdict:
    """Outcome of the forest dichotomy for one triple."""

    kind: str  # "independent" or "mutually_exclusive"
    correlation: TripleCorrelation


def forest_correlation(g: Graph, t: Triple) -> ForestVerdict:
    """Apply the forest dichotomy to one triple; raises on non-forests."""
    t.validate(g.n)
    # A forest has n - (number of components) edges.
    if g.m != g.n - components(g.adjacency):
        raise ValueError("graph has a cycle; the forest dichotomy does not apply")
    from_a = distances(g.adjacency, 1 << t.a)
    d_as = from_a.get(t.s)
    d_sb = distances(g.adjacency, 1 << t.s).get(t.b)
    # Both events over 2^e: P(a->s) = 2^-d_as and P(s->b) = 2^-d_sb, or 0
    # when a component boundary separates the pair.
    e = (d_as or 0) + (d_sb or 0)
    n_c = 0 if d_as is None else 1 << (d_sb or 0)
    n_d = 0 if d_sb is None else 1 << (d_as or 0)
    if n_c == 0 or n_d == 0 or from_a.get(t.b) == e:
        # An event that cannot happen, or a unique a-b path running through
        # s (the two events use disjoint edge sets): independence.
        return ForestVerdict("independent", TripleCorrelation.from_scaled(n_c, n_d, (n_c * n_d) >> e, e))
    # Otherwise the a-s and s-b paths share an edge traversed both ways.
    return ForestVerdict("mutually_exclusive", TripleCorrelation.from_scaled(n_c, n_d, 0, e))
