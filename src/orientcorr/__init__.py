"""Correlation of reachability events in randomly oriented graphs.

Orient every edge of an undirected graph independently by a fair coin and
ask, for an ordered triple (a, s, b), whether a directed path a -> s and a
directed path s -> b exist.  This package computes the exact joint law of
those two events by exhaustive enumeration, closed forms for complete
graphs, cycles and forests, Monte Carlo estimates for larger graphs, and a
classifier that sorts graphs by which covariance signs their triples attain.
"""

from .dyadic import DyadicProb, SignedDyadic, TripleCorrelation, parse_dyadic
from .graphs import (
    Graph,
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
from .enumeration import (
    DEFAULT_CAP,
    OrientationCounts,
    OverCapError,
    count_events,
    exact_correlation,
    sweep_source,
    sweep_sources,
)
from .complete import (
    BoundRow,
    KnRow,
    bound_report,
    covariance_sign,
    joint_unreachable_prob,
    relative_covariance,
    table_row,
    table_rows,
    unreachable_prob,
)
from .closed_form import (
    CycleTriple,
    ForestVerdict,
    cycle_correlation,
    cycle_cov_bound,
    cycle_triple_from_labels,
    forest_correlation,
)
from .montecarlo import McEstimate, delta_method_se, gnp_generate, mc_estimate, mix64
from .classify import ClassFlags, classify, classify_stream, has_minor, is_outerplanar

__version__ = "0.1.0"

__all__ = [
    "BoundRow", "ClassFlags", "CycleTriple", "DEFAULT_CAP", "DyadicProb",
    "ForestVerdict", "Graph", "GraphFormatError", "KnRow", "McEstimate",
    "OrientationCounts", "OverCapError", "SignedDyadic", "Triple",
    "TripleCorrelation", "bound_report", "classify", "classify_stream",
    "complete_graph", "count_events", "covariance_sign", "cycle_correlation",
    "cycle_cov_bound", "cycle_graph", "cycle_triple_from_labels",
    "delta_method_se", "emit_graph6", "exact_correlation",
    "forest_correlation", "gnp_generate", "graph_from_edges", "has_minor",
    "is_connected", "is_outerplanar", "joint_unreachable_prob", "mc_estimate",
    "mix64", "parse_dyadic", "parse_edge_list", "parse_graph6", "path_graph",
    "relative_covariance", "sweep_source", "sweep_sources", "table_row",
    "table_rows", "unreachable_prob",
]
