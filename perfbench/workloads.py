"""Seeded inputs for the three benchmark workloads.

build(workload, seed) returns the CLI invocations of one round.  Each query
is a dict with the argv and stdin the program sees, plus the metadata the
checker needs (graph, triple, sample count).  The seed changes which graphs,
triples and sample streams are drawn, never how much work they are: every
graph is drawn by rejection until its vertex and edge counts hit fixed
targets, and sample counts and stream lengths are constants.

Why these workloads:

* triple   - one-triple queries at --threads 1, the plain single-thread
             baseline.  The only workload that runs count_events (arange
             words) and mc_estimate (mix64 words).  Exact queries cover a
             dense graph (short reach), a long cycle (about n/2 reach
             steps), K6 and graphs small enough for the pure-Python branch.
* census   - one `classify --stream --outerplanar` over 111 small connected
             graphs at --threads 2: many small sweep_source calls (reverse
             reach plus matmul reduce), the minor search, and the thread
             count that sweep_source ignores today.
* kn-table - cold `bounds` and `table` on complete graphs: big-integer
             recursion work that never touches the batch kernel, so a kernel
             change should leave it unchanged.
"""

from __future__ import annotations

import random
from math import comb

from orientcorr import montecarlo
from orientcorr.graphs import complete_graph, cycle_graph, emit_graph6, graph_from_edges

THREADS = {"triple": 1, "census": 2, "kn-table": 1}
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def _connected(n: int, edges) -> bool:
    # Not orientcorr's is_connected: a traced run would charge set-up to that layer.
    seen = {0}
    stack = [0]
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    while stack:
        for y in nbrs[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _gnp_exact(rng: random.Random, n: int, m: int):
    """A connected G(n, p) graph with exactly m edges, by rejection."""
    p = m / comb(n, 2)
    while True:
        # Through the module, so a traced run sees the generator as a layer.
        g = montecarlo.gnp_generate(n, p, rng.getrandbits(64))
        if g.m == m and _connected(n, g.edges):
            return g


def _relabel(rng: random.Random, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _edge_text(g) -> str:
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def _graph_query(kind, label, g, triple, extra, family):
    a, s, b = triple
    return {
        "kind": kind, "label": label, "family": family,
        "argv": [kind, "--edges", "-", "--a", str(a), "--s", str(s), "--b", str(b),
                 *extra, "--threads", str(THREADS["triple"]), "--json"],
        "stdin": _edge_text(g), "n": g.n, "edges": [list(e) for e in g.edges],
        "triple": list(triple),
    }


def _triple(rng: random.Random, tiny: bool) -> list[dict]:
    # (label, graph, family) for exact walks; (label, graph, family, samples) for MC.
    if tiny:
        exact = [("gnp6", _gnp_exact(rng, 6, 10), "gnp"), ("cycle8", cycle_graph(8), "cycle"),
                 ("k4", complete_graph(4), "complete"), ("small5", _gnp_exact(rng, 5, 6), "gnp")]
        sampled = [("k5", complete_graph(5), "complete", 2000),
                   ("k12", complete_graph(12), "complete", 500),
                   ("gnp12", _gnp_exact(rng, 12, 20), "gnp", 500)]
    else:
        exact = [("gnp8", _gnp_exact(rng, 8, 19), "gnp"), ("cycle16", cycle_graph(16), "cycle"),
                 ("k6", complete_graph(6), "complete")]
        exact += [(f"small{n}", _gnp_exact(rng, n, m), "gnp") for n, m in ((5, 7), (6, 8), (7, 9), (8, 9))]
        sampled = [("k5", complete_graph(5), "complete", 500_000),
                   ("k12", complete_graph(12), "complete", 30_000),
                   ("gnp24", _gnp_exact(rng, 24, 75), "gnp", 20_000)]
    queries = [_graph_query("exact", label, g, rng.sample(range(g.n), 3), [], family)
               for label, g, family in exact]
    for label, g, family, samples in sampled:
        mc_seed = rng.getrandbits(32)
        q = _graph_query("mc", label, g, rng.sample(range(g.n), 3),
                         ["--samples", str(samples), "--seed", str(mc_seed)], family)
        q.update(samples=samples, mc_seed=mc_seed)
        queries.append(q)
    return queries


def _census(rng: random.Random, tiny: bool) -> list[dict]:
    # Fixed (n, m) slots, three replicates (one in tiny mode); m = n - 1 slots
    # are trees, one (n, n) slot per n is the cycle C_n, m = C(n, 2) is K_n.
    sizes = range(4, 7) if tiny else range(5, 10)
    max_m = 7 if tiny else 13
    graphs = []
    for rep in range(1 if tiny else 3):
        for n in sizes:
            for m in range(n - 1, min(max_m, comb(n, 2)) + 1):
                if m == comb(n, 2):
                    g, family = complete_graph(n), "complete"
                elif rep == 0 and m == n:
                    g, family = _relabel(rng, cycle_graph(n)), "cycle"
                else:
                    g, family = _gnp_exact(rng, n, m), ("tree" if m == n - 1 else "gnp")
                graphs.append({"graph6": emit_graph6(g), "n": n,
                               "edges": [list(e) for e in g.edges], "family": family})
    rng.shuffle(graphs)
    return [{
        "kind": "classify", "label": "stream",
        "argv": ["classify", "--stream", "-", "--outerplanar",
                 "--threads", str(THREADS["census"]), "--json"],
        "stdin": "".join(g["graph6"] + "\n" for g in graphs),
        "graphs": graphs,
    }]


def _kn_table(tiny: bool) -> list[dict]:
    bounds_n, table_n = (8, 14) if tiny else (40, 70)
    threads = ["--threads", str(THREADS["kn-table"]), "--json"]
    return [
        {"kind": "bounds", "label": "bounds", "max_n": bounds_n,
         "argv": ["bounds", "--max-n", str(bounds_n), *threads], "stdin": ""},
        {"kind": "table", "label": "table", "max_n": table_n,
         "argv": ["table", "--max-n", str(table_n), *threads], "stdin": ""},
    ]


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The queries of one round of `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "triple":
        return _triple(rng, tiny)
    if workload == "census":
        return _census(rng, tiny)
    if workload == "kn-table":
        return _kn_table(tiny)
    raise ValueError(f"unknown workload {workload!r}")
