"""``CORPUS``, the one table of small named graphs the tests and scripts use.

The cyclic ones exercise the lap-power machinery; the acyclic ones can be
materialized and brute-forced. ``all_acyclic_graphs`` exhaustively
generates the desk-scale acyclic instances (every labeling appears, so
every isomorphism class is covered).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .graphs import Graph, is_acyclic

CORPUS: dict[str, Graph] = {
    "single_vertex": Graph.of(["v"], []),
    "edge": Graph.of(["v", "w"], [("e", "v", "w")]),
    "two_edge_path": Graph.of(["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "w")]),
    "fork": Graph.of(["u", "v", "w"], [("e1", "u", "v"), ("e2", "u", "w")]),
    "parallel_pair": Graph.of(["v", "w"], [("e1", "v", "w"), ("e2", "v", "w")]),
    "loop": Graph.of(["v"], [("e", "v", "v")]),
    "double_loop": Graph.of(["v"], [("a", "v", "v"), ("b", "v", "v")]),
    "two_cycle": Graph.of(["v", "w"], [("e1", "v", "w"), ("e2", "w", "v")]),
    # a 2-cycle with an extra edge escaping it, so the cycle has an exit
    "cycle_with_exit": Graph.of(
        ["v", "w", "u"], [("e1", "v", "w"), ("e2", "w", "v"), ("e3", "w", "u")]),
    # a tail edge feeding a 2-cycle; every vertex has index one
    "pendant_cycle": Graph.of(
        ["u", "v", "w"], [("e0", "u", "v"), ("e1", "v", "w"), ("e2", "w", "v")]),
    # two parallel edges each way; no quotient has an index-one vertex
    "parallel_two_cycle": Graph.of(
        ["v", "w"], [("a1", "v", "w"), ("a2", "v", "w"), ("b1", "w", "v"), ("b2", "w", "v")]),
    # two disjoint self-loops fed by a fork, so C(W) can hold two cycles
    "two_loops": Graph.of(
        ["u", "v", "w"], [("a", "u", "v"), ("b", "u", "w"), ("lv", "v", "v"), ("lw", "w", "w")]),
}


def all_acyclic_graphs(max_vertices: int = 3, max_edges: int = 3) -> list[Graph]:
    """Every acyclic multigraph with up to the given vertices and edges.

    Vertices are labeled v1..vn and edges e1..em over every multiset of
    ordered vertex pairs without loops; cyclic results are filtered out.
    """
    out = []
    for n in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, n + 1)]
        arcs = [(a, b) for a in vertices for b in vertices if a != b]
        for m in range(0, max_edges + 1):
            for combo in combinations_with_replacement(arcs, m):
                g = Graph.of(
                    vertices,
                    [(f"e{i + 1}", a, b) for i, (a, b) in enumerate(combo)],
                )
                if is_acyclic(g):
                    out.append(g)
    return out
