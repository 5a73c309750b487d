#!/usr/bin/env python3
"""Exhaustively check the congruence/triple bijection on small acyclic graphs.

For every acyclic multigraph up to the requested size: materialize the
semigroup, enumerate its congruences by brute force, enumerate the
triples, and confirm the two readings invert each other. ``--max-elements``
bounds |I(G)|, which is counted before any product. Prints one row per
graph and a summary; a semigroup above the bound ends the run with a
one-line error and exit code 1.
"""

from __future__ import annotations

import sys
import time

from graphinverse import enumerate_triples, triple_generators
from graphinverse.cli import Parser, run
from graphinverse.corpus import all_acyclic_graphs
from graphinverse.oracle import brute_force, congruence_closure


def main() -> None:
    ap = Parser(description=__doc__)
    # below its least value, either of these two would list no graph and pass vacuously
    ap.add_argument("--max-vertices", least=1, default=3)
    ap.add_argument("--max-edges", least=0, default=3)
    ap.add_argument("--max-elements", least=0, default=64)
    args = ap.parse_args()

    graphs = all_acyclic_graphs(args.max_vertices, args.max_edges)
    started = time.monotonic()
    widest = 0
    for i, g in enumerate(graphs):
        try:
            s, congruences = brute_force(g, args.max_elements)
        except ValueError as exc:  # above --max-elements
            raise ValueError(f"{exc} set by --max-elements")
        triples = enumerate_triples(g)
        # the triples read off are the listed ones, each once, and each
        # generates the congruence it was read off
        assert len(congruences) == len(triples)
        assert {t for _, t in congruences} == set(triples)
        for rho, t in congruences:
            assert congruence_closure(s, triple_generators(g, t)) == rho
        widest = max(widest, len(s))
        edges = ", ".join(f"{e.src}->{e.dst}" for e in g.edges) or "(none)"
        print(
            f"[{i + 1:3}/{len(graphs)}] |V|={len(g.vertices)} edges: {edges:<30} "
            f"elements={len(s):3}  congruences={len(congruences):3}  ok"
        )
    print(
        f"\nverified {len(graphs)} graphs in {time.monotonic() - started:.1f}s "
        f"(largest semigroup: {widest} elements)"
    )


if __name__ == "__main__":
    sys.exit(run(main))
