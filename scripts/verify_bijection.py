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

import argparse
import os
import sys
import time

from graphinverse import enumerate_triples, triple_generators
from graphinverse.corpus import all_acyclic_graphs
from graphinverse.oracle import brute_force, congruence_closure


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=3)
    ap.add_argument("--max-edges", type=int, default=3)
    ap.add_argument("--max-elements", type=int, default=64)
    args = ap.parse_args()
    # a bound below these would list no graph and pass vacuously
    if args.max_vertices < 1:
        sys.exit("error: --max-vertices must be a positive integer")
    if args.max_edges < 0:
        sys.exit("error: --max-edges must be nonnegative")

    graphs = all_acyclic_graphs(args.max_vertices, args.max_edges)
    started = time.monotonic()
    widest = 0
    for i, g in enumerate(graphs):
        try:
            s, congruences = brute_force(g, args.max_elements)
        except ValueError as exc:  # above --max-elements
            sys.exit(f"error: {exc} set by --max-elements")
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
    try:
        main()
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
    except BrokenPipeError as exc:
        # stdout still holds the unwritten text: devnull takes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(f"error: {exc}")
