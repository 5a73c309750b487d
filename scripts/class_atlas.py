#!/usr/bin/env python3
"""Explore the congruence a triple induces on a corpus graph.

Prints the triple's generating pairs, the bounded members of each vertex
class, normal forms of all bounded elements grouped by class, and a
rewrite-chain certificate for one nontrivial identification.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from graphinverse import (
    INF,
    enumerate_triples,
    format_element,
    normal_form,
    triple_generators,
    triple_to_json,
    vertex_class_members,
)
from graphinverse.cli import Parser, run
from graphinverse.corpus import CORPUS
from graphinverse.oracle import TransitionOracle, bounded_elements


def main() -> None:
    ap = Parser(description=__doc__)
    ap.add_argument("--graph", choices=sorted(CORPUS), default="pendant_cycle")
    ap.add_argument("--triple-index", type=int, default=None,
                    help="index into the triple enumeration (default: last "
                         "one with a finite cycle value, else the last)")
    ap.add_argument("--f-cap", least=1, default=3)
    ap.add_argument("--len-bound", least=0, default=4)
    args = ap.parse_args()

    g = CORPUS[args.graph]
    triples = tuple(enumerate_triples(g, f_cap=args.f_cap))
    if args.triple_index is not None:
        if not -len(triples) <= args.triple_index < len(triples):
            raise ValueError(f"--triple-index {args.triple_index} is out of range: {args.graph} "
                             f"has {len(triples)} triples under --f-cap {args.f_cap}")
        t = triples[args.triple_index]
    else:
        finite = [t for t in triples if any(v != INF for _, v in t.f)]
        t = finite[-1] if finite else triples[-1]
    print(f"graph: {args.graph}   triple: {json.dumps(triple_to_json(g, t))}")

    print("\ngenerating pairs:")
    for a, b in triple_generators(g, t):
        print(f"  {format_element(a)}  ~  {format_element(b)}")

    print(f"\nvertex classes (both paths of length <= {args.len_bound}):")
    for v in g.vertices:
        if v in t.h:
            print(f"  {v}: collapses to 0")
            continue
        members = vertex_class_members(g, t, v, args.len_bound)
        print(f"  {v}: " + "  ".join(format_element(x) for x in members))

    classes = defaultdict(list)
    for x in bounded_elements(g, args.len_bound):
        classes[normal_form(g, t, x)].append(x)
    print(f"\n{len(classes)} classes among the bounded elements; "
          "largest ones:")
    for nf, members in sorted(classes.items(), key=lambda kv: -len(kv[1]))[:8]:
        listing = "  ".join(format_element(x) for x in members[:6])
        more = f"  ... ({len(members)} total)" if len(members) > 6 else ""
        print(f"  [{format_element(nf)}]  {listing}{more}")

    interesting = next(
        ((nf, xs) for nf, xs in classes.items() if len(xs) > 1), None
    )
    if interesting:
        nf, xs = interesting
        x = next(x for x in xs if x != nf)
        result = TransitionOracle(g, t, 2 * args.len_bound).search(x, nf)
        print(f"\nrewrite certificate for {format_element(x)} ~ {format_element(nf)}:")
        if result.reached and result.chain:
            print("  " + "  ->  ".join(format_element(z) for z in result.chain))
        else:
            print("  (none found within bounds)")


if __name__ == "__main__":
    sys.exit(run(main))
