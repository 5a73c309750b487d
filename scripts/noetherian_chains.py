#!/usr/bin/env python3
"""Stabilization statistics for random increasing chains of triples.

Every weakly increasing chain of congruence triples of a finite graph
must become constant; this script samples random chains per corpus graph
and reports how quickly they do.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

from graphinverse import chain_stabilizes, enumerate_triples, triple_leq
from graphinverse.cli import Parser, run
from graphinverse.corpus import CORPUS


def random_chain(rng, g, triples, length):
    chain = [rng.choice(triples)]
    growing = True
    while len(chain) < length:
        if growing and rng.random() < 0.7:
            uppers = [
                u for u in triples if u != chain[-1] and triple_leq(g, chain[-1], u)
            ]
            if uppers:
                chain.append(rng.choice(uppers))
                continue
            growing = False
        else:
            growing = False
        chain.append(chain[-1])
    return chain


def main() -> None:
    ap = Parser(description=__doc__)
    ap.add_argument("--chains", least=1, default=100)
    ap.add_argument("--length", least=1, default=50)
    ap.add_argument("--f-cap", least=1, default=6)
    ap.add_argument("--seed", type=int, default=97)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    for name, g in sorted(CORPUS.items()):
        triples = tuple(enumerate_triples(g, f_cap=args.f_cap))
        indices = Counter()
        for _ in range(args.chains):
            chain = random_chain(rng, g, triples, args.length)
            indices[chain_stabilizes(g, chain)] += 1
        worst = max(indices)
        histogram = " ".join(f"{m}:{n}" for m, n in sorted(indices.items()))
        print(
            f"{name:<20} triples={len(triples):3}  worst index={worst:2}  "
            f"index histogram {histogram}"
        )


if __name__ == "__main__":
    sys.exit(run(main))
