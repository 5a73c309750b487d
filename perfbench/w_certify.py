"""certify: rewrite-chain certificates from the bounded breadth-first search.

Each pass builds a TransitionOracle per (graph, triple) anew, so no pass
inherits another's neighbour cache, and then searches: pairs one
generating-pair rewrite apart (which must be certified), random pairs
(which must not be certified unless related), and, under triples with
nonempty H, a search from zero, which expands the zero element.

The graphs are the corpus cycles loop, two_cycle, cycle_with_exit,
pendant_cycle and parallel_two_cycle. Each gets the same triples in every
run: W all index-one vertices with f = 2, the same W with f = inf, and H
the least nonempty hereditary set with W all index-one vertices of the
quotient and f = 1, leaving out the identity (no generating pair, so
nothing to certify). The seed draws the pairs only, because the cost
of a search depends strongly on the triple: a fixed set of triples keeps
the pass time from swinging with the seed. One-step pairs outnumber
random ones three to two, so that the median operation falls among
searches of one kind rather than between a cheap and a dear kind. A
one-step pair has x != y: a rewrite u a w -> u b w often gives back x
(for (e e*, s(e)) whenever u already ends in e), and such a pair is
answered before any expansion, so letting them in would put the median
between searches that do nothing and searches that expand x, at a rank
that the seed moves.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from graphinverse import congruences as C
from graphinverse import oracle as O

import bridge
from inputs import (
    INF,
    Failed,
    Triple,
    corpus_specs,
    cycles_inside,
    forward_closure,
    generating_pairs,
    in_map,
    index_one,
    out_map,
    relabel,
    rewrite_pair,
    vpath,
)

# corpus graph -> len_bound of its oracles
GRAPHS = {"loop": 3, "two_cycle": 2, "cycle_with_exit": 2, "pendant_cycle": 2,
          "parallel_two_cycle": 2}
TINY_GRAPHS = {"loop": 2, "pendant_cycle": 1}
ONE_STEP = 6  # one-step pairs per triple
TINY_ONE_STEP = 3
DRAWS = 3000  # random rewrites tried to find them
RANDOM = 4  # random pairs per triple


def bounded_elements(spec, len_bound: int) -> list:
    """Zero and every element whose two paths have at most len_bound edges."""
    out = out_map(spec)
    paths = frontier = [vpath(v) for v in spec.vertices]
    for _ in range(len_bound):
        frontier = [(p[0] + (d,), p[1] + (e,)) for p in frontier for e, d in out[p[0][-1]]]
        paths = paths + frontier
    return [None] + [(a, b) for a in paths for b in paths if a[0][-1] == b[0][-1]]


def within(x, len_bound: int) -> bool:
    return x is None or max(len(x[0][1]), len(x[1][1])) <= len_bound


def triples_for(spec) -> list[Triple]:
    def pick(h, value):
        w = frozenset(index_one(spec, h))
        return Triple(h, w, {c: value for c in cycles_inside(spec, h, w)})

    least = min((forward_closure(out_map(spec), [v]) for v in spec.vertices), key=len)
    triples = [pick(frozenset(), 2), pick(frozenset(), INF), pick(least, 1)]
    return [t for t in triples if t.h or t.w]


def one_step_pairs(rng: random.Random, spec, out, into, gens: list, lb: int,
                   count: int) -> list:
    """count pairs u a w ~ u b w with (a, b) a generating pair, x != y,
    both within lb, and no two with the same x, so that each search
    expands a fresh x; the first such pairs of DRAWS random rewrites."""
    found: dict = {}
    for _ in range(DRAWS if gens else 0):
        a, b = rng.choice(gens)
        if b is not None and rng.random() < 0.5:
            a, b = b, a
        x, y = rewrite_pair(rng, spec, out, into, (a, b), 1)
        if x != y and within(x, lb) and within(y, lb) and x not in found:
            found[x] = y
            if len(found) == count:
                break
    if gens and len(found) < count:
        raise RuntimeError(f"only {len(found)} one-step pairs found in {DRAWS} draws")
    return list(found.items())


def search(holder: list, x, y):
    return holder[0].search(x, y)


def build(holder: list, g, t, len_bound: int) -> int:
    holder[0] = O.TransitionOracle(g, t, len_bound)
    return len(holder[0].universe)


_plans: dict = {}  # (seed, tiny) -> the seeded draws, on the unlabelled graphs


def plan(seed: int, tiny: bool) -> list:
    """Per graph: its name, len_bound, universe size and, per triple, the
    triple with its one-step and random pairs, all on the unlabelled
    corpus graph. Drawn once per run and seed, so that every timed set-up
    does the same work whatever the seed: finding the one-step pairs takes
    a number of draws that the seed moves by a third either way."""
    if (seed, tiny) in _plans:
        return _plans[seed, tiny]
    rng = random.Random(seed)
    corpus = corpus_specs()
    graphs = []
    for name, lb in (TINY_GRAPHS if tiny else GRAPHS).items():
        spec = corpus[name]
        out, into = out_map(spec), in_map(spec)
        universe = bounded_elements(spec, lb)
        triples = []
        for t in triples_for(spec):
            gens = [p for p in generating_pairs(spec, t) if within(p[0], lb) and within(p[1], lb)]
            steps = one_step_pairs(rng, spec, out, into, gens, lb,
                                   TINY_ONE_STEP if tiny else ONE_STEP)
            # pairs outside the ideal of H, whose searches never reach zero
            outside = [z for z in universe if z is not None and z[0][0][-1] not in t.h]
            randoms = []
            for k in range(RANDOM if len(outside) > 1 else 0):
                # x evenly spaced, so that the cost of exhausting x's class is the same
                # in every run; y drawn by the seed
                x = outside[k * len(outside) // RANDOM]
                randoms.append((x, rng.choice([z for z in outside if z != x])))
            triples.append((t, steps, randoms))
        graphs.append((name, lb, len(universe), triples))
    _plans[seed, tiny] = graphs
    return graphs


def relabel_triple(t: Triple, p: str) -> Triple:
    return Triple(frozenset(p + v for v in t.h), frozenset(p + v for v in t.w),
                  {tuple(p + e for e in c): val for c, val in t.f.items()})


def relabel_element(x, p: str):
    if x is None:
        return None
    return tuple((tuple(p + v for v in vs), tuple(p + e for e in es)) for vs, es in x)


def setup(seed: int, label: str, tiny: bool, workdir, tracer) -> SimpleNamespace:
    corpus = corpus_specs()
    ops = []
    for name, lb, size, triples in plan(seed, tiny):
        p = f"{label}{name[:2]}"
        g = bridge.graph(relabel(corpus[name], p))

        def element(x, p=p):
            return bridge.element(relabel_element(x, p))

        for t, steps, randoms in triples:
            t = relabel_triple(t, p)
            pt = bridge.triple(g, t)
            holder = [None]
            ops.append(("build", lambda h=holder, g=g, t=pt, lb=lb: build(h, g, t, lb), size))
            for kind, pairs in (("one_step", steps), ("random", randoms)):
                for x, y in pairs:
                    x, y = element(x), element(y)
                    ops.append((kind, lambda h=holder, x=x, y=y: search(h, x, y),
                                (g, pt, x, y)))
            if t.h:
                x, y = bridge.element(None), bridge.element((vpath(min(t.h)),) * 2)
                ops.append(("one_step", lambda h=holder, x=x, y=y: search(h, x, y),
                            (g, pt, x, y)))
    return SimpleNamespace(ops=ops)


def check(bench: SimpleNamespace, outs: list) -> list[str]:
    bad = []
    for i, ((kind, _, data), out) in enumerate(zip(bench.ops, outs)):
        if isinstance(out, Failed):
            continue
        if kind == "build":
            if out != data:
                bad.append(f"op {i}: oracle universe has {out} elements, expected {data}")
            continue
        g, t, x, y = data
        if kind == "one_step" and not out.reached:
            bad.append(f"op {i}: one-step pair {x} ~ {y} within bounds not certified")
        if not out.reached:
            continue
        chain = out.chain
        if chain[0] != x or chain[-1] != y:
            bad.append(f"op {i}: chain runs from {chain[0]} to {chain[-1]}, not {x} to {y}")
        for a, b in zip(chain, chain[1:]):
            if a == b or not C.equiv(g, t, a, b):
                bad.append(f"op {i}: chain link {a} -> {b} is not a related, distinct pair")
        if not C.equiv(g, t, x, y):
            bad.append(f"op {i}: unrelated pair {x}, {y} certified")
    return bad
