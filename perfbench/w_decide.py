"""decide: a warm, in-process stream of equiv, normal_form, multiply and
element-literal round trips.

Graphs: the package's corpus, seeded random multigraphs of up to five
vertices (loops and parallel edges allowed), and seeded graphs of tens to
a few hundred vertices built from short cycles and in-trees. Each graph
gets a few seeded triples (H, W, f) and bounded random-walk elements.
The cycles are short, so this workload measures the per-call cost of
looking up the compiled triple rather than the cycle layer.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from graphinverse import congruences as C
from graphinverse import elements as E

import bridge
from inputs import (
    Failed,
    cat,
    closure_classes,
    corpus_specs,
    cycle_forest,
    element_count,
    generating_pairs,
    in_map,
    is_acyclic,
    literal,
    mul,
    out_map,
    rand_element,
    rand_triple,
    relabel,
    rewrite_pair,
    small_multigraph,
    walk_backward,
    walk_forward,
)

SMALL_GRAPHS = 12
LARGE_SIZES = (30, 60, 120, 250)
TRIPLES_PER_GRAPH = 4
TRIPLES_PER_LARGE_GRAPH = 6
PER_TRIPLE = 2  # related pairs, random pairs, products and literals per triple
MAX_LEN = 4
CLOSURE_MAX_ELEMENTS = 40


def composable(rng, out, into, x):
    """An element y with x y nonzero: its plain side extends x's starred side."""
    if x is None:
        return None
    alpha = cat(x[1], walk_forward(rng, out, x[1][0][-1], rng.randint(0, 2)))
    return (alpha, walk_backward(rng, into, alpha[0][-1], rng.randint(0, MAX_LEN)))


def round_trip(g, text: str):
    x = E.parse_element(g, text)
    return x, E.format_element(x)


def setup(seed: int, label: str, tiny: bool, workdir, tracer) -> SimpleNamespace:
    rng = random.Random(seed)
    specs = [relabel(s, f"{label}k{i}") for i, s in enumerate(corpus_specs().values())]
    # sizes spread evenly rather than drawn, since a call's cost grows with its
    # graph: vertex counts 1-5 in turn, edge shares evenly spaced in a scrambled order
    small = 3 if tiny else SMALL_GRAPHS
    specs += [small_multigraph(rng, f"{label}s{i}", 1 + i % 5, (7 * i % small + 0.5) / small)
              for i in range(small)]
    specs += [cycle_forest(rng, f"{label}l{i}", n)
              for i, n in enumerate((20,) if tiny else LARGE_SIZES)]
    ops, assoc, closure = [], [], []
    drawn = 0  # triples drawn so far; two in every five have a nonempty H, in turn
    for spec in specs:
        g = bridge.graph(spec)
        out, into = out_map(spec), in_map(spec)

        def element():
            return rand_element(rng, spec, out, into, MAX_LEN)

        for _ in range(3):
            x = element()
            y = composable(rng, out, into, x)
            assoc.append((bridge.element(x), bridge.element(y),
                          bridge.element(composable(rng, out, into, y))))
        large = len(spec.vertices) > 5
        for _ in range(TRIPLES_PER_LARGE_GRAPH if large else TRIPLES_PER_GRAPH):
            t = rand_triple(rng, spec, drawn % 5 in (1, 3))
            drawn += 1
            pt = bridge.triple(g, t)
            gens = generating_pairs(spec, t)
            nf_inputs = []
            for _ in range(PER_TRIPLE):
                if gens:
                    a, b = rng.choice(gens)
                    if b is not None and rng.random() < 0.5:
                        a, b = b, a
                    x, y = rewrite_pair(rng, spec, out, into, (a, b), 3)
                else:
                    x = y = element()
                x, y = bridge.element(x), bridge.element(y)
                nf_inputs.append(x)
                ops.append(("equiv_related", lambda g=g, t=pt, x=x, y=y: C.equiv(g, t, x, y),
                            (g, pt, x, y)))
            for _ in range(PER_TRIPLE):
                x, y = bridge.element(element()), bridge.element(element())
                ops.append(("equiv_random", lambda g=g, t=pt, x=x, y=y: C.equiv(g, t, x, y),
                            (g, pt, x, y)))
            nf_inputs += [bridge.element(element()) for _ in range(2)]
            for x in nf_inputs:
                ops.append(("normal_form", lambda g=g, t=pt, x=x: C.normal_form(g, t, x),
                            (g, pt, x)))
            for _ in range(PER_TRIPLE):
                x = element()
                y = composable(rng, out, into, x) if rng.random() < 0.5 else element()
                xe, ye = bridge.element(x), bridge.element(y)
                ops.append(("multiply", lambda x=xe, y=ye: E.multiply(x, y),
                            bridge.element(mul(x, y))))
            for _ in range(PER_TRIPLE):
                x = element()
                text = literal(x)
                ops.append(("literal", lambda g=g, s=text: round_trip(g, s),
                            (bridge.element(x), text)))
            C.equiv(g, pt, nf_inputs[0], nf_inputs[0])  # fill the per-triple cache
            if is_acyclic(spec) and element_count(spec) <= CLOSURE_MAX_ELEMENTS:
                closure.append((spec, t, g, pt))
    return SimpleNamespace(ops=ops, assoc=assoc, closure=closure)


def check(bench: SimpleNamespace, outs: list) -> list[str]:
    bad = []
    for i, ((kind, _, data), out) in enumerate(zip(bench.ops, outs)):
        if isinstance(out, Failed):
            continue
        if kind == "equiv_related" and out is not True:
            bad.append(f"op {i}: pair built by one generating-pair rewrite judged unrelated")
        if kind.startswith("equiv"):
            g, t, x, y = data
            if (C.normal_form(g, t, x) == C.normal_form(g, t, y)) != out:
                bad.append(f"op {i}: NF(x) = NF(y) disagrees with equiv = {out} for {x}, {y}")
        elif kind == "normal_form":
            g, t, x = data
            if C.normal_form(g, t, out) != out:
                bad.append(f"op {i}: NF({out}) is not a fixed point of NF")
            if not C.equiv(g, t, x, out):
                bad.append(f"op {i}: {x} is not related to its normal form {out}")
        elif kind == "multiply" and out != data:
            bad.append(f"op {i}: product {out}, path concatenation gives {data}")
        elif kind == "literal" and out != data:
            bad.append(f"op {i}: literal round trip gave {out}, expected {data}")
    for x, y, z in bench.assoc:
        if E.multiply(E.multiply(x, y), z) != E.multiply(x, E.multiply(y, z)):
            bad.append(f"multiply is not associative on {x}, {y}, {z}")
    for spec, t, g, pt in bench.closure:
        elems, cls = closure_classes(spec, generating_pairs(spec, t))
        els = [bridge.element(x) for x in elems]
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                if C.equiv(g, pt, els[i], els[j]) != (cls[i] == cls[j]):
                    bad.append(f"equiv({els[i]}, {els[j]}) disagrees with brute-force closure")
    return bad
