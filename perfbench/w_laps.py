"""laps: long no-exit cycles and high lap counts, the cycle layer's costs.

Graphs: rings of tens to two hundred edges, some fed by tails, some with
several rings of which all but the last lie in W. Operations: make_triple,
equiv(pi c^m, pi) for pi a vertex, a partial lap or a feeding tail,
normal_form of elements with lap runs on either side, and Cycle.power.
Sizes and lap counts are fixed; the seed draws edge names (and so each
ring's least rotation), tail positions, W and f.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from graphinverse import congruences as C
from graphinverse import graphs as G

import bridge
from inputs import (
    INF,
    F_VALUES,
    Failed,
    Spec,
    Triple,
    cat,
    cycles_inside,
    least_rotation,
    power,
    vpath,
)

# (ring lengths, number of feeding tails) per graph
GRAPHS = (((200,), 0), ((120,), 4), ((60, 60, 60), 2), ((40, 1), 3), ((90,), 3))
TINY_GRAPHS = (((12,), 1), ((6, 6), 1))
LAPS = (1, 5, 12, 24)  # equiv(pi c^m, pi) for each m
NF_LAPS = ((7, 0), (0, 5), (9, 4), (3, 11))  # normal_form(c^m1 (c^m2)*)
POWER_EDGES = (600, 3000)  # Cycle.power(m) with m about this many edges over |c|


def ring_graph(rng: random.Random, label: str, lengths, tails: int):
    """Disjoint rings with shuffled edge names, plus tails feeding them."""
    vs, es, rings = [], [], []
    for j, n in enumerate(lengths):
        ring = [f"{label}c{j}v{i}" for i in range(n)]
        names = [f"{label}c{j}e{k}" for k in rng.sample(range(n), n)]
        vs += ring
        es += [(names[i], ring[i], ring[(i + 1) % n]) for i in range(n)]
        rings.append(tuple(names))
    tail_paths = []
    for k in range(tails):
        length = rng.randint(1, 4)
        tv = [f"{label}t{k}v{i}" for i in range(length)]
        target = rng.choice(vs[: sum(lengths)])
        stops = tv + [target]
        te = [(f"{label}t{k}e{i}", stops[i], stops[i + 1]) for i in range(length)]
        vs += tv
        es += te
        tail_paths.append((tuple(stops), tuple(e for e, _, _ in te)))
    return Spec(tuple(vs), tuple(es)), rings, tail_paths


def rotation_at(spec: Spec, c: tuple, v: str) -> tuple:
    """The rotation of ring c (least rotation) starting at its vertex v."""
    src = {e: s for e, s, _ in spec.edges}
    k = [src[e] for e in c].index(v)
    edges = c[k:] + c[:k]
    return tuple(src[e] for e in edges) + (v,), edges


def setup(seed: int, label: str, tiny: bool, workdir, tracer) -> SimpleNamespace:
    rng = random.Random(seed)
    ops = []
    for gi, (lengths, tails) in enumerate(TINY_GRAPHS if tiny else GRAPHS):
        spec, rings, tail_paths = ring_graph(rng, f"{label}g{gi}", lengths, tails)
        g = bridge.graph(spec)
        left_out = len(rings) - 1 if len(rings) > 1 else None  # this ring is not in W
        in_w = {e for j, c in enumerate(rings) if j != left_out for e in c}
        ring_vertices = {s for e, s, _ in spec.edges if e in in_w}
        tail_w = {v for p in tail_paths for v in p[0][:-1] if rng.random() < 0.5}
        w = frozenset(ring_vertices | tail_w)
        cycles = cycles_inside(spec, frozenset(), w)
        t = Triple(frozenset(), w, {c: rng.choice(F_VALUES) for c in cycles})
        fmap = bridge.cycle_map(g, t)
        pt = C.make_triple(g, t.h, t.w, fmap)
        ops.append(("make_triple", lambda g=g, w=w, f=fmap: C.make_triple(g, (), w, f),
                    t.f))
        C.equiv(g, pt, bridge.element(None), bridge.element(None))  # fill the per-triple cache
        for j, ring in enumerate(rings):
            c = least_rotation(ring)
            val = t.f.get(c)
            base_path = rotation_at(spec, c, next(s for e, s, _ in spec.edges if e == c[0]))
            base = base_path[0][0]
            pis = [vpath(base)]
            for _ in range(2):  # partial laps from the base
                k = rng.randint(1, len(c) - 1) if len(c) > 1 else 0
                pis.append((base_path[0][: k + 1], base_path[1][:k]))
            feeding = [p for p in tail_paths if p[0][-1] in set(base_path[0])]
            pis.append(rng.choice(feeding) if feeding else pis[1])
            for pi in pis:
                rot = rotation_at(spec, c, pi[0][-1])
                for m in LAPS:
                    x = bridge.element((cat(pi, power(rot, m)), vpath(rot[0][0])))
                    y = bridge.element((pi, vpath(pi[0][-1])))
                    expect = val is not None and val != INF and m % int(val) == 0
                    ops.append(("lap_equiv", lambda g=g, t=pt, x=x, y=y: C.equiv(g, t, x, y),
                                expect))
            for m1, m2 in NF_LAPS:
                rot = rotation_at(spec, c, rng.choice(base_path[0][:-1]))
                at = vpath(rot[0][0])
                x = bridge.element((power(rot, m1), power(rot, m2)))
                if val is None:
                    expect = x
                elif val == INF:
                    d = m1 - m2
                    expect = bridge.element((power(rot, d), at) if d >= 0 else (at, power(rot, -d)))
                else:
                    expect = bridge.element((power(rot, (m1 - m2) % int(val)), at))
                ops.append(("lap_nf", lambda g=g, t=pt, x=x: C.normal_form(g, t, x), expect))
            cyc = G.Cycle.from_path(G.make_path(g, c))
            for total in POWER_EDGES:
                m = max(2, total // len(c))
                ops.append(("power", lambda cyc=cyc, m=m: cyc.power(m), c * m))
    return SimpleNamespace(ops=ops)


def check(bench: SimpleNamespace, outs: list) -> list[str]:
    bad = []
    for i, ((kind, _, expect), out) in enumerate(zip(bench.ops, outs)):
        if isinstance(out, Failed):
            continue
        if kind == "make_triple":
            if {cy.path.edges: v for cy, v in out.f} != expect:
                bad.append(f"op {i}: cycle domain of make_triple is not the generated rings")
        elif kind == "lap_equiv" and out != expect:
            bad.append(f"op {i}: equiv(pi c^m, pi) = {out}, expected f(c) | m = {expect}")
        elif kind == "lap_nf" and out != expect:
            bad.append(f"op {i}: normal form {out}, expected {expect}")
        elif kind == "power" and (len(out) != len(expect) or out.edges != expect):
            bad.append(f"op {i}: c.power(m) has {len(out)} edges, expected {len(expect)}")
    return bad
