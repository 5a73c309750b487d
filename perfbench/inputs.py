"""Seeded inputs and the benchmark's own reference computations.

Nothing here calls the package under test. A graph is a ``Spec`` of
vertex ids and (id, src, dst) edge triples; a path is a pair
``(vertices, edges)`` of tuples; an element is ``None`` (zero) or a pair
``(alpha, beta)`` of paths with a common last vertex, read as alpha
followed by the reversal of beta. The arithmetic, cycle rotations,
hereditary sets and congruence closure below are written from the
definitions, so the workloads can check the package against them.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

INF = math.inf
F_VALUES = (1, 2, 3, 4, INF)


class Failed(str):
    """Output slot of an operation that raised; checks skip it."""


class Spec(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]


class Triple(NamedTuple):
    h: frozenset[str]
    w: frozenset[str]
    f: dict[tuple[str, ...], float]  # least-rotation edge tuple -> value


def out_map(spec: Spec, drop: frozenset[str] = frozenset()) -> dict[str, list[tuple[str, str]]]:
    """v -> [(edge id, dst)], leaving out vertices in drop and edges into it."""
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in spec.vertices if v not in drop}
    for e, s, d in spec.edges:
        if s not in drop and d not in drop:
            out[s].append((e, d))
    return out


def in_map(spec: Spec) -> dict[str, list[tuple[str, str]]]:
    """v -> [(edge id, src)] over edges ending at v."""
    into: dict[str, list[tuple[str, str]]] = {v: [] for v in spec.vertices}
    for e, s, d in spec.edges:
        into[d].append((e, s))
    return into


# ---------------------------------------------------------------------------
# Paths and elements
# ---------------------------------------------------------------------------


def vpath(v: str) -> tuple:
    return ((v,), ())


def cat(p: tuple, q: tuple) -> tuple:
    if p[0][-1] != q[0][0]:
        raise ValueError("paths do not compose")
    return (p[0] + q[0][1:], p[1] + q[1])


def power(p: tuple, m: int) -> tuple:
    """The closed path p traced m times."""
    return (p[0][:-1] * m + p[0][-1:], p[1] * m)


def prefix_of(p: tuple, q: tuple) -> bool:
    return p[0][0] == q[0][0] and q[1][: len(p[1])] == p[1]


def after(p: tuple, q: tuple) -> tuple:
    """q with its prefix p removed."""
    n = len(p[1])
    return (q[0][n:], q[1][n:])


def mul(x, y):
    """Product of two elements from the multiplication rule of I(G)."""
    if x is None or y is None:
        return None
    (a, b), (c, d) = x, y
    if prefix_of(b, c):
        return (cat(a, after(b, c)), d)
    if prefix_of(c, b):
        return (a, cat(d, after(c, b)))
    return None


def walk_forward(rng: random.Random, out, v: str, length: int) -> tuple:
    verts, edges = [v], []
    for _ in range(length):
        if not out[verts[-1]]:
            break
        e, d = rng.choice(out[verts[-1]])
        edges.append(e)
        verts.append(d)
    return (tuple(verts), tuple(edges))


def walk_backward(rng: random.Random, into, v: str, length: int) -> tuple:
    """A path ending at v, grown backwards along edges into it."""
    verts, edges = [v], []
    for _ in range(length):
        if not into[verts[-1]]:
            break
        e, s = rng.choice(into[verts[-1]])
        edges.append(e)
        verts.append(s)
    return (tuple(reversed(verts)), tuple(reversed(edges)))


def rand_element(rng: random.Random, spec: Spec, out, into, max_len: int):
    a = walk_forward(rng, out, rng.choice(spec.vertices), rng.randint(0, max_len))
    b = walk_backward(rng, into, a[0][-1], rng.randint(0, max_len))
    return (a, b)


def literal(x) -> str:
    """The element grammar of the package: '0', or 'P|Q' with '@v' for a
    length-0 path and '.'-joined edge ids otherwise."""
    if x is None:
        return "0"
    return "|".join(".".join(p[1]) if p[1] else "@" + p[0][0] for p in x)


# ---------------------------------------------------------------------------
# Cycles and triples
# ---------------------------------------------------------------------------


def least_rotation(edges: tuple[str, ...]) -> tuple[str, ...]:
    return min(edges[k:] + edges[:k] for k in range(len(edges)))


def forward_closure(out, seed) -> frozenset[str]:
    todo, seen = list(seed), set()
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(d for _, d in out[v])
    return frozenset(seen)


def index_one(spec: Spec, h: frozenset[str]) -> list[str]:
    """Vertices of G minus H with exactly one edge that avoids H."""
    q = out_map(spec, h)
    return [v for v in spec.vertices if v in q and len(q[v]) == 1]


def cycles_inside(spec: Spec, h: frozenset[str], w) -> list[tuple[str, ...]]:
    """Least rotations of the cycles of G minus H whose vertices lie in w."""
    q = out_map(spec, h)
    ws, found = set(w), []
    for start in spec.vertices:
        if start not in ws:
            continue
        u, edges, seen = start, [], set()
        while u in ws and u not in seen:
            seen.add(u)
            ((e, u),) = q[u]
            edges.append(e)
            if u == start:
                c = least_rotation(tuple(edges))
                if c not in found:
                    found.append(c)
                break
    return found


def rand_triple(rng: random.Random, spec: Spec, with_h: bool) -> Triple:
    """H the forward closure of a random vertex if with_h, else empty; W a
    random 70 % of the quotient's index-one vertices; f random on the
    cycles inside W."""
    out = out_map(spec)
    h = frozenset()
    if with_h:
        h = forward_closure(out, [rng.choice(spec.vertices)])
    w = frozenset(v for v in index_one(spec, h) if rng.random() < 0.7)
    f = {c: rng.choice(F_VALUES) for c in cycles_inside(spec, h, w)}
    return Triple(h, w, f)


def cycle_path(spec: Spec, edges: tuple[str, ...]) -> tuple:
    src = {e: (s, d) for e, s, d in spec.edges}
    return (tuple(src[e][0] for e in edges) + (src[edges[-1]][1],), edges)


def generating_pairs(spec: Spec, t: Triple) -> list[tuple]:
    """(v, 0) for v in H, (e e*, s(e)) for w in W, (c^f(c), s(c)) for
    finite f(c): the pairs that span the triple's congruence."""
    q = out_map(spec, t.h)
    pairs = [((vpath(v), vpath(v)), None) for v in spec.vertices if v in t.h]
    for v in spec.vertices:
        if v in t.w:
            ((e, d),) = q[v]
            ee = ((v, d), (e,))
            pairs.append(((ee, ee), (vpath(v), vpath(v))))
    for c, val in t.f.items():
        if val != INF:
            p = cycle_path(spec, c)
            pairs.append(((power(p, int(val)), vpath(p[0][0])), (vpath(p[0][0]), vpath(p[0][0]))))
    return pairs


def rewrite_pair(rng: random.Random, spec: Spec, out, into, pair, max_len: int):
    """A pair u a w ~ u b w for the generating pair (a, b), with random
    contexts u and w chosen so that u a w is nonzero."""
    a, b = pair
    (pa, qa) = a
    for _ in range(20):
        k = rng.randint(0, len(pa[1]))
        delta = (pa[0][: k + 1], pa[1][:k])
        if rng.random() < 0.5:
            delta = cat(pa, walk_forward(rng, out, pa[0][-1], rng.randint(0, 2)))
        u = (walk_backward(rng, into, delta[0][-1], rng.randint(0, max_len)), delta)
        k = rng.randint(0, len(qa[1]))
        omega = (qa[0][: k + 1], qa[1][:k])
        if rng.random() < 0.5:
            omega = cat(qa, walk_forward(rng, out, qa[0][-1], rng.randint(0, 2)))
        w = (omega, walk_backward(rng, into, omega[0][-1], rng.randint(0, max_len)))
        x = mul(mul(u, a), w)
        if x is not None:
            return x, mul(mul(u, b), w)
    return a, b


# ---------------------------------------------------------------------------
# Hereditary sets and brute-force closure (acyclic graphs)
# ---------------------------------------------------------------------------


def hereditary_sets(spec: Spec) -> list[frozenset[str]]:
    """Every forward-closed vertex set, by include/exclude branching in
    which including a vertex includes its forward closure."""
    out = out_map(spec)
    reach = {v: forward_closure(out, [v]) for v in spec.vertices}
    found: list[frozenset[str]] = []

    def grow(i: int, chosen: frozenset[str], banned: frozenset[str]) -> None:
        if i == len(spec.vertices):
            found.append(chosen)
            return
        v = spec.vertices[i]
        if v in chosen:
            grow(i + 1, chosen, banned)
            return
        grow(i + 1, chosen, banned | {v})
        if not reach[v] & banned:
            grow(i + 1, chosen | reach[v], banned)

    grow(0, frozenset(), frozenset())
    return found


def acyclic_triple_count(spec: Spec) -> int:
    """Triples of an acyclic graph: no cycles, so one per hereditary H and
    subset W of the index-one vertices of G minus H."""
    return sum(2 ** len(index_one(spec, h)) for h in hereditary_sets(spec))


def is_acyclic(spec: Spec) -> bool:
    """Kahn's algorithm: every vertex can be peeled off as a source."""
    indeg = {v: 0 for v in spec.vertices}
    for _, _, d in spec.edges:
        indeg[d] += 1
    out = out_map(spec)
    todo = [v for v, k in indeg.items() if k == 0]
    peeled = 0
    while todo:
        v = todo.pop()
        peeled += 1
        for _, d in out[v]:
            indeg[d] -= 1
            if indeg[d] == 0:
                todo.append(d)
    return peeled == len(spec.vertices)


def all_paths(spec: Spec) -> list[tuple]:
    """Every path of an acyclic graph."""
    out = out_map(spec)
    paths = [vpath(v) for v in spec.vertices]
    frontier = list(paths)
    while frontier:
        frontier = [(p[0] + (d,), p[1] + (e,)) for p in frontier for e, d in out[p[0][-1]]]
        paths.extend(frontier)
    return paths


def closure_classes(spec: Spec, pairs) -> tuple[list, list[int]]:
    """All elements of I(G) for acyclic G, and the class of each in the
    least congruence containing pairs (union-find closed under
    multiplication on both sides)."""
    paths = all_paths(spec)
    elems = [None] + [(a, b) for a in paths for b in paths if a[0][-1] == b[0][-1]]
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[mul(x, y)] for y in elems] for x in elems]
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work = [(index[a], index[b]) for a, b in pairs]
    while work:
        i, j = work.pop()
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            for z in range(len(elems)):
                work.append((table[z][i], table[z][j]))
                work.append((table[i][z], table[j][z]))
    return elems, [find(i) for i in range(len(elems))]


def element_count(spec: Spec) -> int:
    ends: dict[str, int] = {}
    for p in all_paths(spec):
        ends[p[0][-1]] = ends.get(p[0][-1], 0) + 1
    return 1 + sum(k * k for k in ends.values())


# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------


def corpus_specs() -> dict[str, Spec]:
    """The package's corpus graphs, restated so their ids can be prefixed."""
    raw = {
        "single_vertex": ("v", []),
        "edge": ("v w", [("e", "v", "w")]),
        "two_edge_path": ("u v w", [("e1", "u", "v"), ("e2", "v", "w")]),
        "fork": ("u v w", [("e1", "u", "v"), ("e2", "u", "w")]),
        "parallel_pair": ("v w", [("e1", "v", "w"), ("e2", "v", "w")]),
        "loop": ("v", [("e", "v", "v")]),
        "double_loop": ("v", [("a", "v", "v"), ("b", "v", "v")]),
        "two_cycle": ("v w", [("e1", "v", "w"), ("e2", "w", "v")]),
        "cycle_with_exit": ("v w u", [("e1", "v", "w"), ("e2", "w", "v"), ("e3", "w", "u")]),
        "pendant_cycle": ("u v w", [("e0", "u", "v"), ("e1", "v", "w"), ("e2", "w", "v")]),
        "parallel_two_cycle": (
            "v w", [("a1", "v", "w"), ("a2", "v", "w"), ("b1", "w", "v"), ("b2", "w", "v")]),
        "two_loops": (
            "u v w", [("a", "u", "v"), ("b", "u", "w"), ("lv", "v", "v"), ("lw", "w", "w")]),
    }
    return {name: Spec(tuple(vs.split()), tuple(es)) for name, (vs, es) in raw.items()}


def relabel(spec: Spec, label: str) -> Spec:
    return Spec(
        tuple(label + v for v in spec.vertices),
        tuple((label + e, label + s, label + d) for e, s, d in spec.edges),
    )


def small_multigraph(rng: random.Random, label: str, n: int, fill: float) -> Spec:
    """n vertices and the share fill of min(8, 2n) edges, with random ends;
    loops and parallel edges allowed."""
    vs = tuple(f"{label}v{i}" for i in range(n))
    m = round(fill * min(8, 2 * n))
    return Spec(vs, tuple((f"{label}e{i}", rng.choice(vs), rng.choice(vs)) for i in range(m)))


def cycle_forest(rng: random.Random, label: str, n: int) -> Spec:
    """About n vertices: short cycles (1-4 edges), in-trees feeding them,
    a few branching vertices, and edges from later to earlier blocks."""
    vs: list[str] = []
    es: list[tuple[str, str, str]] = []

    def vertex() -> str:
        vs.append(f"{label}v{len(vs)}")
        return vs[-1]

    def edge(s: str, d: str) -> None:
        es.append((f"{label}e{len(es)}", s, d))

    while len(vs) < n:
        first = len(vs)
        ring = [vertex() for _ in range(rng.randint(1, 4))]
        for s, d in zip(ring, ring[1:] + ring[:1]):
            edge(s, d)
        for _ in range(rng.randint(2, 12)):
            u = vertex()
            edge(u, rng.choice(vs[first:-1]))
            if rng.random() < 0.15:
                edge(u, rng.choice(vs[first:-1]))
        if first and rng.random() < 0.5:
            edge(rng.choice(vs[first:]), rng.choice(vs[:first]))
    return Spec(tuple(vs), tuple(es))


def random_dag(rng: random.Random, label: str, n: int) -> Spec:
    """n vertices in topological order; most have two or three edges to
    later vertices, some one, the last none."""
    vs = tuple(f"{label}v{i}" for i in range(n))
    es = []
    for i in range(n - 1):
        k = rng.choice((1, 2, 2, 3))
        for _ in range(k):
            es.append((f"{label}e{len(es)}", vs[i], vs[rng.randint(i + 1, n - 1)]))
    return Spec(vs, tuple(es))


def path_graph(label: str, n: int) -> Spec:
    vs = tuple(f"{label}v{i}" for i in range(n))
    return Spec(vs, tuple((f"{label}e{i}", vs[i], vs[i + 1]) for i in range(n - 1)))
