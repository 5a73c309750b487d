"""Reference predicates the tests check the package against.

Each is written from a definition in the paper, independently of the
code it checks, and runs only at desk scale.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from graphinverse.congruences import (
    INF,
    CongruenceTriple,
    TripleEnumeration,
    make_triple,
)
from graphinverse.elements import ZERO, Element, multiply
from graphinverse.graphs import (
    Cycle,
    Graph,
    Path,
    cycles_in,
    enumerate_hereditary,
    is_hereditary,
    is_prefix,
    strip_prefix,
)
from graphinverse.oracle import (
    ExplicitCongruence,
    FiniteSemigroup,
    TransitionOracle,
    _key,
    _prefix_keys,
    _solve_right,
)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def exits_of(g: Graph, p: Path) -> list[str]:
    """Edges sharing a source with some edge of p but distinct from it."""
    on_path = set(p.edges)
    out: list[str] = []
    seen: set[str] = set()
    for v in p.vertices[:-1]:
        for e in g.out_edges(v):
            if e.id not in on_path and e.id not in seen:
                seen.add(e.id)
                out.append(e.id)
    return out


def is_no_exit(g: Graph, p: Path) -> bool:
    return not exits_of(g, p)


def hereditary_closure(g: Graph, seed: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary superset of seed (forward reachability)."""
    todo = list(seed)
    for v in todo:
        g._require_vertex(v)
    closed: set[str] = set()
    while todo:
        v = todo.pop()
        if v in closed:
            continue
        closed.add(v)
        todo.extend(e.dst for e in g.out_edges(v))
    return frozenset(closed)


def subset_scan_hereditary(g: Graph) -> list[frozenset[str]]:
    """All hereditary subsets, found by testing every vertex subset, in
    subset-bitmask order over the vertex tuple."""
    n = len(g.vertices)
    out = []
    for mask in range(1 << n):
        h = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
        if is_hereditary(g, h):
            out.append(h)
    return out


def reachable(g: Graph, start: str, reverse: bool = False) -> set[str]:
    """The vertices reached from start (reaching it, with reverse)."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if reverse:
            adj[e.dst].append(e.src)
        else:
            adj[e.src].append(e.dst)
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def strongly_connected_by_search(g: Graph) -> bool:
    """Every vertex reached from, and reaching, the first (empty graph: true)."""
    if not g.vertices:
        return True
    start = g.vertices[0]
    n = len(g.vertices)
    return len(reachable(g, start)) == n and len(reachable(g, start, reverse=True)) == n


def quotient(g: Graph, h: Iterable[str]) -> Graph:
    """The graph obtained by deleting a hereditary set h and every edge
    ranging into it."""
    hs = frozenset(h)
    if not is_hereditary(g, hs):
        raise ValueError(f"vertex set {sorted(hs)} is not hereditary")
    verts = tuple(v for v in g.vertices if v not in hs)
    edges = tuple(e for e in g.edges if e.dst not in hs)
    return Graph(verts, edges)


def index_one_vertices(g: Graph) -> frozenset[str]:
    """Vertices with exactly one outgoing edge."""
    return frozenset(v for v in g.vertices if len(g.out_edges(v)) == 1)


def rees_only_condition(g: Graph) -> bool:
    """True iff every quotient by a hereditary set has no index-one vertex.

    Equivalently, every congruence of the associated semigroup is a Rees
    congruence (induced by an ideal).
    """
    return all(not index_one_vertices(quotient(g, h)) for h in enumerate_hereditary(g))


# ---------------------------------------------------------------------------
# Closed paths along a cycle
# ---------------------------------------------------------------------------


def strip_cycle_prefix(loop: Path, p: Path) -> tuple[int, Path]:
    """Greedily strip leading laps of the closed path loop from p.

    Returns (k, tail) with p = loop^k tail and tail not starting with a
    full lap. When loop is a cycle whose vertices all have index one,
    tail is forced to be a proper prefix of loop.
    """
    if p.source != loop.source:
        raise ValueError(f"path starts at {p.source!r}, cycle at {loop.source!r}")
    k = 0
    while is_prefix(loop, p):
        p = strip_prefix(loop, p)
        k += 1
    return k, p


def conjugate_cycle(g: Graph, c: Cycle, a: Path) -> Path:
    """The rotation of c based at the vertex a reaches.

    Requires the cycle to be no-exit (every vertex of index one) and a to
    start at the cycle's base, so a necessarily runs along the cycle. The
    returned closed path c1 satisfies, for every k >= 1, the conjugation
    identities  a* c^k a = c1^k  and  c^k a a* = a c1^k a*.
    """
    for v in c.vertex_set:
        if len(g.out_edges(v)) != 1:
            raise ValueError(f"cycle vertex {v!r} has index {len(g.out_edges(v))}, expected 1")
    _, tail = strip_cycle_prefix(c.path, a)
    if not is_prefix(tail, c.path):
        raise ValueError(f"path {a!r} leaves the cycle {c!r}")
    return c.based_at(a.target)


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------


def per_triple_enumeration(g: Graph, f_cap: int) -> TripleEnumeration:
    """All triples with finite cycle values <= f_cap, in the documented
    order of enumerate_triples: hereditary sets by subset scan, then W in
    bitmask order over the index-one vertices of the quotient q = G∖H,
    then the cycle values per cycle of q inside W; each triple validated
    by make_triple."""
    values = tuple(range(1, f_cap + 1)) + (INF,)
    triples = []
    unbounded = False
    for h in subset_scan_hereditary(g):
        q = quotient(g, h)
        bar = q.sort_vertices(index_one_vertices(q))
        for mask in range(1 << len(bar)):
            w = frozenset(v for i, v in enumerate(bar) if mask >> i & 1)
            cycles = cycles_in(q, {v: q.out_edges(v)[0] for v in w})
            unbounded = unbounded or bool(cycles)
            for combo in itertools.product(values, repeat=len(cycles)):
                triples.append(make_triple(g, h, w, zip(cycles, combo)))
    return TripleEnumeration(tuple(triples), unbounded)


def is_compatible(s: FiniteSemigroup, part: ExplicitCongruence) -> bool:
    """Re-verify the congruence property from scratch."""
    n = len(s)
    for cls in part.classes:
        x = cls[0]
        for y in cls[1:]:
            for z in range(n):
                if not part.together(s.mul(z, x), s.mul(z, y)):
                    return False
                if not part.together(s.mul(x, z), s.mul(y, z)):
                    return False
    return True


def vertex_class_form_test(
    g: Graph, t: CongruenceTriple, v: str, x: Element
) -> bool:
    """Check directly whether x has one of the two shapes an element of
    the class of v can take: g g* with edge sources in W, or g times a
    collapsing lap power (on either side) with edge sources of g in W.

    Written against the class description itself, independently of the
    decision procedure, as a cross-check at desk scale.
    """
    t = t.over(g)
    if x.is_zero or v in t.h:
        return False
    assert x.alpha is not None and x.beta is not None
    a, b = x.alpha, x.beta
    if a.source != v or b.source != v:
        return False
    if any(u in t.h for u in a.vertices + b.vertices):
        return False
    if a == b:
        return a.vertex_set <= t.w
    if is_prefix(b, a):
        shorter, longer = b, a
    elif is_prefix(a, b):
        shorter, longer = a, b
    else:
        return False
    if not shorter.vertex_set <= t.w:
        return False
    tail = strip_prefix(shorter, longer)
    for c, val in t.f:
        if val == INF or tail.source not in c.vertex_set:
            continue
        loop = c.based_at(tail.source)
        m, rest = strip_cycle_prefix(loop, tail)
        if len(rest) == 0 and m >= 1 and m % int(val) == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# The rewrite search by context index
# ---------------------------------------------------------------------------


def inverse(x: Element) -> Element:
    """Swap the two paths; zero is self-inverse."""
    if x.is_zero:
        return ZERO
    return Element(x.beta, x.alpha)


# (u a, u b) for the contexts u, keyed by the first path of u a
Contexts = dict[tuple, list[tuple[Element, Element]]]


def context_index(pairs: list[tuple[Element, Element]], contexts: list[Element]) -> Contexts:
    """The nonzero (u a, u b), u in contexts, keyed by the first path of u a."""
    index: Contexts = {}
    for a, b in pairs:
        for u in contexts:
            ua = multiply(u, a)
            if not ua.is_zero:
                index.setdefault(_key(ua.alpha), []).append((ua, multiply(u, b)))
    return index


def left_pass(index: Contexts, z: Element) -> Iterator[Element]:
    """Each u b w with (u a, u b) in the index and u a w = z, for nonzero z."""
    assert z.alpha is not None
    for key in _prefix_keys(z.alpha):
        for ua, ub in index.get(key, ()):
            for w in _solve_right(ua, z):
                yield multiply(ub, w)


class PrefixIndexOracle(TransitionOracle):
    """The rewrite search with the neighbours of a nonzero z found context
    by context: u a w = z needs the first path of u a to be a prefix of
    alpha, so the contexts (u a, u b), u in U, are keyed by that path. The
    right-hand contexts are the same index over the inverted pairs
    (a*, b*) and contexts w*, looked up by z*, since u a w = z exactly
    when w* a* u* = z* and U is closed under inversion."""

    def __init__(self, g: Graph, t: CongruenceTriple, len_bound: int):
        super().__init__(g, t, len_bound)
        self._left = context_index(self.directed, self.universe)
        self._inverted = context_index(
            [(inverse(a), inverse(b)) for a, b in self.directed],
            [inverse(w) for w in self.universe],
        )

    def _neighbors(self, z: Element) -> set[Element]:
        out = set(left_pass(self._left, z))
        out.update(inverse(x) for x in left_pass(self._inverted, inverse(z)))
        return {x for x in out if self._within(x)}
