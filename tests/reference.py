"""Reference predicates the tests check the package against.

Each is written from a definition in the paper, independently of the
code it checks, and runs only at desk scale.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator

from graphinverse.congruences import (
    INF,
    CongruenceTriple,
    make_triple,
    triple_generators,
)
from graphinverse.corpus import CORPUS
from graphinverse.elements import ZERO, Element, _element, multiply, path_element
from graphinverse.graphs import (
    Cycle,
    Graph,
    Path,
    _is_prefix,
    _path,
    _rotate,
    concat,
    cycle_power,
    cycles_in,
    is_acyclic,
    is_hereditary,
    quotients,
)
from graphinverse.oracle import (
    ExplicitCongruence,
    FiniteSemigroup,
    TransitionOracle,
    TransitionResult,
    all_paths,
    bounded_elements,
)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

CYCLIC_CORPUS = {name: g for name, g in CORPUS.items() if not is_acyclic(g)}
ACYCLIC_CORPUS = {name: g for name, g in CORPUS.items() if is_acyclic(g)}


def bounded_elements_by_pairs(g: Graph, len_bound: int) -> list[Element]:
    """Zero, then every pair of paths of length <= len_bound with a common
    range, in the order of a scan over all pairs of ``all_paths``."""
    paths = all_paths(g, len_bound)
    return [ZERO] + [_element(a, b) for a in paths for b in paths if a.target == b.target]


def is_prefix(p: Path, q: Path) -> bool:
    """True iff q = p followed by some path."""
    return p.source == q.source and q.edges[: len(p.edges)] == p.edges


def strip_prefix(p: Path, q: Path) -> Path:
    """The remainder of q after its prefix p."""
    if not is_prefix(p, q):
        raise ValueError(f"{p!r} is not a prefix of {q!r}")
    n = len(p.edges)
    return Path(q.vertices[n:], q.edges[n:])


def remainder(p: Path, q: Path) -> Path | None:
    """The rest of q after its prefix p, or None when p is not a prefix of
    q; q itself, uncopied, when p has length 0."""
    if not _is_prefix(p, q):
        return None
    n = len(p.edges)
    return _path(q.vertices[n:], q.edges[n:]) if n else q


def based_at(c: Cycle, v: str) -> Path:
    """The rotation of c starting (and ending) at v."""
    body = c.path.vertices[:-1]
    try:
        k = body.index(v)
    except ValueError:
        raise ValueError(f"vertex {v!r} does not lie on cycle {c.path!r}") from None
    return _rotate(c.path, k)


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
        g.out_edges(v)  # raises for an unknown vertex
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


def hereditary_sets(g: Graph) -> list[frozenset[str]]:
    """The hereditary sets of g, read off graphs.quotients in its order."""
    return [h for h, _, _ in quotients(g)]


def rees_only_condition(g: Graph) -> bool:
    """True iff every quotient by a hereditary set has no index-one vertex.

    Equivalently, every congruence of the associated semigroup is a Rees
    congruence (induced by an ideal).
    """
    return all(not index_one_vertices(quotient(g, h)) for h in hereditary_sets(g))


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
    return based_at(c, a.target)


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------


def per_triple_enumeration(
    g: Graph, f_cap: int
) -> tuple[tuple[CongruenceTriple, ...], bool]:
    """All triples with finite cycle values <= f_cap, in the documented
    order of enumerate_triples: hereditary sets by subset scan, then W in
    bitmask order over the index-one vertices of the quotient q = G∖H,
    then the cycle values per cycle of q inside W; each triple validated
    by make_triple. Also whether some W closes a cycle of q, which makes
    the uncapped family infinite."""
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
                triples.append(make_triple(g, h, w, dict(zip(cycles, combo))))
    return tuple(triples), unbounded


def reduce_mod_h(g: Graph, t: CongruenceTriple, x: Element) -> Element:
    """Zero if x falls into the ideal spanned by H, else x unchanged.

    A path meeting H ends in H (H is hereditary), so testing the common
    range of the two paths suffices; the surviving element reads verbatim
    over G∖H.
    """
    if x.is_zero:
        return ZERO
    return ZERO if x.alpha.target in t.h else x


def drop_last(p: Path, k: int) -> Path:
    return Path(p.vertices[: len(p.vertices) - k], p.edges[: len(p.edges) - k])


def strip_common_tail(w: frozenset[str], a: Path, b: Path) -> tuple[Path, Path, bool]:
    """Drop the common trailing edges of a and b whose sources lie in W,
    one edge at a time: the pairs (e e*, s(e)) applied in context."""
    k, n = 0, min(len(a), len(b))
    while k < n and a.edges[-1 - k] == b.edges[-1 - k] and a.vertices[-2 - k] in w:
        k += 1
    if not k:
        return a, b, False
    return drop_last(a, k), drop_last(b, k), True


def trailing_run(c: Cycle, p: Path) -> int:
    """Edges of the maximal suffix of p that runs along c into p's target,
    matched edge by edge against c."""
    body = c.path.vertices[:-1]
    pos, n, run = body.index(p.target), len(c), 0
    while run < len(p) and p.edges[-1 - run] == c.path.edges[(pos - 1 - run) % n]:
        run += 1
    return run


def normal_form_by_edges(g: Graph, t: CongruenceTriple, x: Element) -> Element:
    """The normal form of x as normal_form defines it, built edge by edge.

    Zero when x falls into the ideal of H; otherwise repeat, until
    nothing changes, (1) strip_common_tail and (2) at a common range on a
    cycle c of finite f(c), replace the two trailing runs la and lb along
    c by one run of (la - lb) mod f(c)|c| edges on the plain side.
    """
    if reduce_mod_h(g, t, x).is_zero:
        return ZERO
    cycle_of = {v: (c, val) for c, val in t.f for v in c.vertex_set}
    a, b = x
    while True:
        a, b, stripped = strip_common_tail(t.w, a, b)
        c, val = cycle_of.get(a.target, (None, INF))
        reduced = False
        if val != INF:
            la, lb = trailing_run(c, a), trailing_run(c, b)
            d = (la - lb) % (len(c) * int(val))
            if not (lb == 0 and la == d):
                a, b = drop_last(a, la), drop_last(b, lb)
                laps = cycle_power(based_at(c, a.target), d // len(c) + 1)
                a = concat(a, Path(laps.vertices[: d + 1], laps.edges[:d]))
                reduced = True
        if not (stripped or reduced):
            return Element(a, b)


# ---------------------------------------------------------------------------
# Prefix questions answered on copies: the rest of the longer path after the
# shorter, as remainder gives it. equiv and multiply answer them in place.
# ---------------------------------------------------------------------------


def multiply_by_remainders(x: Element, y: Element) -> Element:
    """The exact product, the rest of the longer middle path copied."""
    if x.is_zero or y.is_zero:
        return ZERO
    (a, b), (z, d) = x, y
    xi = remainder(b, z)
    if xi is not None:
        return _element(_path(a.vertices + xi.vertices[1:], a.edges + xi.edges), d)
    xi = remainder(z, b)
    if xi is not None:
        return _element(a, _path(d.vertices + xi.vertices[1:], d.edges + xi.edges))
    return ZERO


def identified_power_by_rotation(t: CongruenceTriple, p: Path) -> bool:
    """Is the closed path p a lap power c^m collapsing to its base? The
    rotation of c at p's source is built as a path, then repeated."""
    verts, edges = p
    c, val, _ = t.cycle_at.get(verts[0], (None, INF, 0))
    if val == INF:
        return False
    m, rest = divmod(len(edges), len(c.path.edges))
    return not rest and m % int(val) == 0 and edges == based_at(c, verts[0]).edges * m


def vertex_class_by_remainders(t: CongruenceTriple, p: Path, q: Path) -> bool:
    """Does p q* lie in the class of its common source vertex?"""
    if p == q:
        return t.w.issuperset(p.vertices[:-1])
    if len(p.edges) < len(q.edges):
        p, q = q, p
    tail = remainder(q, p)
    return (
        tail is not None
        and t.w.issuperset(q.vertices[:-1])
        and identified_power_by_rotation(t, tail)
    )


def equiv_by_remainders(g: Graph, t: CongruenceTriple, x: Element, y: Element) -> bool:
    """The triple's congruence decided on copies: each rest of a path
    that a prefix question leaves is built as a path before it is read."""
    t = t.over(g)
    # a path meeting H ends in H (H is hereditary), so an element falls
    # into the ideal of H exactly when its common range lies in H
    x_dead = x.is_zero or x.alpha.target in t.h
    y_dead = y.is_zero or y.alpha.target in t.h
    if x_dead or y_dead:
        return x_dead and y_dead
    if x == y:
        return True
    a, b = x
    p, q = y
    if len(a.edges) > len(p.edges):
        a, b, p, q = p, q, a, b
    p1 = remainder(a, p)
    if p1 is None:
        return False
    q1 = remainder(b, q)
    if q1 is not None:
        return vertex_class_by_remainders(t, p1, q1)
    b1 = remainder(q, b)
    if b1 is not None:
        return identified_power_by_rotation(t, concat(p1, b1))
    return False


def is_compatible(s: FiniteSemigroup, part: ExplicitCongruence) -> bool:
    """Re-verify the congruence property from scratch."""
    n = len(s)
    table = s.table
    for cls in part.classes:
        x = cls[0]
        for y in cls[1:]:
            for z in range(n):
                if not part.together(table[z][x], table[z][y]):
                    return False
                if not part.together(table[x][z], table[y][z]):
                    return False
    return True


def closure_by_all_translations(
    s: FiniteSemigroup, pairs: Iterable[tuple[Element, Element]]
) -> ExplicitCongruence:
    """Least congruence containing the pairs: union-find seeded with the
    pairs, each merged pair translated on both sides by every element."""
    n = len(s)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work = [(s.index_of(a), s.index_of(b)) for a, b in pairs]
    while work:
        i, j = work.pop()
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[rj] = ri
        for z in range(n):
            work.append((s.table[z][i], s.table[z][j]))
            work.append((s.table[i][z], s.table[j][z]))
    return ExplicitCongruence.from_class_map([find(i) for i in range(n)])


def congruences_by_closed_joins(s: FiniteSemigroup) -> list[ExplicitCongruence]:
    """All congruences: principal congruences closed under joins, each
    join taken as the closure of both congruences' generating pairs."""
    n = len(s)
    els = s.elements
    identity = ExplicitCongruence(tuple(range(n)))
    found = {identity}
    for i in range(n):
        for j in range(i + 1, n):
            found.add(closure_by_all_translations(s, [(els[i], els[j])]))
    frontier = set(found)
    while frontier:
        fresh: set[ExplicitCongruence] = set()
        for rho in frontier:
            for sigma in found:
                pairs = rho.generating_pairs() + sigma.generating_pairs()
                joined = closure_by_all_translations(s, [(els[i], els[j]) for i, j in pairs])
                if joined not in found and joined not in fresh:
                    fresh.add(joined)
        found |= fresh
        frontier = fresh
    return sorted(found, key=lambda r: (-len(r.classes), r.classes))


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
        loop = based_at(c, tail.source)
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


def solve_right(q: Element, z: Element) -> list[Element]:
    """All w with q w = z, for nonzero q and z."""
    assert q.alpha is not None and q.beta is not None
    assert z.alpha is not None and z.beta is not None
    gamma, delta = q.alpha, q.beta
    alpha, beta = z.alpha, z.beta
    out = []
    if is_prefix(gamma, alpha):
        xi = strip_prefix(gamma, alpha)
        out.append(Element(concat(delta, xi), beta))
    if gamma == alpha:
        for k in range(len(delta) + 1):
            zeta, xi_edges = delta.edges[: len(delta) - k], delta.edges[len(delta) - k :]
            if k > len(beta) or beta.edges[len(beta) - k :] != xi_edges:
                continue
            w_alpha = Path(delta.vertices[: len(delta) - k + 1], zeta)
            w_beta = Path(beta.vertices[: len(beta) - k + 1], beta.edges[: len(beta) - k])
            if w_alpha.target == w_beta.target:
                out.append(Element(w_alpha, w_beta))
    return list(dict.fromkeys(out))


def path_key(p: Path) -> tuple:
    """A path as (source vertex, edge ids), cheaper to hash than the Path."""
    return (p.source, p.edges)


def prefix_keys(p: Path) -> list[tuple]:
    """Keys of the prefixes of p, shortest first, p's own last."""
    return [(p.source, p.edges[:k]) for k in range(len(p.edges) + 1)]


def positions(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# (u a, u b) for the contexts u, keyed by the first path of u a
Contexts = dict[tuple, list[tuple[Element, Element]]]


def context_index(pairs: list[tuple[Element, Element]], contexts: list[Element]) -> Contexts:
    """The nonzero (u a, u b), u in contexts, keyed by the first path of u a."""
    index: Contexts = {}
    for a, b in pairs:
        for u in contexts:
            ua = multiply(u, a)
            if not ua.is_zero:
                index.setdefault(path_key(ua.alpha), []).append((ua, multiply(u, b)))
    return index


def left_pass(index: Contexts, z: Element) -> Iterator[Element]:
    """Each u b w with (u a, u b) in the index and u a w = z, for nonzero z."""
    assert z.alpha is not None
    for key in prefix_keys(z.alpha):
        for ua, ub in index.get(key, ()):
            for w in solve_right(ua, z):
                yield multiply(ub, w)


def directed_pairs(
    g: Graph, t: CongruenceTriple, len_bound: int
) -> list[tuple[Element, Element]]:
    """The pairs a rewrite search within len_bound uses: triple_generators'
    pairs, each cycle power longer than 2 * len_bound edges cut to the
    least power of its cycle that is, then their reverses."""
    gens = triple_generators(g, t)
    cycles = [c for c, val in t.over(g).f if val != INF]
    head = len(gens) - len(cycles)
    cut = 2 * len_bound
    pairs = gens[:head] + [
        (a if len(a.alpha) <= cut else path_element(c.power(cut // len(c) + 1)), b)
        for c, (a, b) in zip(cycles, gens[head:])
    ]
    return pairs + [(b, a) for a, b in pairs]


def zero_neighbors(
    directed: list[tuple[Element, Element]], universe: list[Element]
) -> list[Element]:
    """The nonzero u b w in the universe with u a w = 0, (a, b) in
    directed and u, w in the universe (universe[0] is zero).

    A nonzero x = q w, q = u b, needs the first path of q to be a prefix
    of x's, and w is then one of solve_right(q, x). That w witnesses x
    when it lies in the universe and u a w = 0, that is when its first
    path is comparable with q's second path (always, as q w is nonzero)
    but not with the second path of u a. Sets of universe positions are
    int bitmasks.
    """
    position = {x: i for i, x in enumerate(universe)}
    extending: dict[tuple, int] = {}  # positions whose first path extends the key
    equal: dict[tuple, int] = {}  # positions whose first path is the key
    for i in range(1, len(universe)):
        keys = prefix_keys(universe[i].alpha)
        equal[keys[-1]] = equal.get(keys[-1], 0) | 1 << i
        for key in keys:
            extending[key] = extending.get(key, 0) | 1 << i

    def comparable_to(p: Path) -> int:
        """Positions whose first path is a prefix or an extension of p."""
        keys = prefix_keys(p)
        mask = extending.get(keys.pop(), 0)
        for key in keys:
            mask |= equal.get(key, 0)
        return mask

    found = 0
    for a, b in directed:
        for u in universe:
            q = multiply(u, b)
            if q.is_zero:
                continue
            candidates = extending.get(path_key(q.alpha), 0) & ~found
            if not candidates:
                continue
            ua = multiply(u, a)
            witnesses = comparable_to(q.beta)
            if not ua.is_zero:
                witnesses &= ~comparable_to(ua.beta)
            if not witnesses:
                continue
            for i in positions(candidates):
                for w in solve_right(q, universe[i]):
                    j = position.get(w)
                    if j is not None and witnesses >> j & 1:
                        found |= 1 << i
                        break
    return [universe[i] for i in positions(found)]


class PrefixIndexOracle(TransitionOracle):
    """The rewrite search with the neighbours of a nonzero z found context
    by context: u a w = z needs the first path of u a to be a prefix of
    alpha, so the contexts (u a, u b), u in U, are keyed by that path. The
    right-hand contexts are the same index over the inverted pairs
    (a*, b*) and contexts w*, looked up by z*, since u a w = z exactly
    when w* a* u* = z* and U is closed under inversion. Zero is expanded
    like any other element, by the scan of zero_neighbors, and the search
    is one breadth-first search from x. No element is its own neighbour."""

    def __init__(self, g: Graph, t: CongruenceTriple, len_bound: int):
        super().__init__(g, t, len_bound)
        self.elements = bounded_elements(g, len_bound)
        self.directed = directed_pairs(g, t, len_bound)
        self._left = context_index(self.directed, self.elements)
        self._inverted = context_index(
            [(inverse(a), inverse(b)) for a, b in self.directed],
            [inverse(w) for w in self.elements],
        )
        self._zero_row: frozenset[Element] | None = None

    def neighbors(self, z: Element) -> frozenset[Element]:
        if not z.is_zero:
            return super().neighbors(z)
        if self._zero_row is None:
            self._zero_row = frozenset(zero_neighbors(self.directed, self.elements))
        return self._zero_row

    def _neighbors(self, z: Element) -> set[Element]:
        out = set(left_pass(self._left, z))
        out.update(inverse(x) for x in left_pass(self._inverted, inverse(z)))
        return {x for x in out if self._within(x) and x != z}

    def search(self, x: Element, y: Element, step_bound: int = 100_000) -> TransitionResult:
        """BFS from x for y; ``step_bound`` caps node expansions."""
        if not (self._within(x) and self._within(y)):
            return TransitionResult(False, None, 0)
        if x == y:
            return TransitionResult(True, (x,), 0)
        parent: dict[Element, Element] = {x: x}
        queue = deque([x])
        expansions = 0
        while queue and expansions < step_bound:
            z = queue.popleft()
            expansions += 1
            for nxt in self.neighbors(z):
                if nxt in parent:
                    continue
                parent[nxt] = z
                if nxt == y:
                    chain = [nxt]
                    while chain[-1] != x:
                        chain.append(parent[chain[-1]])
                    return TransitionResult(True, tuple(reversed(chain)), expansions)
                queue.append(nxt)
        return TransitionResult(False, None, expansions)
