"""Independent ground truth at desk scale.

For finite acyclic graphs the whole semigroup is materialized as an
element list plus a Cayley table, congruences are enumerated by closing
principal congruences under joins, and a triple is read off any explicit
congruence. For general graphs a breadth-first search over elementary
rewrite steps (replace one generating-pair side inside a product by the
other) certifies relatedness within explicit bounds; failure to reach is
inconclusive by design.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .congruences import INF, CongruenceTriple, make_triple
from .elements import (
    ZERO,
    Element,
    _element,
    idempotent_element,
    multiply,
    path_element,
    vertex_element,
)
from .graphs import (
    Graph,
    Path,
    _path,
    _rotate,
    concat,
    topological_order,
    vertex_path,
)


def all_paths(g: Graph, max_len: int) -> list[Path]:
    """Every path of g with at most max_len edges, ordered by length then
    by discovery; on an acyclic graph, a bound of len(g.edges) gives all."""
    if max_len < 0:
        raise ValueError(f"length bound {max_len} is negative")
    out: list[Path] = [vertex_path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e in g.out_edges(p.target):
                nxt.append(_path(p.vertices + (e.dst,), p.edges + (e.id,)))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def bounded_elements(g: Graph, len_bound: int) -> list[Element]:
    """Zero plus every element whose two paths have length <= len_bound,
    ordered by alpha and then by beta, each in ``all_paths`` order. The
    paths are bucketed by target once, so the cost is linear in the paths
    plus the elements listed."""
    paths = all_paths(g, len_bound)
    ending: dict[str, list[Path]] = {}
    for p in paths:
        ending.setdefault(p.vertices[-1], []).append(p)
    return [ZERO] + [_element(a, b) for a in paths for b in ending[a.vertices[-1]]]


class FiniteSemigroup(namedtuple("FiniteSemigroup", "elements table generators positions")):
    """The full semigroup of a finite acyclic graph, with Cayley table.

    ``elements[0]`` is zero; ``table[i][j]`` indexes the product of
    elements i and j. ``generators`` indexes the vertices, the edges
    e|@r(e) and the ghosts @r(e)|e, of which every nonzero element is a
    product. ``positions`` maps each element to its position.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, x: Element) -> int:
        try:
            return self.positions[x]
        except KeyError:
            raise KeyError(f"element {x!r} is not in the materialized semigroup") from None


def materialize(g: Graph, max_elements: int | None = None) -> FiniteSemigroup:
    """Enumerate all of I(G) for an acyclic graph and fill its table.

    With ``max_elements``, |I(G)| is counted first and a larger semigroup
    is refused before any product is taken.
    """
    order = topological_order(g)
    if order is None:
        raise ValueError("only acyclic graphs have finitely many elements")
    if max_elements is not None:
        # |I(G)| = 1 + sum over v of N(v)^2, N(v) = number of paths ending at v
        ending = {v: 1 for v in order}
        for v in order:
            for e in g.out_edges(v):
                ending[e.dst] += ending[v]
        size = 1 + sum(n * n for n in ending.values())
        if size > max_elements:
            raise ValueError(f"semigroup has {size} elements, above the bound {max_elements}")
    elements = bounded_elements(g, len(g.edges))
    positions = {x: i for i, x in enumerate(elements)}
    table = tuple(
        tuple(positions[multiply(x, y)] for y in elements) for x in elements
    )
    generators = [vertex_element(v) for v in g.vertices]
    for e in g.edges:
        p = _path((e.src, e.dst), (e.id,))
        generators += [path_element(p), _element(vertex_path(e.dst), p)]
    return FiniteSemigroup(tuple(elements), table, tuple(positions[x] for x in generators), positions)


class ExplicitCongruence(namedtuple("ExplicitCongruence", "least")):
    """A compatible partition of a finite semigroup's element indices,
    stored as ``least``, the least member of each element's class, so
    equal partitions compare equal.
    """

    __slots__ = ()

    @classmethod
    def from_class_map(cls, class_of: Sequence[int]) -> ExplicitCongruence:
        least: dict[int, int] = {}
        return cls(tuple(least.setdefault(k, i) for i, k in enumerate(class_of)))

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes, each sorted, in the order of their least members."""
        groups: dict[int, list[int]] = {}
        for i, r in enumerate(self.least):
            groups.setdefault(r, []).append(i)
        return tuple(map(tuple, groups.values()))

    def together(self, i: int, j: int) -> bool:
        return self.least[i] == self.least[j]

    def generating_pairs(self) -> list[tuple[int, int]]:
        return [(r, i) for i, r in enumerate(self.least) if r != i]


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def congruence_closure(
    s: FiniteSemigroup, pairs: Iterable[tuple[Element, Element]]
) -> ExplicitCongruence:
    """Least congruence containing the pairs: union-find seeded with the
    pairs, each merged pair translated on both sides by the generators
    until fixpoint. Every element is a product of generators, so a
    partition compatible with them is compatible with all."""
    n = len(s)
    parent = list(range(n))
    table, generators = s.table, s.generators
    work = [(s.index_of(a), s.index_of(b)) for a, b in pairs]
    while work:
        i, j = work.pop()
        ri, rj = _find(parent, i), _find(parent, j)
        if ri == rj:
            continue
        parent[rj] = ri
        row_i, row_j = table[i], table[j]
        for z in generators:
            row_z = table[z]
            if row_z[i] != row_z[j]:
                work.append((row_z[i], row_z[j]))
            if row_i[z] != row_j[z]:
                work.append((row_i[z], row_j[z]))
    return ExplicitCongruence.from_class_map([_find(parent, i) for i in range(n)])


def _join(n: int, rho: ExplicitCongruence, sigma: ExplicitCongruence) -> ExplicitCongruence:
    """The join of two congruences on n elements: the equivalence their
    classes generate, which is already a congruence."""
    parent = list(range(n))
    for i, j in rho.generating_pairs() + sigma.generating_pairs():
        parent[_find(parent, j)] = _find(parent, i)
    return ExplicitCongruence.from_class_map([_find(parent, i) for i in range(n)])


def enumerate_congruences(s: FiniteSemigroup) -> list[ExplicitCongruence]:
    """All congruences: the principal congruences and their joins.

    Every congruence is the join of the principal congruences of its
    pairs, so each one found is joined only with the P principal ones:
    O(C·P) joins for C congruences. Feasible for small tables only;
    ``materialize`` bounds their size, but not C, which is 2ⁿ on an
    edgeless graph of n vertices.
    """
    n = len(s)
    els = s.elements
    principal = {
        congruence_closure(s, [(els[i], els[j])]) for i in range(n) for j in range(i + 1, n)
    }
    found = principal | {ExplicitCongruence(tuple(range(n)))}
    frontier = principal
    while frontier:
        frontier = {_join(n, rho, sigma) for rho in frontier for sigma in principal} - found
        found |= frontier
    return sorted(found, key=lambda r: (-len(r.classes), r.classes))


def triple_of_congruence(
    g: Graph, s: FiniteSemigroup, rho: ExplicitCongruence
) -> CongruenceTriple:
    """Read (H, W, f) off an explicit congruence.

    H collects the vertices in the zero class and W the edge sources kept
    by G∖H whose edge idempotent falls to the vertex. f is empty:
    ``materialize`` admits only acyclic graphs, which have no cycles.
    """
    zero = s.index_of(ZERO)
    h = frozenset(
        v for v in g.vertices if rho.together(zero, s.index_of(vertex_element(v)))
    )
    w = set()
    for e in g.edges:
        if e.dst in h or e.src in h:
            continue
        ee = idempotent_element(Path((e.src, e.dst), (e.id,)))
        if rho.together(s.index_of(ee), s.index_of(vertex_element(e.src))):
            w.add(e.src)
    return make_triple(g, h, frozenset(w))


def brute_force(
    g: Graph, max_elements: int | None
) -> tuple[FiniteSemigroup, list[tuple[ExplicitCongruence, CongruenceTriple]]]:
    """The brute-force side of the bijection: I(G) materialized under the
    size bound, each of its congruences and the triple read off it."""
    s = materialize(g, max_elements)
    return s, [(rho, triple_of_congruence(g, s, rho)) for rho in enumerate_congruences(s)]


# ---------------------------------------------------------------------------
# Bounded rewrite search over general graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionResult:
    reached: bool
    chain: tuple[Element, ...] | None
    expansions: int


class TransitionOracle:
    """Breadth-first search over one-step rewrites u a w -> u b w.

    (a, b) runs over the triple's generating pairs (v, 0) for v in H,
    (e e*, s(e)) for each W-edge e and (c^f, s(c)) for each finite
    f-value, in both orientations;
    u or w runs over the universe U of elements whose paths have at most
    ``len_bound`` edges, the other context over all of I(G), and the
    intermediate elements are capped at ``len_bound`` per path. A found
    chain certifies relatedness; exhausting the bounds proves nothing.

    A nonzero z = alpha beta* is a walk, alpha forward and then beta back.
    Each pair has a vertex s on one side, and u s w = z splits the walk at
    a vertex x, with u = (walk up to x) rho* and w = rho (rest of walk)
    for a path rho from s to x; for z within the bounds, u or w lies in U
    exactly when rho has at most ``len_bound`` edges (x is within reach
    of s). So the neighbours of z are read off the sites of its walk:

    - (v, 0) gives 0 when the walk meets a vertex within reach of v. H is
      hereditary, so that vertex is in H, and so is the turn, where alpha
      meets beta: 0 is a neighbour exactly when the turn lies in H;
    - (e e*, s) gives 0 when the walk meets a vertex within reach of s
      through an edge other than e, and z itself through e, which is no
      neighbour. s has index one in G∖H, so that other edge ranges into H
      and (v, 0) gives the same 0. Otherwise the pair acts only at the
      turn: alpha beta* -> alpha e (beta e)* when the turn is s, and
      alpha' e (beta' e)* -> alpha' beta'*;
    - (s, c^f) inserts c^f, rotated to start at x, into the walk at each
      cycle vertex x within reach of s along the cycle, and (c^f, s) its
      inverse; an insertion may cancel to 0. Either pair gives 0 when the
      walk meets a vertex within reach of s off the cycle, again through
      an edge into H.

    A vertex lies on at most one cycle of f's domain, so one pass over
    the walk finds every cycle site, and each site builds its rewrite
    once, after its path lengths pass the bound.
    A power longer than 2 * ``len_bound`` is stood in by the least power
    of its cycle that is: no nonzero insertion of either fits the bound,
    and whether one is zero depends on its first ``len_bound`` + 1 edges.

    Zero is never expanded. The same contexts serve both directions of a
    rewrite, so x is a neighbour of 0 exactly when 0 is one of x. A search
    runs from its nonzero end until it meets the other end or 0; when it
    meets 0 first, a second search runs from the other end for 0, and the
    two chains join through 0.
    """

    def __init__(self, g: Graph, t: CongruenceTriple, len_bound: int):
        t = t.over(g)
        if len_bound < 0:
            raise ValueError(f"length bound {len_bound} is negative")
        self.graph = g
        self.len_bound = len_bound
        self._h = t.h
        self._turns = [  # the W-edges e of the pairs (e e*, s(e))
            _path((v, e.dst), (e.id,)) for v, e in t.bar_edges.items() if v in t.w
        ]
        # for each cycle vertex x that a site can use, on the cycle P of a pair
        # (P, s): the length of P's cycle, x's distance from s along it, and P
        # rotated to start at x; the cycles of f's domain share no vertex
        self._laps: dict[str, tuple[int, int, Path]] = {}
        for c, val in t.f:
            if val == INF:
                continue
            k = len(c)
            p = c.power(val if val * k <= 2 * len_bound else 2 * len_bound // k + 1)
            for d in range(k):
                if d <= len_bound or k - d <= len_bound:
                    self._laps[p.vertices[d]] = (k, d, _rotate(p, d))
        self._adjacency: dict[Element, frozenset[Element]] = {}

    @property
    def universe(self) -> list[Element]:
        """U, listed afresh on every read. No search reads it; it is kept
        because the ``certify`` workload of perfbench reports its length."""
        return bounded_elements(self.graph, self.len_bound)

    def _within(self, x: Element) -> bool:
        if x.is_zero:
            return True
        return len(x.alpha.edges) <= self.len_bound and len(x.beta.edges) <= self.len_bound

    def neighbors(self, z: Element) -> frozenset[Element]:
        """Every u b w != z within the bounds with (a, b) a generating
        pair in either orientation, u a w = z, and u or w in the universe,
        for nonzero z within the bounds. A cached z costs one dict lookup:
        z is checked to be nonzero and within the bounds only on a miss,
        since every cached node passed both checks."""
        cached = self._adjacency.get(z)
        if cached is None:
            if z.is_zero:
                raise ValueError("0 is never expanded")
            if not self._within(z):
                raise ValueError(f"{z!r} exceeds the length bound {self.len_bound}")
            cached = frozenset(self._neighbors(z))
            self._adjacency[z] = cached
        return cached

    def _neighbors(self, z: Element) -> set[Element]:
        """The rewrites of a nonzero z, site by site along its walk."""
        alpha, beta = z
        n, m, bound = len(alpha.edges), len(beta.edges), self.len_bound
        walk = alpha.vertices + beta.vertices[-2::-1]  # the vertex at each site
        turn = walk[n]
        out: set[Element] = set()
        if turn in self._h:
            out.add(ZERO)
        for e in self._turns:
            if turn == e.vertices[0] and n < bound and m < bound:
                out.add(_element(concat(alpha, e), concat(beta, e)))
            if alpha.edges[-1:] == beta.edges[-1:] == e.edges:
                out.add(_element(
                    _path(alpha.vertices[:-1], alpha.edges[:-1]),
                    _path(beta.vertices[:-1], beta.edges[:-1]),
                ))
        for p, x in enumerate(walk):
            site = self._laps.get(x)
            if site is None:
                continue
            k, d, r = site
            if d <= bound and (y := _splice(alpha, beta, p, r, bound, False)) is not None:
                out.add(y)
            # r* at p: past the turn when a detour of d edges fits; along
            # alpha when it fits beside P or the rest of alpha, or when x
            # is s or alpha runs on along the cycle back to s
            if p > n:
                fits = d <= bound
            else:
                fits = (
                    d == 0
                    or alpha.edges[p : p + k - d] == r.edges[: k - d]
                    or d <= bound - min(len(r.edges), n - p)
                )
            if fits and (y := _splice(beta, alpha, n + m - p, r, bound, True)) is not None:
                out.add(y)
        return out

    def search(
        self, x: Element, y: Element, step_bound: int = 100_000
    ) -> TransitionResult:
        """BFS from the nonzero end, joined through 0 when it meets 0 first;
        ``step_bound`` caps the node expansions of both searches."""
        if not (self._within(x) and self._within(y)):
            return TransitionResult(False, None, 0)
        if x == y:
            return TransitionResult(True, (x,), 0)
        flip = x.is_zero
        if flip:
            x, y = y, x
        chain, expansions = self._bfs(x, y, step_bound)
        if chain is not None and chain[-1].is_zero and not y.is_zero:  # met 0 first
            back, more = self._bfs(y, ZERO, step_bound - expansions)
            expansions += more
            chain = None if back is None else chain + back[-2::-1]
        if flip and chain is not None:
            chain = chain[::-1]
        return TransitionResult(chain is not None, chain, expansions)

    def _bfs(
        self, x: Element, y: Element, step_bound: int
    ) -> tuple[tuple[Element, ...] | None, int]:
        """The chain from nonzero x to y or 0, whichever comes first, or
        None, and the expansions made."""
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
                if nxt == y or nxt.is_zero:
                    chain = [nxt]
                    while chain[-1] is not x:  # x, its own parent, is the one root
                        chain.append(parent[chain[-1]])
                    return tuple(reversed(chain)), expansions
                queue.append(nxt)
        return None, expansions


def _splice(
    a: Path, b: Path, p: int, r: Path, len_bound: int, flip: bool
) -> Element | None:
    """The walk a b* with the closed path r inserted at its p-th vertex,
    as an element (with its paths swapped when flip), or None when a path
    of it exceeds len_bound. Past the turn, r cancels against the part of
    b walked back just before."""
    n, m, size = len(a.edges), len(b.edges), len(r.edges)
    if p <= n:
        if n + size > len_bound:
            return None
        a = _path(a.vertices[:p] + r.vertices + a.vertices[p + 1 :], a.edges[:p] + r.edges + a.edges[p:])
    else:
        cut = p - n  # edges of b walked back just before the p-th vertex
        j = m - cut
        if cut <= size:
            if r.edges[:cut] != b.edges[j:]:
                return ZERO
            if n + size - cut > len_bound:
                return None
            a = _path(a.vertices + r.vertices[cut + 1 :], a.edges + r.edges[cut:])
            b = _path(b.vertices[: j + 1], b.edges[:j])
        else:
            if b.edges[j : j + size] != r.edges:
                return ZERO
            b = _path(b.vertices[: j + 1] + b.vertices[j + size + 1 :], b.edges[:j] + b.edges[j + size :])
    return _element(b, a) if flip else _element(a, b)
