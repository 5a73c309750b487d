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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .congruences import CongruenceTriple, make_triple, triple_generators
from .elements import (
    ZERO,
    Element,
    idempotent_element,
    inverse,
    multiply,
    vertex_element,
)
from .graphs import (
    Graph,
    Path,
    concat,
    cycles_in,
    index_one_edges,
    is_acyclic,
    is_prefix,
    strip_prefix,
    topological_order,
    vertex_path,
)


def all_paths(g: Graph, max_len: int | None = None) -> list[Path]:
    """Every path of g up to the length bound, ordered by length then by
    discovery; unbounded only for acyclic graphs."""
    if max_len is None:
        if not is_acyclic(g):
            raise ValueError("unbounded path enumeration needs an acyclic graph")
        max_len = len(g.edges)
    out: list[Path] = [vertex_path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e in g.out_edges(p.target):
                nxt.append(Path(p.vertices + (e.dst,), p.edges + (e.id,)))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def bounded_elements(g: Graph, len_bound: int | None = None) -> list[Element]:
    """Zero plus every element whose two paths have length <= len_bound;
    with no bound, all of I(G) for an acyclic graph."""
    paths = all_paths(g, len_bound)
    out = [ZERO]
    for a in paths:
        for b in paths:
            if a.target == b.target:
                out.append(Element(a, b))
    return out


@dataclass(frozen=True)
class FiniteSemigroup:
    """The full semigroup of a finite acyclic graph, with Cayley table.

    ``elements[0]`` is zero; ``table[i][j]`` indexes the product of
    elements i and j.
    """

    graph: Graph
    elements: tuple[Element, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {x: i for i, x in enumerate(self.elements)}
        )

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, x: Element) -> int:
        try:
            return self._index[x]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"element {x!r} is not in the materialized semigroup") from None

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def materialize(g: Graph, max_elements: int | None = None) -> FiniteSemigroup:
    """Enumerate all of I(G) for an acyclic graph and fill its table.

    With ``max_elements``, |I(G)| is counted first and a larger semigroup
    is refused before any product is taken.
    """
    order = topological_order(g)
    if len(order) != len(g.vertices):
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
    elements = bounded_elements(g)
    index = {x: i for i, x in enumerate(elements)}
    table = tuple(
        tuple(index[multiply(x, y)] for y in elements) for x in elements
    )
    return FiniteSemigroup(g, tuple(elements), table)


@dataclass(frozen=True)
class ExplicitCongruence:
    """A compatible partition of a finite semigroup's element indices.

    Classes are stored sorted, and sorted by their least member, so equal
    partitions compare equal.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        class_of: dict[int, int] = {}
        for k, cls in enumerate(self.classes):
            for i in cls:
                class_of[i] = k
        object.__setattr__(self, "_class_of", class_of)

    @classmethod
    def from_class_map(cls, class_of: Sequence[int]) -> ExplicitCongruence:
        groups: dict[int, list[int]] = {}
        for i, k in enumerate(class_of):
            groups.setdefault(k, []).append(i)
        return cls(tuple(sorted(tuple(sorted(g)) for g in groups.values())))

    def together(self, i: int, j: int) -> bool:
        return self._class_of[i] == self._class_of[j]  # type: ignore[attr-defined]

    def generating_pairs(self) -> list[tuple[int, int]]:
        return [(cls[0], i) for cls in self.classes for i in cls[1:]]


def congruence_closure(
    s: FiniteSemigroup, pairs: Iterable[tuple[Element, Element]]
) -> ExplicitCongruence:
    """Least congruence containing the pairs: union-find seeded with the
    pairs and closed under one-sided translations until fixpoint."""
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
            work.append((s.mul(z, i), s.mul(z, j)))
            work.append((s.mul(i, z), s.mul(j, z)))
    return ExplicitCongruence.from_class_map([find(i) for i in range(n)])


def enumerate_congruences(
    s: FiniteSemigroup, max_elements: int = 20
) -> list[ExplicitCongruence]:
    """All congruences: principal congruences closed under pairwise joins.

    Feasible for small tables only, hence the element-count guard.
    """
    n = len(s)
    if n > max_elements:
        raise ValueError(
            f"semigroup has {n} elements, above the bound {max_elements}"
        )
    els = s.elements
    identity = ExplicitCongruence(tuple((i,) for i in range(n)))
    found = {identity}
    for i in range(n):
        for j in range(i + 1, n):
            found.add(congruence_closure(s, [(els[i], els[j])]))
    frontier = set(found)
    while frontier:
        fresh: set[ExplicitCongruence] = set()
        for rho in frontier:
            for sigma in found:
                pairs = rho.generating_pairs() + sigma.generating_pairs()
                joined = congruence_closure(s, [(els[i], els[j]) for i, j in pairs])
                if joined not in found and joined not in fresh:
                    fresh.add(joined)
        found |= fresh
        frontier = fresh
    return sorted(found, key=lambda r: (-len(r.classes), r.classes))


def triple_of_congruence(
    g: Graph, s: FiniteSemigroup, rho: ExplicitCongruence
) -> CongruenceTriple:
    """Read (H, W, f) off an explicit congruence.

    H collects the vertices in the zero class, W the edge sources kept by
    G∖H whose edge idempotent falls to the vertex, and f the
    minimal lap exponent identified with each cycle base (vacuous here:
    acyclic graphs have no cycles).
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
    fmap = {}
    for c in cycles_in(g, {v: e for v, e in index_one_edges(g, h).items() if v in w}):
        for m in range(1, len(s) + 2):
            power_elem = Element(c.power(m), vertex_path(c.base))
            if rho.together(s.index_of(power_elem), s.index_of(vertex_element(c.base))):
                fmap[c] = m
                break
        else:
            raise RuntimeError(f"no identified power for cycle {c!r}")
    return make_triple(g, h, frozenset(w), fmap)


# ---------------------------------------------------------------------------
# Bounded rewrite search over general graphs
# ---------------------------------------------------------------------------


# (u a, u b) for the contexts u, keyed by the first path of u a
_Contexts = dict[tuple, list[tuple[Element, Element]]]


@dataclass(frozen=True)
class TransitionResult:
    reached: bool
    chain: tuple[Element, ...] | None
    expansions: int


class TransitionOracle:
    """Breadth-first search over one-step rewrites u a w -> u b w.

    (a, b) runs over the triple's generating pairs in both orientations;
    intermediate elements, and the contexts u and w, are capped at
    ``len_bound`` per path. A found chain certifies relatedness;
    exhausting the bounds proves nothing.

    One expansion of a nonzero z = (alpha, beta) touches only contexts
    that can factor it: u a w = z needs the first path of u a to be a
    prefix of alpha, so the contexts (u a, u b) are keyed by that path and
    z looks up the prefixes of alpha. The right-hand contexts are the same
    index over the inverted pairs (a*, b*), looked up by z*, since
    u a w = z exactly when w* a* u* = z*. The expansion of zero runs once
    per oracle and takes at most two products per directed pair and
    context u; the rest is prefix lookups and sets of universe positions.
    """

    def __init__(self, g: Graph, t: CongruenceTriple, len_bound: int):
        self.graph = g
        self.triple = t
        self.len_bound = len_bound
        self.universe = bounded_elements(g, len_bound)
        gens = triple_generators(g, t)
        self.directed = [(a, b) for a, b in gens] + [(b, a) for a, b in gens]
        self._left = _contexts(self.directed, self.universe)
        # w* in the universe order of w, so that neighbours are found, and
        # ties in a search broken, as by a scan of the right-hand contexts a w
        self._inverted = _contexts(
            [(inverse(a), inverse(b)) for a, b in self.directed],
            [inverse(w) for w in self.universe],
        )
        self._adjacency: dict[Element, frozenset[Element]] = {}

    def _within(self, x: Element) -> bool:
        if x.is_zero:
            return True
        assert x.alpha is not None and x.beta is not None
        return len(x.alpha) <= self.len_bound and len(x.beta) <= self.len_bound

    def neighbors(self, z: Element) -> frozenset[Element]:
        """Every u b w within the bounds with u a w = z, u and w in the universe."""
        cached = self._adjacency.get(z)
        if cached is None:
            if z.is_zero:
                cached = frozenset(self._zero_neighbors())
            else:
                cached = frozenset(x for x in self._neighbors(z) if self._within(x))
            self._adjacency[z] = cached
        return cached

    def _neighbors(self, z: Element) -> set[Element]:
        """The left pass on z, united with the left pass on z* over the
        inverted pairs, inverted back; exact because the universe is
        closed under inversion."""
        out = set(_left_pass(self._left, z))
        out.update(inverse(x) for x in _left_pass(self._inverted, inverse(z)))
        return out

    def _zero_neighbors(self) -> list[Element]:
        """The u b w in the universe with u a w = 0.

        u = 0 puts zero itself in. A nonzero x = q w, q = u b, needs the
        first path of q to be a prefix of x's, and w is then one of
        _solve_right(q, x). That w witnesses x when it lies in the
        universe and u a w = 0, that is when its first path is comparable
        with q's second path (always, as q w is nonzero) but not with the
        second path of u a. Sets of universe positions are int bitmasks.
        """
        if not self.directed:
            return []
        universe = self.universe
        position = {x: i for i, x in enumerate(universe)}
        extending: dict[tuple, int] = {}  # positions whose first path extends the key
        equal: dict[tuple, int] = {}  # positions whose first path is the key
        for i in range(1, len(universe)):
            keys = _prefix_keys(universe[i].alpha)
            equal[keys[-1]] = equal.get(keys[-1], 0) | 1 << i
            for key in keys:
                extending[key] = extending.get(key, 0) | 1 << i

        def comparable_to(p: Path) -> int:
            """Positions whose first path is a prefix or an extension of p."""
            keys = _prefix_keys(p)
            mask = extending.get(keys.pop(), 0)
            for key in keys:
                mask |= equal.get(key, 0)
            return mask

        found = 1  # universe[0] is zero, reached from u = 0
        for a, b in self.directed:
            for u in universe:
                q = multiply(u, b)
                if q.is_zero:
                    continue
                candidates = extending.get(_key(q.alpha), 0) & ~found
                if not candidates:
                    continue
                ua = multiply(u, a)
                witnesses = comparable_to(q.beta)
                if not ua.is_zero:
                    witnesses &= ~comparable_to(ua.beta)
                if not witnesses:
                    continue
                for i in _positions(candidates):
                    for w in _solve_right(q, universe[i]):
                        j = position.get(w)
                        if j is not None and witnesses >> j & 1:
                            found |= 1 << i
                            break
        return [universe[i] for i in _positions(found)]

    def search(
        self, x: Element, y: Element, step_bound: int = 100_000
    ) -> TransitionResult:
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


def _contexts(pairs: list[tuple[Element, Element]], contexts: list[Element]) -> _Contexts:
    """The nonzero (u a, u b), u in contexts, keyed by the first path of u a."""
    index: _Contexts = {}
    for a, b in pairs:
        for u in contexts:
            ua = multiply(u, a)
            if not ua.is_zero:
                index.setdefault(_key(ua.alpha), []).append((ua, multiply(u, b)))
    return index


def _left_pass(index: _Contexts, z: Element) -> Iterator[Element]:
    """Each u b w with (u a, u b) in the index and u a w = z, for nonzero z."""
    assert z.alpha is not None
    for key in _prefix_keys(z.alpha):
        for ua, ub in index.get(key, ()):
            for w in _solve_right(ua, z):
                yield multiply(ub, w)


def _solve_right(q: Element, z: Element) -> list[Element]:
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


def _key(p: Path) -> tuple:
    """A path as (source vertex, edge ids), cheaper to hash than the Path."""
    return (p.source, p.edges)


def _prefix_keys(p: Path) -> list[tuple]:
    """Keys of the prefixes of p, shortest first, p's own last."""
    return [(p.source, p.edges[:k]) for k in range(len(p.edges) + 1)]


def _positions(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
