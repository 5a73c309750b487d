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
from typing import Iterable, Sequence

from .congruences import INF, CongruenceTriple, make_triple, triple_generators
from .elements import (
    ZERO,
    Element,
    idempotent_element,
    multiply,
    strip_cycle_prefix,
    vertex_element,
)
from .graphs import (
    Graph,
    Path,
    concat,
    cycles_in,
    is_acyclic,
    is_prefix,
    quotient,
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

    def class_of(self, i: int) -> tuple[int, ...]:
        return self.classes[self._class_of[i]]  # type: ignore[attr-defined]

    def refines(self, other: ExplicitCongruence) -> bool:
        return all(
            other.together(cls[0], i) for cls in self.classes for i in cls[1:]
        )

    def generating_pairs(self) -> list[tuple[int, int]]:
        return [(cls[0], i) for cls in self.classes for i in cls[1:]]


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
    the quotient whose edge idempotent falls to the vertex, and f the
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
    q = quotient(g, h)
    fmap = {}
    for c in cycles_in(q, w):
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


@dataclass(frozen=True)
class TransitionResult:
    reached: bool
    chain: tuple[Element, ...] | None
    expansions: int


class TransitionOracle:
    """Breadth-first search over one-step rewrites u a w -> u b w.

    (a, b) runs over the triple's generating pairs in both orientations;
    intermediate elements, and the left/right contexts u and w scanned
    for factorizations, are capped at ``len_bound`` per path. A found
    chain certifies relatedness; exhausting the bounds proves nothing.
    """

    def __init__(self, g: Graph, t: CongruenceTriple, len_bound: int):
        self.graph = g
        self.triple = t
        self.len_bound = len_bound
        self.universe = bounded_elements(g, len_bound)
        gens = triple_generators(g, t)
        self.directed = [(a, b) for a, b in gens] + [(b, a) for a, b in gens]
        # per directed generator: contexts u with u*a nonzero, plus caches
        self._left: list[list[tuple[Element, Element, Element]]] = []
        self._right: list[list[tuple[Element, Element, Element]]] = []
        for a, b in self.directed:
            left = []
            right = []
            for u in self.universe:
                ua = multiply(u, a)
                if not ua.is_zero:
                    left.append((u, ua, multiply(u, b)))
                au = multiply(a, u)
                if not au.is_zero:
                    right.append((u, au, multiply(b, u)))
            self._left.append(left)
            self._right.append(right)
        self._adjacency: dict[Element, frozenset[Element]] = {}

    def _within(self, x: Element) -> bool:
        if x.is_zero:
            return True
        assert x.alpha is not None and x.beta is not None
        return len(x.alpha) <= self.len_bound and len(x.beta) <= self.len_bound

    def neighbors(self, z: Element) -> frozenset[Element]:
        cached = self._adjacency.get(z)
        if cached is None:
            cached = frozenset(x for x in self._neighbors(z) if self._within(x))
            self._adjacency[z] = cached
        return cached

    def _neighbors(self, z: Element):
        if z.is_zero:
            for gi, (a, b) in enumerate(self.directed):
                for u in self.universe:
                    ua = multiply(u, a)
                    ub = multiply(u, b)
                    for w in self.universe:
                        if multiply(ua, w).is_zero:
                            yield multiply(ub, w)
            return
        for gi in range(len(self.directed)):
            for u, ua, ub in self._left[gi]:
                for w in _solve_right(ua, z):
                    yield multiply(ub, w)
            for w, aw, bw in self._right[gi]:
                for u in _solve_left(aw, z):
                    yield multiply(u, bw)

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


def _solve_left(p: Element, z: Element) -> list[Element]:
    """All u with u p = z, for nonzero p and z."""
    assert p.alpha is not None and p.beta is not None
    assert z.alpha is not None and z.beta is not None
    zeta, eta = p.alpha, p.beta
    alpha, beta = z.alpha, z.beta
    out = []
    if is_prefix(eta, beta):
        xi = strip_prefix(eta, beta)
        out.append(Element(alpha, concat(zeta, xi)))
    if eta == beta:
        for k in range(len(zeta) + 1):
            xi_edges = zeta.edges[len(zeta) - k :]
            if k > len(alpha) or alpha.edges[len(alpha) - k :] != xi_edges:
                continue
            u_alpha = Path(alpha.vertices[: len(alpha) - k + 1], alpha.edges[: len(alpha) - k])
            u_beta = Path(zeta.vertices[: len(zeta) - k + 1], zeta.edges[: len(zeta) - k])
            if u_alpha.target == u_beta.target:
                out.append(Element(u_alpha, u_beta))
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Structural membership test for vertex classes
# ---------------------------------------------------------------------------


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
