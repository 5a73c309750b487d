"""Congruence triples (H, W, f) and the decision procedure they induce.

A triple consists of a hereditary vertex set H, a set W of index-one
vertices of G∖H, and a cycle function f assigning each cycle inside W a
positive integer or infinity. Each triple determines a congruence of the
graph inverse semigroup; the triple is kept as data and membership of a
pair (x, y) is decided directly, since the semigroup is usually infinite.

:func:`make_triple` is the one validating constructor: it names every
problem it finds in one :class:`TripleFormatError`, and it compiles the
triple once, so the result keeps the graph it was validated over and the
index-one edges of G∖H, and indexes each cycle vertex's (cycle, f-value,
offset on the cycle). :func:`enumerate_triples` yields triples compiled
the same way, one at a time, walking ``graphs.quotients`` and validating
nothing it built valid; :func:`count_triples` counts them in closed form
over the same walk and says whether the uncapped family is infinite.
Every operation taking ``(g, t)`` reads the index through
:meth:`CongruenceTriple.over`, which refuses a triple not compiled over g
or an equal graph; nothing is validated twice.

The generated congruence is the one spanned by the pairs
``(v, 0)`` for v in H, ``(e_w e_w*, w)`` for w in W with e_w the unique
edge leaving w, and ``(c^f(c), s(c))`` for cycles c inside W with finite
f(c).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Iterable, Iterator, Mapping

from .elements import (
    ZERO,
    Element,
    _element,
    idempotent_element,
    path_element,
    vertex_element,
)
from .graphs import (
    Cycle,
    Edge,
    Graph,
    Path,
    _is_prefix,
    _path,
    _read_json,
    _rotate,
    concat,
    cycle_power,
    cycles_in,
    index_one_edges,
    is_hereditary,
    make_path,
    quotients,
    vertex_path,
)

INF = math.inf

FValue = int | float  # positive int, or math.inf

_COMPILED = dict(default=None, init=False, compare=False, repr=False)  # fields _compile sets


class TripleFormatError(ValueError):
    """Raised for malformed congruence-triple data."""


def is_fvalue(x: object) -> bool:
    return x == INF or (isinstance(x, int) and not isinstance(x, bool) and x >= 1)


def divides(a: FValue, b: FValue) -> bool:
    """a | b, where every value divides infinity and only infinity
    divides infinity."""
    if b == INF:
        return True
    if a == INF:
        return False
    return b % a == 0


@dataclass(frozen=True)
class CongruenceTriple:
    """(H, W, f) with f stored on canonical cycle representatives.

    ``f`` is a tuple of (cycle, value) pairs sorted by the cycle's edge
    sequence; use :func:`make_triple` to build one from loose data. A
    special congruence (no vertex collapsing to zero) is a triple with
    empty H, and such triples double as congruence pairs (W, f).

    A triple from :func:`make_triple` or :func:`enumerate_triples` also
    carries ``graph``, the graph it was built over, ``bar_edges``, the
    index-one edges of G∖H as ``graphs.index_one_edges`` gives them, and
    ``cycle_at``, mapping each vertex v of a cycle c in f's domain to
    (c, f(c), i) with ``c.path.vertices[i] == v``, so every rotation of c
    is read off it; the decision procedure reads a vertex off those
    cycles as (None, inf, 0). None takes part in equality or hashing.
    Only such a compiled triple is usable: a raw ``CongruenceTriple(...)``
    or a ``dataclasses.replace`` copy carries none; :meth:`over` refuses it.
    """

    h: frozenset[str]
    w: frozenset[str]
    f: tuple[tuple[Cycle, FValue], ...]
    graph: Graph | None = field(**_COMPILED)
    cycle_at: Mapping[str, tuple[Cycle, FValue, int]] | None = field(**_COMPILED)
    bar_edges: Mapping[str, Edge] | None = field(**_COMPILED)

    def over(self, g: Graph) -> CongruenceTriple:
        """This triple, when it was compiled over g or an equal graph."""
        if self.graph is g or self.graph == g:
            return self
        raise TripleFormatError(
            "triple was not compiled over this graph; build it over this graph with make_triple"
        )


def make_triple(
    g: Graph,
    h: Iterable[str] = (),
    w: Iterable[str] = (),
    f: Mapping[Cycle, FValue] | Iterable[tuple[Cycle, FValue]] = (),
) -> CongruenceTriple:
    """Build and validate a triple over g, compiled for use with g. A bad
    H, like a key of f that is not a Cycle, is named alone; else every
    problem with W, then with f, is named in one TripleFormatError."""
    pairs = list(f.items() if isinstance(f, Mapping) else f)
    for c, _ in pairs:
        if not isinstance(c, Cycle):
            raise TripleFormatError(f"cycle-function key {c!r} is not a Cycle")
    t = CongruenceTriple(
        frozenset(h), frozenset(w), tuple(sorted(pairs, key=lambda kv: kv[0].path.edges))
    )
    vertices = g._vpos.keys()  # type: ignore[attr-defined]
    unknown = t.h - vertices
    if unknown:
        raise TripleFormatError(f"H contains unknown vertices {sorted(unknown)}")
    if not is_hereditary(g, t.h):
        raise TripleFormatError(f"H = {sorted(t.h)} is not hereditary")
    w_edges = index_one_edges(g, t.h)
    problems: list[str] = []
    stray = t.w & t.h | t.w - vertices
    if stray:
        problems.append(f"W contains vertices outside the quotient: {sorted(stray)}")
    bad_index = t.w - stray - w_edges.keys()
    if bad_index:
        problems.append(
            f"W vertices without index one in the quotient: {sorted(bad_index)}"
        )
    if not problems:
        found = cycles_in(g, w_edges, t.w)
        domain = [c for c, _ in t.f]
        if domain != sorted(found, key=lambda c: c.path.edges):
            ours = {c.path.edges: c for c in found}
            for c in domain:
                if ours.get(c.path.edges, c) != c:  # g's edges fix a cycle's vertices
                    problems.append(f"cycle {list(c.path.edges)} through "
                                    f"{list(c.path.vertices[:-1])} is not a cycle of this graph")
            if [c.path.edges for c in domain] != sorted(ours):
                problems.append(
                    f"cycle-function domain {[list(c.path.edges) for c in domain]} "
                    f"differs from the cycles inside W {[list(e) for e in ours]}"
                )
        for _, val in t.f:
            if not is_fvalue(val):
                problems.append(f"cycle value {val!r} is not a positive integer or inf")
    if problems:
        raise TripleFormatError("; ".join(problems))
    return _compile(g, t, w_edges)


def _compile(g: Graph, t: CongruenceTriple, bar_edges: Mapping[str, Edge]) -> CongruenceTriple:
    """Stamp a triple valid over g with g, G∖H's index-one edges and its cycle index."""
    object.__setattr__(t, "graph", g)
    object.__setattr__(t, "bar_edges", bar_edges)
    object.__setattr__(t, "cycle_at", {})
    for c, val in t.f:  # each vertex of c to (c, f(c), its offset on c)
        t.cycle_at.update(zip(c.path.vertices[:-1], zip(repeat(c), repeat(val), count())))
    return t


# ---------------------------------------------------------------------------
# The induced congruence
# ---------------------------------------------------------------------------


def _identified_power(t: CongruenceTriple, p: Path, k: int = 0) -> bool:
    """Is the closed rest of p from its k-th vertex a lap power c^m
    collapsing to its base, with c inside W and finite f(c) | m? t must
    be compiled.

    A closed path of g at a vertex of c is always a lap power of c, since
    it avoids H; the length and edge checks keep the test exact for any
    other closed path: it reads p's edges from k against m copies of c's
    edges rotated to that vertex, the one rotated power it builds.
    """
    verts, edges = p
    c, val, i = t.cycle_at.get(verts[k], (None, INF, 0))
    if val == INF:
        return False
    lap = c.path.edges
    m, rest = divmod(len(edges) - k, len(lap))
    if rest or m % int(val):
        return False
    return edges[k:] == (lap[i:] + lap[:i]) * m


def triple_generators(g: Graph, t: CongruenceTriple) -> list[tuple[Element, Element]]:
    """The generating pairs of the triple's congruence, in a fixed order."""
    t = t.over(g)
    pairs = [(vertex_element(v), ZERO) for v in g.sort_vertices(t.h)]
    for w, e in t.bar_edges.items():
        if w in t.w:
            ew = Path((e.src, e.dst), (e.id,))
            pairs.append((idempotent_element(ew), vertex_element(w)))
    for c, val in t.f:
        if val != INF:
            pairs.append((path_element(c.power(int(val))), vertex_element(c.base)))
    return pairs


def equiv(g: Graph, t: CongruenceTriple, x: Element, y: Element) -> bool:
    """Decide whether the triple's congruence relates x and y.

    After discarding the ideal of H the congruence is special, so zero is
    alone in its class. For survivors x = a b*, y = p q* with |a| <= |p|,
    relatedness forces p = a p1, and then either q extends b by some q1
    and the pair reduces to the class of the common range against p1 q1*,
    or b extends q by a nonempty b1 and the closed path p1 b1 must be a
    lap power collapsing to its base. Each prefix question is answered
    once, on offsets into the four paths: p1, q1 and b1 are never copied,
    and only p1 b1 is built.
    """
    t = t.over(g)
    # a path meeting H ends in H (H is hereditary), so an element falls
    # into the ideal of H exactly when its common range lies in H
    x_dead = x.is_zero or x.alpha.target in t.h
    y_dead = y.is_zero or y.alpha.target in t.h
    if x_dead or y_dead:
        return x_dead and y_dead
    a, b = x
    p, q = y
    if len(a.edges) > len(p.edges):
        a, b, p, q = p, q, a, b
    if not _is_prefix(a, p):
        return False
    n, kq = len(a.edges), len(q.edges)
    if len(b.edges) <= kq:  # q must be b q1: a nonempty b1 needs b longer than q
        return _is_prefix(b, q) and _vertex_class_test(t, p, n, q, len(b.edges))
    return _is_prefix(q, b) and _identified_power(
        t, _path(p.vertices[n:] + b.vertices[kq + 1 :], p.edges[n:] + b.edges[kq:])
    )


def _vertex_class_test(t: CongruenceTriple, p: Path, i: int, q: Path, j: int) -> bool:
    """Does p1 q1* lie in the class of its common source vertex, for p1
    and q1 the rests of p and q from their i-th and j-th vertices?

    The class members are exactly the idempotents r r* with every edge
    source of r in W, and r t r* / r t* r* with t a lap power collapsing
    to its base.
    """
    if len(p.edges) - i < len(q.edges) - j:
        p, i, q, j = q, j, p, i
    k = i + len(q.edges) - j  # q1 must be p1 up to p's k-th vertex; a lap power follows
    if p.vertices[i] != q.vertices[j] or p.edges[i:k] != q.edges[j:]:
        return False
    return t.w.issuperset(q.vertices[j:-1]) and (k == len(p.edges) or _identified_power(t, p, k))


def normal_form(g: Graph, t: CongruenceTriple, x: Element) -> Element:
    """A canonical class representative: equal normal forms iff related.

    The form is reached by (1) discarding the ideal of H, then repeating
    until fixed: (2) strip a common trailing edge whose source is in W,
    and (3) when the common range sits on a cycle c with finite f(c),
    replace the two sides' maximal trailing runs along c, of la and lb
    edges, by the single run (la - lb) mod f(c)|c| on the plain side.
    Edge granularity matters: the congruence can trade a partial lap on
    the starred side for its complement on the plain side. Stripping can
    expose new runs and run reduction new strippable tails, hence the
    loop; it ends because the starred path never grows and the plain side
    grows only when the starred side shrinks.

    On a cycle, (2) strips min(la, lb) edges in one step and (3) reduces
    what is left of la and lb, so a round costs O(log n) steps whatever
    the lap counts. Both runs follow c back from the common range and
    every cycle vertex is in W, so (2) edge by edge would strip the same
    edges; one slice comparison checks that they agree, and where it
    fails the edge-by-edge strip decides alone. Off the cycles that strip
    walks back along a simple W-path.
    """
    t = t.over(g)
    if x.is_zero or x.alpha.target in t.h:
        return ZERO
    a, b = x
    while True:
        c, val, _ = t.cycle_at.get(a.target, (None, INF, 0))
        if c is not None:
            la, lb = _trailing_run(t, a), _trailing_run(t, b)
            k = min(la, lb)
            if k and a.edges[-k:] == b.edges[-k:]:
                a, b, la, lb = _drop_last(a, k), _drop_last(b, k), la - k, lb - k
        verts, a_edges, b_edges, w = a.vertices, a.edges, b.edges, t.w  # read once, not per edge
        k, n = 0, min(len(a_edges), len(b_edges))
        while k < n and a_edges[-1 - k] == b_edges[-1 - k] and verts[-2 - k] in w:
            k += 1
        if k:  # the common range moved: measure again
            a, b = _drop_last(a, k), _drop_last(b, k)
            continue
        if val == INF:
            return _element(a, b)
        d = (la - lb) % (len(c) * int(val))
        if lb == 0 and la == d:
            return _element(a, b)
        a, b = _drop_last(a, la), _drop_last(b, lb)
        cv, ce = _rotate(c.path, t.cycle_at[a.target][2])  # rotated to the run's start
        m, r = divmod(d, len(c))  # the d edges along c: m laps, then r edges
        a = _path(a.vertices + cv[1:] * m + cv[1 : r + 1], a.edges + ce * m + ce[:r])


def _drop_last(p: Path, k: int) -> Path:
    return _path(p.vertices[: len(p.vertices) - k], p.edges[: len(p.edges) - k])


def _trailing_run(t: CongruenceTriple, p: Path) -> int:
    """Edges of the maximal suffix of p running along the cycle of t at
    p's target; p must survive H and end on that cycle.

    Each cycle vertex lies in W, so of its edges only the cycle edge does
    not range into H: p stays on the first cycle of t it reaches. Being on
    a cycle of t is thus monotone along p, and the run starts where it
    turns true, found by bisection. The run is the walk along the cycle
    back from p's target, so two runs to one target share the shorter.
    """
    return len(p.edges) - bisect_left(p.vertices, True, key=t.cycle_at.__contains__)


def vertex_class_members(
    g: Graph, t: CongruenceTriple, v: str, len_bound: int
) -> list[Element]:
    """All elements with both paths of length <= len_bound in the class
    of the vertex v; v must lie outside H.

    The class is γγ* for each path γ from v that leaves every vertex
    through its W-edge, and (γ c^{kf}) γ* and its inverse for k >= 1 when
    γ ends on a cycle c with finite value f. Those γ are the prefixes of
    the one walk from v along W-edges, so no two are equal, and the two
    paths of a cycle element differ in length: each member is listed once.
    """
    t = t.over(g)
    if len_bound < 0:
        raise ValueError(f"length bound {len_bound} is negative")
    if v in t.h:
        raise ValueError(f"vertex {v!r} lies in H, its class is the zero class")
    g._require_vertex(v)
    members: list[Element] = []
    gamma = vertex_path(v)
    while True:
        members.append(_element(gamma, gamma))
        c, val, i = t.cycle_at.get(gamma.target, (None, INF, 0))
        if val != INF:
            loop = _rotate(c.path, i)
            step = len(loop) * int(val)
            k = 1
            while len(gamma) + k * step <= len_bound:
                squiggle = concat(gamma, cycle_power(loop, k * int(val)))
                members += [_element(squiggle, gamma), _element(gamma, squiggle)]
                k += 1
        if len(gamma) >= len_bound or gamma.target not in t.w:
            break
        e = t.bar_edges[gamma.target]
        gamma = _path(gamma.vertices + (e.dst,), gamma.edges + (e.id,))
    members.sort(key=_element_sort_key)
    return members


def _element_sort_key(x: Element):
    return (
        len(x.alpha),
        len(x.beta),
        x.alpha.edges,
        x.beta.edges,
        x.alpha.source,
        x.beta.source,
    )


# ---------------------------------------------------------------------------
# The partial order on triples and their enumeration
# ---------------------------------------------------------------------------


def triple_leq(g: Graph, t1: CongruenceTriple, t2: CongruenceTriple) -> bool:
    """The refinement order: H1 within H2, W1 carried into W2 outside H2,
    and f2 dividing f1 on shared cycles."""
    t1, t2 = t1.over(g), t2.over(g)
    if not (t1.h <= t2.h and t1.w - t2.h <= t2.w):
        return False
    f2 = dict(t2.f)
    for c, v1 in t1.f:
        v2 = f2.get(c)
        if v2 is not None and not divides(v2, v1):
            return False
    return True


def enumerate_triples(g: Graph, f_cap: int = 4) -> Iterator[CongruenceTriple]:
    """All triples of g whose finite cycle values are <= f_cap, compiled,
    yielded one at a time; f_cap is checked at the call.

    Ordered lexicographically: hereditary sets in subset-bitmask order,
    then W in bitmask order over the index-one vertices of G∖H in graph
    order, then cycle values (1, .., f_cap, inf) per cycle, the cycle
    listed last turning fastest. A W that closes no cycle is listed once
    with the empty f. Memory stays flat however many triples there are;
    :func:`count_triples` gives their number without listing them.
    """
    _check_f_cap(f_cap)
    return _triples(g, f_cap)


def _check_f_cap(f_cap: object) -> None:
    if not isinstance(f_cap, int) or isinstance(f_cap, bool) or f_cap < 1:
        raise ValueError("f_cap must be a positive integer")


def _triples(g: Graph, f_cap: int) -> Iterator[CongruenceTriple]:
    for h, bar_edges, bar_cycles in quotients(g):
        bit = {v: 1 << i for i, v in enumerate(bar_edges)}
        # the cycles inside W are the cycles inside bar whose vertex bits W holds
        cycle_bits = [(c, sum(bit[v] for v in c.vertex_set)) for c in bar_cycles]
        for mask, w in enumerate(_subsets(list(bar_edges))):
            cycles = [c for c, bits in cycle_bits if mask & bits == bits]
            if not cycles:
                yield _compile(g, CongruenceTriple(h, w, ()), bar_edges)
                continue
            ranked = sorted(enumerate(cycles), key=lambda ic: ic[1].path.edges)
            for combo in _odometer(len(cycles), f_cap):
                f = tuple((c, combo[i]) for i, c in ranked)
                yield _compile(g, CongruenceTriple(h, w, f), bar_edges)


def _subsets(vs: list[str]) -> Iterator[frozenset[str]]:
    """The subsets of vs in bitmask order, bit i standing for vs[i]. The
    subsets of the first 8 vertices are built once, by doubling, and
    joined in turn to each subset of the rest, read off the bits of a
    counter: at most 256 sets are held, however long vs is."""
    low = [frozenset()]
    for v in vs[:8]:
        low += [w | {v} for w in low]
    yield from low
    rest = vs[8:]
    for mask in range(1, 1 << len(rest)):
        high = frozenset(v for i, v in enumerate(rest[: mask.bit_length()]) if mask >> i & 1)
        for w in low:
            yield w | high


def _odometer(k: int, f_cap: int) -> Iterator[list[FValue]]:
    """The values of k >= 1 cycles in itertools.product order over
    (1, .., f_cap, inf), stepped in place so that no range of f_cap
    values is built. The one list yielded changes at the next step."""
    combo: list[FValue] = [1] * k
    while True:
        yield combo
        i = k - 1
        while combo[i] == INF:
            combo[i] = 1
            i -= 1
            if i < 0:
                return
        combo[i] = INF if combo[i] == f_cap else combo[i] + 1


def count_triples(g: Graph, f_cap: int = 4) -> tuple[int, bool]:
    """The number of triples enumerate_triples(g, f_cap) lists, and
    whether the uncapped family is infinite, without listing them.

    Over H, let B be the index-one vertices of G∖H. The cycles inside B
    are disjoint. W meets a cycle c in one of 2^|c| sets; the whole of c
    puts c in f's domain with f_cap + 1 values, and each other set leaves
    it out, so c gives 2^|c| + f_cap choices and each vertex of B on no
    cycle gives 2. The family is infinite exactly when some c exists.
    """
    _check_f_cap(f_cap)
    count, infinite = 0, False
    for _, bar_edges, cycles in quotients(g):
        n = 1 << (len(bar_edges) - sum(len(c) for c in cycles))
        for c in cycles:
            n *= (1 << len(c)) + f_cap
        count += n
        infinite = infinite or bool(cycles)
    return count, infinite


def chain_stabilizes(g: Graph, chain: list[CongruenceTriple]) -> int:
    """1-based index where a weakly increasing chain becomes constant.

    The chain must be weakly increasing under triple_leq. Returns the
    least m with t_m equal to every later entry; m == len(chain) for a
    chain of length > 1 means no repeat was observed, so the prefix gives
    no evidence of stabilization.
    """
    if not chain:
        raise ValueError("empty chain")
    for t1, t2 in zip(chain, chain[1:]):
        if not triple_leq(g, t1, t2):
            raise ValueError("chain is not weakly increasing under triple_leq")
    k = len(chain) - 1
    while k > 0 and chain[k - 1] == chain[k]:
        k -= 1
    return k + 1


# ---------------------------------------------------------------------------
# Triple JSON
# ---------------------------------------------------------------------------


def triple_to_json(g: Graph, t: CongruenceTriple) -> dict:
    t = t.over(g)
    return {
        "H": list(g.sort_vertices(t.h)),
        "W": list(g.sort_vertices(t.w)),
        "f": [
            {"cycle": list(c.path.edges), "value": "inf" if v == INF else int(v)}
            for c, v in t.f
        ],
    }


def triple_from_json(g: Graph, data: object) -> CongruenceTriple:
    if not isinstance(data, dict):
        raise TripleFormatError("triple JSON must be an object")
    for key in ("H", "W", "f"):
        if key not in data:
            raise TripleFormatError(f"triple JSON missing key {key!r}")
    if not all(isinstance(data[k], list) for k in ("H", "W", "f")):
        raise TripleFormatError("'H', 'W' and 'f' must be arrays")
    if not all(isinstance(v, str) for k in ("H", "W") for v in data[k]):
        raise TripleFormatError("'H' and 'W' entries must be vertex-id strings")
    h = frozenset(data["H"])
    w = frozenset(data["W"])
    fmap: dict[Cycle, FValue] = {}
    for item in data["f"]:
        if not isinstance(item, dict) or not {"cycle", "value"} <= item.keys():
            raise TripleFormatError(f"malformed cycle entry {item!r}")
        cycle = item["cycle"]
        if not isinstance(cycle, list) or not all(isinstance(e, str) for e in cycle):
            raise TripleFormatError(f"cycle {cycle!r} must be an array of edge-id strings")
        try:
            cyc = Cycle.from_path(make_path(g, cycle))
        except (ValueError, KeyError) as exc:
            raise TripleFormatError(f"bad cycle {cycle!r}: {exc.args[0]}") from None
        if tuple(cycle) != cyc.path.edges:  # the file format asks for the least rotation
            raise TripleFormatError(
                f"cycle {cycle!r} is not in canonical rotation; "
                f"expected {list(cyc.path.edges)}"
            )
        raw = item["value"]
        if raw != "inf" and not (is_fvalue(raw) and isinstance(raw, int)):
            raise TripleFormatError(
                f"bad cycle value {raw!r}: expected an integer >= 1 or \"inf\""
            )
        value: FValue = INF if raw == "inf" else raw
        if cyc in fmap:
            raise TripleFormatError(f"duplicate cycle {cycle!r}")
        fmap[cyc] = value
    return make_triple(g, h, w, fmap)


def load_triple(g: Graph, path: str) -> CongruenceTriple:
    return triple_from_json(g, _read_json(path, TripleFormatError))
