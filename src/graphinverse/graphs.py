"""Directed multigraphs and the graph-side constructions used by the
congruence classification: hereditary vertex sets H, the index-one
vertices of G∖H with their one edge, and the cycles those edges close.

G∖H (delete H and every edge ranging into it) is never built as a
graph: :func:`index_one_edges` and :func:`cycles_in` read it off G, and
:func:`quotients` yields each H with both.

Graphs are immutable after construction and iterate in insertion order,
so every enumeration in this package is reproducible.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, count
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

RESERVED_ID_CHARS = set(".|@*")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class GraphFormatError(ValueError):
    """Raised for malformed graph data (construction or JSON)."""


def _check_id(kind: str, ident: object) -> str:
    if not isinstance(ident, str) or not ident:
        raise GraphFormatError(f"{kind} id must be a nonempty string, got {ident!r}")
    bad = RESERVED_ID_CHARS.intersection(ident)
    if bad:
        raise GraphFormatError(
            f"{kind} id {ident!r} uses reserved characters {sorted(bad)}"
        )
    if ident != ident.strip():  # element literals are read stripped
        raise GraphFormatError(f"{kind} id {ident!r} has leading or trailing whitespace")
    return ident


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    """A directed multigraph with stable string identifiers.

    Parallel edges and loops are allowed; edges are distinguished by id,
    never by their endpoints.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen_v: set[str] = set()
        for v in self.vertices:
            _check_id("vertex", v)
            if v in seen_v:
                raise GraphFormatError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        edge_map: dict[str, Edge] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            _check_id("edge", e.id)
            if e.id in edge_map:
                raise GraphFormatError(f"duplicate edge id {e.id!r}")
            if e.src not in seen_v or e.dst not in seen_v:
                raise GraphFormatError(f"edge {e.id!r} has undeclared endpoint")
            edge_map[e.id] = e
            out[e.src].append(e)
        object.__setattr__(self, "_edge_map", edge_map)
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_vpos", {v: i for i, v in enumerate(self.vertices)})

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Graph:
        return cls(tuple(vertices), tuple(Edge(*e) for e in edges))

    def has_vertex(self, v: str) -> bool:
        return v in self._vpos  # type: ignore[attr-defined]

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown vertex id {v!r}") from None

    def sort_vertices(self, vs: Iterable[str]) -> tuple[str, ...]:
        """Order a vertex collection by this graph's insertion order."""
        pos = self._vpos  # type: ignore[attr-defined]
        return tuple(sorted(vs, key=pos.__getitem__))

    def _require_vertex(self, v: str) -> None:
        self.out_edges(v)  # raises KeyError for an unknown vertex


# ---------------------------------------------------------------------------
# Paths and cycles
# ---------------------------------------------------------------------------


class Path(namedtuple("Path", "vertices edges")):
    """A (possibly empty) composable edge sequence.

    ``vertices`` lists the visited vertices, so ``len(vertices) ==
    len(edges) + 1``; a length-0 path is a single vertex. Paths are
    self-contained: once built against a graph they can be inspected and
    combined without it. A path is the tuple (vertices, edges), hashed and
    compared in C, yet equal to no bare tuple nor to a tuple of another type.
    """

    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], edges: tuple[str, ...]) -> Path:
        if len(vertices) != len(edges) + 1:
            raise ValueError("path vertex/edge counts are inconsistent")
        return tuple.__new__(cls, (vertices, edges))

    def __eq__(self, other: object) -> bool:
        return type(other) is Path and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not Path or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def vertex_set(self) -> frozenset[str]:
        """Sources of the edges; empty for a length-0 path."""
        return frozenset(self.vertices[:-1])

    @property
    def is_closed(self) -> bool:
        return self.source == self.target

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        if not self.edges:
            return f"@{self.source}"
        return ".".join(self.edges)


def _path(vertices: tuple[str, ...], edges: tuple[str, ...]) -> Path:
    """Path(vertices, edges) unchecked, for a result correct by construction."""
    return tuple.__new__(Path, (vertices, edges))


def vertex_path(v: str) -> Path:
    """The length-0 path sitting at v."""
    return _path((v,), ())


def make_path(g: Graph, edge_ids: Iterable[str], source: str | None = None) -> Path:
    """Build a validated path of g from an edge-id sequence.

    With no edges a source vertex is required and the result is the
    length-0 path there.
    """
    ids = tuple(edge_ids)
    if not ids:
        if source is None:
            raise ValueError("a length-0 path needs an explicit source vertex")
        g._require_vertex(source)
        return vertex_path(source)
    edge_map = g._edge_map  # type: ignore[attr-defined]
    try:
        edges = [edge_map[i] for i in ids]
    except KeyError as exc:
        raise KeyError(f"unknown edge id {exc.args[0]!r}") from None
    if source is not None and edges[0].src != source:
        raise ValueError(f"path source {source!r} does not match first edge {ids[0]!r}")
    verts = [edges[0].src]
    for k, e in enumerate(edges):
        if e.src != verts[k]:
            raise ValueError(f"edges {ids[k - 1]!r} and {ids[k]!r} do not compose")
        verts.append(e.dst)
    return _path(tuple(verts), ids)


def concat(p: Path, q: Path) -> Path:
    if p.target != q.source:
        raise ValueError(f"paths do not compose: {p!r} ends at {p.target!r}, "
                         f"{q!r} starts at {q.source!r}")
    return _path(p.vertices + q.vertices[1:], p.edges + q.edges)


def _is_prefix(p: Path, q: Path) -> bool:
    """Is p a prefix of q? One comparison, over p's length."""
    return p.vertices[0] == q.vertices[0] and q.edges[: len(p.edges)] == p.edges


@dataclass(frozen=True)
class Cycle:
    """A cycle, stored in its canonical rotation whichever rotation built it.

    The canonical rotation is the one whose edge-id sequence is
    lexicographically least, so two cycles are cyclic permutations of each
    other exactly when they are equal. Data attached to a cycle (such as
    cycle-function values) is therefore rotation-invariant by construction.
    A cycle's body vertices are distinct, hence so are its edges, and the
    least rotation is the one starting at the least edge id.
    """

    path: Path

    def __post_init__(self) -> None:
        p = self.path
        if len(p) < 1 or not p.is_closed:
            raise ValueError(f"not a closed nonempty path: {p!r}")
        body = p.vertices[:-1]
        if len(set(body)) != len(body):
            raise ValueError(f"repeated source vertex in cycle candidate {p!r}")
        object.__setattr__(self, "path", _rotate(p, p.edges.index(min(p.edges))))

    @classmethod
    def from_path(cls, p: Path) -> Cycle:
        """The cycle of any rotation p: the same as ``Cycle(p)``."""
        return cls(p)

    @property
    def base(self) -> str:
        return self.path.source

    @property
    def vertex_set(self) -> frozenset[str]:
        return self.path.vertex_set

    def __len__(self) -> int:
        return len(self.path)

    def power(self, m: int) -> Path:
        """The closed path tracing this cycle m times from its base."""
        return cycle_power(self.path, m)

    def __repr__(self) -> str:
        return f"<cycle {self.path!r}>"


def _rotate(p: Path, k: int) -> Path:
    if k == 0:
        return p
    return _path(p.vertices[k:] + p.vertices[1 : k + 1], p.edges[k:] + p.edges[:k])


def cycle_power(loop: Path, m: int) -> Path:
    """The closed path tracing loop m times from its source."""
    if not loop.is_closed:
        raise ValueError(f"not a closed path: {loop!r}")
    if m < 0:
        raise ValueError("negative cycle power")
    return _path(loop.vertices[:1] + loop.vertices[1:] * m, loop.edges * m)


# ---------------------------------------------------------------------------
# Hereditary subsets and the index-one edges of G∖H
# ---------------------------------------------------------------------------


def is_hereditary(g: Graph, h: Iterable[str]) -> bool:
    """True iff no edge leaves h: s(e) in h implies r(e) in h."""
    hs = set(h)
    for v in hs:
        g._require_vertex(v)
    return all(e.dst in hs for v in hs for e in g.out_edges(v))


def quotients(g: Graph) -> Iterator[tuple[frozenset[str], dict[str, Edge], list[Cycle]]]:
    """Each hereditary set H with :func:`index_one_edges` and :func:`cycles_in`
    of G∖H, one H at a time, in subset-bitmask order over the vertex tuple.

    The sets are the forward-closed sets of the condensation, listed
    without a scan over all vertex subsets. Vertices are decided from the
    highest index down, "exclude" before "include": including v adds
    every vertex v reaches, and excluding v rules out every vertex that
    reaches v. A vertex already ruled in or out is skipped, so every
    branch ends in a set and the work is O(n) per set after one SCC pass.
    """
    reach, coreach = _reach_masks(g)
    everything = (1 << len(g.vertices)) - 1
    todo = [(0, 0)]  # (ruled in, ruled out)
    while todo:
        ruled_in, ruled_out = todo.pop()
        free = everything & ~(ruled_in | ruled_out)
        if not free:
            # byte i is 1 exactly when vertex i is ruled in
            bits = bin(ruled_in)[:1:-1].encode().translate(_BIT_BYTES)
            h = frozenset(compress(g.vertices, bits))
            bar_edges = index_one_edges(g, h)
            yield h, bar_edges, cycles_in(g, bar_edges)
            continue
        v = free.bit_length() - 1
        todo.append((ruled_in | reach[v], ruled_out))
        todo.append((ruled_in, ruled_out | coreach[v]))  # pushed last, explored first


def index_one_edges(g: Graph, h: Iterable[str] = ()) -> dict[str, Edge]:
    """The index-one vertices of G∖H with their one edge: each vertex
    outside the hereditary set h with exactly one edge not ranging into
    h, mapped to that edge, in graph order."""
    hs = frozenset(h)
    w_edges: dict[str, Edge] = {}
    for v, out in g._out.items():  # type: ignore[attr-defined]
        if v not in hs:
            kept = None
            for e in out:
                if e.dst not in hs:
                    if kept is not None:
                        break  # a second kept edge: index two or more
                    kept = e
            else:
                if kept is not None:
                    w_edges[v] = kept
    return w_edges


def cycles_in(g: Graph, w_edges: Mapping[str, Edge], w: Collection[str] | None = None) -> list[Cycle]:
    """Canonical representatives of the cycles that the edges of w_edges
    close inside W, ordered by each cycle's earliest vertex in graph order.

    w_edges maps vertices to their one edge in G∖H, as
    :func:`index_one_edges` gives it, and W is w, a subset of its keys,
    or all of them; the cycles found are then pairwise disjoint and
    no-exit in G∖H. Each vertex of W has one successor, so one walk from
    each vertex no earlier walk reached visits every vertex of W once; a
    cycle's vertices and edges are read off only when a walk closes it.
    """
    pos = g._vpos  # type: ignore[attr-defined]
    within = w_edges if w is None else w
    walk_of: dict[str, str] = {}
    found: list[tuple[int, Cycle]] = []
    for start in within:
        if start in walk_of:
            continue
        u = start
        while u in within and u not in walk_of:
            walk_of[u] = start
            u = w_edges[u].dst
        if walk_of.get(u) == start:  # this walk closed a new cycle at u
            verts, v = [u], u
            while (v := w_edges[v].dst) != u:
                verts.append(v)
            c = Cycle.from_path(_path(tuple(verts) + (u,), tuple([w_edges[v].id for v in verts])))
            found.append((min(map(pos.__getitem__, verts)), c))
    found.sort(key=lambda rc: rc[0])
    return [c for _, c in found]


# ---------------------------------------------------------------------------
# Global predicates
# ---------------------------------------------------------------------------


def _strong_components(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Tarjan's strongly connected components (Tarjan 1972), without
    recursion, over vertex indices.

    Returns the successor lists and the components in the order the pass
    completes them, a reverse topological order of the condensation:
    each component comes after every component it has an edge into.
    """
    pos = g._vpos  # type: ignore[attr-defined]
    succ = [[pos[e.dst] for e in g.out_edges(v)] for v in g.vertices]
    order = [-1] * len(succ)
    low = [0] * len(succ)
    at = [-1] * len(succ)  # position on the stack, -1 when off it
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []
    components: list[list[int]] = []
    clock = count()

    def enter(v: int) -> None:
        order[v] = low[v] = next(clock)
        at[v] = len(stack)
        stack.append(v)
        work.append((v, iter(succ[v])))

    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        enter(root)
        while work:
            v, successors = work[-1]
            for u in successors:
                if order[u] < 0:
                    enter(u)
                    break
                if at[u] >= 0:
                    low[v] = min(low[v], order[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    component = stack[at[v]:]
                    del stack[at[v]:]
                    for u in component:
                        at[u] = -1
                    components.append(component)
    return succ, components


def _reach_masks(g: Graph) -> tuple[list[int], list[int]]:
    """For each vertex index, the bitmasks of the vertex indices it
    reaches and of those reaching it, itself included in both."""
    succ, components = _strong_components(g)
    pred: list[list[int]] = [[] for _ in succ]
    for v, us in enumerate(succ):
        for u in us:
            pred[u].append(v)
    return _closure_masks(succ, components), _closure_masks(pred, components[::-1])


def _closure_masks(adj: list[list[int]], components: list[list[int]]) -> list[int]:
    """Each vertex's component bits ORed with the masks of its neighbours'
    components; every component must come after those it has an edge into."""
    masks = [0] * len(adj)
    for component in components:
        mask = sum(1 << v for v in component)
        for v in component:
            for u in adj[v]:
                mask |= masks[u]  # still 0 inside this component
        for v in component:
            masks[v] = mask
    return masks


def is_strongly_connected(g: Graph) -> bool:
    """Every ordered vertex pair joined by a path (empty graph: true)."""
    return len(_strong_components(g)[1]) <= 1


def topological_order(g: Graph) -> list[str] | None:
    """The vertices with every edge running forward, read off the
    condensation; None when g has a directed cycle, that is a strong
    component of two or more vertices or a loop."""
    succ, components = _strong_components(g)
    if any(len(c) > 1 or c[0] in succ[c[0]] for c in components):
        return None
    return [g.vertices[c[0]] for c in reversed(components)]


def is_acyclic(g: Graph) -> bool:
    """No directed cycle (so the path set, and hence I(G), is finite)."""
    return topological_order(g) is not None


def is_congruence_free_graph(g: Graph) -> bool:
    """Strongly connected with no index-one vertex (nonempty graph)."""
    if not g.vertices:
        raise ValueError("predicate needs at least one vertex")
    return is_strongly_connected(g) and not index_one_edges(g)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
    }


def graph_from_json(data: object) -> Graph:
    if not isinstance(data, dict):
        raise GraphFormatError("graph JSON must be an object")
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as k:
        raise GraphFormatError(f"graph JSON missing key {k}") from None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    triples = []
    for item in edges:
        if not isinstance(item, dict) or not {"id", "src", "dst"} <= item.keys():
            raise GraphFormatError(f"malformed edge entry {item!r}")
        if not all(isinstance(item[k], str) for k in ("id", "src", "dst")):
            raise GraphFormatError(f"edge entry {item!r}: 'id', 'src' and 'dst' must be strings")
        triples.append((item["id"], item["src"], item["dst"]))
    return Graph.of(vertices, triples)


def _read_json(path: str, error: type[ValueError]) -> object:
    """The JSON value in the file at path; invalid JSON raises error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise error(f"invalid JSON in {path}: {exc}") from None


def load_graph(path: str) -> Graph:
    return graph_from_json(_read_json(path, GraphFormatError))


def _dot_id(ident: str) -> str:
    """A DOT double-quoted string: ids may hold quotes and backslashes."""
    return '"' + ident.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    lines = ["digraph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for e in g.edges:
        lines.append(f"  {_dot_id(e.src)} -> {_dot_id(e.dst)} [label={_dot_id(e.id)}];")
    lines.append("}")
    return "\n".join(lines)
