from __future__ import annotations

import json
import random
import re
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinverse.graphs import (
    _is_prefix,
    _reach_masks,
    Cycle,
    Edge,
    Graph,
    GraphFormatError,
    Path,
    concat,
    cycle_power,
    cycles_in,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    index_one_edges,
    is_acyclic,
    is_congruence_free_graph,
    is_hereditary,
    is_strongly_connected,
    make_path,
    quotients,
    topological_order,
    vertex_path,
)
from graphinverse.congruences import make_triple
from graphinverse.corpus import (
    CORPUS,
    all_acyclic_graphs,
    double_loop,
    parallel_pair,
    parallel_two_cycle,
    single_vertex,
    two_cycle,
)
from graphinverse.oracle import all_paths
from reference import (
    exits_of,
    hereditary_closure,
    hereditary_sets,
    index_one_vertices,
    is_no_exit,
    quotient,
    reachable,
    rees_only_condition,
    remainder,
    strongly_connected_by_search,
    subset_scan_hereditary,
)


def path_graph(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph.of(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


def seeded_multigraphs(seed: int, count: int, max_vertices: int = 8) -> list[Graph]:
    """Random multigraphs with 1..max_vertices vertices in shuffled graph
    order and up to twice as many edges, loops and parallel edges allowed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_vertices)
        vs = [f"v{i}" for i in rng.sample(range(n), n)]
        m = rng.randint(0, 2 * n)
        out.append(Graph.of(vs, [(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(m)]))
    return out


@st.composite
def small_graphs(draw, max_vertices: int = 4):
    """Multigraphs with 1..max_vertices vertices and up to 5 edges,
    loops, parallel edges and cycles allowed."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=5))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            min_size=m,
            max_size=m,
        )
    )
    return Graph.of(vertices, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])


class TestConstruction:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.of(["v", "v"], [])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.of(["v"], [("e", "v", "v"), ("e", "v", "v")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.of(["v"], [("e", "v", "w")])

    @pytest.mark.parametrize("bad", ["", "a.b", "x|y", "@v", "e*"])
    def test_reserved_characters_rejected(self, bad):
        with pytest.raises(GraphFormatError):
            Graph.of([bad], [])

    @pytest.mark.parametrize("vertices, edges, message", [
        (["v "], [], "vertex id 'v ' has leading or trailing whitespace"),
        (["\tv"], [], "vertex id '\\tv' has leading or trailing whitespace"),
        (["v"], [(" e", "v", "v")], "edge id ' e' has leading or trailing whitespace"),
        (["v"], [("e\n", "v", "v")], "edge id 'e\\n' has leading or trailing whitespace"),
    ])
    def test_padded_ids_rejected(self, vertices, edges, message):
        # parse_element strips a literal, so a padded id could not round-trip
        with pytest.raises(GraphFormatError) as info:
            Graph.of(vertices, edges)
        assert str(info.value) == message

    def test_vertex_and_edge_may_share_an_id(self):
        g = Graph.of(["x"], [("x", "x", "x")])
        assert index_one_edges(g) == {"x": Edge("x", "x", "x")}


class TestHereditary:
    def test_edge_graph_sink_is_hereditary(self, edge):
        assert is_hereditary(edge, {"w"})

    def test_edge_graph_source_is_not(self, edge):
        assert not is_hereditary(edge, {"v"})

    def test_empty_set_vacuously_hereditary(self, corpus_graph):
        assert is_hereditary(corpus_graph, set())

    def test_unknown_vertex_rejected(self, edge):
        with pytest.raises(KeyError):
            is_hereditary(edge, {"nope"})

    def test_closure_of_source(self, edge):
        assert hereditary_closure(edge, {"v"}) == {"v", "w"}

    def test_closure_of_empty(self, edge):
        assert hereditary_closure(edge, set()) == frozenset()

    def test_closure_on_two_cycle(self, two_cycle):
        assert hereditary_closure(two_cycle, {"v"}) == {"v", "w"}

    @settings(max_examples=60)
    @given(small_graphs(), st.data())
    def test_closure_idempotent_monotone_hereditary(self, g, data):
        seed = data.draw(st.sets(st.sampled_from(list(g.vertices) + [g.vertices[0]])))
        closed = hereditary_closure(g, seed)
        assert is_hereditary(g, closed)
        assert hereditary_closure(g, closed) == closed
        bigger = data.draw(st.sets(st.sampled_from(list(g.vertices))))
        assert closed <= hereditary_closure(g, seed | bigger)

    def test_enumeration_examples(self, edge, two_cycle):
        assert hereditary_sets(single_vertex()) == [frozenset(), {"v"}]
        assert hereditary_sets(edge) == [frozenset(), {"w"}, {"v", "w"}]
        assert hereditary_sets(two_cycle) == [frozenset(), {"v", "w"}]

    def test_enumeration_is_a_lattice(self, corpus_graph):
        family = set(hereditary_sets(corpus_graph))
        for a in family:
            for b in family:
                assert a | b in family
                assert a & b in family

    def test_enumeration_is_every_closure(self, corpus_graph):
        g = corpus_graph
        seeds = [
            {v for i, v in enumerate(g.vertices) if mask >> i & 1}
            for mask in range(1 << len(g.vertices))
        ]
        closures = {hereditary_closure(g, seed) for seed in seeds}
        assert set(hereditary_sets(g)) == closures


class TestQuotient:
    def test_edge_graph_quotient(self, edge):
        q = quotient(edge, {"w"})
        assert q.vertices == ("v",) and q.edges == ()

    def test_empty_quotient_is_identity(self, corpus_graph):
        assert quotient(corpus_graph, set()) == corpus_graph

    def test_loop_full_quotient_is_empty(self, loop):
        q = quotient(loop, {"v"})
        assert q.vertices == () and q.edges == ()

    def test_non_hereditary_rejected(self, edge):
        with pytest.raises(ValueError):
            quotient(edge, {"v"})

    def test_quotients_compose(self, corpus_graph):
        hs = hereditary_sets(corpus_graph)
        for h1 in hs:
            for h2 in hs:
                if h1 <= h2:
                    assert quotient(quotient(corpus_graph, h1), h2 - h1) == quotient(
                        corpus_graph, h2
                    )


class TestIndex:
    def test_edge_graph_indices(self, edge):
        assert len(edge.out_edges("v")) == 1
        assert len(edge.out_edges("w")) == 0
        assert index_one_edges(edge) == {"v": edge.out_edges("v")[0]}
        assert index_one_edges(edge, {"w"}) == {}

    def test_double_loop_index(self, double_loop):
        assert len(double_loop.out_edges("v")) == 2
        assert index_one_edges(double_loop) == {}

    def test_unknown_vertex(self, edge):
        with pytest.raises(KeyError):
            edge.out_edges("zzz")

    def test_index_one_sets(self, edge, loop):
        assert index_one_edges(edge).keys() == {"v"}
        assert index_one_edges(loop).keys() == {"v"}
        assert index_one_edges(parallel_pair()) == {}


class TestCycles:
    def test_loop_cycle(self, loop):
        [c] = cycles_in(loop, index_one_edges(loop))
        assert c.path.edges == ("e",)

    def test_empty_w(self, loop):
        assert cycles_in(loop, {}) == []

    def test_two_cycle_single_class(self, two_cycle):
        [c] = cycles_in(two_cycle, index_one_edges(two_cycle))
        assert c.path.edges == ("e1", "e2")

    def test_rejects_bad_index(self, edge):
        # W = {w} cannot be given to cycles_in: w has index zero, so it
        # has no W-edge, and a triple with that W is refused
        assert "w" not in index_one_edges(edge)
        with pytest.raises(ValueError, match="index one"):
            make_triple(edge, w={"w"})

    def test_cycles_are_no_exit(self, corpus_graph):
        for c in cycles_in(corpus_graph, index_one_edges(corpus_graph)):
            assert is_no_exit(corpus_graph, c.path)

    def test_canonical_rotation_is_lex_least(self, two_cycle):
        p = make_path(two_cycle, ["e2", "e1"])
        assert Cycle.from_path(p).path.edges == ("e1", "e2")

    def test_non_canonical_rotation_canonicalized(self, two_cycle):
        # only the triple JSON format rejects a rotation that is not least
        p = make_path(two_cycle, ["e2", "e1"])
        assert Cycle(p) == Cycle.from_path(p) and Cycle(p).path.edges == ("e1", "e2")

    def test_repeated_source_vertex_rejected(self, double_loop):
        p = make_path(double_loop, ["a", "b"])
        for build in (Cycle.from_path, Cycle):
            with pytest.raises(ValueError, match="repeated source vertex"):
                build(p)


# Reference cycle layer: the algorithms cycles_in and Cycle.from_path used
# before they became linear, kept to pin values and order.


def reference_least_rotation(p: Path) -> Path:
    """The rotation of the closed path p with the least edge sequence,
    by comparing all of them."""
    rotations = [
        Path(p.vertices[k:] + p.vertices[1 : k + 1], p.edges[k:] + p.edges[:k])
        for k in range(len(p))
    ]
    return min(rotations, key=lambda r: r.edges)


def reference_cycles_in(g: Graph, w) -> list[Path]:
    """One walk from every vertex of w in graph order, keeping each cycle
    the first time a walk returns to its start."""
    ws = set(w)
    found: list[Path] = []
    for start in g.sort_vertices(ws):
        edges, visited, u = [], set(), start
        while u in ws and u not in visited:
            visited.add(u)
            (e,) = g.out_edges(u)
            edges.append(e.id)
            u = e.dst
            if u == start:
                c = reference_least_rotation(make_path(g, edges))
                if c not in found:
                    found.append(c)
                break
    return found


def subsets(vs):
    vs = sorted(vs)
    return [frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
            for mask in range(1 << len(vs))]


def shuffled_functional_graph(rng: random.Random, n: int, second: float = 0.2) -> Graph:
    """n vertices in shuffled graph order, each with one edge to a random
    vertex, edges named in shuffled order; each vertex gets a second edge
    with probability second."""
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    edge_names = iter(f"e{i}" for i in rng.sample(range(2 * n), 2 * n))
    edges = [(next(edge_names), v, rng.choice(names)) for v in names]
    edges += [(next(edge_names), v, rng.choice(names)) for v in names if rng.random() < second]
    return Graph.of(names, edges)


class TestEnumerationAgainstReference:
    """The hereditary sets of quotients, and is_strongly_connected, against
    the subset scan and the reachability searches they replaced, order
    included."""

    @staticmethod
    def check(g: Graph) -> None:
        assert hereditary_sets(g) == subset_scan_hereditary(g)
        assert is_strongly_connected(g) == strongly_connected_by_search(g)
        reach, coreach = _reach_masks(g)
        for i, v in enumerate(g.vertices):
            assert {u for k, u in enumerate(g.vertices) if reach[i] >> k & 1} == reachable(g, v)
            assert {u for k, u in enumerate(g.vertices) if coreach[i] >> k & 1} == reachable(
                g, v, reverse=True
            )

    def test_corpus(self, corpus_graph):
        self.check(corpus_graph)

    def test_all_small_acyclic_graphs(self):
        for g in all_acyclic_graphs(3, 3):
            self.check(g)

    def test_seeded_multigraphs(self):
        for g in seeded_multigraphs(1972, 300):
            self.check(g)

    def test_empty_graph(self):
        self.check(Graph.of([], []))
        assert hereditary_sets(Graph.of([], [])) == [frozenset()]


class TestEnumerationScale:
    """Output-sensitive: the 2^n subset scan would never finish here, and
    a recursive walk would overflow the recursion limit."""

    def test_long_path(self):
        g = path_graph(3000)
        family = hereditary_sets(g)
        # one hereditary set of each size, the suffix of the path, smallest first
        assert [len(h) for h in family] == list(range(3001))
        for k in (1, 2, 1500, 3000):
            assert family[k] == frozenset(g.vertices[3000 - k:])
        assert not is_strongly_connected(g)

    def test_long_ring(self):
        g = ring(random.Random(3000), 3000)
        assert hereditary_sets(g) == [frozenset(), frozenset(g.vertices)]
        assert is_strongly_connected(g)

    def test_sixty_vertex_path(self):
        assert len(hereditary_sets(path_graph(60))) == 61


def ring(rng: random.Random, n: int) -> Graph:
    vs = [f"r{i}" for i in range(n)]
    ids = [f"x{k}" for k in rng.sample(range(10 * n), n)]
    return Graph.of(vs, [(ids[i], vs[i], vs[(i + 1) % n]) for i in range(n)])


class TestCycleLayerAgainstReference:
    def test_cycles_in_every_h_and_w(self, corpus_graph):
        g = corpus_graph
        for h in hereditary_sets(g):
            q = quotient(g, h)
            bar = index_one_edges(g, h)
            for w in subsets(bar):
                w_edges = {v: e for v, e in bar.items() if v in w}
                assert [c.path for c in cycles_in(g, w_edges)] == reference_cycles_in(q, w)
                assert cycles_in(g, bar, w) == cycles_in(g, w_edges)

    def test_cycles_in_seeded_functional_graphs(self):
        rng = random.Random(20180)
        small = ((rng.randint(1, 12), 0.2) for _ in range(200))  # drawn lazily
        # and large draws with few second edges: long tails into the
        # cycles, and most starts already reached by an earlier walk
        large = [(n, 0.02) for n in (50, 90, 160, 300)]
        for n, second in chain(small, large):
            g = shuffled_functional_graph(rng, n, second)
            bar = index_one_edges(g)
            for _ in range(4):
                w_edges = {v: e for v, e in sorted(bar.items()) if rng.random() < 0.8}
                assert [c.path for c in cycles_in(g, w_edges)] == reference_cycles_in(g, w_edges)
            assert [c.path for c in cycles_in(g, bar)] == reference_cycles_in(g, bar)

    def test_from_path_every_corpus_rotation(self):
        # every rotation of a cycle is a path from one of its vertices
        for g in CORPUS.values():
            for p in all_paths(g, len(g.vertices)):
                if p.edges and p.is_closed and len(p.vertex_set) == len(p):
                    assert Cycle(p) == Cycle.from_path(p)
                    assert Cycle(p).path == reference_least_rotation(p)

    def test_from_path_seeded_rings(self):
        rng = random.Random(1980)
        for n in range(1, 51):
            g = ring(rng, n)
            c = make_path(g, [e.id for e in g.edges])
            expected = reference_least_rotation(c)
            for k in range(n):
                rotation = Path(c.vertices[k:] + c.vertices[1 : k + 1],
                                c.edges[k:] + c.edges[:k])
                assert Cycle.from_path(rotation).path == Cycle(rotation).path == expected


class TestExits:
    def test_loop_has_no_exit(self, loop):
        assert exits_of(loop, make_path(loop, ["e"])) == []

    def test_extra_edge_is_an_exit(self):
        g = Graph.of(["v", "w"], [("e", "v", "v"), ("d", "v", "w")])
        assert exits_of(g, make_path(g, ["e"])) == ["d"]

    def test_vertex_path_has_no_exit(self, double_loop):
        assert exits_of(double_loop, vertex_path("v")) == []


class TestPredicates:
    def test_strongly_connected(self, loop, edge, two_cycle):
        assert is_strongly_connected(loop)
        assert not is_strongly_connected(edge)
        assert is_strongly_connected(two_cycle)
        assert is_strongly_connected(Graph.of([], []))

    def test_strongly_connected_iff_trivial_hereditary(self, corpus_graph):
        g = corpus_graph
        trivial = hereditary_sets(g) == [frozenset(), frozenset(g.vertices)]
        assert is_strongly_connected(g) == trivial

    def test_rees_only(self, edge, loop):
        assert not rees_only_condition(edge)
        assert rees_only_condition(parallel_two_cycle())
        assert not rees_only_condition(loop)

    def test_congruence_free(self, loop, edge, double_loop):
        assert not is_congruence_free_graph(loop)
        assert is_congruence_free_graph(double_loop)
        assert not is_congruence_free_graph(edge)

    def test_acyclic(self, edge, loop, two_cycle):
        assert is_acyclic(edge)
        assert not is_acyclic(loop)
        assert not is_acyclic(two_cycle)

    def test_acyclic_long_path(self):
        g = path_graph(5000)
        assert is_acyclic(g)
        back = Graph.of(g.vertices, [*g.edges, ("back", "v4999", "v0")])
        assert not is_acyclic(back)

    def test_topological_order(self):
        assert topological_order(path_graph(4)) == ["v0", "v1", "v2", "v3"]
        for g in all_acyclic_graphs(3, 3):
            order = topological_order(g)
            assert sorted(order) == sorted(g.vertices)
            assert all(order.index(e.src) < order.index(e.dst) for e in g.edges)
        # G has a cycle exactly when some edge's source is reachable from its target
        graphs = [*CORPUS.values(), *all_acyclic_graphs(3, 3)]
        graphs += [Graph.of(g.vertices, [*g.edges, ("back", e.dst, e.src)])
                   for g in all_acyclic_graphs(3, 2) for e in g.edges[:1]]
        for g in graphs:
            cyclic = any(e.src in reachable(g, e.dst) for e in g.edges)
            assert is_acyclic(g) is not cyclic
            assert (topological_order(g) is None) is cyclic


class TestCyclePower:
    def test_matches_repeated_concat(self, corpus_graph):
        g = corpus_graph
        rotations = [
            p for p in all_paths(g, len(g.vertices))
            if p.edges and p.is_closed and len(p.vertex_set) == len(p)
        ]
        assert rotations or is_acyclic(g)
        for r in rotations:
            expected = vertex_path(r.source)
            for m in range(7):
                assert cycle_power(r, m) == expected
                expected = concat(expected, r)

    def test_many_laps(self, two_cycle):
        c = make_path(two_cycle, ["e1", "e2"])
        p = cycle_power(c, 16_000)
        assert len(p) == 16_000 * len(c) and p.target == "v"

    def test_rejects_bad_input(self, two_cycle):
        with pytest.raises(ValueError, match="negative"):
            cycle_power(make_path(two_cycle, ["e1", "e2"]), -1)
        with pytest.raises(ValueError, match="not a closed path"):
            cycle_power(make_path(two_cycle, ["e1"]), 2)


class TestPaths:
    def test_make_path_validates_composition(self, two_cycle):
        with pytest.raises(ValueError):
            make_path(two_cycle, ["e1", "e1"])

    def test_make_path_unknown_edge(self, two_cycle):
        with pytest.raises(KeyError):
            make_path(two_cycle, ["zzz"])

    def test_vertex_path_needs_source(self, two_cycle):
        with pytest.raises(ValueError):
            make_path(two_cycle, [])

    @pytest.mark.parametrize("args, kind, message", [
        ((["zzz"],), KeyError, "unknown edge id 'zzz'"),
        ((["e1", "e1", "zzz"],), KeyError, "unknown edge id 'zzz'"),  # ids before composition
        ((["e1", "e1"],), ValueError, "edges 'e1' and 'e1' do not compose"),
        ((["e1", "e2", "e2"],), ValueError, "edges 'e2' and 'e2' do not compose"),
        (([],), ValueError, "a length-0 path needs an explicit source vertex"),
        (([], "q"), KeyError, "unknown vertex id 'q'"),
        ((["e1"], "w"), ValueError, "path source 'w' does not match first edge 'e1'"),
    ])
    def test_make_path_errors(self, two_cycle, args, kind, message):
        with pytest.raises(kind) as info:
            make_path(two_cycle, *args)
        assert type(info.value) is kind and info.value.args == (message,)

    def test_concat_checks_endpoints(self, two_cycle):
        e1 = make_path(two_cycle, ["e1"])
        with pytest.raises(ValueError):
            concat(e1, e1)
        assert concat(e1, make_path(two_cycle, ["e2"])).edges == ("e1", "e2")

    def test_vertex_set(self, two_cycle):
        p = make_path(two_cycle, ["e1", "e2", "e1"])
        assert p.vertex_set == {"v", "w"}
        assert vertex_path("v").vertex_set == frozenset()


class TestRemainder:
    """The prefix test that equiv and multiply ask, and the reference
    remainder built on it, over every ordered pair of paths of length
    <= 3: _is_prefix(p, q), which compares sources and edges only, holds
    exactly when q starts with p's vertices and edges, and then
    remainder(p, q) is the rest r with concat(p, r) == q, else None."""

    @staticmethod
    def check(g):
        paths = all_paths(g, 3)
        for p in paths:
            n = len(p)
            for q in paths:
                prefix = q.vertices[: n + 1] == p.vertices and q.edges[:n] == p.edges
                assert _is_prefix(p, q) == prefix
                rest = remainder(p, q)
                assert rest is None if not prefix else type(rest) is Path and concat(p, rest) == q

    def test_corpus(self, corpus_graph):
        self.check(corpus_graph)

    def test_seeded_multigraphs(self):
        for g in seeded_multigraphs(8128, 60, max_vertices=5):
            self.check(g)


class TestSerialization:
    def test_json_round_trip(self, corpus_graph):
        assert graph_from_json(graph_to_json(corpus_graph)) == corpus_graph

    def test_json_round_trip_through_text(self, corpus_graph):
        blob = json.dumps(graph_to_json(corpus_graph))
        assert graph_from_json(json.loads(blob)) == corpus_graph

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_json({"vertices": ["v"]})
        with pytest.raises(GraphFormatError):
            graph_from_json({"vertices": ["v"], "edges": [{"id": "e"}]})

    def test_dot_export_mentions_everything(self, edge):
        dot = graph_to_dot(edge)
        assert '"v" -> "w" [label="e"]' in dot
        assert dot.startswith("digraph")

    def test_dot_quotes_and_backslashes_escaped(self):
        ids = ['a"b', "c\\d", '\\"', "plain"]
        g = Graph.of(ids, [('e"1', ids[0], ids[1]), ("f\\", ids[2], ids[3]), ("x", ids[3], ids[3])])
        dot = graph_to_dot(g)
        body = dot.splitlines()[1:-1]
        token = re.compile(r'"(?:[^"\\]|\\.)*"')
        unquoted = []
        for line in body:
            found = token.findall(line)
            # nothing but the quoted tokens holds a quote or a backslash
            assert '"' not in token.sub("", line) and "\\" not in token.sub("", line)
            unquoted.append([re.sub(r"\\(.)", r"\1", t[1:-1]) for t in found])
        assert unquoted == [[v] for v in ids] + [[e.src, e.dst, e.id] for e in g.edges]


class TestQuotients:
    """Each entry of quotients(g) is its H with what index_one_edges and
    cycles_in give on that H, in the same order."""

    @staticmethod
    def check(g: Graph) -> None:
        for h, bar_edges, cycles in quotients(g):
            expected = index_one_edges(g, h)
            assert list(bar_edges.items()) == list(expected.items())
            assert cycles == cycles_in(g, expected)

    def test_corpus(self, corpus_graph):
        self.check(corpus_graph)

    def test_seeded_multigraphs_with_loops_and_parallel_edges(self):
        for g in seeded_multigraphs(4242, 300, max_vertices=6):
            self.check(g)


class TestIndexOneEdgesAgainstReference:
    """index_one_edges(g, h) against the quotient graph G∖H it replaced:
    the same index-one vertices in graph order, each mapped to its only
    edge in the quotient."""

    @staticmethod
    def check(g: Graph) -> None:
        for h in hereditary_sets(g):
            q = quotient(g, h)
            w_edges = index_one_edges(g, h)
            assert tuple(w_edges) == g.sort_vertices(index_one_vertices(q))
            for v, e in w_edges.items():
                assert type(e) is Edge and q.out_edges(v) == (e,)

    def test_corpus(self, corpus_graph):
        self.check(corpus_graph)

    def test_all_small_acyclic_graphs(self):
        for g in all_acyclic_graphs(3, 3):
            self.check(g)

    def test_seeded_multigraphs(self):
        for g in seeded_multigraphs(2015, 250):
            self.check(g)

    def test_seeded_multigraphs_with_loops_and_parallel_edges(self):
        for g in seeded_multigraphs(4242, 300, max_vertices=6):
            self.check(g)
