from __future__ import annotations

import dataclasses
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinverse.graphs import (
    Cycle,
    Graph,
    Path,
    concat,
    cycle_power,
    cycles_in,
    graph_from_json,
    graph_to_json,
    make_path,
    vertex_path,
)
from graphinverse.elements import (
    ZERO,
    Element,
    multiply,
    parse_element,
    path_element,
    vertex_element,
)
from graphinverse.congruences import (
    CongruenceTriple,
    INF,
    TripleFormatError,
    _identified_power,
    _trailing_run,
    chain_stabilizes,
    count_triples,
    divides,
    enumerate_triples,
    equiv,
    make_triple,
    normal_form,
    triple_from_json,
    triple_generators,
    triple_leq,
    triple_to_json,
    vertex_class_members,
)
from graphinverse.corpus import CORPUS, all_acyclic_graphs
from graphinverse.oracle import (
    TransitionOracle,
    all_paths,
    bounded_elements,
    congruence_closure,
    materialize,
)
from reference import (
    CYCLIC_CORPUS,
    based_at,
    equiv_by_remainders,
    inverse,
    multiply_by_remainders,
    normal_form_by_edges,
    per_triple_enumeration,
    quotient,
    reduce_mod_h,
    trailing_run,
)
from test_elements import as_cycle_power
from test_graphs import path_graph, ring, seeded_multigraphs, small_graphs


def elem(g, literal):
    return parse_element(g, literal)


def loop_triple(g, m):
    c = Cycle.from_path(make_path(g, ["e"]))
    return make_triple(g, w={"v"}, f={c: m})


def sample_triples(g, f_cap=2, limit=8):
    """A spread of triples for property tests: identity, universal, and a
    few in between."""
    all_triples = tuple(enumerate_triples(g, f_cap))
    if len(all_triples) <= limit:
        return list(all_triples)
    step = max(1, len(all_triples) // limit)
    picked = list(all_triples[::step])
    if make_triple(g, h=g.vertices) not in picked:
        picked.append(make_triple(g, h=g.vertices))
    return picked


class TestDivides:
    def test_finite(self):
        assert divides(2, 4)
        assert not divides(4, 2)
        assert divides(3, 3)

    def test_infinity_conventions(self):
        assert divides(5, INF)
        assert divides(INF, INF)
        assert not divides(INF, 5)


def rejected(message):
    """pytest.raises for make_triple's whole error message."""
    return pytest.raises(TripleFormatError, match=f"^{re.escape(message)}$")


class TestValidation:
    def test_edge_examples(self, edge):
        assert make_triple(edge, h={"w"}).h == {"w"}
        with rejected("W vertices without index one in the quotient: ['w']"):
            make_triple(edge, w={"w"})

    def test_loop_zero_value_rejected(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        with rejected("cycle value 0 is not a positive integer or inf"):
            make_triple(loop, w={"v"}, f={c: 0})

    def test_non_hereditary_h(self, edge):
        with rejected("H = ['v'] is not hereditary"):
            make_triple(edge, h={"v"})

    def test_missing_cycle_domain(self, loop):
        with rejected("cycle-function domain [] differs from the cycles inside W [['e']]"):
            make_triple(loop, w={"v"})

    def test_key_that_is_not_a_cycle_named(self, loop):
        lap = make_path(loop, ["e"])
        for f, key in (({"x": 2}, "'x'"), ({lap: 2}, "e"), ({None: 2}, "None")):
            with rejected(f"cycle-function key {key} is not a Cycle"):
                make_triple(loop, w={"v"}, f=f)

    def test_f_that_is_not_a_mapping_named(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        for f in ([1], [("x",)], 5, [(c, 2)], None):
            with rejected(f"cycle function must be a mapping, not {type(f).__name__}"):
                make_triple(loop, w={"v"}, f=f)

    def test_h_or_w_given_as_one_str_named(self, loop):
        with rejected("W must be a set of vertex ids, not the str 'v'"):
            make_triple(loop, w="v")
        with rejected("H must be a set of vertex ids, not the str 'v1'"):
            make_triple(loop, h="v1")

    def test_make_triple_rejects_bad(self, edge):
        with pytest.raises(TripleFormatError):
            make_triple(edge, w={"w"})

    def test_every_problem_named(self, edge, loop):
        with rejected("H contains unknown vertices ['x']"):
            make_triple(edge, h={"x", "v"})
        with rejected("W contains vertices outside the quotient: ['w', 'x']; "
                      "W vertices without index one in the quotient: ['v']"):
            make_triple(edge, h={"w"}, w={"v", "w", "x"})
        g = CORPUS["two_loops"]
        lv, lw = (Cycle.from_path(make_path(g, [e])) for e in ("lv", "lw"))
        with rejected("cycle-function domain [['lv'], ['lw']] differs from the cycles "
                      "inside W [['lv']]; cycle value 0 is not a positive integer or inf; "
                      "cycle value 2.5 is not a positive integer or inf"):
            make_triple(g, w={"v"}, f={lw: 2.5, lv: 0})

    def test_bad_value_named_beside_a_bad_w(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        with rejected("W contains vertices outside the quotient: ['x']; "
                      "cycle value 0 is not a positive integer or inf"):
            make_triple(loop, w={"v", "x"}, f={c: 0})


class TestReduceModH:
    def test_edge_collapses_into_ideal(self, edge):
        t = make_triple(edge, h={"w"})
        assert reduce_mod_h(edge, t, elem(edge, "e|e")) == ZERO
        assert reduce_mod_h(edge, t, elem(edge, "@w|@w")) == ZERO

    def test_empty_h_is_identity(self, edge):
        t = make_triple(edge)
        for x in bounded_elements(edge, 2):
            assert reduce_mod_h(edge, t, x) == x

    def test_survivor_unchanged(self, edge):
        t = make_triple(edge, h={"w"})
        assert reduce_mod_h(edge, t, vertex_element("v")) == vertex_element("v")


class TestEquivLoop:
    def test_square_collapses_at_two(self, loop):
        t = loop_triple(loop, 2)
        assert equiv(loop, t, elem(loop, "e.e|@v"), vertex_element("v"))

    def test_single_lap_does_not(self, loop):
        t = loop_triple(loop, 2)
        assert not equiv(loop, t, elem(loop, "e|@v"), vertex_element("v"))

    def test_ghost_lap_is_related_to_lap(self, loop):
        t = loop_triple(loop, 2)
        assert equiv(loop, t, elem(loop, "e|@v"), elem(loop, "@v|e"))

    def test_divisibility(self, loop):
        for m in (1, 2, 3):
            t = loop_triple(loop, m)
            for k in range(1, 10):
                expected = k % m == 0
                lap = elem(loop, ".".join(["e"] * k) + "|@v")
                assert equiv(loop, t, lap, vertex_element("v")) == expected

    def test_infinite_value_never_collapses(self, loop):
        t = loop_triple(loop, INF)
        for k in range(1, 8):
            lap = elem(loop, ".".join(["e"] * k) + "|@v")
            assert not equiv(loop, t, lap, vertex_element("v"))


class TestEquivGeneral:
    def test_identity_triple_is_equality(self, corpus_graph):
        t = make_triple(corpus_graph)
        pool = bounded_elements(corpus_graph, 2)
        for x in pool:
            for y in pool:
                assert equiv(corpus_graph, t, x, y) == (x == y)

    def test_edge_generator(self, edge):
        t = make_triple(edge, w={"v"})
        assert equiv(edge, t, elem(edge, "e|e"), vertex_element("v"))

    def test_generators_always_related(self, corpus_graph):
        for t in sample_triples(corpus_graph):
            for a, b in triple_generators(corpus_graph, t):
                assert equiv(corpus_graph, t, a, b)

    def test_vertex_in_zero_class_iff_in_h(self, corpus_graph):
        for t in sample_triples(corpus_graph):
            for v in corpus_graph.vertices:
                assert equiv(corpus_graph, t, vertex_element(v), ZERO) == (v in t.h)

    def test_specialness_after_quotient(self, corpus_graph):
        for t in sample_triples(corpus_graph):
            for x in bounded_elements(corpus_graph, 2):
                if x == ZERO or reduce_mod_h(corpus_graph, t, x) == ZERO:
                    continue
                assert not equiv(corpus_graph, t, x, ZERO)

    def test_agrees_with_brute_force_closure(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        for t in enumerate_triples(g):
            rho = congruence_closure(s, triple_generators(g, t))
            for i, x in enumerate(s.elements):
                for j, y in enumerate(s.elements):
                    assert equiv(g, t, x, y) == rho.together(i, j), (t, x, y)


class TestEquivIsACongruence:
    def test_equivalence_axioms(self, corpus_graph):
        g = corpus_graph
        pool = bounded_elements(g, 2)
        for t in sample_triples(g, limit=4):
            related = []
            for x in pool:
                assert equiv(g, t, x, x)
                for y in pool:
                    if equiv(g, t, x, y):
                        related.append((x, y))
                        assert equiv(g, t, y, x)
            for x, y in related[:200]:
                for y2, z in related[:200]:
                    if y == y2:
                        assert equiv(g, t, x, z)

    def test_compatibility(self, corpus_graph):
        g = corpus_graph
        pool = bounded_elements(g, 2)
        for t in sample_triples(g, limit=3):
            pairs = [(x, y) for x in pool for y in pool if equiv(g, t, x, y)]
            for x, y in pairs[:150]:
                for z in pool[:40]:
                    assert equiv(g, t, multiply(z, x), multiply(z, y))
                    assert equiv(g, t, multiply(x, z), multiply(y, z))


class TestNormalForm:
    def test_loop_examples(self, loop):
        t = loop_triple(loop, 2)
        assert normal_form(loop, t, elem(loop, "e.e.e|@v")) == elem(loop, "e|@v")
        assert normal_form(loop, t, elem(loop, "@v|e")) == elem(loop, "e|@v")
        assert normal_form(loop, t, elem(loop, "e|e")) == vertex_element("v")

    def test_identity_triple_fixes_everything(self, corpus_graph):
        t = make_triple(corpus_graph)
        for x in bounded_elements(corpus_graph, 3):
            assert normal_form(corpus_graph, t, x) == x

    def test_normal_form_is_in_the_class(self, corpus_graph):
        g = corpus_graph
        for t in sample_triples(g, limit=4):
            for x in bounded_elements(g, 3):
                nf = normal_form(g, t, x)
                assert equiv(g, t, x, nf)
                assert normal_form(g, t, nf) == nf

    def test_separates_and_identifies(self, corpus_graph):
        g = corpus_graph
        pool = bounded_elements(g, 2)
        for t in sample_triples(g, limit=4):
            forms = {x: normal_form(g, t, x) for x in pool}
            for x in pool:
                for y in pool:
                    assert (forms[x] == forms[y]) == equiv(g, t, x, y), (t, x, y)


class TestDrawnMultigraphs:
    """Properties of one triple and two elements on drawn multigraphs of
    up to 5 vertices: the triple from enumerate_triples at f_cap 2, the
    elements from bounded_elements at length bound 2."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=5), st.data())
    def test_normal_form_decides_equiv(self, g, data):
        t = data.draw(st.sampled_from(tuple(enumerate_triples(g, 2))))
        elements = bounded_elements(g, 2)
        x, y = data.draw(st.sampled_from(elements)), data.draw(st.sampled_from(elements))
        nx, ny = normal_form(g, t, x), normal_form(g, t, y)
        assert normal_form(g, t, nx) == nx
        assert equiv(g, t, x, nx)
        assert (nx == ny) == equiv(g, t, x, y)
        assert triple_from_json(g, triple_to_json(g, t)) == t

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=5), st.data())
    def test_equiv_is_a_congruence(self, g, data):
        t = data.draw(st.sampled_from(tuple(enumerate_triples(g, 2))))
        elements = bounded_elements(g, 2)
        y = data.draw(st.sampled_from(elements))
        # z, and x half of the time, come from the class of y, so that
        # transitivity and compatibility meet related pairs
        related = [z for z in elements if equiv(g, t, y, z)]
        x = data.draw(st.sampled_from(related) | st.sampled_from(elements))
        z = data.draw(st.sampled_from(related))
        assert equiv(g, t, x, x)
        assert equiv(g, t, x, y) == equiv(g, t, y, x)
        assert equiv(g, t, z, y)
        if equiv(g, t, x, y):
            assert equiv(g, t, x, z)
        edges = [make_path(g, [e.id]) for e in g.edges]
        units = [vertex_element(v) for v in g.vertices]
        units += [path_element(e) for e in edges]
        units += [Element(vertex_path(e.target), e) for e in edges]  # ghosts
        for s in units:
            assert equiv(g, t, multiply(s, y), multiply(s, z)), (s, y, z)
            assert equiv(g, t, multiply(y, s), multiply(z, s)), (y, z, s)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=5), st.data())
    def test_kernel_trace(self, g, data):
        """TestStructuralIdentities' kernel–trace identity; y half of the
        time comes from the class of x."""
        t = data.draw(st.sampled_from(tuple(enumerate_triples(g, 2))))
        elements = bounded_elements(g, 2)
        x = data.draw(st.sampled_from(elements))
        related = [y for y in elements if equiv(g, t, x, y)]
        y = data.draw(st.sampled_from(related) | st.sampled_from(elements))
        z = multiply(x, inverse(y))
        split = equiv(g, t, multiply(inverse(x), x), multiply(inverse(y), y)) and equiv(
            g, t, z, multiply(z, inverse(z))
        )
        assert equiv(g, t, x, y) == split, (t, x, y)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=5), st.data())
    def test_rees_reduction(self, g, data):
        """TestStructuralIdentities' Rees-reduction identity on two
        survivors of H; y half of the time comes from the class of x."""
        t = data.draw(st.sampled_from(tuple(enumerate_triples(g, 2))))
        survivors = [
            x for x in bounded_elements(g, 2) if not x.is_zero and x.alpha.target not in t.h
        ]
        if not survivors:  # H holds every vertex
            return
        x = data.draw(st.sampled_from(survivors))
        related = [y for y in survivors if equiv(g, t, x, y)]
        y = data.draw(st.sampled_from(related) | st.sampled_from(survivors))
        q = quotient(g, t.h)
        assert equiv(g, t, x, y) == equiv(q, make_triple(q, (), t.w, dict(t.f)), x, y), (t, x, y)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=5), small_graphs(max_vertices=5))
    def test_counts_factor_over_disjoint_unions(self, g1, g2):
        """count_triples(G1 ⊔ G2) is the product of the two counts, and
        the union's family is infinite iff one of the two is."""

        def apart(g, tag):
            return Graph.of(
                [tag + v for v in g.vertices],
                [(tag + e.id, tag + e.src, tag + e.dst) for e in g.edges],
            )

        g1, g2 = apart(g1, "a"), apart(g2, "b")
        union = Graph(g1.vertices + g2.vertices, g1.edges + g2.edges)
        for cap in (1, 2, 4):
            (n1, inf1), (n2, inf2) = count_triples(g1, cap), count_triples(g2, cap)
            assert count_triples(union, cap) == (n1 * n2, inf1 or inf2)


class TestVertexClassMembers:
    def test_loop_f2(self, loop):
        t = loop_triple(loop, 2)
        got = vertex_class_members(loop, t, "v", 2)
        expected = {
            vertex_element("v"),
            elem(loop, "e|e"),
            elem(loop, "e.e|e.e"),
            elem(loop, "e.e|@v"),
            elem(loop, "@v|e.e"),
        }
        assert set(got) == expected

    def test_identity_triple(self, corpus_graph):
        t = make_triple(corpus_graph)
        for v in corpus_graph.vertices:
            assert vertex_class_members(corpus_graph, t, v, 3) == [vertex_element(v)]

    def test_edge_generator_class(self, edge):
        t = make_triple(edge, w={"v"})
        got = vertex_class_members(edge, t, "v", 1)
        assert set(got) == {vertex_element("v"), elem(edge, "e|e")}

    def test_rejects_vertex_in_h(self, edge):
        t = make_triple(edge, h={"w"})
        with pytest.raises(ValueError):
            vertex_class_members(edge, t, "w", 2)

    def test_rejects_negative_length_bound(self, loop):
        # a negative bound once read as 0: all_paths(loop, -1) == [@v]; an
        # oracle took it, and with no finite f-value built one no search reaches
        t = loop_triple(loop, 2)
        for bounded in (lambda: all_paths(loop, -1), lambda: bounded_elements(loop, -1),
                        lambda: vertex_class_members(loop, t, "v", -1),
                        lambda: TransitionOracle(loop, t, -1),
                        lambda: TransitionOracle(loop, loop_triple(loop, INF), -1),
                        lambda: TransitionOracle(loop, make_triple(loop), -1)):
            with pytest.raises(ValueError, match="^length bound -1 is negative$"):
                bounded()
        assert vertex_class_members(loop, t, "v", 0) == [vertex_element("v")]

    @staticmethod
    def check(g, triples):
        pool = bounded_elements(g, 3)
        for t in triples:
            for v in g.vertices:
                if v in t.h:
                    continue
                expected = {x for x in pool if x != ZERO and equiv(g, t, x, vertex_element(v))}
                members = vertex_class_members(g, t, v, 3)
                assert set(members) == expected and len(members) == len(expected)

    @pytest.mark.parametrize("name", [*sorted(CORPUS), "seeded"])
    def test_members_match_bounded_scan(self, name):
        """The walk lists exactly the class, each member once: it keeps no
        equiv filter of its own, so this scan is its only check."""
        graphs = (seeded_multigraphs(2018, 40) + seeded_multigraphs(4242, 60, max_vertices=6)
                  if name == "seeded" else [CORPUS[name]])
        for g in graphs:
            self.check(g, sample_triples(g, limit=3))

    @pytest.mark.parametrize("name", sorted(CYCLIC_CORPUS))
    def test_every_triple_of_a_cyclic_graph(self, name):
        # every finite-valued cycle, entered at each vertex, rotated there
        self.check(CORPUS[name], enumerate_triples(CORPUS[name], 2))


class TestTripleOrder:
    def test_reflexive_and_extremes(self, corpus_graph):
        g = corpus_graph
        for t in sample_triples(g):
            assert triple_leq(g, t, t)
            assert triple_leq(g, make_triple(g), t)
            assert triple_leq(g, t, make_triple(g, h=g.vertices))

    def test_loop_divisibility(self, loop):
        t4 = loop_triple(loop, 4)
        t2 = loop_triple(loop, 2)
        assert triple_leq(loop, t4, t2)
        assert not triple_leq(loop, t2, t4)

    def test_partial_order_axioms(self, corpus_graph):
        g = corpus_graph
        ts = sample_triples(g, f_cap=2, limit=10)
        for a in ts:
            for b in ts:
                if triple_leq(g, a, b) and triple_leq(g, b, a):
                    assert a == b
                for c in ts:
                    if triple_leq(g, a, b) and triple_leq(g, b, c):
                        assert triple_leq(g, a, c)


class TestEnumeration:
    def test_edge_graph_has_four(self, edge):
        triples = tuple(enumerate_triples(edge))
        assert len(triples) == 4
        assert not any(t.f for t in triples)
        ws = {(tuple(sorted(t.h)), tuple(sorted(t.w))) for t in triples}
        assert ws == {((), ()), ((), ("v",)), (("w",), ()), (("v", "w"), ())}

    def test_single_vertex_has_two(self):
        assert len(tuple(enumerate_triples(CORPUS["single_vertex"]))) == 2

    def test_loop_cap_two(self, loop):
        triples = tuple(enumerate_triples(loop, f_cap=2))
        assert len(triples) == 5
        assert any(t.f for t in triples)
        fs = [t.f[0][1] for t in triples if t.f]
        assert fs == [1, 2, INF]

    def test_everything_validates(self, corpus_graph):
        for t in enumerate_triples(corpus_graph, f_cap=2):
            assert make_triple(corpus_graph, t.h, t.w, dict(t.f)) == t

    def test_deterministic(self, corpus_graph):
        a = tuple(enumerate_triples(corpus_graph, f_cap=2))
        b = tuple(enumerate_triples(corpus_graph, f_cap=2))
        assert a == b

    def test_acyclic_count_formula(self, acyclic_graph):
        from reference import hereditary_sets, index_one_vertices, quotient

        g = acyclic_graph
        expected = sum(
            2 ** len(index_one_vertices(quotient(g, h)))
            for h in hereditary_sets(g)
        )
        assert len(tuple(enumerate_triples(g))) == expected


class TestEnumerationAgainstReference:
    """enumerate_triples against the loop it replaced, which built every
    triple through make_triple: same triples in the same order, the same
    cycle index, each accepted by make_triple, and the infinite family
    flagged by a listed cycle exactly when some W closes a cycle;
    count_triples gives the listing's length and that flag."""

    @staticmethod
    def check(g, f_cap=2):
        triples = tuple(enumerate_triples(g, f_cap))
        reference, infinite = per_triple_enumeration(g, f_cap)
        assert triples == reference
        assert any(t.f for t in triples) == infinite
        assert count_triples(g, f_cap) == (len(triples), infinite)
        for t, r in zip(triples, reference):
            assert t.graph is g and t.cycle_at == r.cycle_at
            assert make_triple(g, t.h, t.w, dict(t.f)) == t

    def test_corpus(self, corpus_graph):
        for f_cap in (1, 2, 4):
            self.check(corpus_graph, f_cap)

    def test_all_small_acyclic_graphs(self):
        for g in all_acyclic_graphs(3, 3):
            for f_cap in (1, 2, 4):
                self.check(g, f_cap)

    def test_seeded_multigraphs(self):
        for g in seeded_multigraphs(2018, 150):
            self.check(g)
        for g in seeded_multigraphs(4242, 300, max_vertices=6):
            for f_cap in (1, 2, 4):
                self.check(g, f_cap)

    def test_long_ring_counted_without_listing(self):
        # H = {} lets W hold the whole ring, with its 2^40 - 1 proper
        # subsets and five values, and H = V adds the universal triple
        g = ring(random.Random(40), 40)
        assert count_triples(g, 4) == (1_099_511_627_781, True)

    def test_bad_cap_raises_at_the_call(self, loop):
        for call in (enumerate_triples, count_triples):
            with pytest.raises(ValueError, match="^f_cap must be a positive integer$"):
                call(loop, 0)

    def test_non_integer_cap_raises_at_the_call(self, loop):
        # a cap the odometer never meets would list the loop's values forever
        for cap in (2.5, 3.0, True, "3", None):
            for call in (enumerate_triples, count_triples):
                with pytest.raises(ValueError, match="^f_cap must be a positive integer$"):
                    call(loop, cap)

    def test_hereditary_sets_held_one_at_a_time(self):
        """An edgeless 14-vertex graph has 2^14 hereditary sets and one
        triple over each; counting and listing them hold one set at a time."""
        g = Graph.of([f"v{i}" for i in range(14)], [])
        for run in (lambda: count_triples(g, 4), lambda: sum(1 for _ in enumerate_triples(g))):
            tracemalloc.start()
            try:
                result = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result in ((1 << 14, False), 1 << 14)
            assert peak < 1 << 20, peak  # a list of the sets alone takes over 10 MB

    def test_listing_memory_stays_flat(self):
        """Draining the listing holds one triple at a time: the peak of
        traced allocations does not grow with the number of triples."""
        peaks = []
        for n in (10, 14):  # 1024 and 16384 triples
            g = path_graph(n)
            tracemalloc.start()
            try:
                drained = sum(1 for _ in enumerate_triples(g))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert drained == 1 << n
        assert peaks[1] < 2 * peaks[0], peaks

    def test_trees_feeding_two_rings(self):
        # nine index-one vertices: over H = {} W takes 2^9 bitmasks, and a
        # W holding both rings takes every pair of their cycle values
        rings = [("a0", "a1"), ("b0", "b1", "b2")]
        trees = [("x1", "a0"), ("x2", "x1"), ("y1", "b0"), ("y2", "b1")]
        arcs = [(r[i], r[(i + 1) % len(r)]) for r in rings for i in range(len(r))] + trees
        g = Graph.of(
            [v for r in rings for v in r] + [src for src, _ in trees],
            [(f"e{src}", src, dst) for src, dst in arcs],
        )
        assert len(tuple(enumerate_triples(g, 2))) > 1 << 9
        self.check(g, f_cap=2)

    def test_huge_f_cap_builds_no_value_range(self, acyclic_graph):
        # an acyclic graph has no cycle to take a value, so the cap is unused
        assert tuple(enumerate_triples(acyclic_graph, 10**12)) == tuple(enumerate_triples(acyclic_graph, 1))


class TestChains:
    def test_constant_chain(self, loop):
        t = loop_triple(loop, 2)
        assert chain_stabilizes(loop, [t, t, t]) == 1

    def test_loop_divisor_chain(self, loop):
        chain = [loop_triple(loop, m) for m in (8, 4, 2, 2, 2)]
        assert chain_stabilizes(loop, chain) == 3

    def test_hereditary_chain(self, edge):
        chain = [
            make_triple(edge),
            make_triple(edge, h={"w"}),
            make_triple(edge, h=edge.vertices),
        ]
        assert chain_stabilizes(edge, chain) == 3

    def test_rejects_non_increasing(self, loop):
        with pytest.raises(ValueError):
            chain_stabilizes(loop, [loop_triple(loop, 2), loop_triple(loop, 4)])

    def test_rejects_empty(self, loop):
        with pytest.raises(ValueError):
            chain_stabilizes(loop, [])


class TestTripleJson:
    @staticmethod
    def round_trip(g):
        for t in enumerate_triples(g, f_cap=2):
            blob = json.dumps(triple_to_json(g, t))
            assert triple_from_json(g, json.loads(blob)) == t

    def test_round_trip(self, corpus_graph):
        self.round_trip(corpus_graph)

    def test_round_trip_seeded_multigraphs(self):
        # loops and parallel edges: cycles written in their canonical rotation
        for g in seeded_multigraphs(418, 60, max_vertices=5):
            self.round_trip(g)

    def test_inf_spelling(self, loop):
        t = loop_triple(loop, INF)
        assert triple_to_json(loop, t)["f"][0]["value"] == "inf"

    def test_non_canonical_rotation_named(self, two_cycle):
        data = {
            "H": [],
            "W": ["v", "w"],
            "f": [{"cycle": ["e2", "e1"], "value": 2}],
        }
        with pytest.raises(TripleFormatError, match=r"canonical.*e1.*e2"):
            triple_from_json(two_cycle, data)

    def test_missing_keys_rejected(self, loop):
        with pytest.raises(TripleFormatError):
            triple_from_json(loop, {"H": [], "W": []})

    def test_bad_value_rejected(self, loop):
        data = {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": "lots"}]}
        with pytest.raises(TripleFormatError):
            triple_from_json(loop, data)

    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "Infinity", None, [2]])
    def test_value_not_a_positive_integer_rejected(self, loop, value):
        data = {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": value}]}
        if isinstance(value, float):  # json's reading of 1e400 is the loader's to refuse
            message = f'bad cycle value {value!r}: expected an integer >= 1 or "inf"'
        else:
            message = f"cycle value {value!r} is not a positive integer or inf"
        with pytest.raises(TripleFormatError, match=f"^{re.escape(message)}$"):
            triple_from_json(loop, data)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "Infinity", "NaN"])
    def test_non_integer_json_number_rejected(self, loop, text):
        value = json.loads(text)  # a float: json has no other reading of these
        data = {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": value}]}
        with pytest.raises(TripleFormatError, match="expected an integer >= 1"):
            triple_from_json(loop, data)

    def test_integer_and_inf_accepted(self, loop):
        for value, expected in ((1, 1), (7, 7), (10**30, 10**30), ("inf", INF)):
            data = {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": value}]}
            assert triple_from_json(loop, data).f[0][1] == expected


class TestPairAlias:
    def test_pair_is_triple_with_empty_h(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        pair = make_triple(loop, (), {"v"}, {c: 3})
        assert pair.h == frozenset()
        assert pair == make_triple(loop, w={"v"}, f={c: 3})


class TestCompiledTriple:
    """make_triple compiles a triple over its graph, and every operation
    takes it over that graph or an equal one. Any other triple is refused:
    nothing is validated a second time."""

    @staticmethod
    def pendant_triple(g):
        c = Cycle.from_path(make_path(g, ["e1", "e2"]))
        return make_triple(g, (), {"v", "w"}, {c: 2})

    @staticmethod
    def answers(g, t, xs):
        return ([equiv(g, t, x, y) for x in xs for y in xs],
                [normal_form(g, t, x) for x in xs])

    @staticmethod
    def assert_refused(g, t):
        v = g.vertices[0]
        x, good = vertex_element(v), make_triple(g)
        for call in [
            lambda: equiv(g, t, x, x),
            lambda: normal_form(g, t, x),
            lambda: triple_to_json(g, t),
            lambda: triple_leq(g, t, good),
            lambda: triple_leq(g, good, t),
            lambda: triple_generators(g, t),
            lambda: vertex_class_members(g, t, v, 2),
            lambda: TransitionOracle(g, t, 2),
        ]:
            with pytest.raises(TripleFormatError, match="^triple was not compiled over this "
                               "graph; build it over this graph with make_triple$"):
                call()

    def test_equal_graph_instance_gives_same_answers(self):
        g1 = CORPUS["pendant_cycle"]
        g2 = graph_from_json(graph_to_json(g1))
        assert g1 == g2 and g1 is not g2
        t = self.pendant_triple(g1)
        assert t.over(g2) is t
        xs = bounded_elements(g1, 2)
        assert self.answers(g2, t, xs) == self.answers(g1, t, xs)

    def test_raw_triple_refused(self, pendant):
        t = self.pendant_triple(pendant)
        raw = CongruenceTriple(t.h, t.w, t.f)
        assert raw == t and hash(raw) == hash(t) and raw.graph is None
        self.assert_refused(pendant, raw)

    def test_invalid_raw_triple_raises(self, loop):
        self.assert_refused(loop, CongruenceTriple(frozenset(), frozenset({"v"}), ()))

    def test_replaced_copy_refused(self, loop):
        t = loop_triple(loop, 3)
        for copy in (dataclasses.replace(t), dataclasses.replace(t, f=t.f[1:])):
            assert copy.graph is None and copy.cycle_at is None
            self.assert_refused(loop, copy)

    def test_triple_invalid_over_another_graph_raises(self, pendant):
        t = self.pendant_triple(pendant)
        self.assert_refused(CORPUS["cycle_with_exit"], t)  # same ids, but w gains an exit

    def test_triple_valid_over_an_unequal_graph_refused(self, loop):
        t = loop_triple(loop, 3)
        wider = Graph.of(["v", "u"], [("e", "v", "v")])
        assert make_triple(wider, w={"v"}, f=dict(t.f)) == t
        self.assert_refused(wider, t)


class TestForeignCycle:
    """A cycle of another graph with the same edge ids is no cycle of g:
    make_triple compares cycles, vertices and edges, not edge ids alone."""

    def test_cycle_of_another_graph_rejected(self):
        g = Graph.of(["v", "w"], [("e1", "v", "w"), ("e2", "w", "v")])
        g2 = Graph.of(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
        foreign = Cycle.from_path(make_path(g2, ["e1", "e2"]))
        with pytest.raises(TripleFormatError, match=re.escape(
                "cycle ['e1', 'e2'] through ['a', 'b'] is not a cycle of this graph")) as info:
            make_triple(g, w={"v", "w"}, f={foreign: 2})
        assert "differs" not in str(info.value)
        t = make_triple(g, w={"v", "w"}, f={Cycle.from_path(make_path(g, ["e1", "e2"])): 2})
        assert equiv(g, t, elem(g, "e1.e2.e1.e2|@v"), elem(g, "@v|@v"))
        assert normal_form(g, t, elem(g, "e1.e2.e1.e2|@v")) == elem(g, "@v|@v")

    def test_foreign_cycle_beside_a_missing_one(self):
        g = Graph.of(["v", "w", "u"], [("e1", "v", "w"), ("e2", "w", "v"), ("e3", "u", "u")])
        g2 = Graph.of(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
        foreign = Cycle.from_path(make_path(g2, ["e1", "e2"]))
        with pytest.raises(TripleFormatError) as info:
            make_triple(g, w={"v", "w", "u"}, f={foreign: 2})
        assert str(info.value) == (
            "cycle ['e1', 'e2'] through ['a', 'b'] is not a cycle of this graph; "
            "cycle-function domain [['e1', 'e2']] differs from the cycles inside W "
            "[['e1', 'e2'], ['e3']]"
        )


class TestCycleLayerAgainstReference:
    """Lap powers and trailing runs read off the compiled triple agree with
    the factorize-and-canonicalize and edge-by-edge references."""

    @staticmethod
    def reference_identified_power(t, p):
        cp = as_cycle_power(p)
        if cp is None:
            return False
        c, m = cp
        at, val, _ = t.cycle_at.get(c.base, (None, INF, 0))
        return at == c and val != INF and m % int(val) == 0

    @pytest.mark.parametrize("name", sorted(CYCLIC_CORPUS))
    def test_lap_power_on_closed_paths_up_to_six(self, name):
        g = CORPUS[name]
        closed = [p for p in all_paths(g, 6) if p.edges and p.is_closed]
        for t in enumerate_triples(g, 3):
            for p in closed:
                expected = self.reference_identified_power(t, p)
                assert _identified_power(t, p) == expected, (t, p)
                # p survives H iff its base does, and then c^m ~ s(c) is the lap-power test
                related = equiv(g, t, path_element(p), vertex_element(p.source))
                assert related == (p.source in t.h or expected), (t, p)

    def test_lap_power_needs_the_cycle_edges(self, two_cycle):
        # closed paths at v that are not laps of e1.e2, as from another graph
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        t = make_triple(two_cycle, (), {"v", "w"}, {c: 1})
        assert _identified_power(t, make_path(two_cycle, ["e1", "e2"]))
        assert not _identified_power(t, Path(("v", "w", "v"), ("e1", "x")))
        assert not _identified_power(t, Path(("v", "v"), ("x",)))

    @pytest.mark.parametrize("name", sorted(CYCLIC_CORPUS))
    def test_trailing_run_on_paths_up_to_six(self, name):
        g = CORPUS[name]
        paths = all_paths(g, 6)
        for t in enumerate_triples(g, 3):
            for p in paths:
                if p.target in t.cycle_at:  # so p avoids H
                    c, _, _ = t.cycle_at[p.target]
                    assert _trailing_run(t, p) == trailing_run(c, p), (t, p)

    def test_make_triple_canonicalizes_a_long_ring_once(self, monkeypatch):
        n = 3000
        vs = [f"v{i}" for i in range(n)]
        g = Graph.of(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])
        c = Cycle.from_path(make_path(g, [f"e{i}" for i in range(n)]))
        calls = []
        original = Cycle.from_path.__func__
        monkeypatch.setattr(
            Cycle, "from_path", classmethod(lambda cls, p: calls.append(len(p)) or original(cls, p))
        )
        t = make_triple(g, (), vs, {c: 3})
        assert calls == [n]
        v0 = vertex_element("v0")
        assert equiv(g, t, path_element(c.power(3)), v0)
        assert not equiv(g, t, path_element(c.power(2)), v0)
        assert normal_form(g, t, path_element(c.power(4))) == path_element(c.path)
        assert normal_form(g, t, Element(c.power(5), c.power(2))) == v0
        assert calls == [n]


FED_RING_SIZES = [1, 2, 3, 5, 17, 64, 131, 200]


class TestNormalFormAgainstEdgeByEdge:
    """normal_form strips the common part of two lap runs in one step; the
    reference strips and measures edge by edge. Both build the same form."""

    @staticmethod
    def fed_ring(rng, n):
        """A ring of n shuffled edge names, fed by tails of 1-4 edges that
        end on the ring or on an earlier tail: every vertex has one edge."""
        ring = [f"r{i}" for i in range(n)]
        names = rng.sample(range(n), n)
        edges = [(f"c{names[i]}", ring[i], ring[(i + 1) % n]) for i in range(n)]
        vs = list(ring)
        for k in range(rng.randint(1, 4)):
            tail = [f"t{k}v{i}" for i in range(rng.randint(1, 4))]
            stops = tail + [rng.choice(vs)]
            edges += [(f"t{k}e{i}", stops[i], stops[i + 1]) for i in range(len(tail))]
            vs += tail
        return Graph.of(vs, edges), ring

    @staticmethod
    def walk(g, v, length):
        verts, edges = [v], []
        for _ in range(length):
            (e,) = g.out_edges(verts[-1])
            verts.append(e.dst)
            edges.append(e.id)
        return Path(tuple(verts), tuple(edges))

    @staticmethod
    def distance(g, v, target):
        for d in range(len(g.vertices)):
            if v == target:
                return d
            v = g.out_edges(v)[0].dst
        return None

    @staticmethod
    def along(c, v, length):
        laps = cycle_power(based_at(c, v), length // len(c) + 1)
        return Path(laps.vertices[: length + 1], laps.edges[:length])

    @staticmethod
    def steps(c, u, v):
        """Edges along c from u to v."""
        body = c.path.vertices[:-1]
        return (body.index(v) - body.index(u)) % len(c)

    @classmethod
    def fed_ring_cases(cls, n):
        """Per f-value, a fed ring of n edges, a triple over it, and 25
        pairs of walks to a common target: yields (g, t, elements), the
        elements being each pair in both orders."""
        rng = random.Random(n)
        for val in (1, 2, 3, INF):
            g, ring = cls.fed_ring(rng, n)
            tails = [v for v in g.vertices if v not in ring]
            ring_w = ring if rng.random() < 0.8 else rng.sample(ring, rng.randint(0, n - 1))
            w = set(ring_w) | {v for v in tails if rng.random() < 0.5}
            cycles = cycles_in(g, {v: g.out_edges(v)[0] for v in w})
            t = make_triple(g, (), w, {c: val for c in cycles})
            elements = []
            for _ in range(25):
                target = rng.choice(g.vertices)
                starts = [v for v in g.vertices if cls.distance(g, v, target) is not None]
                sa, sb = rng.choice(starts), rng.choice(starts)
                m1, m2 = rng.randint(0, 30), rng.randint(0, 30)
                if rng.random() < 0.4:  # a common tail, behind runs that cancel mod f(c)
                    sb, m2 = sa, m1 + rng.choice([0, 6, 12])
                laps = n * (target in ring)
                a = cls.walk(g, sa, cls.distance(g, sa, target) + m1 * laps)
                b = cls.walk(g, sb, cls.distance(g, sb, target) + m2 * laps)
                elements += [Element(a, b), Element(b, a)]
            yield g, t, elements

    @pytest.mark.parametrize("n", FED_RING_SIZES)
    def test_fed_rings(self, n):
        for g, t, elements in self.fed_ring_cases(n):
            for x in elements:
                assert normal_form(g, t, x) == normal_form_by_edges(g, t, x), (t, x)

    def test_runs_need_the_cycle_edges(self, two_cycle):
        # runs over the cycle's vertices on another edge, as from another graph
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        t = make_triple(two_cycle, (), {"v", "w"}, {c: INF})
        x = Element(make_path(two_cycle, ["e1", "e2"]), Path(("v", "w", "v"), ("x", "e2")))
        expected = Element(Path(("v", "w"), ("e1",)), Path(("v", "w"), ("x",)))
        assert normal_form(two_cycle, t, x) == normal_form_by_edges(two_cycle, t, x) == expected

    def test_seeded_multigraphs(self):
        rng = random.Random(2042)
        for g in seeded_multigraphs(2042, 60, max_vertices=5):
            paths = all_paths(g, 2)
            elements = bounded_elements(g, 2)
            for t in sample_triples(g, 3):
                pool = rng.sample(elements, min(len(elements), 120))
                for c, _ in t.f:  # lap runs and partial laps on both sides
                    at = [p for p in paths if p.target in c.vertex_set]
                    for _ in range(6):
                        p, q = rng.choice(at), rng.choice(at)
                        la = rng.randint(0, 30) * len(c) + rng.randrange(len(c))
                        a = concat(p, self.along(c, p.target, la))
                        lb = self.steps(c, q.target, a.target) + rng.randint(0, 30) * len(c)
                        b = concat(q, self.along(c, q.target, lb))
                        pool += [Element(a, b), Element(b, a)]
                for x in pool:
                    assert normal_form(g, t, x) == normal_form_by_edges(g, t, x), (t, x)


class TestCycleIndex:
    """The compiled index maps each vertex v of a cycle c in f's domain to
    (c, f(c), i) with v the i-th vertex of c's path, and no other vertex,
    for triples from enumerate_triples, make_triple and triple_from_json."""

    @staticmethod
    def check(g, t):
        again = make_triple(g, t.h, t.w, dict(t.f))
        for u in (t, again, triple_from_json(g, triple_to_json(g, t))):
            assert u.cycle_at.keys() == {v for c, _ in t.f for v in c.vertex_set}, t
            for c, val in t.f:
                for v in c.vertex_set:
                    at, value, i = u.cycle_at[v]
                    assert at == c and value == val, (t, v)
                    assert 0 <= i < len(c) and c.path.vertices[i] == v, (t, v, i)

    def test_corpus(self, corpus_graph):
        for t in enumerate_triples(corpus_graph, 3):
            self.check(corpus_graph, t)

    def test_seeded_multigraphs(self):
        for g in seeded_multigraphs(4242, 300, max_vertices=6):
            for t in enumerate_triples(g, 3):
                self.check(g, t)

    @pytest.mark.parametrize("n", FED_RING_SIZES)
    def test_fed_rings(self, n):
        # too many triples to enumerate: the fed ring's own, from make_triple
        for g, t, _ in TestNormalFormAgainstEdgeByEdge.fed_ring_cases(n):
            self.check(g, t)


class TestPrefixesAgainstRemainders:
    """equiv and multiply answer each prefix question on offsets into the
    paths; the remainder-based code they replace copies each rest of a
    path before reading it. Both give the same answers."""

    @staticmethod
    def check(g, triples, xs, ys):
        for x in xs:
            for y in ys:
                assert multiply(x, y) == multiply_by_remainders(x, y), (x, y)
        for t in triples:
            for x in xs:
                for y in ys:
                    assert equiv(g, t, x, y) == equiv_by_remainders(g, t, x, y), (t, x, y)

    def test_corpus(self, corpus_graph):
        elements = bounded_elements(corpus_graph, 3)
        self.check(corpus_graph, tuple(enumerate_triples(corpus_graph, 2)), elements, elements)

    def test_seeded_multigraphs(self):
        rng = random.Random(4242)
        for g in seeded_multigraphs(4242, 300, max_vertices=6):
            elements = bounded_elements(g, 2)
            triples = sample_triples(g, 2, limit=2)
            pool = rng.sample(elements, min(len(elements), 8))
            # and the normal forms, so that related pairs meet
            pool += [normal_form(g, t, x) for t in triples for x in pool]
            self.check(g, triples, pool, pool)

    @pytest.mark.parametrize("n", FED_RING_SIZES)
    def test_fed_rings(self, n):
        for g, t, elements in TestNormalFormAgainstEdgeByEdge.fed_ring_cases(n):
            pool = elements[::5] + [normal_form(g, t, x) for x in elements[::5]]
            self.check(g, [t], pool, pool)

    def test_unchecked_closed_paths_off_the_laps(self, two_cycle):
        # closed paths at v and w that are not laps of e1.e2, as from another graph
        lap = make_path(two_cycle, ["e1", "e2"])
        c = Cycle.from_path(lap)
        t = make_triple(two_cycle, (), {"v", "w"}, {c: 1})
        unchecked = [
            Path(("v", "w", "v"), ("e1", "x")),
            Path(("v", "v"), ("x",)),
            Path(("v", "w", "v", "w", "v"), ("e1", "e2", "e1", "x")),
            Path(("w", "v", "w"), ("e1", "e2")),
        ]
        for p in unchecked:
            assert not equiv(two_cycle, t, path_element(p), vertex_element(p.source)), p
        pool = [path_element(p) for p in unchecked]
        pool += [Element(vertex_path(p.source), p) for p in unchecked]  # ghosts of them
        pool += [path_element(concat(lap, p)) for p in unchecked[:3]]
        pool += [vertex_element("v"), vertex_element("w"), path_element(lap), Element(lap, lap)]
        pool += [path_element(cycle_power(lap, 2)), Element(vertex_path("v"), lap)]
        # two paths with the same edges that part at a vertex, against e1 e1*
        e1 = make_path(two_cycle, ["e1"])
        pool += [Element(lap, Path(("v", "v", "v"), ("e1", "e2"))), Element(e1, e1)]
        self.check(two_cycle, [t], pool, pool)

    def test_lap_decision_peak_memory(self):
        """equiv(pi c^20, pi) on a ring of 10^4 edges, with f = 4, holds
        at its peak one rotated power and, for pi not a vertex, a copy of
        the edges after pi: 8 bytes per edge each, nothing more."""
        n = 10_000
        vs = [f"v{i}" for i in range(n)]
        g = Graph.of(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])
        c = Cycle.from_path(make_path(g, [f"e{i}" for i in range(n)]))
        t = make_triple(g, (), vs, {c: 4})
        for k, bound in ((37, 2.5), (0, 1.5)):  # pi a partial lap, then a vertex
            pi = make_path(g, [f"e{i}" for i in range(k)], source="v0")
            x = path_element(concat(pi, cycle_power(based_at(c, pi.target), 20)))
            y = path_element(pi)
            tracemalloc.start()
            try:
                assert equiv(g, t, x, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 8 * len(x.alpha.edges), (k, peak / (8 * len(x.alpha.edges)))


class TestStructuralIdentities:
    """Two identities of the congruence that are exact on cyclic graphs and
    need no search bound, on the corpus and seeded multigraphs: a few
    triples each, against a sample of the elements with paths <= 2."""

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        graphs = [CORPUS[name] for name in sorted(CORPUS)]
        for g in graphs + seeded_multigraphs(seed, 40, max_vertices=5):
            triples = tuple(enumerate_triples(g, f_cap=2))
            elements = bounded_elements(g, 2)
            for t in rng.sample(triples, min(len(triples), 6)):
                yield g, t, rng.sample(elements, min(len(elements), 20))

    def test_kernel_trace(self):
        """x ~ y iff x*x ~ y*y (trace) and x y* lies in the kernel, i.e.
        x y* ~ (x y*)(x y*)* (Howie 1995, Thm 5.3.3)."""
        for g, t, pool in self.cases(533):
            for x in pool:
                for y in pool:
                    z = multiply(x, inverse(y))
                    split = equiv(
                        g, t, multiply(inverse(x), x), multiply(inverse(y), y)
                    ) and equiv(g, t, z, multiply(z, inverse(z)))
                    assert equiv(g, t, x, y) == split, (t, x, y)

    def test_rees_reduction(self):
        """On survivors of H, (H, W, f) over G relates what (∅, W, f)
        relates over G∖H."""
        for g, t, pool in self.cases(1207):
            q = quotient(g, t.h)
            tq = make_triple(q, (), t.w, dict(t.f))
            survivors = [x for x in pool if not x.is_zero and x.alpha.target not in t.h]
            for x in survivors:
                for y in survivors:
                    assert equiv(g, t, x, y) == equiv(q, tq, x, y), (t, x, y)
