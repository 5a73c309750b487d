from __future__ import annotations

import importlib
import itertools
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import graphinverse
from graphinverse import oracle
from graphinverse.elements import (
    ZERO,
    Element,
    multiply,
    parse_element,
    vertex_element,
)
from graphinverse.congruences import (
    enumerate_triples,
    equiv,
    make_triple,
    triple_generators,
    triple_leq,
)
from graphinverse.corpus import CORPUS, all_acyclic_graphs
from graphinverse.graphs import Cycle, Graph, Path, concat, make_path
from graphinverse.oracle import (
    ExplicitCongruence,
    TransitionOracle,
    TransitionResult,
    bounded_elements,
    brute_force,
    congruence_closure,
    enumerate_congruences,
    materialize,
    triple_of_congruence,
)
from reference import (
    ACYCLIC_CORPUS,
    PrefixIndexOracle,
    bounded_elements_by_pairs,
    closure_by_all_translations,
    congruences_by_closed_joins,
    directed_pairs,
    is_compatible,
    is_prefix,
    solve_right,
    strip_prefix,
    vertex_class_form_test,
)
from test_congruences import loop_triple
from test_graphs import seeded_multigraphs


def elem(g, literal):
    return parse_element(g, literal)


class BruteNeighbors:
    """Reference neighbour sets of a TransitionOracle by exhaustive scan:
    every context u of the universe with u a nonzero against
    _solve_right, every w of the universe with a w nonzero against the
    test's own _solve_left (so u or w lies in the universe, the other
    context is any), and for zero every pair (u, w) of the universe with
    u a w = 0, over the pairs ``directed``. No element is its own
    neighbour."""

    def __init__(self, o, directed):
        self.oracle = o
        self.directed = directed
        self.universe = bounded_elements(o.graph, o.len_bound)
        self.left = []
        self.right = []
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
            self.left.append(left)
            self.right.append(right)

    def neighbors(self, z):
        o = self.oracle
        return frozenset(x for x in self._neighbors(z) if o._within(x) and x != z)

    def _neighbors(self, z):
        if z.is_zero:
            for a, b in self.directed:
                for u in self.universe:
                    ua = multiply(u, a)
                    ub = multiply(u, b)
                    for w in self.universe:
                        if multiply(ua, w).is_zero:
                            yield multiply(ub, w)
            return
        for gi in range(len(self.directed)):
            for u, ua, ub in self.left[gi]:
                for w in solve_right(ua, z):
                    yield multiply(ub, w)
            for w, aw, bw in self.right[gi]:
                for u in _solve_left(aw, z):
                    yield multiply(u, bw)


def _solve_left(p, z):
    """All u with u p = z, for nonzero p and z."""
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


@pytest.mark.parametrize("family", ["corpus", "acyclic", "seeded"])
def test_bounded_elements_match_pair_scan(family):
    """Pairing each path with the paths of its range lists what the scan
    over all pairs lists, in the same order: that order fixes the indices
    of materialize and the element list that ``oracle`` prints."""
    graphs = {
        "corpus": lambda: CORPUS.values(),
        "acyclic": lambda: all_acyclic_graphs(3, 3),
        "seeded": lambda: seeded_multigraphs(4242, 120, max_vertices=4),
    }[family]()
    for g in graphs:
        for len_bound in range(4):
            assert bounded_elements(g, len_bound) == bounded_elements_by_pairs(g, len_bound)


class TestMaterialize:
    def test_edge_graph_has_six(self, edge):
        s = materialize(edge)
        assert len(s) == 6
        assert s.elements[0] == ZERO

    def test_single_vertex_has_two(self):
        assert len(materialize(CORPUS["single_vertex"])) == 2

    def test_two_edge_path_count_pinned(self):
        # oracle-derived regression value: 14 nonzero path pairs plus zero
        assert len(materialize(CORPUS["two_edge_path"])) == 15

    def test_rejects_cyclic(self, loop):
        with pytest.raises(ValueError):
            materialize(loop)

    def test_table_matches_multiply(self, acyclic_graph):
        from graphinverse.elements import multiply

        s = materialize(acyclic_graph)
        for i, x in enumerate(s.elements):
            for j, y in enumerate(s.elements):
                assert s.elements[s.table[i][j]] == multiply(x, y)

    def test_table_is_associative(self, acyclic_graph):
        s = materialize(acyclic_graph)
        n = len(s)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert s.table[s.table[i][j]][k] == s.table[i][s.table[j][k]]

    def test_zero_absorbs(self, acyclic_graph):
        s = materialize(acyclic_graph)
        z = s.index_of(ZERO)
        for i in range(len(s)):
            assert s.table[i][z] == z and s.table[z][i] == z

    def test_unique_representation(self, acyclic_graph):
        s = materialize(acyclic_graph)
        assert len(set(s.elements)) == len(s)

    def test_element_bound_checked_before_any_product(self, monkeypatch):
        products = []
        real = oracle.multiply
        monkeypatch.setattr(oracle, "multiply", lambda x, y: products.append(1) or real(x, y))
        for g in all_acyclic_graphs(3, 3):
            n = len(materialize(g))
            assert len(materialize(g, n)) == n
            products.clear()
            with pytest.raises(ValueError, match=f"semigroup has {n} elements, above the bound {n - 1}$"):
                materialize(g, n - 1)
            assert not products


class TestClosure:
    def test_one_class_map_gives_every_view(self):
        rho = ExplicitCongruence.from_class_map([7, 3, 7, 3, 9])
        assert rho == ExplicitCongruence((0, 1, 0, 1, 4))
        assert rho == ExplicitCongruence.from_class_map([0, 1, 0, 1, 2])
        assert rho.classes == ((0, 2), (1, 3), (4,))
        assert rho.together(1, 3) and not rho.together(0, 1)
        assert sorted(rho.generating_pairs()) == [(0, 2), (1, 3)]

    def test_no_pairs_gives_identity(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [])
        assert len(rho.classes) == len(s)

    def test_edge_idempotent_to_vertex(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [(elem(edge, "e|e"), vertex_element("v"))])
        classes = {
            frozenset(format_set) for format_set in
            (tuple(repr(s.elements[i]) for i in cls) for cls in rho.classes)
        }
        assert classes == {
            frozenset({"@v|@v", "e|e"}),
            frozenset({"@w|@w"}),
            frozenset({"e|@w"}),
            frozenset({"@w|e"}),
            frozenset({"0"}),
        }

    def test_vertex_to_zero_collapses_hereditary_closure(self, edge):
        # v ~ 0 forces e = v e ~ 0 and then w = e* e ~ 0: the zero class is
        # the ideal of the hereditary closure {v, w}, i.e. everything
        s = materialize(edge)
        rho = congruence_closure(s, [(vertex_element("v"), ZERO)])
        assert rho.classes == (tuple(range(len(s))),)
        assert triple_of_congruence(edge, s, rho) == make_triple(edge, h=edge.vertices)

    def test_sink_vertex_to_zero_keeps_the_rest(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [(vertex_element("w"), ZERO)])
        zero = s.index_of(ZERO)
        zero_class = {repr(x) for i, x in enumerate(s.elements) if rho.together(zero, i)}
        assert zero_class == {"0", "@w|@w", "e|@w", "@w|e", "e|e"}
        assert (s.index_of(vertex_element("v")),) in rho.classes

    def test_closures_are_compatible(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        for t in enumerate_triples(g):
            rho = congruence_closure(s, triple_generators(g, t))
            assert is_compatible(s, rho)


class TestEnumerateCongruences:
    def test_single_vertex(self):
        s = materialize(CORPUS["single_vertex"])
        assert len(enumerate_congruences(s)) == 2

    def test_edge_graph(self, edge):
        s = materialize(edge)
        assert len(enumerate_congruences(s)) == 4

    def test_two_edge_path_matches_triples(self):
        g = CORPUS["two_edge_path"]
        s = materialize(g)
        assert len(enumerate_congruences(s)) == len(tuple(enumerate_triples(g)))

    def test_all_outputs_are_congruences(self, edge):
        s = materialize(edge)
        for rho in enumerate_congruences(s):
            assert is_compatible(s, rho)


def acyclic_family():
    return all_acyclic_graphs(3, 3) + list(ACYCLIC_CORPUS.values())


class TestAgainstClosureReference:
    """Translating by the generators and joining by partitions give the
    congruences of the references, which translate by every element and
    close every join, order included."""

    def test_generators_are_vertices_edges_and_ghosts(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        expected = {repr(vertex_element(v)) for v in g.vertices}
        expected |= {f"{e.id}|@{e.dst}" for e in g.edges} | {f"@{e.dst}|{e.id}" for e in g.edges}
        assert {repr(s.elements[i]) for i in s.generators} == expected
        assert len(s.generators) == len(expected)

    def test_principal_closures(self):
        for g in acyclic_family():
            s = materialize(g)
            els = s.elements
            for i, j in itertools.combinations(range(len(s)), 2):
                pair = [(els[i], els[j])]
                assert congruence_closure(s, pair) == closure_by_all_translations(s, pair)

    def test_triple_generator_closures(self):
        for g in acyclic_family():
            s = materialize(g)
            for t in enumerate_triples(g):
                pairs = triple_generators(g, t)
                assert congruence_closure(s, pairs) == closure_by_all_translations(s, pairs)

    def test_enumeration(self):
        # the edgeless graph has 2^6 congruences, most of them joins of joins
        edgeless = Graph.of([f"v{i}" for i in range(6)], [])
        for g in [*acyclic_family(), edgeless]:
            s = materialize(g)
            assert enumerate_congruences(s) == congruences_by_closed_joins(s)


class TestBruteForce:
    def test_pairs_each_congruence_with_its_triple(self, acyclic_graph):
        g = acyclic_graph
        s, congruences = brute_force(g, None)
        assert s == materialize(g)
        assert [rho for rho, _ in congruences] == enumerate_congruences(s)
        for rho, t in congruences:
            assert t == triple_of_congruence(g, s, rho)

    def test_bound_is_on_the_semigroup_size(self, monkeypatch):
        products = []
        monkeypatch.setattr(oracle, "multiply", lambda x, y: products.append(1))
        # the two-edge path has 1 + 1 + 4 + 9 = 15 elements
        g = CORPUS["two_edge_path"]
        with pytest.raises(ValueError, match="semigroup has 15 elements, above the bound 14"):
            brute_force(g, 14)
        assert not products
        monkeypatch.undo()
        s, congruences = brute_force(g, 15)
        assert len(s) == 15 and len(congruences) == len(tuple(enumerate_triples(g)))

    def test_refuses_a_cycle_before_any_product(self, loop, monkeypatch):
        products = []
        monkeypatch.setattr(oracle, "multiply", lambda x, y: products.append(1))
        with pytest.raises(ValueError, match="acyclic"):
            brute_force(loop, None)
        assert not products


class TestTripleOfCongruence:
    def test_identity(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        rho = congruence_closure(s, [])
        assert triple_of_congruence(g, s, rho) == make_triple(g)

    def test_universal(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        rho = congruence_closure(s, [(x, ZERO) for x in s.elements])
        assert triple_of_congruence(g, s, rho) == make_triple(g, h=g.vertices)

    def test_edge_generator(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [(elem(edge, "e|e"), vertex_element("v"))])
        assert triple_of_congruence(edge, s, rho) == make_triple(edge, w={"v"})


class TestBijection:
    def test_both_directions_on_corpus(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        congruences = enumerate_congruences(s)
        triples = tuple(enumerate_triples(g))
        assert len(congruences) == len(triples)
        # closure of the recovered triple gives back the congruence
        for rho in congruences:
            t = triple_of_congruence(g, s, rho)
            assert congruence_closure(s, triple_generators(g, t)) == rho
        # recovering from the closure gives back the triple
        recovered = set()
        for t in triples:
            rho = congruence_closure(s, triple_generators(g, t))
            assert triple_of_congruence(g, s, rho) == t
            recovered.add(rho)
        assert recovered == set(congruences)

    def test_monotone(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        congruences = enumerate_congruences(s)
        for r1 in congruences:
            for r2 in congruences:
                if all(r2.together(cls[0], i) for cls in r1.classes for i in cls[1:]):
                    assert triple_leq(
                        g, triple_of_congruence(g, s, r1), triple_of_congruence(g, s, r2)
                    )


class TestTransitionOracle:
    def test_loop_square_reached(self, loop):
        t = loop_triple(loop, 2)
        r = TransitionOracle(loop, t, 6).search(elem(loop, "e.e|@v"), vertex_element("v"))
        assert r.reached and r.chain is not None
        assert r.chain[0] == elem(loop, "e.e|@v") and r.chain[-1] == vertex_element("v")

    def test_reflexive_in_zero_steps(self, loop):
        t = loop_triple(loop, 2)
        r = TransitionOracle(loop, t, 6).search(elem(loop, "e|@v"), elem(loop, "e|@v"))
        assert r.reached and r.expansions == 0

    def test_single_lap_not_reached(self, loop):
        t = loop_triple(loop, 2)
        r = TransitionOracle(loop, t, 10).search(
            elem(loop, "e|@v"), vertex_element("v"), 10_000
        )
        assert not r.reached

    def test_chain_steps_are_related(self, loop, two_cycle):
        for g, t in [
            (loop, loop_triple(loop, 2)),
            (two_cycle, tuple(enumerate_triples(two_cycle, 2))[4]),
        ]:
            oracle = TransitionOracle(g, t, 6)
            pool = bounded_elements(g, 3)
            for x in pool:
                for y in pool:
                    r = oracle.search(x, y, 50_000)
                    if r.reached and r.chain:
                        for u, w in zip(r.chain, r.chain[1:]):
                            assert equiv(g, t, u, w)

    def test_out_of_bounds_inputs_are_inconclusive(self, loop):
        t = loop_triple(loop, 2)
        big = elem(loop, ".".join(["e"] * 9) + "|@v")
        r = TransitionOracle(loop, t, 6).search(big, vertex_element("v"))
        assert not r.reached

    def test_reached_implies_equiv(self, corpus_graph):
        g = corpus_graph
        triples = tuple(enumerate_triples(g, f_cap=2))
        for t in triples[:: max(1, len(triples) // 4)]:
            oracle = TransitionOracle(g, t, 4)
            pool = bounded_elements(g, 2)
            for x in pool[:25]:
                for y in pool[:25]:
                    r = oracle.search(x, y, 20_000)
                    if r.reached:
                        assert equiv(g, t, x, y)

    @pytest.mark.parametrize("len_bound", [1, 2, 3])
    def test_neighbors_match_brute_force(self, corpus_graph, len_bound):
        """Against the exhaustive scan and the context-by-context
        expansion, for every triple; at len_bound 3, where the references
        would take a minute, for a spread of nonzero elements."""
        g = corpus_graph
        universe = bounded_elements(g, len_bound)
        elements = universe if len_bound < 3 else spread(universe[1:], 12)
        for t in enumerate_triples(g, f_cap=2):
            o = TransitionOracle(g, t, len_bound)
            brute = BruteNeighbors(o, directed_pairs(g, t, len_bound))
            assert_neighbours_agree(t, o, PrefixIndexOracle(g, t, len_bound), brute, elements)

    def test_search_never_lists_the_universe(self, monkeypatch, double_loop):
        """Neither building the oracle nor searching, through 0 or not,
        lists U, which has 4^8 pairs of paths on double_loop at bound 8."""

        def refuse(*args):
            raise AssertionError("the universe was listed")

        monkeypatch.setattr(oracle, "bounded_elements", refuse)
        o = TransitionOracle(double_loop, make_triple(double_loop), 8)
        assert o.search(elem(double_loop, "a|a"), elem(double_loop, "a|a")).chain == (
            elem(double_loop, "a|a"),
        )
        g = CORPUS["parallel_two_cycle"]
        o = TransitionOracle(g, make_triple(g, h={"v", "w"}), 4)
        for x, y in [(ZERO, elem(g, "a1|a1")), (elem(g, "a1|a1"), ZERO)]:
            r = o.search(x, y, 5)
            assert r.reached and r.chain == (x, y)

    def test_step_bound_is_shared_through_zero(self):
        g = CORPUS["parallel_two_cycle"]
        o = TransitionOracle(g, make_triple(g, h={"v", "w"}), 2)
        x, y = elem(g, "a1|a1"), elem(g, "a2|a2")
        assert o.neighbors(x) == {ZERO}
        assert o.search(x, y, 1) == TransitionResult(False, None, 1)
        assert o.search(x, y, 2) == TransitionResult(True, (x, ZERO, y), 2)

    def test_zero_is_never_expanded(self, loop):
        o = TransitionOracle(loop, loop_triple(loop, 2), 2)
        with pytest.raises(ValueError, match="0 is never expanded"):
            o.neighbors(ZERO)

    def test_cached_search_still_refuses_zero_and_long_nodes(self, loop):
        """neighbors looks in its cache first and checks only on a miss;
        a search that fills the cache lets neither 0 nor a node over the
        bound through."""
        o = TransitionOracle(loop, loop_triple(loop, 2), 2)
        assert o.search(elem(loop, "e.e|@v"), elem(loop, "e|e")).expansions > 0
        with pytest.raises(ValueError, match="0 is never expanded"):
            o.neighbors(ZERO)
        with pytest.raises(ValueError, match="exceeds the length bound 2"):
            o.neighbors(elem(loop, "e.e.e|@v"))

    def test_universe_is_listed_on_read(self, two_cycle):
        o = TransitionOracle(two_cycle, make_triple(two_cycle), 2)
        assert o.universe == bounded_elements(two_cycle, 2)

    @pytest.mark.parametrize("len_bound", [1, 2])
    def test_search_matches_zero_expanding_reference(self, corpus_graph, len_bound):
        """The search joined through 0 reaches what one breadth-first
        search that expands 0 reaches, on pairs of a spread of U with 0 at
        either end; each link of a chain is one rewrite between related
        elements."""
        g = corpus_graph
        pool = [ZERO] + spread(bounded_elements(g, len_bound)[1:], 10)
        for t in enumerate_triples(g, f_cap=2):
            o = TransitionOracle(g, t, len_bound)
            ref = PrefixIndexOracle(g, t, len_bound)
            for x in pool:
                for y in pool:
                    r = o.search(x, y)
                    assert r.reached == ref.search(x, y).reached, (t, len_bound, x, y)
                    if not r.reached:
                        continue
                    assert r.chain[0] == x and r.chain[-1] == y
                    for a, b in zip(r.chain, r.chain[1:]):
                        assert equiv(g, t, a, b)
                        assert a in o.neighbors(b) if a.is_zero else b in o.neighbors(a)

    def test_out_of_bounds_element_has_no_neighbour_set(self, loop):
        o = TransitionOracle(loop, loop_triple(loop, 2), 2)
        with pytest.raises(ValueError, match="exceeds the length bound 2"):
            o.neighbors(elem(loop, "e.e.e|@v"))


def assert_neighbours_agree(t, o, ref, brute, elements):
    """o, the reference oracle ref and the exhaustive scan brute, all
    built for the triple t, give each element the same neighbours."""
    for z in elements:
        expected = brute.neighbors(z)
        assert row(o, brute.universe, z) == expected, (t, o.len_bound, z)
        assert ref.neighbors(z) == expected, (t, o.len_bound, z)


def row(o, universe, z):
    """The neighbours of z. o never expands 0, so the row of 0 is read by
    symmetry: the x != 0 of the universe with 0 a neighbour of x."""
    if not z.is_zero:
        return o.neighbors(z)
    return frozenset(x for x in universe[1:] if ZERO in o.neighbors(x))


def spread(elements, count):
    """About count elements, evenly spaced."""
    return elements[:: max(1, len(elements) // count)]


class TestSiteNeighbours:
    """The neighbour sets read off the sites of z's walk are those of the
    exhaustive scan, and those of the context-by-context expansion (see
    also test_neighbors_match_brute_force). Where the references would
    take minutes, as on the 16 130 elements of double_loop at len_bound
    6, a spread of nonzero elements is checked."""

    def test_seeded_multigraphs(self):
        """One seeded triple per draw; universes of more than 40 elements
        (up to 1 020 here) by a spread of 6 nonzero elements, without
        searches. The searches are checked against the reference's single
        breadth-first search that expands 0, with 0 at either end of one
        pair in three."""
        rng = random.Random(2018)
        whole = 0
        for g in seeded_multigraphs(10, 200, max_vertices=5):
            t = rng.choice(tuple(enumerate_triples(g, f_cap=2)))
            for len_bound in (1, 2):
                o = TransitionOracle(g, t, len_bound)
                ref = PrefixIndexOracle(g, t, len_bound)
                brute = BruteNeighbors(o, directed_pairs(g, t, len_bound))
                universe = brute.universe
                if len(universe) > 40:
                    assert_neighbours_agree(t, o, ref, brute, spread(universe[1:], 6))
                    continue
                assert_neighbours_agree(t, o, ref, brute, universe)
                for x, y in [
                    (rng.choice(universe), rng.choice(universe)),
                    (rng.choice(universe), ZERO),
                    (ZERO, rng.choice(universe)),
                ]:
                    assert o.search(x, y, 2_000).reached == ref.search(x, y, 2_000).reached
                whole += 1
        assert whole >= 200

    @pytest.mark.parametrize("name, count", [("loop", 49), ("double_loop", 12)])
    def test_one_vertex_at_bound_six(self, name, count):
        g = CORPUS[name]
        elements = spread(bounded_elements(g, 6)[1:], count)
        for t in enumerate_triples(g, f_cap=2):
            o = TransitionOracle(g, t, 6)
            brute = BruteNeighbors(o, directed_pairs(g, t, 6))
            assert_neighbours_agree(t, o, PrefixIndexOracle(g, t, 6), brute, elements)

    def test_outside_context(self, two_cycle):
        """A neighbour that only a context outside the universe gives."""
        g = two_cycle
        c = Cycle.from_path(make_path(g, ["e1", "e2"]))
        t = make_triple(g, w={"v", "w"}, f={c: 1})
        o = TransitionOracle(g, t, 1)
        z, y = elem(g, "@v|e2"), elem(g, "e1|@w")
        assert y in o.neighbors(z)
        universe = bounded_elements(g, 1)
        assert not any(
            multiply(multiply(u, a), w) == z and multiply(multiply(u, b), w) == y
            for a, b in directed_pairs(g, t, 1) for u in universe for w in universe
        )

    def test_long_powers_agree_with_the_true_pairs(self, loop, two_cycle, pendant):
        """Past 2 * len_bound edges, the oracle's pair (c^f, s(c)) holds the
        least longer power of c; the neighbour sets are those of c^f."""
        for g in (loop, two_cycle, pendant):
            for len_bound in (1, 2):
                universe = bounded_elements(g, len_bound)
                for t in enumerate_triples(g, f_cap=1):
                    if not t.f:
                        continue
                    (c, _), = t.f
                    for f in (2 * len_bound // len(c.path) + 1, 40):
                        long = make_triple(g, t.h, t.w, {c: f})
                        o = TransitionOracle(g, long, len_bound)
                        assert all(
                            len(x.alpha) <= 2 * len_bound + len(c.path)
                            for pair in directed_pairs(g, long, len_bound)
                            for x in pair if not x.is_zero
                        )
                        gens = triple_generators(g, long)
                        brute = BruteNeighbors(o, gens + [(b, a) for a, b in gens])
                        for z in universe:
                            assert row(o, universe, z) == brute.neighbors(z), (long, len_bound, z)

    def test_million_laps_search(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        t = make_triple(loop, w={"v"}, f={c: 10**6})
        o = TransitionOracle(loop, t, 3)
        assert max(len(a.alpha) for a, _ in directed_pairs(loop, t, 3)) == 7
        assert o.search(elem(loop, "e|e"), vertex_element("v")).chain == (
            elem(loop, "e|e"), vertex_element("v"),
        )
        assert not o.search(elem(loop, "e|@v"), vertex_element("v")).reached

    def test_work_is_linear_in_the_walks(self, loop, monkeypatch):
        """On the loop, where every path is a prefix of every longer one,
        expanding all of U takes products and element constructions in
        proportion to the walks' lengths times the pairs, not to |U|."""
        t = loop_triple(loop, 2)
        o = TransitionOracle(loop, t, 12)
        universe = bounded_elements(loop, 12)
        work = []
        for name in ("multiply", "Element"):
            real = getattr(oracle, name)
            monkeypatch.setattr(
                oracle, name, lambda *a, real=real: work.append(1) or real(*a)
            )
        found = sum(len(o.neighbors(z) - {z}) for z in universe[1:])
        walks = sum(len(z.alpha) + len(z.beta) for z in universe[1:])
        assert found == 1148
        assert len(work) <= walks * len(directed_pairs(loop, t, 12))


class TestOrderAcrossProcesses:
    """Under a fixed PYTHONHASHSEED, hashes and hence the iteration order
    of neighbour sets, which the breadth-first search follows, repeat from
    one process to the next; zero holds no address-based hash."""

    SCRIPT = """
from graphinverse.congruences import make_triple
from graphinverse.corpus import CORPUS
from graphinverse.elements import ZERO, format_element, parse_element
from graphinverse.oracle import TransitionOracle
g = CORPUS["two_edge_path"]
oracle = TransitionOracle(g, make_triple(g, h={"w"}), 2)
print(hash(ZERO))
print([format_element(x) for x in oracle.neighbors(parse_element(g, "@w|@w"))])
"""

    def run(self) -> str:
        src = str(FilePath(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_zero_hash_and_neighbour_order_repeat(self):
        first = self.run()
        assert "'0'" in first  # zero is among the neighbours listed
        assert self.run() == first

    def test_nonzero_hash_is_the_field_hash(self, two_cycle):
        for x in bounded_elements(two_cycle, 2):
            if not x.is_zero:
                assert hash(x) == hash((x.alpha, x.beta))
        assert hash(ZERO) == hash(Element(None, None))


class TestVertexClassFormTest:
    def test_agrees_with_equiv_on_vertex_targets(self, loop, pendant):
        for g in (loop, pendant):
            for t in enumerate_triples(g, f_cap=2):
                pool = bounded_elements(g, 4)
                for v in g.vertices:
                    if v in t.h:
                        continue
                    target = vertex_element(v)
                    for x in pool:
                        expected = x != ZERO and equiv(g, t, x, target)
                        assert vertex_class_form_test(g, t, v, x) == expected, (t, v, x)


def test_no_module_level_cache():
    modules = [graphinverse] + [
        importlib.import_module(f"graphinverse.{m.name}")
        for m in pkgutil.iter_modules(graphinverse.__path__)
        if m.name != "__main__"
    ]
    for mod in modules:
        cached = [name for name, value in vars(mod).items() if hasattr(value, "cache_info")]
        assert not cached, (mod.__name__, cached)
