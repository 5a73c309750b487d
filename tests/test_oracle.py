from __future__ import annotations

import importlib
import itertools
import pkgutil

import pytest

import graphinverse
from graphinverse import oracle
from graphinverse.elements import ZERO, multiply, parse_element, vertex_element
from graphinverse.congruences import (
    enumerate_triples,
    equiv,
    identity_triple,
    make_triple,
    triple_generators,
    triple_leq,
    universal_triple,
)
from graphinverse.corpus import CORPUS, all_acyclic_graphs, two_edge_path
from graphinverse.oracle import (
    TransitionOracle,
    bounded_elements,
    congruence_closure,
    enumerate_congruences,
    is_compatible,
    materialize,
    triple_of_congruence,
    vertex_class_form_test,
)
from test_congruences import loop_triple


def elem(g, literal):
    return parse_element(g, literal)


class BruteNeighbors:
    """Reference neighbour sets of a TransitionOracle by exhaustive scan:
    every context u with u a nonzero against _solve_right, every w with
    a w nonzero against _solve_left, and for zero every pair (u, w) of
    the universe with u a w = 0."""

    def __init__(self, o):
        self.oracle = o
        self.left = []
        self.right = []
        for a, b in o.directed:
            left = []
            right = []
            for u in o.universe:
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
        return frozenset(x for x in self._neighbors(z) if o._within(x))

    def _neighbors(self, z):
        o = self.oracle
        if z.is_zero:
            for a, b in o.directed:
                for u in o.universe:
                    ua = multiply(u, a)
                    ub = multiply(u, b)
                    for w in o.universe:
                        if multiply(ua, w).is_zero:
                            yield multiply(ub, w)
            return
        for gi in range(len(o.directed)):
            for u, ua, ub in self.left[gi]:
                for w in oracle._solve_right(ua, z):
                    yield multiply(ub, w)
            for w, aw, bw in self.right[gi]:
                for u in oracle._solve_left(aw, z):
                    yield multiply(u, bw)


class TestMaterialize:
    def test_edge_graph_has_six(self, edge):
        s = materialize(edge)
        assert len(s) == 6
        assert s.elements[0] == ZERO

    def test_single_vertex_has_two(self):
        assert len(materialize(CORPUS["single_vertex"])) == 2

    def test_two_edge_path_count_pinned(self):
        # oracle-derived regression value: 14 nonzero path pairs plus zero
        assert len(materialize(two_edge_path())) == 15

    def test_rejects_cyclic(self, loop):
        with pytest.raises(ValueError):
            materialize(loop)

    def test_table_matches_multiply(self, acyclic_graph):
        from graphinverse.elements import multiply

        s = materialize(acyclic_graph)
        for i, x in enumerate(s.elements):
            for j, y in enumerate(s.elements):
                assert s.elements[s.mul(i, j)] == multiply(x, y)

    def test_table_is_associative(self, acyclic_graph):
        s = materialize(acyclic_graph)
        n = len(s)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert s.mul(s.mul(i, j), k) == s.mul(i, s.mul(j, k))

    def test_zero_absorbs(self, acyclic_graph):
        s = materialize(acyclic_graph)
        z = s.index_of(ZERO)
        for i in range(len(s)):
            assert s.mul(i, z) == z and s.mul(z, i) == z

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
        assert triple_of_congruence(edge, s, rho) == universal_triple(edge)

    def test_sink_vertex_to_zero_keeps_the_rest(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [(vertex_element("w"), ZERO)])
        zero_class = {repr(s.elements[i]) for i in rho.class_of(s.index_of(ZERO))}
        assert zero_class == {"0", "@w|@w", "e|@w", "@w|e", "e|e"}
        assert rho.class_of(s.index_of(vertex_element("v"))) == (
            s.index_of(vertex_element("v")),
        )

    def test_closures_are_compatible(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        for t in enumerate_triples(g).triples:
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
        g = two_edge_path()
        s = materialize(g)
        assert len(enumerate_congruences(s)) == len(enumerate_triples(g).triples)

    def test_bound_is_enforced(self):
        s = materialize(two_edge_path())
        with pytest.raises(ValueError):
            enumerate_congruences(s, max_elements=10)

    def test_all_outputs_are_congruences(self, edge):
        s = materialize(edge)
        for rho in enumerate_congruences(s):
            assert is_compatible(s, rho)


class TestTripleOfCongruence:
    def test_identity(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        rho = congruence_closure(s, [])
        assert triple_of_congruence(g, s, rho) == identity_triple(g)

    def test_universal(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        rho = congruence_closure(s, [(x, ZERO) for x in s.elements])
        assert triple_of_congruence(g, s, rho) == universal_triple(g)

    def test_edge_generator(self, edge):
        s = materialize(edge)
        rho = congruence_closure(s, [(elem(edge, "e|e"), vertex_element("v"))])
        assert triple_of_congruence(edge, s, rho) == make_triple(edge, w={"v"})


class TestBijection:
    def test_both_directions_on_corpus(self, acyclic_graph):
        g = acyclic_graph
        s = materialize(g)
        congruences = enumerate_congruences(s, max_elements=64)
        triples = enumerate_triples(g).triples
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
        congruences = enumerate_congruences(s, max_elements=64)
        for r1 in congruences:
            for r2 in congruences:
                if r1.refines(r2):
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
            (two_cycle, enumerate_triples(two_cycle, 2).triples[4]),
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
        triples = enumerate_triples(g, f_cap=2).triples
        for t in triples[:: max(1, len(triples) // 4)]:
            oracle = TransitionOracle(g, t, 4)
            pool = bounded_elements(g, 2)
            for x in pool[:25]:
                for y in pool[:25]:
                    r = oracle.search(x, y, 20_000)
                    if r.reached:
                        assert equiv(g, t, x, y)

    @pytest.mark.parametrize("len_bound", [1, 2])
    def test_neighbors_match_brute_force(self, corpus_graph, len_bound):
        g = corpus_graph
        triples = enumerate_triples(g, f_cap=2).triples
        for t in triples[:: max(1, len(triples) // 4)]:
            o = TransitionOracle(g, t, len_bound)
            brute = BruteNeighbors(o)
            for z in o.universe:
                assert o.neighbors(z) == brute.neighbors(z), (t, z)

    def test_zero_expansion_is_linear_in_contexts(self, monkeypatch):
        g = CORPUS["parallel_two_cycle"]
        o = TransitionOracle(g, make_triple(g, h={"v", "w"}), 4)
        products = []
        real = oracle.multiply
        monkeypatch.setattr(oracle, "multiply", lambda x, y: products.append(1) or real(x, y))
        zero_class = o.neighbors(ZERO)
        assert len(products) <= 2 * len(o.directed) * len(o.universe)
        assert zero_class == frozenset(o.universe)
        assert o.search(ZERO, elem(g, "a1|a1"), 5).reached


class TestVertexClassFormTest:
    def test_agrees_with_equiv_on_vertex_targets(self, loop, pendant):
        for g in (loop, pendant):
            for t in enumerate_triples(g, f_cap=2).triples:
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
