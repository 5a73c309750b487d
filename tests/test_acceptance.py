"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

from graphinverse.congruences import (
    INF,
    chain_stabilizes,
    enumerate_triples,
    equiv,
    make_triple,
    normal_form,
    triple_generators,
    triple_leq,
)
from graphinverse.corpus import (
    CORPUS,
    CYCLIC_CORPUS,
    all_acyclic_graphs,
    edge_graph,
    loop_graph,
    single_vertex,
)
from graphinverse.elements import Element, ZERO, multiply, path_element, vertex_element
from graphinverse.graphs import (
    Cycle,
    concat,
    cycles_in,
    index_one_edges,
    is_congruence_free_graph,
    is_strongly_connected,
    make_path,
    vertex_path,
)
from graphinverse.oracle import (
    TransitionOracle,
    all_paths,
    bounded_elements,
    congruence_closure,
    enumerate_congruences,
    materialize,
    triple_of_congruence,
)
from reference import (
    based_at,
    exits_of,
    hereditary_sets,
    index_one_vertices,
    quotient,
    reduce_mod_h,
    rees_only_condition,
    vertex_class_form_test,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def spread(seq, limit):
    if len(seq) <= limit:
        return list(seq)
    step = max(1, len(seq) // limit)
    return list(seq[::step])[:limit]


def test_criterion_1_bijection_on_small_acyclic_graphs():
    with criterion(1, "congruence/triple bijection on all acyclic graphs "
                      "with <= 3 vertices and <= 3 edges"):
        started = time.monotonic()
        graphs = all_acyclic_graphs(3, 3)
        assert len(graphs) == 69
        for g in graphs:
            s = materialize(g)
            congruences = enumerate_congruences(s)
            triples = tuple(enumerate_triples(g))
            expected = sum(
                2 ** len(index_one_vertices(quotient(g, h)))
                for h in hereditary_sets(g)
            )
            assert len(congruences) == len(triples) == expected
            for rho in congruences:
                t = triple_of_congruence(g, s, rho)
                assert congruence_closure(s, triple_generators(g, t)) == rho
            recovered = set()
            for t in triples:
                rho = congruence_closure(s, triple_generators(g, t))
                assert triple_of_congruence(g, s, rho) == t
                recovered.add(rho)
            assert recovered == set(congruences)
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"took {elapsed:.1f}s, budget is 5 minutes"


def test_criterion_2_smallest_instances():
    with criterion(2, "edge graph has exactly 4 congruences, "
                      "single vertex exactly 2"):
        started = time.monotonic()
        assert len(enumerate_congruences(materialize(edge_graph()))) == 4
        assert len(enumerate_congruences(materialize(single_vertex()))) == 2
        assert time.monotonic() - started < 1.0


def test_criterion_3_loop_graph_oracle_agreement():
    with criterion(3, "loop graph: equiv agrees with the bounded transition "
                      "oracle for f in {1, 2, 3, inf}"):
        g = loop_graph()
        c = Cycle.from_path(make_path(g, ["e"]))
        pool = bounded_elements(g, 6)
        universe = bounded_elements(g, 12)
        for value in (1, 2, 3, INF):
            t = make_triple(g, w={"v"}, f={c: value})
            oracle = TransitionOracle(g, t, 12)
            # 0 is joined into a component but never expanded; a component
            # that meets it takes the label of the first one that did, as
            # x is a neighbour of 0 exactly when 0 is one of x
            component: dict = {}
            expansions = 0
            for start in universe[1:]:
                if start in component:
                    continue
                label = component[start] = start
                members = [start]
                stack = [start]
                while stack:
                    z = stack.pop()
                    expansions += 1
                    for nxt in oracle.neighbors(z):
                        if nxt.is_zero:
                            label = component.setdefault(ZERO, start)
                        elif nxt not in component:
                            component[nxt] = start
                            members.append(nxt)
                            stack.append(nxt)
                for z in members:
                    component[z] = label
            component.setdefault(ZERO, ZERO)
            assert expansions <= 100_000
            for x in pool:
                for y in pool:
                    related = equiv(g, t, x, y)
                    reached = component[x] == component[y]
                    # reached certifies relatedness; related pairs must be
                    # reached within the stated bounds
                    assert reached == related, (value, x, y)
                    if not related and y != ZERO and y.alpha == y.beta and not y.alpha.edges:
                        v = y.alpha.source
                        assert not vertex_class_form_test(g, t, v, x)


def test_criterion_4_pair_round_trip():
    with criterion(4, "T recovers (W, f) from the congruence of every pair "
                      "with f <= 4 or inf, on the cyclic corpus"):
        for name, g in sorted(CYCLIC_CORPUS.items()):
            bar = index_one_vertices(g)
            for t in enumerate_triples(g, f_cap=4):
                if t.h:
                    continue
                recovered_w = frozenset(
                    v
                    for v in bar
                    for e in [g.out_edges(v)[0]]
                    if equiv(
                        g,
                        t,
                        Element(
                            make_path(g, [e.id]), make_path(g, [e.id])
                        ),
                        vertex_element(v),
                    )
                )
                assert recovered_w == t.w, (name, t)
                w_edges = {v: e for v, e in index_one_edges(g).items() if v in t.w}
                for cyc in cycles_in(g, w_edges):
                    found = INF
                    for m in range(1, 13):
                        if equiv(
                            g, t, path_element(cyc.power(m)), vertex_element(cyc.base)
                        ):
                            found = m
                            break
                    assert found == dict(t.f)[cyc], (name, t, cyc)


def _class_mate(rng, g, t, quotient_graph, x):
    """A random element guaranteed to share x's class."""
    if x.is_zero or reduce_mod_h(g, t, x).is_zero:
        return x
    choices = []
    v = x.alpha.target
    if v in t.w:
        (e,) = quotient_graph.out_edges(v)
        step = make_path(quotient_graph, [e.id])
        choices.append(Element(concat(x.alpha, step), concat(x.beta, step)))
    if (
        x.alpha.edges
        and x.beta.edges
        and x.alpha.edges[-1] == x.beta.edges[-1]
        and x.alpha.vertices[-2] in t.w
    ):
        choices.append(
            Element(
                make_path(quotient_graph, x.alpha.edges[:-1], source=x.alpha.source),
                make_path(quotient_graph, x.beta.edges[:-1], source=x.beta.source),
            )
        )
    for cyc, value in t.f:
        if value != INF and v in cyc.vertex_set:
            lap = based_at(cyc, v)
            laps = vertex_path(v)
            for _ in range(int(value)):
                laps = concat(laps, lap)
            choices.append(Element(concat(x.alpha, laps), x.beta))
            choices.append(Element(x.alpha, concat(x.beta, laps)))
    if not choices:
        return x
    return rng.choice(choices)


def test_criterion_5_congruence_axioms_sampled():
    with criterion(5, "equiv is an equivalence compatible with products on "
                      ">= 10^4 samples per corpus graph"):
        rng = random.Random(20260810)
        for name, g in sorted(CORPUS.items()):
            pool = bounded_elements(g, 3)
            triples = spread(tuple(enumerate_triples(g, f_cap=3)), 4)
            per_triple = 10_000 // len(triples) + 1
            for t in triples:
                q = quotient(g, t.h)
                for _ in range(per_triple):
                    x, y, z = (rng.choice(pool) for _ in range(3))
                    assert equiv(g, t, x, x)
                    xy = equiv(g, t, x, y)
                    assert xy == equiv(g, t, y, x)
                    mate = _class_mate(rng, g, t, q, x)
                    assert equiv(g, t, x, mate)
                    if xy:
                        # transitivity through the guaranteed mate
                        assert equiv(g, t, mate, y)
                        assert equiv(g, t, multiply(z, x), multiply(z, y))
                        assert equiv(g, t, multiply(x, z), multiply(y, z))
                    assert equiv(g, t, multiply(z, x), multiply(z, mate))
                    assert equiv(g, t, multiply(x, z), multiply(mate, z))


def test_criterion_6_normal_form_complete():
    with criterion(6, "normal forms coincide exactly on related pairs, "
                      "exhaustively for path lengths <= 4"):
        for name, g in sorted(CORPUS.items()):
            pool = bounded_elements(g, 4)
            triples = spread(tuple(enumerate_triples(g, f_cap=3)), 6)
            for t in triples:
                forms = {x: normal_form(g, t, x) for x in pool}
                for x in pool:
                    assert equiv(g, t, x, forms[x])
                for x, y in itertools.combinations(pool, 2):
                    assert (forms[x] == forms[y]) == equiv(g, t, x, y), (name, t, x, y)


def test_criterion_7_graph_predicates_match_brute_force():
    with criterion(7, "0-simple / Rees-only / congruence-free predicates "
                      "match brute force and hereditary structure"):
        graphs = all_acyclic_graphs(3, 3) + list(CORPUS.values())
        for g in graphs:
            if not g.vertices:
                continue
            hereditary = hereditary_sets(g)
            zero_simple = hereditary == [frozenset(), frozenset(g.vertices)]
            assert is_strongly_connected(g) == zero_simple
            from graphinverse.graphs import is_acyclic

            if not is_acyclic(g):
                continue
            s = materialize(g)
            congruences = enumerate_congruences(s)
            assert is_congruence_free_graph(g) == (len(congruences) == 2)
            all_rees = all(
                congruence_closure(
                    s,
                    [
                        (vertex_element(v), ZERO)
                        for v in g.vertices
                        if rho.together(
                            s.index_of(vertex_element(v)), s.index_of(ZERO)
                        )
                    ],
                )
                == rho
                for rho in congruences
            )
            assert rees_only_condition(g) == all_rees


def _special_triples(g, f_cap=3, limit=6):
    return spread(
        [t for t in enumerate_triples(g, f_cap=f_cap) if not t.h], limit
    )


def test_criterion_8_structural_consequences():
    with criterion(8, "structural consequences of relatedness hold on "
                      "bounded samples (distinct vertices, sources, "
                      "rotations, exits, subpaths, divisibility)"):
        for name, g in sorted(CORPUS.items()):
            paths = all_paths(g, 4)
            pool = bounded_elements(g, 3)
            for t in _special_triples(g):
                # distinct vertices are never related
                for u in g.vertices:
                    for v in g.vertices:
                        if u != v:
                            assert not equiv(
                                g, t, vertex_element(u), vertex_element(v)
                            )
                for x in pool:
                    if x.is_zero:
                        continue
                    for v in g.vertices:
                        if equiv(g, t, x, vertex_element(v)):
                            # both sides start at the vertex
                            assert x.alpha.source == v and x.beta.source == v
                            # and are no-exit
                            assert not exits_of(g, x.alpha)
                            assert not exits_of(g, x.beta)
                # closed products collapse symmetrically
                for a in paths:
                    for b in paths:
                        if a.target != b.source or b.target != a.source:
                            continue
                        ab = equiv(
                            g, t, path_element(concat(a, b)), vertex_element(a.source)
                        )
                        ba = equiv(
                            g, t, path_element(concat(b, a)), vertex_element(b.source)
                        )
                        assert ab == ba
                # subpaths of collapsing idempotents collapse
                for a in paths:
                    if not equiv(
                        g, t, Element(a, a), vertex_element(a.source)
                    ):
                        continue
                    for i in range(len(a) + 1):
                        for j in range(i, len(a) + 1):
                            mid = make_path(g, a.edges[i:j], source=a.vertices[i])
                            assert equiv(
                                g, t, Element(mid, mid), vertex_element(mid.source)
                            )
                # lap divisibility
                for cyc, value in t.f:
                    for m in range(1, 10):
                        expected = value != INF and m % int(value) == 0
                        assert (
                            equiv(
                                g,
                                t,
                                path_element(cyc.power(m)),
                                vertex_element(cyc.base),
                            )
                            == expected
                        )


def test_criterion_9_noetherian_demo():
    with criterion(9, "random weakly increasing triple chains of length 50 "
                      "stabilize; acyclic stabilization index <= triple count"):
        rng = random.Random(97)
        from graphinverse.graphs import is_acyclic

        for name, g in sorted(CORPUS.items()):
            triples = tuple(enumerate_triples(g, f_cap=6))
            for _ in range(100):
                # grow through random strict upper bounds for a while, then
                # stay put: a random weakly increasing chain of length 50
                chain = [rng.choice(triples)]
                growing = True
                while len(chain) < 50:
                    if growing and rng.random() < 0.7:
                        uppers = [
                            u
                            for u in triples
                            if u != chain[-1] and triple_leq(g, chain[-1], u)
                        ]
                        if uppers:
                            chain.append(rng.choice(uppers))
                            continue
                        growing = False
                    else:
                        growing = False
                    chain.append(chain[-1])
                m = chain_stabilizes(g, chain)
                assert m < 50, (name, m)
                if is_acyclic(g):
                    assert m <= len(triples), (name, m)
