from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinverse.graphs import (
    Cycle,
    Graph,
    Path,
    concat,
    cycle_power,
    make_path,
    remainder,
    vertex_path,
)
from graphinverse.congruences import enumerate_triples, normal_form
from graphinverse.elements import (
    ElementLiteralError,
    ZERO,
    Element,
    format_element,
    idempotent_element,
    multiply,
    parse_element,
    path_element,
    vertex_element,
)
from graphinverse.corpus import CORPUS, double_loop, loop_graph, two_cycle
from graphinverse.oracle import TransitionOracle, all_paths, bounded_elements
from reference import conjugate_cycle, inverse, is_prefix, strip_cycle_prefix
from test_graphs import seeded_multigraphs


def elem(g, literal):
    return parse_element(g, literal)


def is_idempotent(x):
    """The idempotents are zero and the elements with alpha == beta."""
    return x.is_zero or x.alpha == x.beta


# Reference helpers: the closed-path factorization and lap-power
# recognition the decision procedure used before it read lap powers off
# the compiled triple. tests/test_congruences.py checks against them.


def decompose_closed_path(p: Path) -> list[Path]:
    """Cut a closed path after each return to its base.

    The factors are the unique closed simple paths (based at the source)
    whose concatenation is p; a length-0 path yields the empty list.
    """
    if not p.is_closed:
        raise ValueError(f"path {p!r} is not closed")
    base = p.source
    factors = []
    start = 0
    for i in range(1, len(p.vertices)):
        if p.vertices[i] == base:
            factors.append(Path(p.vertices[start : i + 1], p.edges[start:i]))
            start = i
    return factors


def as_cycle_power(p: Path) -> tuple[Cycle, int] | None:
    """Recognize p as m identical laps of a single cycle.

    Returns the canonical cycle and the exponent m >= 1, or None when p is
    not closed or its closed simple factors are not all one cycle.
    """
    if len(p) < 1:
        raise ValueError("cycle-power recognition needs a nonempty path")
    if not p.is_closed:
        return None
    factors = decompose_closed_path(p)
    first = factors[0]
    if any(f != first for f in factors[1:]):
        return None
    body = first.vertices[:-1]
    if len(set(body)) != len(body):
        return None
    return Cycle.from_path(first), len(factors)


class TestMultiply:
    def test_edge_times_ghost_is_idempotent(self, edge):
        assert multiply(elem(edge, "e|@w"), elem(edge, "@w|e")) == elem(edge, "e|e")

    def test_ghost_times_edge_is_range(self, edge):
        assert multiply(elem(edge, "@w|e"), elem(edge, "e|@w")) == vertex_element("w")

    def test_distinct_vertices_annihilate(self, edge):
        assert multiply(vertex_element("v"), vertex_element("w")) == ZERO
        assert multiply(vertex_element("v"), vertex_element("v")) == vertex_element("v")

    def test_source_vertex_acts_as_identity(self, edge):
        e = elem(edge, "e|@w")
        assert multiply(vertex_element("v"), e) == e
        assert multiply(e, vertex_element("w")) == e

    def test_zero_absorbs(self, edge):
        e = elem(edge, "e|@w")
        assert multiply(ZERO, e) == ZERO
        assert multiply(e, ZERO) == ZERO

    def test_non_composable_is_zero_not_error(self, edge):
        assert multiply(elem(edge, "e|@w"), elem(edge, "e|@w")) == ZERO

    @pytest.mark.parametrize(
        "name,bound",
        [("loop", 3), ("edge", 3), ("two_cycle", 3), ("double_loop", 2)],
    )
    def test_associative_exhaustively(self, name, bound):
        g = CORPUS[name]
        pool = bounded_elements(g, bound)
        for x, y, z in itertools.product(pool, repeat=3):
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


class TestInverse:
    def test_swaps_sides(self, edge):
        assert inverse(elem(edge, "e|@w")) == elem(edge, "@w|e")

    def test_vertices_self_inverse(self):
        assert inverse(vertex_element("v")) == vertex_element("v")

    def test_zero_self_inverse(self):
        assert inverse(ZERO) == ZERO

    def test_involution_and_regularity(self, corpus_graph):
        for x in bounded_elements(corpus_graph, 3):
            assert inverse(inverse(x)) == x
            assert multiply(multiply(x, inverse(x)), x) == x
            assert multiply(multiply(inverse(x), x), inverse(x)) == inverse(x)

    def test_antihomomorphism(self, corpus_graph):
        pool = bounded_elements(corpus_graph, 2)
        for x in pool:
            for y in pool:
                assert inverse(multiply(x, y)) == multiply(inverse(y), inverse(x))

    def test_idempotents_commute(self, corpus_graph):
        idem = [x for x in bounded_elements(corpus_graph, 3) if is_idempotent(x)]
        for x in idem:
            for y in idem:
                assert multiply(x, y) == multiply(y, x)


class TestIdempotents:
    def test_examples(self, edge):
        assert is_idempotent(elem(edge, "e|e"))
        assert not is_idempotent(elem(edge, "e|@w"))
        assert is_idempotent(ZERO)

    def test_idempotent_iff_squares_to_self(self, corpus_graph):
        for x in bounded_elements(corpus_graph, 3):
            assert is_idempotent(x) == (multiply(x, x) == x)


class TestClosedPathDecomposition:
    def test_loop_power_cuts(self, loop):
        p = make_path(loop, ["e", "e", "e"])
        assert decompose_closed_path(p) == [make_path(loop, ["e"])] * 3

    def test_vertex_path_is_empty_product(self):
        assert decompose_closed_path(vertex_path("v")) == []

    def test_figure_eight(self, double_loop):
        p = make_path(double_loop, ["a", "b", "a"])
        factors = decompose_closed_path(p)
        assert [f.edges for f in factors] == [("a",), ("b",), ("a",)]

    def test_rejects_open_path(self, edge):
        with pytest.raises(ValueError):
            decompose_closed_path(make_path(edge, ["e"]))

    def test_concat_reproduces_and_factors_are_simple(self, corpus_graph):
        g = corpus_graph
        from graphinverse.oracle import all_paths

        for p in all_paths(g, 4):
            if not p.is_closed or len(p) == 0:
                continue
            factors = decompose_closed_path(p)
            rebuilt = vertex_path(p.source)
            for f in factors:
                from graphinverse.graphs import concat

                rebuilt = concat(rebuilt, f)
                assert p.source not in f.vertices[1:-1]
            assert rebuilt == p


class TestCyclePower:
    def test_loop_square(self, loop):
        c, m = as_cycle_power(make_path(loop, ["e", "e"]))
        assert c.path.edges == ("e",) and m == 2

    def test_two_cycle_square(self, two_cycle):
        c, m = as_cycle_power(make_path(two_cycle, ["e1", "e2", "e1", "e2"]))
        assert c.path.edges == ("e1", "e2") and m == 2

    def test_mixed_loops_are_not_a_power(self, double_loop):
        assert as_cycle_power(make_path(double_loop, ["a", "b"])) is None

    def test_open_path_is_not_a_power(self, edge):
        assert as_cycle_power(make_path(edge, ["e"])) is None

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            as_cycle_power(vertex_path("v"))


class TestFactorAlongCycle:
    def test_loop_cube(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        k, tail = strip_cycle_prefix(c.path, make_path(loop, ["e", "e", "e"]))
        assert k == 3 and tail == vertex_path("v")

    def test_partial_lap(self, two_cycle):
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        k, tail = strip_cycle_prefix(c.path, make_path(two_cycle, ["e1", "e2", "e1"]))
        assert k == 1 and tail.edges == ("e1",)

    def test_vertex_path(self, loop):
        c = Cycle.from_path(make_path(loop, ["e"]))
        k, tail = strip_cycle_prefix(c.path, vertex_path("v"))
        assert k == 0 and tail == vertex_path("v")

    def test_source_mismatch(self, two_cycle):
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        with pytest.raises(ValueError):
            strip_cycle_prefix(c.path, make_path(two_cycle, ["e2"]))

    def test_maximality(self, two_cycle):
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        for laps in range(4):
            for extra in ([], ["e1"]):
                p = make_path(two_cycle, ["e1", "e2"] * laps + extra, source="v")
                k, tail = strip_cycle_prefix(c.path, p)
                assert k == laps
                assert not is_prefix(c.path, tail)


class TestConjugateCycle:
    def test_trivial_rotations(self, two_cycle):
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        assert conjugate_cycle(two_cycle, c, vertex_path("v")) == c.path
        assert conjugate_cycle(two_cycle, c, c.path) == c.path

    def test_half_lap_rotates(self, two_cycle):
        c = Cycle.from_path(make_path(two_cycle, ["e1", "e2"]))
        rotated = conjugate_cycle(two_cycle, c, make_path(two_cycle, ["e1"]))
        assert rotated.edges == ("e2", "e1")

    def test_rejects_cycle_with_exit(self):
        g = double_loop()
        c = Cycle.from_path(make_path(g, ["a"]))
        with pytest.raises(ValueError):
            conjugate_cycle(g, c, vertex_path("v"))

    @pytest.mark.parametrize("name", ["loop", "two_cycle", "pendant_cycle"])
    def test_conjugation_identities(self, name):
        g = CORPUS[name]
        from graphinverse.graphs import cycles_in, index_one_edges

        for c in cycles_in(g, index_one_edges(g)):
            base = c.base
            prefixes = [
                make_path(g, c.path.edges[:i] * 1, source=base) if i else vertex_path(base)
                for i in range(len(c) + 1)
            ]
            for lap in range(3):
                for head in prefixes:
                    a = cycle_power(c.path, lap)
                    from graphinverse.graphs import concat

                    a = concat(a, head)
                    c1 = conjugate_cycle(g, c, a)
                    for k in (1, 2):
                        ck = path_element(cycle_power(c.path, k))
                        c1k = path_element(cycle_power(c1, k))
                        pa = path_element(a)
                        assert multiply(multiply(inverse(pa), ck), pa) == c1k
                        lhs2 = multiply(multiply(ck, pa), inverse(pa))
                        rhs2 = multiply(multiply(pa, c1k), inverse(pa))
                        assert lhs2 == rhs2


class TestLiterals:
    def test_zero_round_trip(self, edge):
        assert format_element(ZERO) == "0"
        assert parse_element(edge, "0") == ZERO

    def test_examples(self, loop):
        assert format_element(elem(loop, "e.e|@v")) == "e.e|@v"
        assert format_element(vertex_element("v")) == "@v|@v"

    def test_round_trip_exhaustive(self, corpus_graph):
        for x in bounded_elements(corpus_graph, 3):
            assert parse_element(corpus_graph, format_element(x)) == x

    def test_round_trip_inner_spaces(self):
        # only a padded id is refused: stripping a literal leaves these whole
        g = Graph.of(["a b", "w"], [("e f", "a b", "w"), ("g", "w", "a b")])
        for x in bounded_elements(g, 3):
            assert parse_element(g, format_element(x)) == x
        assert format_element(parse_element(g, " @a b|@a b ")) == "@a b|@a b"

    @pytest.mark.parametrize(
        "bad",
        ["", "e", "e|", "|e", "@v", "e|e|e", "@v|@w", "e.|@v", "@zzz|@zzz", "zz|@v"],
    )
    def test_rejects_malformed(self, loop, bad):
        with pytest.raises(ElementLiteralError):
            parse_element(loop, bad)

    @pytest.mark.parametrize("graph, literal, message", [
        ("loop", "@zzz|@v", "unknown vertex 'zzz'"),
        ("loop", "@|@v", "empty vertex name after '@'"),
        ("loop", "|@v", "empty path literal; a vertex is written '@v'"),
        ("loop", "e..e|@v", "empty edge id in path literal 'e..e'"),
        ("loop", "zz|@v", "unknown edge id 'zz'"),
        ("two_cycle", "e1.e1|@w", "edges 'e1' and 'e1' do not compose"),
        ("edge", "e|@v", "paths end at different vertices: 'w' vs 'v'"),
        ("loop", "e|e|e", "element literal must be '0' or 'P|Q', got 'e|e|e'"),
        ("loop", "@v", "element literal must be '0' or 'P|Q', got '@v'"),
    ])
    def test_error_messages(self, graph, literal, message):
        with pytest.raises(ElementLiteralError) as info:
            parse_element(CORPUS[graph], literal)
        assert type(info.value) is ElementLiteralError and str(info.value) == message

    def test_mismatched_ranges_rejected(self, edge):
        with pytest.raises(ElementLiteralError):
            parse_element(edge, "e|@v")

    @settings(max_examples=40)
    @given(st.data())
    def test_round_trip_random(self, data):
        name = data.draw(st.sampled_from(sorted(CORPUS)))
        g = CORPUS[name]
        pool = bounded_elements(g, 4)
        x = data.draw(st.sampled_from(pool))
        assert parse_element(g, format_element(x)) == x


class TestConstructors:
    def test_path_and_ghost(self, edge):
        p = make_path(edge, ["e"])
        assert path_element(p) == elem(edge, "e|@w")
        assert inverse(path_element(p)) == elem(edge, "@w|e")
        assert idempotent_element(p) == elem(edge, "e|e")

    def test_mismatched_ranges_rejected(self, edge):
        with pytest.raises(ValueError):
            Element(make_path(edge, ["e"]), vertex_path("v"))

    def test_mismatched_counts_and_half_zero_rejected(self, edge):
        for vertices, edges in [(("v", "w"), ()), (("v",), ("e",))]:
            with pytest.raises(ValueError, match="counts"):
                Path(vertices, edges)
        p = make_path(edge, ["e"])
        for half in [(p, None), (None, p)]:
            with pytest.raises(ValueError, match="zero"):
                Element(*half)


class TestValueSemantics:
    """Paths and elements are tuples underneath, hashed and compared in C,
    but a value never equals a bare tuple or a tuple of another type."""

    def test_path_is_not_its_tuple_an_edge_or_an_element(self, edge):
        p = make_path(edge, ["e"])
        for other in [(p.vertices, p.edges), edge.edge("e"), path_element(p), Element(p, p)]:
            assert p != other and other != p
            assert not (p == other or other == p)
        assert p == make_path(edge, ["e"]) and not p != make_path(edge, ["e"])

    def test_element_is_not_its_tuple(self, corpus_graph):
        pool = bounded_elements(corpus_graph, 2)
        for x in pool:
            for other in [(x.alpha, x.beta), x.alpha, *pool[:5]]:
                assert (x == other) == (x is other)
                assert (x != other) != (x == other)
                assert (other != x) != (other == x)

    def test_mixed_sets_and_dicts_keep_values_apart(self, two_cycle):
        for x in bounded_elements(two_cycle, 2):
            pair = (x.alpha, x.beta)
            assert len({x, pair}) == len({pair, x}) == 2
            assert {x: 1, pair: 2}[x] == 1 and {pair: 2, x: 1}[pair] == 2
            assert pair not in {x} and x not in {pair}
        for p in all_paths(two_cycle, 2):
            bare = (p.vertices, p.edges)
            assert len({p, bare}) == 2 and bare not in {p} and p not in {bare}

    def test_zero_is_one_value_with_hash_zero(self, loop):
        assert Element(None, None) is ZERO
        assert hash(ZERO) == 0 and ZERO.is_zero
        assert not any(x.is_zero for x in bounded_elements(loop, 2)[1:])
        assert ZERO != (None, None) and ZERO == Element(None, None)

    def test_fields_cannot_be_set(self, loop):
        p = make_path(loop, ["e"])
        x = path_element(p)
        for value, field in [(p, "vertices"), (p, "edges"), (x, "alpha"), (x, "beta"),
                             (ZERO, "alpha"), (x, "is_zero"), (p, "label")]:
            with pytest.raises(AttributeError):
                setattr(value, field, None)


def assert_valid(g, x):
    """x survives the public constructors unchanged, and each of its
    paths is one that make_path builds over g."""
    if isinstance(x, Path):
        assert type(x) is Path and Path(x.vertices, x.edges) == x
        assert make_path(g, x.edges, x.source) == x
    elif x.is_zero:
        assert x is ZERO
    else:
        assert type(x) is Element and Element(x.alpha, x.beta) == x
        assert_valid(g, x.alpha)
        assert_valid(g, x.beta)


class TestBuiltValuesAreValid:
    """Results the package builds without checks are valid values: every
    product, concatenation, remainder, cycle power, parsed literal, normal
    form and rewrite neighbour, over the corpus and seeded multigraphs."""

    @staticmethod
    def check(g, len_bound, triples):
        paths = all_paths(g, len_bound)
        for p in paths:
            assert_valid(g, p)
            for q in paths:
                if p.target == q.source:
                    assert_valid(g, concat(p, q))
                rest = remainder(p, q)
                if rest is not None:
                    assert_valid(g, rest)
            if p.is_closed:
                for m in range(4):
                    assert_valid(g, cycle_power(p, m))
        pool = bounded_elements(g, len_bound)
        right = pool[:: max(1, len(pool) // 40)]  # every y of a small pool
        for x in pool:
            assert_valid(g, x)
            assert_valid(g, parse_element(g, format_element(x)))
            for y in right:
                assert_valid(g, multiply(x, y))
        for t in triples:
            for c, _ in t.f:
                for v in c.path.vertices:
                    assert_valid(g, c.based_at(v))
            o = TransitionOracle(g, t, len_bound)
            for x in pool:
                assert_valid(g, normal_form(g, t, x))
                if not x.is_zero:
                    for y in o.neighbors(x):
                        assert_valid(g, y)

    def test_corpus(self, corpus_graph):
        self.check(corpus_graph, 2, enumerate_triples(corpus_graph, f_cap=2))

    def test_seeded_multigraphs(self):
        rng = random.Random(13)
        for g in seeded_multigraphs(1972, 100, max_vertices=5):
            triples = tuple(enumerate_triples(g, f_cap=3))
            self.check(g, 2, rng.sample(triples, min(3, len(triples))))
