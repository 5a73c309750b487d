from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinverse.graphs import Cycle, Path, cycle_power, is_prefix, make_path, vertex_path
from graphinverse.elements import (
    ElementLiteralError,
    ZERO,
    format_element,
    idempotent_element,
    multiply,
    parse_element,
    path_element,
    vertex_element,
)
from graphinverse.corpus import CORPUS, double_loop, loop_graph, two_cycle
from graphinverse.oracle import bounded_elements
from reference import conjugate_cycle, inverse, strip_cycle_prefix


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

    @pytest.mark.parametrize(
        "bad",
        ["", "e", "e|", "|e", "@v", "e|e|e", "@v|@w", "e.|@v", "@zzz|@zzz", "zz|@v"],
    )
    def test_rejects_malformed(self, loop, bad):
        with pytest.raises(ElementLiteralError):
            parse_element(loop, bad)

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
            from graphinverse.elements import Element

            Element(make_path(edge, ["e"]), vertex_path("v"))
