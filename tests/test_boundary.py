"""The input boundary: Graph.of, make_path and make_triple decide what
counts as a graph, a path and a triple, and the JSON loaders only map JSON
shape onto them. Malformed caller data ends in GraphFormatError,
TripleFormatError or ElementLiteralError naming the value, never in a bare
TypeError or AttributeError; well-formed data gives what it always gave."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinverse.congruences import (
    TripleFormatError,
    enumerate_triples,
    make_triple,
    triple_from_json,
    triple_to_json,
    vertex_class_members,
)
from graphinverse.corpus import CORPUS
from graphinverse.elements import Element, ElementLiteralError, format_element, parse_element
from graphinverse.graphs import (
    Cycle,
    Graph,
    GraphFormatError,
    cycles_in,
    graph_from_json,
    graph_to_json,
    index_one_edges,
    is_hereditary,
    make_path,
)
from graphinverse.oracle import all_paths, bounded_elements

LOOP = CORPUS["loop"]


@pytest.mark.parametrize("call, kind, message", [
    (lambda: Graph.of(["v", "w"], ["evw"]), GraphFormatError,
     "edge 'evw' is not an (id, src, dst) triple"),
    (lambda: Graph.of(["v"], [{"id": "e", "src": "v", "dst": "v"}]), GraphFormatError,
     "edge {'id': 'e', 'src': 'v', 'dst': 'v'} is not an (id, src, dst) triple"),
    (lambda: Graph.of({"v": 1}, []), GraphFormatError,
     "vertices must be a sequence of ids, not the dict {'v': 1}"),
    (lambda: Graph.of(b"vw", []), GraphFormatError,
     "vertices must be a sequence of ids, not the bytes b'vw'"),
    (lambda: Graph.of(5, []), GraphFormatError,
     "vertices must be a sequence of ids, not the int 5"),
    (lambda: Graph.of(["v"], None), GraphFormatError,
     "edges must be a sequence of triples, not the NoneType None"),
    (lambda: Graph.of(["v"], [("e", ["v"], "v")]), GraphFormatError,
     "edge ('e', ['v'], 'v') has undeclared endpoint"),
    (lambda: make_path(LOOP, 5), GraphFormatError,
     "edge ids must be a sequence of ids, not the int 5"),
    (lambda: make_path(LOOP, [["e"]]), GraphFormatError, "edge ids must be strings, got [['e']]"),
    (lambda: make_path(LOOP, [], ["v"]), GraphFormatError,
     "vertex id must be a string, got ['v']"),
    (lambda: make_triple(LOOP, h={"v": 1}), TripleFormatError,
     "H must be a set of vertex ids, not the dict {'v': 1}"),
    (lambda: make_triple(LOOP, h=5), TripleFormatError,
     "H must be a set of vertex ids, not the int 5"),
    (lambda: make_triple(LOOP, w=[["v"]]), TripleFormatError,
     "W must hold vertex-id strings, got [['v']]"),
    (lambda: make_triple(LOOP, h={5, "x"}), TripleFormatError,
     "H contains unknown vertices [5, 'x']"),
    (lambda: parse_element(LOOP, None), ElementLiteralError,
     "element literal must be a str, not None"),
    (lambda: parse_element(LOOP, b"@v|@v"), ElementLiteralError,
     "element literal must be a str, not b'@v|@v'"),
    # make_triple's f is keyed by Cycles that callers build
    (lambda: Cycle("abc"), ValueError, "not a closed nonempty path: 'abc'"),
    (lambda: Cycle(None), ValueError, "not a closed nonempty path: None"),
    (lambda: Cycle((("v", "v"), ("e",))), ValueError,
     "not a closed nonempty path: (('v', 'v'), ('e',))"),
    # public functions past the constructors that take raw ids or bounds
    (lambda: is_hereditary(LOOP, 5), GraphFormatError,
     "H must be a set of vertex ids, not the int 5"),
    (lambda: is_hereditary(LOOP, [["u"]]), GraphFormatError,
     "H must hold vertex-id strings, got [['u']]"),
    (lambda: vertex_class_members(LOOP, make_triple(LOOP), ["v"], 2), GraphFormatError,
     "vertex id must be a string, got ['v']"),
    (lambda: vertex_class_members(LOOP, make_triple(LOOP), "v", "2"), ValueError,
     "length bound must be an integer, not '2'"),
    (lambda: vertex_class_members(LOOP, make_triple(LOOP), "v", 2.5), ValueError,
     "length bound must be an integer, not 2.5"),
], ids=["graph-str-edge", "graph-dict-edge", "graph-dict-vertices", "graph-bytes-vertices",
        "graph-int-vertices", "graph-none-edges", "graph-list-endpoint", "path-int-ids",
        "path-list-id", "path-list-source", "triple-dict-h", "triple-int-h", "triple-list-w-id",
        "triple-mixed-h", "element-none", "element-bytes", "cycle-str", "cycle-none",
        "cycle-bare-path-tuple", "hereditary-int-h", "hereditary-list-id", "members-list-vertex",
        "members-str-bound", "members-float-bound"])
def test_malformed_value_named(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


# ---------------------------------------------------------------------------
# Arbitrary values at every argument and at every depth of a well-formed one
# ---------------------------------------------------------------------------

FORMAT_ERRORS = (GraphFormatError, TripleFormatError, ElementLiteralError)
SHAPES = [CORPUS[name] for name in ("loop", "two_cycle", "pendant_cycle", "fork")]
PATHS = [(g, p) for g in SHAPES for p in all_paths(g, 2)]
CYCLES = [c for g in SHAPES for c in cycles_in(g, index_one_edges(g))]
ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.floats(width=16), st.text(max_size=3),
    st.binary(max_size=3), st.sampled_from(["v", "w", "u", "e", "e1", "e2", "e0", "inf"]),
    st.sampled_from([p for _, p in PATHS]), st.sampled_from(CYCLES),
)
VALUES = st.recursive(ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(ATOMS, inner, max_size=2),
    st.frozensets(ATOMS, max_size=3),
    st.sets(ATOMS, max_size=3),
), max_leaves=6)


def _nodes(value: object, at: tuple = ()):
    """The address of every node of a nest of lists, tuples and dicts, the root first."""
    yield at
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _nodes(item, at + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, at + (key,))


def _replace(value: object, at: tuple, new: object) -> object:
    if not at:
        return new
    head, rest = at[0], at[1:]
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    items = list(value)
    items[head] = _replace(items[head], rest, new)
    return type(value)(items)


def mutated(data, value: object, whole: bool = True) -> tuple[object, bool]:
    """value as it is, or with one node, the whole of it too unless whole
    is false, replaced by an arbitrary value; and whether it is as it is."""
    addresses = list(_nodes(value))[0 if whole else 1:]
    i = data.draw(st.integers(-1, len(addresses) - 1))
    if i < 0:
        return value, True
    return _replace(value, addresses[i], data.draw(VALUES)), False


def outcome(call, also: tuple[type[Exception], ...] = ()):
    """call's result, or the format error it raised; any other exception,
    but for the exact types in also, fails the test."""
    try:
        return call()
    except FORMAT_ERRORS as exc:
        assert str(exc)
        return exc
    except also as exc:
        assert type(exc) in also
        return exc


BOUNDARY = settings(max_examples=120, deadline=None)


@BOUNDARY
@given(st.data())
def test_graph_of(data):
    g = data.draw(st.sampled_from(SHAPES))
    args, intact = mutated(data, [list(g.vertices), [tuple(e) for e in g.edges]], whole=False)
    result = outcome(lambda: Graph.of(*args))
    assert result == g if intact else isinstance(result, (Graph, *FORMAT_ERRORS))


@BOUNDARY
@given(st.data())
def test_graph_from_json(data):
    g = data.draw(st.sampled_from(SHAPES))
    doc, intact = mutated(data, graph_to_json(g))
    result = outcome(lambda: graph_from_json(doc))
    assert result == g if intact else isinstance(result, (Graph, *FORMAT_ERRORS))


@BOUNDARY
@given(st.data())
def test_make_path(data):
    """Edge ids that are all strings may still name an unknown edge or
    vertex (KeyError) or fail to compose (ValueError), as they always did."""
    g, p = data.draw(st.sampled_from(PATHS))
    args, intact = mutated(data, [list(p.edges), p.source], whole=False)
    ids = args[0]
    strings = isinstance(ids, (list, tuple, set, frozenset)) and all(
        isinstance(i, str) for i in ids)
    also = (KeyError, ValueError) if strings else ()
    result = outcome(lambda: make_path(g, *args), also)
    assert result == p if intact else isinstance(result, (type(p), *FORMAT_ERRORS, *also))


@BOUNDARY
@given(st.data())
def test_make_triple(data):
    g = data.draw(st.sampled_from(SHAPES))
    t = data.draw(st.sampled_from(list(enumerate_triples(g, 2))))
    args, intact = mutated(data, [sorted(t.h), sorted(t.w), dict(t.f)], whole=False)
    result = outcome(lambda: make_triple(g, *args))
    assert result == t if intact else isinstance(result, (type(t), *FORMAT_ERRORS))


@BOUNDARY
@given(st.data())
def test_triple_from_json(data):
    g = data.draw(st.sampled_from(SHAPES))
    t = data.draw(st.sampled_from(list(enumerate_triples(g, 2))))
    doc, intact = mutated(data, triple_to_json(g, t))
    result = outcome(lambda: triple_from_json(g, doc))
    assert result == t if intact else isinstance(result, (type(t), *FORMAT_ERRORS))


@BOUNDARY
@given(st.data())
def test_parse_element(data):
    g = data.draw(st.sampled_from(SHAPES))
    x = data.draw(st.sampled_from(bounded_elements(g, 2)))
    text, intact = mutated(data, format_element(x))
    result = outcome(lambda: parse_element(g, text))
    assert result == x if intact else isinstance(result, (Element, *FORMAT_ERRORS))
