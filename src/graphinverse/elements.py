"""Elements of a graph inverse semigroup and their exact arithmetic.

A nonzero element is a pair of paths (alpha, beta) with a common range,
read as alpha followed by the formal reversal of beta; this representation
is unique, so structural equality is semantic equality. The zero element
absorbs every product.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, Path, _is_prefix, _path, make_path, vertex_path


class ElementLiteralError(ValueError):
    """Raised when an element literal cannot be parsed over the graph."""


class Element(namedtuple("Element", "alpha beta")):
    """Zero, or a pair of paths with a common range.

    ``Element(p, q)`` denotes p followed by the reversal of q; the second
    path is the "starred" one. The idempotents are exactly the elements
    with ``alpha == beta``, and a vertex v is ``Element(@v, @v)``. An
    element is the tuple (alpha, beta) but equals no bare tuple, and
    ``Element(None, None)`` is the one zero, ``ZERO``.
    """

    __slots__ = ()
    is_zero = False  # a class attribute, True only on zero's class

    def __new__(cls, alpha: Path | None, beta: Path | None) -> Element:
        if alpha is None and beta is None:
            return ZERO
        if alpha is None or beta is None:
            raise ValueError("zero element must have both paths empty")
        if alpha.target != beta.target:
            raise ValueError(f"paths {alpha!r} and {beta!r} have different ranges")
        return tuple.__new__(cls, (alpha, beta))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not isinstance(other, Element) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return format_element(self)


class _Zero(Element):
    __slots__ = ()
    is_zero = True

    def __hash__(self) -> int:
        # hash(None) is address-based, so zero gets a constant: set orders
        # of elements then repeat across runs under a fixed PYTHONHASHSEED
        return 0


ZERO: Element = tuple.__new__(_Zero, (None, None))


def _element(alpha: Path, beta: Path) -> Element:
    """Element(alpha, beta) unchecked, for a nonzero result correct by construction."""
    return tuple.__new__(Element, (alpha, beta))


def vertex_element(v: str) -> Element:
    return idempotent_element(vertex_path(v))


def path_element(p: Path) -> Element:
    """The path p viewed as an element (ghost part trivial)."""
    return _element(p, vertex_path(p.target))


def idempotent_element(p: Path) -> Element:
    return _element(p, p)


def multiply(x: Element, y: Element) -> Element:
    """Exact product. Non-composable operands yield zero, never an error."""
    if x.is_zero or y.is_zero:
        return ZERO
    (a, b), (z, d) = x, y
    n = len(b.edges)
    if n <= len(z.edges):  # z = b xi gives a xi d*
        if _is_prefix(b, z):
            return _element(_path(a.vertices + z.vertices[n + 1 :], a.edges + z.edges[n:]), d)
    elif _is_prefix(z, b):  # b = z xi gives a (d xi)*
        n = len(z.edges)
        return _element(a, _path(d.vertices + b.vertices[n + 1 :], d.edges + b.edges[n:]))
    return ZERO


# ---------------------------------------------------------------------------
# Element literals: `0` or `P|Q`, with P, Q either `@v` or `.`-joined edges
# ---------------------------------------------------------------------------


def format_element(x: Element) -> str:
    if x.is_zero:
        return "0"
    return f"{x.alpha!r}|{x.beta!r}"


def _parse_path(g: Graph, text: str) -> Path:
    if text.startswith("@"):
        v = text[1:]
        if not v:
            raise ElementLiteralError("empty vertex name after '@'")
        if not g.has_vertex(v):
            raise ElementLiteralError(f"unknown vertex {v!r}")
        return vertex_path(v)
    if not text:
        raise ElementLiteralError("empty path literal; a vertex is written '@v'")
    ids = text.split(".")
    if "" in ids:
        raise ElementLiteralError(f"empty edge id in path literal {text!r}")
    try:
        return make_path(g, ids)
    except (ValueError, KeyError) as exc:
        raise ElementLiteralError(exc.args[0]) from None  # str() quotes a KeyError


def parse_element(g: Graph, text: str) -> Element:
    """Parse an element literal; round-trips exactly with format_element."""
    text = text.strip()
    if text == "0":
        return ZERO
    parts = text.split("|")
    if len(parts) != 2:
        raise ElementLiteralError(
            f"element literal must be '0' or 'P|Q', got {text!r}"
        )
    alpha = _parse_path(g, parts[0])
    beta = _parse_path(g, parts[1])
    if alpha.target != beta.target:
        raise ElementLiteralError(
            f"paths end at different vertices: {alpha.target!r} vs {beta.target!r}"
        )
    return _element(alpha, beta)
