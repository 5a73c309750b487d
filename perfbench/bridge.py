"""Conversions between the benchmark's tuples and the package's types.

Imported only after run.py has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

from graphinverse import congruences as C
from graphinverse import elements as E
from graphinverse import graphs as G

from inputs import Spec, Triple


def graph(spec: Spec) -> G.Graph:
    return G.Graph.of(spec.vertices, spec.edges)


def path(p: tuple) -> G.Path:
    return G.Path(p[0], p[1])


def element(x) -> E.Element:
    return E.ZERO if x is None else E.Element(path(x[0]), path(x[1]))


def cycle_map(g: G.Graph, t: Triple) -> dict:
    return {G.Cycle.from_path(G.make_path(g, c)): v for c, v in t.f.items()}


def triple(g: G.Graph, t: Triple) -> C.CongruenceTriple:
    return C.make_triple(g, t.h, t.w, cycle_map(g, t))
