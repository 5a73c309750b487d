#!/usr/bin/env python3
"""Scaling series: best-of-k wall times of four layers as their input
grows, with fitted log-log slopes, written as one JSON file.

- The rewrite search, by len_bound on the corpus graphs ``loop`` and
  ``double_loop``: ``bounded_elements``, and a ``TransitionOracle`` built
  and run on one fixed search. On ``loop`` that search is e|@v against
  @v|@v under f(e) = 2, an unrelated pair, so it exhausts the class of
  e|@v within the bound; on ``double_loop`` it is a|@v against b|@v with
  H = {v}, joined through 0.
- ``make_triple`` on a no-exit ring of n vertices, W all of them and
  f = 3, with the cyclic garbage collector on and off; the ring and its
  cycle are built outside the timing.
- ``Graph.of`` on the same ring, its vertex and edge lists built outside
  the timing. Each timed point also records
  ``retained_bytes_per_vertex``: the size ``tracemalloc`` traces after
  one more build, with the graph still held, divided by n.
- ``enumerate_congruences`` on the edgeless graph of v = 4, 6, 8 and 10
  vertices, which has 2**v congruences; ``materialize`` runs outside the
  timing.

A point is the least of five timings (``REPEATS``) in this process, each
after a full collection. The points of a series run from small to large; the
first whose first timing exceeds ``--cap`` seconds, and every larger one,
is recorded as ``"skipped: cap"``; the larger ones are not set up, so
they carry no n. n is the ring length, |U|, the number of elements
``bounded_elements`` lists at the len_bound, or the congruence count. A
series' ``slope`` is the least-squares slope of log time against log n
over its timed points, and ``slopes`` are those between consecutive
timed points; ``null`` and empty below two points.

    python scripts/series.py --out BENCH.json
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from statistics import linear_regression
from time import perf_counter

from graphinverse import make_triple
from graphinverse.cli import Parser, run
from graphinverse.corpus import CORPUS
from graphinverse.elements import parse_element
from graphinverse.graphs import Cycle, Graph, make_path
from graphinverse.oracle import (
    TransitionOracle,
    bounded_elements,
    enumerate_congruences,
    materialize,
)

LEN_BOUNDS = {"loop": (4, 8, 16, 32, 64, 128), "double_loop": (1, 2, 3, 4, 5, 6, 7, 8)}
RING_SIZES = (10**3, 10**4, 3 * 10**4, 10**5)
GRAPH_SIZES = (10**4, 10**5, 3 * 10**5, 10**6)
EDGELESS_SIZES = (4, 6, 8, 10)
REPEATS = 5
SKIPPED = "skipped: cap"


def best_of(call, cap: float) -> float | None:
    """The least of REPEATS timings of call(), or None when the first
    exceeds cap seconds."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
        if times[0] > cap:
            return None
    return min(times)


def series(name: str, points, cap: float, measure=None) -> dict:
    """Time each (fields, make) of points in order, where make() sets up n
    and the call to time; after the first point over the cap, nothing is
    set up and the points carry no n. measure(n, call), if given, returns
    more fields for each timed point."""
    out, capped = [], False
    for fields, make in points:
        point = dict(fields, best_s=SKIPPED)
        if not capped:
            point["n"], call = make()
            best = best_of(call, cap)
            capped = best is None
            if not capped:
                point["best_s"] = best
                if measure is not None:
                    point.update(measure(point["n"], call))
        out.append(point)
    timed = [(math.log(p["n"]), math.log(p["best_s"])) for p in out if p["best_s"] != SKIPPED]
    fit = linear_regression(*zip(*timed)).slope if len(timed) > 1 else None
    steps = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(timed, timed[1:])]
    return {"name": name, "points": out, "slope": fit, "slopes": steps}


def fixed_search(name: str):
    """The triple and the pair of the graph's fixed search."""
    g = CORPUS[name]
    if name == "loop":
        lap = Cycle.from_path(make_path(g, ["e"]))
        t = make_triple(g, w={"v"}, f={lap: 2})
        return t, parse_element(g, "e|@v"), parse_element(g, "@v|@v")
    return make_triple(g, h={"v"}), parse_element(g, "a|@v"), parse_element(g, "b|@v")


def ring_triple(n: int, collector: bool):
    """n and the make_triple call on the no-exit ring of n vertices, with
    the collector on or off while it runs."""
    vs, es = ring_lists(n)
    g = Graph.of(vs, es)
    f = {Cycle.from_path(make_path(g, [f"x{i}" for i in range(n)])): 3}

    def call():
        if not collector:
            gc.disable()
        try:
            make_triple(g, w=vs, f=f)
        finally:
            gc.enable()

    return n, call


def ring_lists(n: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The vertex and edge lists of the no-exit ring of n vertices."""
    vs = [f"r{i}" for i in range(n)]
    return vs, [(f"x{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]


def ring_graph(n: int):
    """n and the Graph.of call on the ring's lists, built here."""
    vs, es = ring_lists(n)
    return n, lambda: Graph.of(vs, es)


def retained_bytes(n: int, call) -> dict:
    """The bytes tracemalloc traces while call()'s result is held, per n."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = call()  # held while the traced size is read
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"retained_bytes_per_vertex": size / n}


def edgeless_congruences(v: int):
    """2**v and the enumerate_congruences call on the edgeless graph of v
    vertices, materialized here."""
    s = materialize(Graph.of([f"v{i}" for i in range(v)], []))
    return 2**v, lambda: enumerate_congruences(s)


def main() -> None:
    ap = Parser(description=__doc__)
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--cap", type=float, default=2.0,
                    help="seconds a point's first timing may take before the series stops")
    args = ap.parse_args()
    if not args.cap > 0:
        raise ValueError("--cap must be a positive number of seconds")

    rows = []
    for name, bounds in LEN_BOUNDS.items():
        g = CORPUS[name]
        t, x, y = fixed_search(name)
        rows.append(series(f"bounded_elements {name}", [
            ({"len_bound": lb}, lambda lb=lb: (len(bounded_elements(g, lb)),
                                               lambda: bounded_elements(g, lb)))
            for lb in bounds
        ], args.cap))
        rows.append(series(f"TransitionOracle build and search {name}", [
            ({"len_bound": lb}, lambda lb=lb: (len(bounded_elements(g, lb)),
                                               lambda: TransitionOracle(g, t, lb).search(x, y)))
            for lb in bounds
        ], args.cap))
    for collector in (True, False):
        rows.append(series(f"make_triple ring, collector {'on' if collector else 'off'}", [
            ({"ring": n}, lambda n=n: ring_triple(n, collector)) for n in RING_SIZES
        ], args.cap))
    rows.append(series("Graph.of ring", [
        ({"ring": n}, lambda n=n: ring_graph(n)) for n in GRAPH_SIZES
    ], args.cap, retained_bytes))
    rows.append(series("enumerate_congruences edgeless", [
        ({"vertices": v}, lambda v=v: edgeless_congruences(v)) for v in EDGELESS_SIZES
    ], args.cap))

    Path(args.out).write_text(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "cap_s": args.cap,
        "series": rows,
    }, indent=1) + "\n", encoding="utf-8")
    for row in rows:
        slope = "-" if row["slope"] is None else f"{row['slope']:.2f}"
        points = []
        for p in row["points"]:
            best = p["best_s"] if p["best_s"] == SKIPPED else f"{p['best_s']:.3g}"
            points.append(f"{p.get('n', '-')}:{best}")
        print(f"{row['name']:<46} slope {slope:>5}  n:seconds {' '.join(points)}")


if __name__ == "__main__":
    sys.exit(run(main))
