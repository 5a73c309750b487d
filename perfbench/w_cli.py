"""cli: cold processes, one ``python -m graphinverse ...`` child at a time.

Each operation starts one interpreter on JSON files written during
set-up, so every call pays for import, JSON loading and compiling the
triple. ``report`` and ``triples`` run on paths and on a seeded DAG where
the 2^n scan over vertex subsets dominates; ``enumerate --brute`` and
``oracle`` on small acyclic graphs; ``equiv`` and ``nf`` on a 100-edge
ring and on the corpus graph pendant_cycle; one small ``equiv --certify``.
The children run with PYTHONHASHSEED=0 so that their output, including
the certificate chain, is the same in every pass.

With --trace 1 each child is perfbench/child.py, which runs the same
command in-process with the tracer installed and hands its totals back.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from graphinverse import congruences as C
from graphinverse import elements as E
from graphinverse import graphs as G

from inputs import (
    INF,
    F_VALUES,
    Failed,
    Spec,
    acyclic_triple_count,
    corpus_specs,
    hereditary_sets,
    path_graph,
    random_dag,
    relabel,
)

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
RING = 100
LAPS = 12


def graph_json(spec: Spec) -> dict:
    return {"vertices": list(spec.vertices),
            "edges": [{"id": e, "src": s, "dst": d} for e, s, d in spec.edges]}


def triple_json(h, w, f) -> dict:
    return {"H": sorted(h), "W": sorted(w),
            "f": [{"cycle": list(c), "value": "inf" if v == INF else v} for c, v in f.items()]}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def bare_start() -> float:
    """Seconds to start and stop an interpreter that does nothing."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return perf_counter() - t0


# The reference for scaling this workload's times: a cold child's speed
# follows the speed of starting a process, which a loop timed in this
# process tracks poorly. Nominal 50 ms.
REFERENCE = (bare_start, 0.05)


def run_child(argv: list[str], workdir: Path, tracer):
    env = child_env()
    if tracer is None:
        cmd = [sys.executable, "-m", "graphinverse", *argv]
    else:
        trace_out = workdir / "trace.json"
        cmd = [sys.executable, str(PERFBENCH / "child.py"), str(trace_out), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if tracer is not None and trace_out.exists():
        tracer.merge(json.loads(trace_out.read_text()))
        trace_out.unlink()
    return proc.returncode, proc.stdout


def small_dag(rng: random.Random, label: str) -> Spec:
    """Three vertices and two forward edges, parallel edges allowed."""
    vs = tuple(f"{label}v{i}" for i in range(3))
    arcs = [rng.choice(((0, 1), (0, 2), (1, 2))) for _ in range(2)]
    return Spec(vs, tuple((f"{label}e{k}", vs[a], vs[b]) for k, (a, b) in enumerate(arcs)))


def lap_literal(pi: list[str], ring: list[str], m: int, base: str) -> str:
    return ".".join(pi + ring * m) + "|@" + base


def setup(seed: int, label: str, tiny: bool, workdir: Path, tracer) -> SimpleNamespace:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, data: dict) -> str:
        p = workdir / f"{name}.json"
        p.write_text(json.dumps(data))
        return str(p)

    def load_back(graph_file: str, triple_file: str | None = None) -> None:
        """Fail in set-up, not in the timed passes, if a written input is bad."""
        g = G.load_graph(graph_file)
        if triple_file:
            C.load_triple(g, triple_file)

    n_path, n_dag, n_triples = (6, 6, 5) if tiny else (14, 13, 12)
    path_big, path_mid = path_graph(f"{label}p", n_path), path_graph(f"{label}q", n_triples)
    dag = random_dag(rng, f"{label}d", n_dag)
    small = [path_graph(f"{label}s", 3), small_dag(rng, f"{label}r")]

    ring_v = [f"{label}rv{i}" for i in range(RING)]
    ring_e = [f"{label}re{k}" for k in rng.sample(range(RING), RING)]
    ring = Spec(tuple(ring_v), tuple((ring_e[i], ring_v[i], ring_v[(i + 1) % RING])
                                     for i in range(RING)))
    k = ring_e.index(min(ring_e))
    ring_c = ring_e[k:] + ring_e[:k]
    ring_f = rng.choice(F_VALUES)
    pend = relabel(corpus_specs()["pendant_cycle"], label)
    pend_c = [f"{label}e1", f"{label}e2"]
    pend_f = rng.choice(F_VALUES)
    loop = relabel(corpus_specs()["loop"], label)

    gfile = {name: write(name, graph_json(spec)) for name, spec in
             (("path", path_big), ("dag", dag), ("triples", path_mid), ("small0", small[0]),
              ("small1", small[1]), ("ring", ring), ("pend", pend), ("loop", loop))}
    ring_t = write("ring_t", triple_json((), ring_v, {tuple(ring_c): ring_f}))
    pend_w = pend.vertices if rng.random() < 0.5 else pend.vertices[1:]
    pend_t = write("pend_t", triple_json((), pend_w, {tuple(pend_c): pend_f}))
    loop_t = write("loop_t", triple_json((), loop.vertices, {(f"{label}e",): 2}))

    for name in ("path", "dag", "triples", "small0", "small1"):
        load_back(gfile[name])
    for name, triple_file in (("ring", ring_t), ("pend", pend_t), ("loop", loop_t)):
        load_back(gfile[name], triple_file)

    m_ring, m_pend = rng.randint(1, LAPS), rng.randint(1, LAPS)
    ring_x = lap_literal([], ring_c, m_ring, ring_v[k])
    pend_x = lap_literal([f"{label}e0"], [f"{label}e1", f"{label}e2"], m_pend, f"{label}v")
    pend_y = f"{label}e0|@{label}v"
    loop_x, loop_y = f"{label}e.{label}e|@{label}v", f"@{label}v|@{label}v"

    def divides(f, m):
        return f != INF and m % f == 0

    def op(kind, argv, expect):
        return (kind, lambda: run_child(argv + ["--format", "json"], workdir, tracer), expect)

    ops = [
        op("report", ["report", gfile["path"]], (hereditary_sets(path_big), n_path + 1)),
        op("report", ["report", gfile["dag"]], (hereditary_sets(dag), None)),
        op("triples", ["triples", gfile["triples"]], 2 ** n_triples),
        *(op("brute", ["enumerate", gfile[f"small{i}"], "--brute"], acyclic_triple_count(s))
          for i, s in enumerate(small)),
        *(op("oracle", ["oracle", gfile[f"small{i}"]], acyclic_triple_count(s))
          for i, s in enumerate(small)),
        op("equiv", ["equiv", gfile["ring"], ring_t, ring_x, f"@{ring_v[k]}|@{ring_v[k]}"],
           divides(ring_f, m_ring)),
        op("equiv", ["equiv", gfile["pend"], pend_t, pend_x, pend_y], divides(pend_f, m_pend)),
        op("nf", ["nf", gfile["ring"], ring_t, ring_x],
           RING * (m_ring if ring_f == INF else m_ring % ring_f)),
        op("nf", ["nf", gfile["pend"], pend_t, pend_x],
           1 + 2 * (m_pend if pend_f == INF else m_pend % pend_f)),
        op("certify", ["equiv", gfile["loop"], loop_t, loop_x, loop_y, "--certify",
                       "--len-bound", "2"], (gfile["loop"], loop_t, loop_x, loop_y)),
    ]
    return SimpleNamespace(ops=ops)


def plain_length(literal: str) -> tuple[int, int]:
    return tuple(0 if side.startswith("@") else len(side.split(".")) for side in literal.split("|"))


def check(bench: SimpleNamespace, outs: list) -> list[str]:
    bad = []
    for i, ((kind, _, expect), out) in enumerate(zip(bench.ops, outs)):
        if isinstance(out, Failed):
            continue
        code, text = out
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            bad.append(f"op {i} ({kind}): exit code {code}, output is not JSON")
            continue
        if code != 0:
            bad.append(f"op {i} ({kind}): exit code {code}")
        if kind == "report":
            sets, closed_form = expect
            got = sorted(sorted(h) for h in payload["hereditary_subsets"])
            if got != sorted(sorted(h) for h in sets) or closed_form not in (None, len(got)):
                bad.append(f"op {i}: {len(got)} hereditary sets, expected {len(sets)}")
        elif kind == "triples" and len(payload["triples"]) != expect:
            bad.append(f"op {i}: {len(payload['triples'])} triples, expected {expect}")
        elif kind == "brute":
            if payload["count"] != expect or not payload["brute"]["bijection_verified"]:
                bad.append(f"op {i}: enumerate --brute gave {payload['count']} triples "
                           f"(expected {expect}), bijection {payload['brute']}")
        elif kind == "oracle" and len(payload["congruences"]) != expect:
            bad.append(f"op {i}: oracle found {len(payload['congruences'])} congruences, "
                       f"expected {expect} (the triple count)")
        elif kind == "equiv" and payload["equivalent"] != expect:
            bad.append(f"op {i}: equiv printed {payload['equivalent']}, expected {expect}")
        elif kind == "nf" and plain_length(payload["normal_form"]) != (expect, 0):
            bad.append(f"op {i}: normal form {payload['normal_form']} does not have a plain "
                       f"side of {expect} edges and an empty starred side")
        elif kind == "certify":
            bad += check_chain(i, payload, *expect)
    return bad


def check_chain(i: int, payload: dict, graph_file: str, triple_file: str, x: str,
                y: str) -> list[str]:
    chain = payload.get("certificate")
    if not payload["equivalent"] or not chain:
        return [f"op {i}: no certificate for a one-step pair"]
    if chain[0] != x or chain[-1] != y:
        return [f"op {i}: chain runs from {chain[0]} to {chain[-1]}, not {x} to {y}"]
    g = G.load_graph(graph_file)
    t = C.load_triple(g, triple_file)
    els = [E.parse_element(g, s) for s in chain]
    return [f"op {i}: chain link {a} -> {b} is not a related, distinct pair"
            for a, b in zip(els, els[1:]) if a == b or not C.equiv(g, t, a, b)]
