"""Benchmark for graphinverse: four seeded workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after the other. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones. See
perfbench/README.md for what each workload and metric is for.

How an operation is timed: a workload is a fixed list of operations
(a pass), repeated until ``--seconds`` have gone by. An operation's time
is its median over the passes; set-up is timed apart, as the median of
repeated set-ups on freshly labelled inputs, so that one stall on a
shared machine shifts one sample and not a metric. A reference
(``reference_loop``, or a workload's own REFERENCE) is timed after every
REF_EVERY seconds of operations, and every timing is scaled by the median
of the REF_WINDOW reference timings around it to a machine on which the
reference takes its nominal time, which takes out the drift of a shared
machine's speed; the unscaled figures go to standard error. The runner
re-executes itself with PYTHONHASHSEED=0, so that every run hashes
strings alike.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
from array import array
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import inputs
import tracing

WORKLOADS = ("decide", "laps", "certify", "cli")
SETUP_REPEATS = (5, 100)  # set up at least 5 and at most 100 times,
SETUP_SECONDS = 1.0  # and until this long has been spent on set-ups
MIN_PASSES = 3
REF_SECONDS = 1.0e-3  # nominal time of reference_loop; reported times are scaled to it
REF_EVERY = 0.04  # seconds of operations between two timings of the reference loop
REF_WINDOW = 5  # reference timings around an operation whose median scales its time
KEPT_PASSES = 64  # per-op samples kept from this many to twice as many passes, evenly spread

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric name -> (unit, key in the tracer's per-pass snapshot)
PER_LAYER: dict[str, tuple[str, str]] = {}


def _layer(name: str, unit: str = "ms", key: str | None = None) -> None:
    PER_LAYER[name] = (unit, key or name)


for _span in ("graphs.cycles_in", "elements.as_cycle_power", "congruences.enumerate_triples",
              "congruences.load_triple", "congruences.make_triple", "congruences.equiv",
              "congruences.normal_form", "congruences.triple_generators", "oracle.search",
              "oracle.neighbors", "oracle.materialize"):
    _layer(_span + ".ms")
    _layer(_span + ".self_ms")
for _span in ("graphs.Cycle.from_path", "graphs.cycle_power", "graphs.enumerate_hereditary",
              "graphs.load_graph", "elements.parse_element", "elements.multiply",
              "oracle.enumerate_congruences"):
    _layer(_span + ".ms")
for _span in ("congruences.equiv", "congruences.normal_form", "elements.multiply",
              "oracle.search", "oracle.neighbors"):
    _layer(_span + ".calls", "count")
for _sub in ("report", "triples", "enumerate", "oracle", "equiv", "nf"):
    _layer(f"cli.main.{_sub}.ms")
    _layer(f"cli.main.{_sub}.self_ms")
_layer("cli.import_ms")
_layer("graphs.enumerate_hereditary.sets", "count")
_layer("oracle.TransitionOracle.build_ms", key="oracle.TransitionOracle.build.ms")
_layer("oracle.TransitionOracle.build_self_ms", key="oracle.TransitionOracle.build.self_ms")
_layer("oracle.universe", "count")
_layer("oracle.search.expansions", "count")
_layer("oracle.search.reached", "count")
_layer("oracle.search.reached_pct", "%")
_layer("oracle.congruences", "count")
_layer("bench.traced_pass_ms")
_layer("bench.ref_loop_ms")


def locate_package(root: Path) -> None:
    """Import graphinverse from the checkout's src, never from elsewhere."""
    pkg = root / "src" / "graphinverse"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    import graphinverse
    if Path(graphinverse.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported graphinverse from {graphinverse.__file__}")


@dataclass(frozen=True)
class _Walk:
    """A path kept the way the package keeps one: a frozen dataclass of tuples."""

    verts: tuple
    edges: tuple


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key, self.left, self.right = key, None, None


def _insert(node: _Node | None, key: int) -> _Node:
    if node is None:
        return _Node(key)
    if key < node.key:
        node.left = _insert(node.left, key)
    else:
        node.right = _insert(node.right, key)
    return node


def _depth(node: _Node | None) -> int:
    return 0 if node is None else 1 + max(_depth(node.left), _depth(node.right))


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the three
    kinds the package does: string ids in dicts, sets and sorted lists;
    frozen dataclasses of tuples built, hashed and queued in a
    breadth-first search; and Python-level calls and attribute access on
    small objects (a binary search tree). Its timings tell how fast the
    shared machine ran at that moment. It runs twice and only the second
    run is timed, so that what the package left in the processor's caches
    does not count."""
    for _ in range(2):
        t0 = perf_counter()
        words = [f"w{i % 97}x{i % 13}" for i in range(600)]
        counts: dict[str, int] = {}
        for w in words:
            counts[w] = counts.get(w, 0) + len(w)
        ordered = sorted(words)
        pieces = tuple(".".join(ordered[:200]).split(".") + words)
        acc = 0
        for k in range(0, 790, 7):
            acc += len(pieces[k:k + 9]) + hash(pieces[k]) % 3
        acc += len(set(words) | set(pieces))
        seen: dict[_Walk, int] = {}
        queue = deque([_Walk((0,), ())])
        while len(seen) < 120:
            p = queue.popleft()
            if p not in seen:
                seen[p] = len(seen)
                queue.extend(_Walk(p.verts + ((p.verts[-1] * 3 + e) % 17,), p.edges + (e,))
                             for e in (0, 1, 2))
        root = None
        for i in range(200):
            root = _insert(root, i * 7919 % 1009)
        acc += _depth(root) + len(seen)
        took = perf_counter() - t0
    return took


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 workdir: Path) -> dict:
    mod = importlib.import_module("w_" + name)
    tracer = tracing.Tracer() if trace else None
    # the passes' reference and its nominal time; set-up always runs in this process
    reference, ref_seconds = getattr(mod, "REFERENCE", (reference_loop, REF_SECONDS))

    setup_times, setup_refs = [], []
    while len(setup_times) < SETUP_REPEATS[0] or \
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_REPEATS[1]:
        k = len(setup_times)
        gc.collect()
        setup_refs.append(reference_loop())
        t0 = perf_counter()
        bench = mod.setup(seed, f"r{k}", tiny, workdir / f"setup{k}", tracer)
        setup_times.append(perf_counter() - t0)
        setup_refs.append(reference_loop())
    ops = bench.ops
    gc.collect()
    gc.freeze()

    pass_times: list[float] = []
    op_times: list[list[float]] = [[] for _ in ops]
    layer_passes: list[dict] = []
    first: list | None = None
    failed = 0
    problems: list[str] = []
    stride = 1  # keep the per-op times of every stride-th pass, so memory stays bounded
    refs: list[float] = []
    op_refs: list[list[int]] = [[] for _ in ops]  # index in refs of each kept sample's reference
    # seconds of operations per (pass, reference index), flat: part_ref[k], part_secs[k] for
    # k from part_start[p] on belong to pass p
    part_ref, part_secs, part_start = array("l"), array("d"), array("l")
    j = -1  # index in refs of the latest reference timing
    since_ref = REF_EVERY
    deadline = perf_counter() + seconds
    with tracer.installed() if tracer else nullcontext():
        while len(pass_times) < MIN_PASSES or perf_counter() < deadline:
            keep = len(pass_times) % stride == 0
            outs = []
            t_pass = 0.0
            part_start.append(len(part_ref))
            for i, (kind, fn, _) in enumerate(ops):
                if since_ref >= REF_EVERY:
                    refs.append(reference())
                    j = len(refs) - 1
                    since_ref = 0.0
                t0 = perf_counter()
                try:
                    out = fn()
                except Exception as exc:  # counted as a failed operation
                    out = inputs.Failed(f"raised {exc!r}")
                    failed += 1
                    if failed <= 5:
                        print(f"{name}: op {i} ({kind}) {out}", file=sys.stderr)
                dt = perf_counter() - t0
                t_pass += dt
                since_ref += dt
                if len(part_ref) > part_start[-1] and part_ref[-1] == j:
                    part_secs[-1] += dt
                else:
                    part_ref.append(j)
                    part_secs.append(dt)
                if keep:
                    op_times[i].append(dt)
                    op_refs[i].append(j)
                outs.append(out)
            pass_times.append(t_pass)
            if keep and len(op_times[0]) == 2 * KEPT_PASSES:
                for ts in op_times + op_refs:
                    del ts[1::2]
                stride *= 2
            if tracer:
                layer_passes.append(tracer.take())
            if first is None:
                first = outs
            elif outs != first:
                problems.append(f"pass {len(pass_times)} gave other outputs than pass 1")
    gc.unfreeze()
    problems += mod.check(bench, first)
    for p in problems[:20]:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)

    attempted = len(ops) * len(pass_times)
    # each timing scaled by the median of the REF_WINDOW reference timings around it
    local = [ref_seconds / median(refs[max(0, j - REF_WINDOW // 2):j + REF_WINDOW // 2 + 1])
             for j in range(len(refs))]
    part_start.append(len(part_ref))
    scaled_passes = [sum(part_secs[k] * local[part_ref[k]] for k in range(a, b))
                     for a, b in zip(part_start, part_start[1:])]
    if tracer:
        factors = [sp / pt for sp, pt in zip(scaled_passes, pass_times)]
        metrics = layer_metrics(layer_passes, scaled_passes, factors, median(refs))
        dump = workdir.parents[1] / f"trace-{name}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps({"seed": seed, "factors": factors,
                                    "passes": layer_passes},
                                   indent=1))
    else:
        per_op = [median(ts) for ts in op_times]
        measured = {
            "ops_per_s": len(ops) / median(pass_times),
            "op_p50_ms": median(per_op) * 1e3,
            "op_p90_ms": quantiles(per_op, n=10)[8] * 1e3,
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(children=name == "cli"),
        }
        scaled_op = [median(t * local[j] for t, j in zip(ts, js))
                     for ts, js in zip(op_times, op_refs)]
        values = {
            "ops_per_s": len(ops) / median(scaled_passes),
            "op_p50_ms": median(scaled_op) * 1e3,
            "op_p90_ms": quantiles(scaled_op, n=10)[8] * 1e3,
            "setup_s": measured["setup_s"] * REF_SECONDS / median(setup_refs),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"{name}: unscaled {json.dumps(measured)}; reference "
              f"{median(refs) * 1e3:.4f} ms over {len(refs)} timings", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(layer_passes: list[dict], scaled_passes: list[float], factors: list[float],
                  ref: float) -> dict:
    """Per-pass medians of the tracer's totals; times scaled like the
    end-to-end ones (each pass by its own operations' mean factor),
    except the reference loop's own time."""
    for snap in layer_passes:
        calls = snap.get("oracle.search.calls", 0)
        snap["oracle.search.reached_pct"] = 100 * snap.get("oracle.search.reached", 0) / calls \
            if calls else 0.0
    out = {}
    for metric, (unit, key) in PER_LAYER.items():
        if metric == "bench.ref_loop_ms":
            value = ref * 1e3
        elif metric == "bench.traced_pass_ms":
            value = median(scaled_passes) * 1e3
        elif unit == "ms":
            value = median(snap.get(key, 0) * f for snap, f in zip(layer_passes, factors))
        else:
            value = median(snap.get(key, 0) for snap in layer_passes)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one hash seed in every run, so that the order of sets and dicts of
        # strings, and with it the work done on them, is the same from run to run
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, sys.argv[0]]
                 + (sys.argv[1:] if argv is None else argv))

    root = Path.cwd()
    locate_package(root)
    runs = root / "perfbench" / "runs"
    workdir = runs / f"work-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.tiny, workdir / name)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
