"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces each public function listed in TARGETS,
in every ``graphinverse`` module that holds it, by a wrapper that times
the call; the originals come back when the block ends. Spans are folded
into per-name totals as they close (calls, total time, time in nested
wrapped calls), because a certify pass closes millions of ``multiply``
spans and a span list would not fit in memory.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from statistics import median
from time import perf_counter


def _count(name: str, measure):
    def on_result(tracer: Tracer, args, result) -> None:
        tracer.counts[name] += measure(args, result)
    return on_result


# (module, attribute path, span name, hook run on each result)
TARGETS = [
    ("graphs", "cycles_in", "graphs.cycles_in", None),
    ("graphs", "Cycle.from_path", "graphs.Cycle.from_path", None),
    ("graphs", "cycle_power", "graphs.cycle_power", None),
    ("graphs", "enumerate_hereditary", "graphs.enumerate_hereditary",
     _count("graphs.enumerate_hereditary.sets", lambda a, r: len(r))),
    ("graphs", "load_graph", "graphs.load_graph", None),
    ("elements", "as_cycle_power", "elements.as_cycle_power", None),
    ("elements", "parse_element", "elements.parse_element", None),
    ("elements", "multiply", "elements.multiply", None),
    ("congruences", "make_triple", "congruences.make_triple", None),
    ("congruences", "load_triple", "congruences.load_triple", None),
    ("congruences", "enumerate_triples", "congruences.enumerate_triples", None),
    ("congruences", "equiv", "congruences.equiv", None),
    ("congruences", "normal_form", "congruences.normal_form", None),
    ("congruences", "triple_generators", "congruences.triple_generators", None),
    ("oracle", "TransitionOracle.__init__", "oracle.TransitionOracle.build",
     _count("oracle.universe", lambda a, r: len(a[0].universe))),
    ("oracle", "TransitionOracle.search", "oracle.search",
     lambda tr, a, r: tr.counts.update({"oracle.search.expansions": r.expansions,
                                        "oracle.search.reached": int(r.reached)})),
    ("oracle", "TransitionOracle.neighbors", "oracle.neighbors", None),
    ("oracle", "materialize", "oracle.materialize", None),
    ("oracle", "enumerate_congruences", "oracle.enumerate_congruences",
     _count("oracle.congruences", lambda a, r: len(r))),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, nested seconds]
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}
        self._open: list[float] = []  # nested seconds of each open span

    def wrap(self, name: str, fn, on_result=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        opened = self._open

        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = opened.pop()
                if opened:
                    opened[-1] += dt
                record[0] += 1
                record[1] += dt
                record[2] += nested
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS function for the duration of the block."""
        undo = []
        try:
            for mod_name, attr, name, hook in TARGETS:
                mod = importlib.import_module("graphinverse." + mod_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if leaf not in getattr(owner, "__dict__", {}):
                    print(f"trace: graphinverse.{mod_name}.{attr} not found; "
                          f"{name} reads 0", file=sys.stderr)
                    continue
                if owner_name:
                    raw = owner.__dict__[leaf]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        new = self.wrap(name, raw, hook)
                    undo.append((owner, leaf, raw))
                    setattr(owner, leaf, new)
                    continue
                orig = getattr(mod, leaf)
                new = self.wrap(name, orig, hook)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("graphinverse") and \
                            m.__dict__.get(leaf) is orig:
                        undo.append((m, leaf, orig))
                        setattr(m, leaf, new)
            yield self
        finally:
            for owner, leaf, orig in reversed(undo):
                setattr(owner, leaf, orig)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "samples": self.samples}

    def merge(self, raw: dict) -> None:
        """Fold in what another process's tracer exported."""
        for name, (calls, total, nested) in raw["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += nested
        self.counts.update(raw["counts"])
        for name, values in raw["samples"].items():
            self.samples.setdefault(name, []).extend(values)

    def take(self) -> dict:
        """Return the totals so far as a flat dict and start again from zero."""
        snap: dict[str, float] = dict(self.counts)
        for name, (calls, total, nested) in self.spans.items():
            snap[name + ".calls"] = calls
            snap[name + ".ms"] = total * 1e3
            snap[name + ".self_ms"] = (total - nested) * 1e3
            self.spans[name][:] = [0, 0.0, 0.0]
        for name, values in self.samples.items():
            if values:
                snap[name] = median(values)
            values.clear()
        self.counts.clear()
        return snap
