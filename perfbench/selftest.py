"""Self-tests for the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

The tiny-size mode must run all four workloads with every output
checked, and answers planted wrong must be rejected by the checkers, so
that no checker passes vacuously.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = Path.cwd()
run.locate_package(ROOT)

import w_certify  # noqa: E402
import w_cli  # noqa: E402
import w_decide  # noqa: E402
import w_laps  # noqa: E402
from graphinverse import graphs as G  # noqa: E402
from graphinverse.elements import Element  # noqa: E402


def outputs(bench) -> list:
    return [fn() for _, fn, _ in bench.ops]


def first(bench, kind: str, outs: list, pred=lambda out: True) -> int:
    return next(i for i, (k, _, _) in enumerate(bench.ops) if k == kind and pred(outs[i]))


class TinyRun(unittest.TestCase):
    def run_all(self, trace: int) -> list[dict]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
             "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return [json.loads(line) for line in proc.stdout.splitlines()]

    def test_all_workloads_end_to_end(self):
        lines = self.run_all(0)
        self.assertEqual([r["workload"] for r in lines[:-1]], list(run.WORKLOADS))
        for r in lines:
            self.assertTrue(r["correct"], r)
            self.assertEqual(r["failed"], 0)
            self.assertGreater(r["attempted"], 0)
        for r in lines[:-1]:
            self.assertEqual(set(r["metrics"]), set(run.END_TO_END))
            self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()), r)

    def test_all_workloads_traced(self):
        lines = self.run_all(1)
        for r in lines[:-1]:
            self.assertTrue(r["correct"], r)
            self.assertEqual(set(r["metrics"]), set(run.PER_LAYER))
        cli = lines[3]["metrics"]
        self.assertGreater(cli["cli.import_ms"]["value"], 0)
        self.assertGreater(cli["cli.main.report.ms"]["value"], 0)
        self.assertGreater(lines[2]["metrics"]["oracle.search.calls"]["value"], 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         {k: unit for k, (unit, _) in run.PER_LAYER.items()})
        self.assertEqual(max(doc["end_to_end"], key=lambda m: m["bound"])["bound"],
                         next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"))


class PlantedWrongAnswers(unittest.TestCase):
    """Each checker must reject one output changed to a wrong answer."""

    def assertRejects(self, mod, bench, outs: list, i: int, wrong) -> None:
        self.assertEqual(mod.check(bench, outs), [], "unplanted outputs must pass")
        planted = list(outs)
        planted[i] = wrong
        self.assertNotEqual(mod.check(bench, planted), [])

    def test_flipped_equiv_verdict(self):
        bench = w_decide.setup(3, "r0", True, None, None)
        outs = outputs(bench)
        for kind in ("equiv_related", "equiv_random"):
            i = first(bench, kind, outs)
            self.assertRejects(w_decide, bench, outs, i, not outs[i])

    def test_normal_form_off_by_one_edge(self):
        bench = w_decide.setup(3, "r0", True, None, None)
        outs = outputs(bench)
        i = next(i for i, (k, _, data) in enumerate(bench.ops) if k == "normal_form"
                 and not outs[i].is_zero and data[0].out_edges(outs[i].alpha.target))
        x = outs[i]
        e = bench.ops[i][2][0].out_edges(x.alpha.target)[0]
        step = G.Path((e.src, e.dst), (e.id,))
        self.assertRejects(w_decide, bench, outs, i,
                           Element(G.concat(x.alpha, step), G.concat(x.beta, step)))

    def test_wrong_product_and_literal(self):
        bench = w_decide.setup(3, "r0", True, None, None)
        outs = outputs(bench)
        i = first(bench, "multiply", outs, lambda z: not z.is_zero)
        self.assertRejects(w_decide, bench, outs, i, Element(outs[i].beta, outs[i].alpha)
                           if outs[i].alpha != outs[i].beta else Element(None, None))
        i = first(bench, "literal", outs)
        self.assertRejects(w_decide, bench, outs, i, (outs[i][0], outs[i][1] + " "))

    def test_lap_answers(self):
        bench = w_laps.setup(3, "r0", True, None, None)
        outs = outputs(bench)
        i = first(bench, "lap_equiv", outs)
        self.assertRejects(w_laps, bench, outs, i, not outs[i])
        i = first(bench, "power", outs)
        p = outs[i]
        self.assertRejects(w_laps, bench, outs, i, G.Path(p.vertices[:-1], p.edges[:-1]))
        i = first(bench, "lap_nf", outs, lambda x: len(x.alpha) > 0)
        a = outs[i].alpha
        self.assertRejects(w_laps, bench, outs, i,
                           Element(G.Path(a.vertices[:-1], a.edges[:-1]),
                                   G.vertex_path(a.vertices[-2])))
        i = first(bench, "make_triple", outs)
        self.assertRejects(w_laps, bench, outs, i, dataclasses.replace(outs[i], f=outs[i].f[1:]))

    def test_bad_certificates(self):
        bench = w_certify.setup(3, "r0", True, None, None)
        outs = outputs(bench)
        i = first(bench, "one_step", outs, lambda r: len(r.chain) > 1)
        r = outs[i]
        self.assertRejects(w_certify, bench, outs, i,
                           dataclasses.replace(r, chain=tuple(reversed(r.chain))))
        self.assertRejects(w_certify, bench, outs, i, dataclasses.replace(r, reached=False))
        j = next(j for j, (k, _, d) in enumerate(bench.ops)
                 if k == "random" and not w_certify.C.equiv(*d))
        x, y = bench.ops[j][2][2:]
        self.assertRejects(w_certify, bench, outs, j,
                           dataclasses.replace(outs[j], reached=True, chain=(x, y)))

    def test_wrong_hereditary_count(self):
        runs = ROOT / "perfbench" / "runs"
        runs.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            bench = w_cli.setup(3, "r0", True, Path(tmp), None)
            outs = outputs(bench)
            i = first(bench, "report", outs)
            code, text = outs[i]
            payload = json.loads(text)
            payload["hereditary_subsets"].pop()
            self.assertRejects(w_cli, bench, outs, i, (code, json.dumps(payload)))
            i = first(bench, "oracle", outs)
            payload = json.loads(outs[i][1])
            payload["congruences"].pop()
            self.assertRejects(w_cli, bench, outs, i, (0, json.dumps(payload)))


if __name__ == "__main__":
    unittest.main()
