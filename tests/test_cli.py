from __future__ import annotations

import itertools
import json
import os
import random
import resource
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from graphinverse import cli, graphs, oracle
from graphinverse.graphs import Graph, graph_to_json
from graphinverse.cli import main
from graphinverse.congruences import (
    enumerate_triples,
    equiv,
    make_triple,
    normal_form,
    triple_to_json,
)
from graphinverse.corpus import CORPUS
from graphinverse.elements import format_element
from graphinverse.oracle import bounded_elements
from reference import hereditary_sets, rees_only_condition
from test_congruences import loop_triple
from test_graphs import path_graph, ring
from test_scripts import run_into_closed_pipe


@pytest.fixture
def loop_files(tmp_path):
    g = CORPUS["loop"]
    graph = tmp_path / "loop.json"
    graph.write_text(json.dumps(graph_to_json(g)))
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(triple_to_json(g, loop_triple(g, 2))))
    return str(graph), str(triple)


@pytest.fixture
def edge_files(tmp_path):
    g = CORPUS["edge"]
    graph = tmp_path / "edge.json"
    graph.write_text(json.dumps(graph_to_json(g)))
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(triple_to_json(g, make_triple(g, w={"v"}))))
    return str(graph), str(triple)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_loop_text(self, capsys, loop_files):
        graph, _ = loop_files
        code, out, _ = run(capsys, ["report", graph])
        assert code == 0
        assert "0-simple (strongly connected): yes" in out
        assert "congruence-free: no" in out

    def test_edge_hereditary_listing(self, capsys, edge_files):
        graph, _ = edge_files
        code, out, _ = run(capsys, ["report", graph])
        assert code == 0
        assert "{}  {w}  {v, w}" in out

    def test_double_loop_is_congruence_free(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(CORPUS["double_loop"])))
        code, out, _ = run(capsys, ["report", str(path)])
        assert code == 0
        assert "congruence-free: yes" in out

    def test_json_mode_round_trips(self, capsys, loop_files):
        graph, _ = loop_files
        code, out, _ = run(capsys, ["report", graph, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["zero_simple"] is True
        assert data["congruence_free"] is False

    @pytest.fixture
    def empty_graph(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(Graph.of([], []))))
        return str(path)

    def test_empty_graph_text(self, capsys, empty_graph):
        # I(∅) = {0}, and S² = {0} rules out 0-simple
        code, out, _ = run(capsys, ["report", empty_graph])
        assert code == 0
        assert out.splitlines()[-3:] == [
            "0-simple (strongly connected): no  [I(G) = {0}]",
            "Rees congruences only: yes",
            "congruence-free: no  [I(G) = {0}]",
        ]

    def test_empty_graph_json(self, capsys, empty_graph):
        code, out, _ = run(capsys, ["report", empty_graph, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert (data["zero_simple"], data["rees_only"], data["congruence_free"]) == (
            False, True, False
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["report", str(tmp_path / "nope.json")])
        assert code == 1 and "error" in err

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["v"]}')
        code, _, err = run(capsys, ["report", str(bad)])
        assert code == 1 and "error" in err

    def test_long_ring_reports_two_hereditary_sets(self, tmp_path):
        vs = [f"v{i}" for i in range(3000)]
        g = Graph.of(vs, [(f"e{i}", vs[i], vs[(i + 1) % 3000]) for i in range(3000)])
        path = tmp_path / "r3000.json"
        path.write_text(json.dumps(graph_to_json(g)))
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "graphinverse", "report", str(path), "--format", "json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["hereditary_subsets"] == [[], vs]
        assert report["zero_simple"] is True


class TestUnreadableFile:
    """A path that cannot be read as a file ends in one error line."""

    @staticmethod
    def one_error_line(capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_directory_as_graph(self, capsys, tmp_path):
        line = self.one_error_line(capsys, ["report", str(tmp_path)])
        assert "directory" in line

    def test_directory_as_triple(self, capsys, tmp_path, loop_files):
        graph, _ = loop_files
        line = self.one_error_line(capsys, ["nf", graph, str(tmp_path), "@v|@v"])
        assert "directory" in line


class TestDeeplyNestedJson:
    """JSON nested past the recursion limit is invalid JSON, not a traceback."""

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        return str(path)

    def test_as_graph(self, capsys, deep):
        line = TestUnreadableFile.one_error_line(capsys, ["report", deep])
        assert line.startswith(f"error: invalid JSON in {deep}: ")

    def test_as_triple(self, capsys, deep, loop_files):
        graph, _ = loop_files
        line = TestUnreadableFile.one_error_line(capsys, ["nf", graph, deep, "e|@v"])
        assert line.startswith(f"error: invalid JSON in {deep}: ")


class TestReportScansOnce:
    """report finds the hereditary sets once and reads the Rees-only
    predicate off its per-H rows."""

    EXPECTED = {
        "pendant_cycle": """\
vertices: u, v, w
edges: e0:u->v, e1:v->w, e2:w->v
hereditary subsets (3): {}  {v, w}  {u, v, w}
index-one vertices: {u, v, w}
  H={}: index-one {u, v, w}  cycles: e1.e2
  H={v, w}: index-one {}
  H={u, v, w}: index-one {}
0-simple (strongly connected): no  [a proper nonempty hereditary subset exists]
Rees congruences only: no  [some quotient keeps an index-one vertex]
congruence-free: no  [needs strong connectivity and no index-one vertex]
""",
        "double_loop": """\
vertices: v
edges: a:v->v, b:v->v
hereditary subsets (2): {}  {v}
index-one vertices: {}
  H={}: index-one {}
  H={v}: index-one {}
0-simple (strongly connected): yes
Rees congruences only: yes
congruence-free: yes
""",
    }

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        original = graphs.quotients

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "quotients", counted)
        monkeypatch.setattr(cli, "quotients", counted)
        return calls

    @pytest.mark.parametrize("name", ["pendant_cycle", "double_loop"])
    def test_text_unchanged_with_one_scan(self, capsys, tmp_path, scans, name):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(CORPUS[name])))
        code, out, _ = run(capsys, ["report", str(path)])
        assert code == 0 and len(scans) == 1
        assert out == self.EXPECTED[name]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_rees_only_matches_predicate(self, capsys, tmp_path, scans, name):
        g = CORPUS[name]
        expected = rees_only_condition(g)
        scans.clear()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g)))
        code, out, _ = run(capsys, ["report", str(path), "--format", "json"])
        assert code == 0 and len(scans) == 1
        assert json.loads(out)["rees_only"] is expected


class TestNonStringJsonFields:
    """Fields of the wrong JSON type end in one error line, exit code 1."""

    @staticmethod
    def run_bad(capsys, tmp_path, argv, graph, triple=None):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        files = [str(gpath)]
        if triple is not None:
            tpath = tmp_path / "t.json"
            tpath.write_text(json.dumps(triple))
            files.append(str(tpath))
        code, out, err = run(capsys, [argv[0], *files, *argv[1:]])
        assert code == 1 and out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    LOOP = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}

    def test_list_vertex_id(self, capsys, tmp_path):
        line = self.run_bad(capsys, tmp_path, ["report"], {"vertices": [["v"]], "edges": []})
        assert "string" in line

    def test_list_edge_source(self, capsys, tmp_path):
        graph = {"vertices": ["v"], "edges": [{"id": "e", "src": ["v"], "dst": "v"}]}
        line = self.run_bad(capsys, tmp_path, ["report"], graph)
        assert line == "error: edge ('e', ['v'], 'v') has undeclared endpoint"

    def test_list_vertex_in_h(self, capsys, tmp_path):
        triple = {"H": [["v"]], "W": [], "f": []}
        line = self.run_bad(capsys, tmp_path, ["nf", "@v|@v"], self.LOOP, triple)
        assert line == "error: H must hold vertex-id strings, got [['v']]"

    def test_string_cycle(self, capsys, tmp_path):
        triple = {"H": [], "W": ["v"], "f": [{"cycle": "e", "value": 2}]}
        line = self.run_bad(capsys, tmp_path, ["equiv", "e.e|@v", "@v|@v"], self.LOOP, triple)
        assert line == "error: bad cycle 'e': edge ids must be a sequence of ids, not the str 'e'"

    def test_huge_value_is_not_infinity(self, capsys, tmp_path):
        # json reads 1e400 as float('inf'); only the string "inf" means infinity
        gpath, tpath = tmp_path / "g.json", tmp_path / "t.json"
        gpath.write_text(json.dumps(self.LOOP))
        tpath.write_text('{"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": 1e400}]}')
        code, out, err = run(capsys, ["nf", str(gpath), str(tpath), "e.e|@v"])
        assert code == 1 and out == ""
        assert err.splitlines() == [
            'error: bad cycle value inf: expected an integer >= 1 or "inf"'
        ]


class TestEquiv:
    def test_true_pair(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(capsys, ["equiv", graph, triple, "e.e|@v", "@v|@v"])
        assert code == 0 and out.strip() == "true"

    def test_false_pair(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(capsys, ["equiv", graph, triple, "e|@v", "@v|@v"])
        assert code == 0 and out.strip() == "false"

    def test_zero_vs_vertex(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(capsys, ["equiv", graph, triple, "0", "@v|@v"])
        assert code == 0 and out.strip() == "false"

    def test_certificate_found(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(
            capsys, ["equiv", graph, triple, "e.e|@v", "@v|@v", "--certify"]
        )
        assert code == 0
        assert "certificate: e.e|@v -> @v|@v" in out

    def test_certificate_without_listing_the_universe(self, capsys, tmp_path, monkeypatch):
        """At the default len_bound 8, U on double_loop has 261 122 elements;
        the certificate of a pair answered before any expansion lists none."""

        def refuse(*args):
            raise AssertionError("the universe was listed")

        monkeypatch.setattr(oracle, "bounded_elements", refuse)
        g = CORPUS["double_loop"]
        graph, triple = tmp_path / "double_loop.json", tmp_path / "t.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        triple.write_text(json.dumps(triple_to_json(g, make_triple(g))))
        code, out, _ = run(capsys, ["equiv", str(graph), str(triple), "a|a", "a|a", "--certify"])
        assert code == 0
        assert out.splitlines() == ["true", "certificate: a|a"]

    def test_certificate_through_zero(self, capsys, tmp_path):
        g = CORPUS["edge"]
        graph, triple = tmp_path / "edge.json", tmp_path / "t.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        triple.write_text(json.dumps(triple_to_json(g, make_triple(g, h={"w"}))))
        code, out, _ = run(capsys, ["equiv", str(graph), str(triple), "@w|@w", "e|e", "--certify"])
        assert code == 0
        assert out.splitlines() == ["true", "certificate: @w|@w -> 0 -> e|e"]

    def test_certificate_out_of_bounds_exits_two(self, capsys, loop_files):
        graph, triple = loop_files
        x = ".".join(["e"] * 5) + "|@v"
        code, out, _ = run(
            capsys,
            ["equiv", graph, triple, x, "e|@v", "--certify", "--len-bound", "2"],
        )
        assert code == 2
        assert out.splitlines()[0] == "true"
        assert "no certificate within bounds" in out

    def test_unrelated_pair_searches_nothing(self, capsys, loop_files, monkeypatch):
        """Rewrites keep to one class, so no search can certify a pair
        that equiv calls unrelated; none is built, at any bound."""

        def refuse(*args):
            raise AssertionError("a rewrite search was built")

        monkeypatch.setattr(oracle, "TransitionOracle", refuse)
        graph, triple = loop_files
        code, out, err = run(capsys, ["equiv", graph, triple, "e|@v", "@v|@v", "--certify",
                                      "--len-bound", "200"])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["false", "no certificate within bounds (len 200, steps 100000)"]

    @pytest.mark.parametrize("files, x", [("loop_files", "e|@v"), ("edge_files", "e|@w")])
    def test_huge_len_bound_builds_at_once(self, request, files, x):
        """The reach pass stops once it can grow no further, so its cost
        does not follow --len-bound."""
        graph, triple = request.getfixturevalue(files)
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "graphinverse", "equiv", graph, triple, x, x,
             "--certify", "--len-bound", "1000000000"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["true", f"certificate: {x}"]

    def test_bad_literal(self, capsys, loop_files):
        graph, triple = loop_files
        code, _, err = run(capsys, ["equiv", graph, triple, "e|", "@v|@v"])
        assert code == 1 and "error" in err

    def test_json_output(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(
            capsys,
            ["equiv", graph, triple, "e.e|@v", "@v|@v", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out) == {"equivalent": True}


class TestNormalForm:
    def test_lap_reduction(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(capsys, ["nf", graph, triple, "e.e.e|@v"])
        assert code == 0 and out.strip() == "e|@v"

    def test_ghost_lap(self, capsys, loop_files):
        graph, triple = loop_files
        code, out, _ = run(capsys, ["nf", graph, triple, "@v|e"])
        assert code == 0 and out.strip() == "e|@v"

    def test_identity_triple_echoes(self, capsys, tmp_path):
        g = CORPUS["loop"]
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        triple = tmp_path / "t.json"
        triple.write_text(json.dumps({"H": [], "W": [], "f": []}))
        code, out, _ = run(capsys, ["nf", str(graph), str(triple), "e.e|e"])
        assert code == 0 and out.strip() == "e.e|e"

    @pytest.mark.parametrize("cycle, literal, message", [
        (["e"], "zz|@v", "error: unknown edge id 'zz'"),
        (["zz"], "e|@v", "error: bad cycle ['zz']: unknown edge id 'zz'"),
    ], ids=["literal", "cycle"])
    def test_unknown_edge_id_unquoted(self, capsys, tmp_path, cycle, literal, message):
        graph, triple = tmp_path / "g.json", tmp_path / "t.json"
        graph.write_text(json.dumps(graph_to_json(CORPUS["loop"])))
        triple.write_text(json.dumps({"H": [], "W": ["v"], "f": [{"cycle": cycle, "value": 2}]}))
        code, out, err = run(capsys, ["nf", str(graph), str(triple), literal])
        assert (code, out, err.splitlines()) == (1, "", [message])


class TestEnumerate:
    def test_edge_brute_bijection(self, capsys, edge_files):
        graph, _ = edge_files
        code, out, _ = run(capsys, ["enumerate", graph, "--brute"])
        assert code == 0
        assert "4 triples" in out
        assert "bijection verified" in out

    def test_loop_flags_infinite_family(self, capsys, loop_files):
        graph, _ = loop_files
        code, out, _ = run(capsys, ["enumerate", graph, "--f-cap", "2"])
        assert code == 0
        assert "5 triples" in out
        assert "infinite" in out

    def test_brute_on_cyclic_fails(self, capsys, loop_files):
        graph, _ = loop_files
        code, _, err = run(capsys, ["enumerate", graph, "--brute"])
        assert code == 1 and "acyclic" in err

    def test_brute_refuses_above_max_elements_before_any_product(
        self, capsys, edge_files, monkeypatch
    ):
        products = []
        monkeypatch.setattr(oracle, "multiply", lambda x, y: products.append(1))
        listings = []
        monkeypatch.setattr(cli, "enumerate_triples", lambda *a: listings.append(a))
        graph, _ = edge_files
        code, _, err = run(capsys, ["enumerate", graph, "--brute", "--max-elements", "5"])
        assert code == 1 and not products and not listings
        assert err == "error: semigroup has 6 elements, above the bound 5\n"

    def test_single_vertex(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(CORPUS["single_vertex"])))
        code, out, _ = run(capsys, ["enumerate", str(path)])
        assert code == 0 and "2 triples" in out


class TestTriples:
    def test_machine_listing_parses_back(self, capsys, tmp_path):
        g = CORPUS["two_cycle"]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g)))
        code, out, _ = run(capsys, ["triples", str(path), "--f-cap", "2", "--format", "json"])
        assert code == 0
        from graphinverse.congruences import triple_from_json

        docs = json.loads(out)["triples"]
        assert len(docs) == 7
        assert [triple_from_json(g, d) for d in docs] == list(enumerate_triples(g, 2))

    def test_json_format(self, capsys, loop_files):
        graph, _ = loop_files
        code, out, _ = run(capsys, ["triples", graph, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["infinite_family"] is True
        # default cap 4: identity, five cycle values (1..4, inf), universal
        assert len(data["triples"]) == 7


class TestOracleCommand:
    def test_edge_listing(self, capsys, edge_files):
        graph, _ = edge_files
        code, out, _ = run(capsys, ["oracle", graph])
        assert code == 0
        assert "6 elements" in out
        assert "4 congruences" in out

    def test_rejects_cyclic(self, capsys, loop_files):
        graph, _ = loop_files
        code, _, err = run(capsys, ["oracle", graph])
        assert code == 1 and "acyclic" in err

    def test_long_path_refused_in_one_line(self, tmp_path):
        vs = [f"v{i}" for i in range(3000)]
        g = Graph.of(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(len(vs) - 1)])
        path = tmp_path / "p3000.json"
        path.write_text(json.dumps(graph_to_json(g)))
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "graphinverse", "oracle", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        # |I(G)| = 1 + sum of k^2 for k = 1..3000
        assert proc.stderr == "error: semigroup has 9004500501 elements, above the bound 64\n"

    def test_json_output(self, capsys, edge_files):
        graph, _ = edge_files
        code, out, _ = run(capsys, ["oracle", graph, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["congruences"]) == 4


class TestJsonOutput:
    """--format json prints one line, which parses to the payload each
    subcommand documents, rebuilt here from library calls."""

    @staticmethod
    def files(tmp_path, g):
        triples = tuple(enumerate_triples(g, 2))
        t = triples[len(triples) // 2]
        graph, triple = tmp_path / "g.json", tmp_path / "t.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        triple.write_text(json.dumps(triple_to_json(g, t)))
        return t, str(graph), str(triple)

    @staticmethod
    def one_line(capsys, argv):
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 and out.endswith("\n")
        return json.loads(out)

    @staticmethod
    def listing(g):
        triples = tuple(enumerate_triples(g, 4))  # the default --f-cap
        return {
            "f_cap": 4,
            "count": len(triples),
            "infinite_family": any(t.f for t in triples),
            "triples": [triple_to_json(g, t) for t in triples],
        }

    @staticmethod
    def same_bytes(out, expected):
        """out == expected, failing with the first differing offset and
        its surroundings: pytest's own diff of two long one-line strings
        does not finish."""
        if out != expected:
            i = next((k for k, (a, b) in enumerate(zip(out, expected)) if a != b),
                     min(len(out), len(expected)))
            pytest.fail(f"output differs at offset {i} (lengths {len(out)}, {len(expected)}):"
                        f" got {out[max(i - 40, 0):i + 40]!r},"
                        f" expected {expected[max(i - 40, 0):i + 40]!r}")

    @classmethod
    def exact(cls, capsys, argv, payload):
        """The listings write json.dumps(payload) and a newline, byte for byte."""
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        cls.same_bytes(out, json.dumps(payload) + "\n")

    def alias_matches(self, capsys, graph):
        """`triples` is `enumerate`, in text and in JSON."""
        for fmt in ("text", "json"):
            listings = [run(capsys, [command, graph, "--format", fmt])
                        for command in ("enumerate", "triples")]
            assert [(code, err) for code, _, err in listings] == [(0, ""), (0, "")]
            self.same_bytes(listings[1][1], listings[0][1])

    def test_report(self, capsys, tmp_path, corpus_graph):
        g = corpus_graph
        _, graph, _ = self.files(tmp_path, g)
        hereditary = hereditary_sets(g)
        per_h = [(h, graphs.index_one_edges(g, h)) for h in hereditary]
        assert self.one_line(capsys, ["report", graph]) == {
            **graph_to_json(g),
            "hereditary_subsets": [list(g.sort_vertices(h)) for h in hereditary],
            "index_one_vertices": list(graphs.index_one_edges(g)),
            "per_hereditary": [
                {
                    "H": list(g.sort_vertices(h)),
                    "index_one": list(bar),
                    "cycles": [list(c.path.edges) for c in graphs.cycles_in(g, bar)],
                }
                for h, bar in per_h
            ],
            "zero_simple": graphs.is_strongly_connected(g),
            "rees_only": rees_only_condition(g),
            "congruence_free": bool(g.vertices) and graphs.is_congruence_free_graph(g),
        }

    def test_listings(self, capsys, tmp_path, corpus_graph):
        g = corpus_graph
        _, graph, _ = self.files(tmp_path, g)
        self.exact(capsys, ["enumerate", graph], self.listing(g))
        self.alias_matches(capsys, graph)

    def test_listings_over_several_chunks(self, capsys, tmp_path):
        g = path_graph(10)  # 1024 triples, four chunks
        _, graph, _ = self.files(tmp_path, g)
        listing = self.listing(g)
        assert len(listing["triples"]) == 4 * cli.LISTING_CHUNK
        self.exact(capsys, ["enumerate", graph], listing)
        self.alias_matches(capsys, graph)
        code, out, err = run(capsys, ["enumerate", graph])
        assert (code, err) == (0, "")
        # a path has no cycle, so every f is empty
        self.same_bytes(out, "".join(
            f"H={{{', '.join(d['H'])}}} W={{{', '.join(d['W'])}}} f={{}}\n"
            for d in listing["triples"]) + f"{len(listing['triples'])} triples\n")

    def test_brute_force(self, capsys, tmp_path, acyclic_graph):
        g = acyclic_graph
        _, graph, _ = self.files(tmp_path, g)
        s, congruences = oracle.brute_force(g, 64)
        self.exact(capsys, ["enumerate", graph, "--brute"], {
            **self.listing(g),
            "brute": {
                "elements": len(s),
                "congruences": len(congruences),
                "bijection_verified": True,
            },
        })
        assert self.one_line(capsys, ["oracle", graph]) == {
            "elements": [format_element(x) for x in s.elements],
            "congruences": [
                {
                    "classes": [[format_element(s.elements[i]) for i in cls]
                                for cls in rho.classes],
                    "triple": triple_to_json(g, t),
                }
                for rho, t in congruences
            ],
        }

    def test_decisions(self, capsys, tmp_path, corpus_graph):
        g = corpus_graph
        t, graph, triple = self.files(tmp_path, g)
        xs = bounded_elements(g, 1)[:4]
        for x in xs:
            literal = format_element(x)
            assert self.one_line(capsys, ["nf", graph, triple, literal]) == {
                "normal_form": format_element(normal_form(g, t, x)),
            }
            for y in xs:
                argv = ["equiv", graph, triple, literal, format_element(y)]
                assert self.one_line(capsys, argv) == {"equivalent": equiv(g, t, x, y)}


class TestOutOfMemory:
    def test_one_error_line(self, capsys, loop_files, monkeypatch):
        """str(MemoryError()) is empty, so the line names the error itself."""
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_nf", exhausted)
        assert run(capsys, ["nf", *loop_files, "@v|e"]) == (1, "", "error: out of memory\n")


class TestBrokenPipe:
    """A reader that closes early ends a fresh CLI process in one error
    line and exit code 1, whether the output fills the buffer or not."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("many", [False, True], ids=["short", "long"])
    def test_one_error_line(self, tmp_path, buffered, many):
        vs = [f"v{i}" for i in range(10 if many else 1)]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(Graph.of(vs, [
            (f"e{i}", vs[i], vs[i + 1]) for i in range(len(vs) - 1)
        ]))))
        argv = ["-m", "graphinverse", "enumerate", str(path)]
        assert run_into_closed_pipe(argv, buffered) == (1, "error: [Errno 32] Broken pipe\n")


class TestHugeFCap:
    """A cap of 10^9 on a loop's cycle value builds no range of 10^9
    values: inside a 1.5 GB address space the listing starts at once, and
    a reader that closes ends it in the one broken-pipe line."""

    @staticmethod
    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    @staticmethod
    def argv(loop_files):
        return ["-m", "graphinverse", "enumerate", loop_files[0], "--f-cap", "1000000000"]

    def test_first_lines_come_promptly(self, loop_files):
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, *self.argv(loop_files)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
            preexec_fn=self.limit_memory,
        )
        try:
            assert select.select([proc.stdout], [], [], 60)[0], "no output within 60 s"
            first = [proc.stdout.readline() for _ in range(3)]
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        assert first == ["H={} W={} f={}\n", "H={} W={v} f={e->1}\n", "H={} W={v} f={e->2}\n"]
        assert (proc.returncode, proc.stderr.read()) == (1, "error: [Errno 32] Broken pipe\n")
        proc.stderr.close()

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_reader(self, loop_files, buffered):
        assert run_into_closed_pipe(self.argv(loop_files), buffered, self.limit_memory) == (
            1, "error: [Errno 32] Broken pipe\n"
        )


class TestLongRing:
    """Every vertex of a ring of 10^4 vertices has index one, so the
    listing runs W over 10^4 bits. It starts at once, with no recursion
    overflow, and a reader that closes ends it in the one broken-pipe
    line."""

    @staticmethod
    def graph():
        return ring(random.Random(10_000), 10_000)

    def test_first_triples(self):
        first = itertools.islice(enumerate_triples(self.graph()), 4)
        assert [sorted(t.w) for t in first] == [[], ["r0"], ["r1"], ["r0", "r1"]]

    def test_closed_reader(self, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(graph_to_json(self.graph())))
        argv = ["-m", "graphinverse", "enumerate", str(path)]
        assert run_into_closed_pipe(argv, True) == (1, "error: [Errno 32] Broken pipe\n")


class TestLazyOracleImport:
    """Only the commands that run the brute force or the rewrite search
    load graphinverse.oracle."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["report", "G"], False),
            (["nf", "G", "T", "e|@w"], False),
            (["oracle", "G"], True),
        ],
        ids=["report", "nf", "oracle"],
    )
    def test_fresh_interpreter(self, edge_files, argv, loaded):
        files = dict(zip("GT", edge_files))
        argv = [files.get(a, a) for a in argv]
        code = (
            "import sys\n"
            "from graphinverse.cli import main\n"
            f"code = main({argv!r})\n"
            "print('graphinverse.oracle' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{loaded}\n"


class TestHugeCycleValue:
    """A finite f-value far past any length bound, on the loop with
    W = {v}. The normal form of @v|e is e^(f-1)|@v, which cannot be
    built: at f = 10^30 its length overflows an index, and at f = 10^9
    it runs out of memory; either ends in one error line. --certify on
    the related pair e|e, @v|@v builds only a power of e cut to about
    2 * len_bound edges, so it answers. The f = 10^9 cases run in a child under a 1 GB address-space
    limit: without one, e^(f-1) takes the machine's memory."""

    @staticmethod
    def files(tmp_path, f):
        gpath, tpath = tmp_path / "g.json", tmp_path / "t.json"
        gpath.write_text(json.dumps(graph_to_json(CORPUS["loop"])))
        tpath.write_text(json.dumps({"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": f}]}))
        return [str(gpath), str(tpath)]

    @pytest.mark.parametrize("command", [["nf", "@v|e"]])
    def test_one_error_line(self, capsys, tmp_path, command):
        files = self.files(tmp_path, 10**30)
        code, out, err = run(capsys, [command[0], *files, *command[1:]])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_certify_answers(self, capsys, tmp_path):
        files = self.files(tmp_path, 10**30)
        code, out, err = run(capsys, ["equiv", *files, "@v|e", "e|@v", "--certify",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"equivalent": False, "certificate": None}
        code, out, err = run(capsys, ["equiv", *files, "e|e", "@v|@v", "--certify",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"equivalent": True, "certificate": ["e|e", "@v|@v"]}

    @pytest.mark.parametrize("command, expected", [
        (["nf", "@v|e"], (1, "", "error: out of memory\n")),
        (["equiv", "e|@v", "@v|@v", "--certify", "--format", "json"],
         (0, '{"equivalent": false, "certificate": null}\n', "")),
        (["equiv", "e|e", "@v|@v", "--certify", "--format", "json"],
         (0, '{"equivalent": true, "certificate": ["e|e", "@v|@v"]}\n', "")),
    ], ids=["nf", "certify", "certify_related"])
    def test_billion_laps_under_a_memory_limit(self, tmp_path, command, expected):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "graphinverse", command[0], *self.files(tmp_path, 10**9),
             *command[1:]],
            capture_output=True, text=True, timeout=60, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


class TestFlags:
    @staticmethod
    def usage_error(capsys, argv):
        """Usage errors are invalid input: one error line, exit code 1."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_unknown_flag_rejected(self, capsys, loop_files):
        graph, _ = loop_files
        line = self.usage_error(capsys, ["report", graph, "--what"])
        assert line == "error: unrecognized arguments: --what"

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "G", "--format", "xml"],
            ["equiv", "G", "T", "e|@v", "e|@v", "--len-bound", "abc"],
            ["nf", "G", "T"],
            ["bogus", "G"],
        ],
        ids=["bad_choice", "bad_integer", "missing_argument", "unknown_subcommand"],
    )
    def test_usage_errors_exit_one(self, capsys, loop_files, argv):
        files = dict(zip("GT", loop_files))
        self.usage_error(capsys, [files.get(a, a) for a in argv])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")

    def test_bad_f_cap(self, capsys, loop_files):
        graph, _ = loop_files
        for command in ("enumerate", "triples"):
            code, out, err = run(capsys, [command, graph, "--f-cap", "0"])
            assert (code, out, err) == (1, "", "error: --f-cap must be a positive integer\n")

    @pytest.mark.parametrize("command", [["oracle"], ["enumerate", "--brute"], ["enumerate"]])
    def test_negative_max_elements(self, capsys, edge_files, command):
        graph, _ = edge_files
        argv = [command[0], graph, *command[1:], "--max-elements", "-5"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: --max-elements must be nonnegative\n"

    @pytest.mark.parametrize("flag", ["--len-bound", "--steps"])
    def test_negative_search_bound_names_its_flag(self, capsys, loop_files, flag):
        graph, triple = loop_files
        argv = ["equiv", graph, triple, "e|@v", "e|@v", "--certify", flag, "-1"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be nonnegative\n"

    def test_huge_f_cap_on_acyclic_graph(self, capsys, edge_files):
        # no cycle takes a value, so the range 1..cap is never built
        graph, _ = edge_files
        code, huge, _ = run(capsys, ["triples", graph, "--f-cap", "1000000000000"])
        assert code == 0
        assert huge == run(capsys, ["triples", graph, "--f-cap", "1"])[1]


class TestNoGraphPerHereditarySet:
    """G∖H is read off G: enumeration, make_triple and report build no
    Graph beyond the one loaded."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = Graph.__new__

        def counted(cls, *args, **kwargs):
            g = original(cls, *args, **kwargs)
            calls.append(g)
            return g

        monkeypatch.setattr(Graph, "__new__", staticmethod(counted))
        return calls

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_library_calls(self, built, name):
        g = CORPUS[name]
        triples = tuple(enumerate_triples(g, 2))
        for t in triples:
            make_triple(g, t.h, t.w, dict(t.f))
        assert triples and built == []

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("command", [["report"], ["report", "--format", "json"],
                                         ["triples"], ["triples", "--format", "json"]])
    def test_cli_builds_only_the_loaded_graph(self, capsys, tmp_path, built, name, command):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(CORPUS[name])))
        code, _, _ = run(capsys, [command[0], str(path), *command[1:]])
        assert code == 0 and built == [CORPUS[name]]


class TestFuzz:
    """Seeded malformed and mutated input across every subcommand: each
    run ends in exit code 0, 1 or 2 without a traceback, and exit code 1
    prints exactly one error line."""

    CASES = 240
    GRAPHS = ["loop", "edge", "two_cycle", "pendant_cycle", "double_loop"]
    JUNK = [None, 0, -1, 2.5, True, "", "zz", "a.b", "@", "*", [], ["v"], {}, {"id": "e"},
            10**30, "inf", "INF", "2"]
    LITERAL_CHARS = ".|@*0evwu1 "

    def junk(self, rng, data):
        """data with one entry replaced, deleted or duplicated, or junk."""
        if rng.random() < 0.1 or not isinstance(data, (dict, list)) or not data:
            return rng.choice(self.JUNK)
        data = json.loads(json.dumps(data))
        key = rng.choice(list(data) if isinstance(data, dict) else range(len(data)))
        action = rng.random()
        if action < 0.4:
            data[key] = self.junk(rng, data[key])
        elif action < 0.6:
            del data[key]
        elif isinstance(data, list):
            data.insert(rng.randrange(len(data) + 1), data[key])
        else:
            data[key] = self.junk(rng, data[key])
        return data

    def mutate_triple(self, rng, g, triple):
        t = json.loads(json.dumps(triple))
        action = rng.randrange(5)
        if action == 0:
            t[rng.choice("HW")].append(rng.choice(list(g.vertices) + ["zz"]))
        elif action == 1 and t["f"]:
            entry = rng.choice(t["f"])
            entry["value"] = rng.choice([0, -3, 1, 3, "inf", 10**30, 2.0, True, None])
        elif action == 2 and t["f"]:
            cycle = rng.choice(t["f"])["cycle"]
            cycle.append(cycle.pop(0))  # another rotation, or the same loop
        elif action == 3:
            t = self.junk(rng, t)
        return t

    def mutate_literal(self, rng, literal):
        chars = list(literal)
        for _ in range(rng.randint(1, 2)):
            pos = rng.randrange(len(chars) + 1)
            action = rng.randrange(3)
            if action == 0 or not chars:
                chars.insert(pos, rng.choice(self.LITERAL_CHARS))
            elif action == 1:
                del chars[min(pos, len(chars) - 1)]
            else:
                chars[min(pos, len(chars) - 1)] = rng.choice(self.LITERAL_CHARS)
        return "".join(chars)

    def argv_for(self, rng, graph_file, triple_file, x, y):
        command = rng.choice(["report", "equiv", "nf", "enumerate", "triples", "oracle"])
        fmt = ["--format", rng.choice(["text", "json"])]
        if command == "report":
            return ["report", graph_file, *rng.choice([[], ["--dot"]]), *fmt]
        if command == "equiv":
            certify = ["--certify", "--len-bound", "3", "--steps", "200"]
            return ["equiv", graph_file, triple_file, x, y, *rng.choice([[], certify]), *fmt]
        if command == "nf":
            return ["nf", graph_file, triple_file, x, *fmt]
        if command == "enumerate":
            brute = ["--brute", "--max-elements", "16"]
            return ["enumerate", graph_file, "--f-cap", "2", *rng.choice([[], brute]), *fmt]
        if command == "triples":
            return ["triples", graph_file, "--f-cap", "2", *fmt]
        return ["oracle", graph_file, "--max-elements", "16", *fmt]

    def test_no_traceback(self, capsys, tmp_path):
        rng = random.Random(1964)
        # the process's own CPU time, which a loaded machine does not inflate
        started = time.process_time()
        codes = Counter()
        graph_file, triple_file = tmp_path / "g.json", tmp_path / "t.json"
        for case in range(self.CASES):
            g = CORPUS[rng.choice(self.GRAPHS)]
            graph = graph_to_json(g)
            triple = triple_to_json(g, rng.choice(tuple(enumerate_triples(g, 2))))
            x, y = rng.sample([format_element(z) for z in bounded_elements(g, 2)], 2)
            # one input is malformed or mutated, or none
            target = rng.choice(["graph", "graph text", "triple", "triple", "literal", "none"])
            if target == "graph":
                graph = self.junk(rng, graph)
            elif target == "triple":
                triple = self.mutate_triple(rng, g, triple)
            elif target == "literal":
                x = self.mutate_literal(rng, x)
            graph_text = json.dumps(graph)
            if target == "graph text":
                graph_text = graph_text[: rng.randrange(len(graph_text))]
            graph_file.write_text(graph_text)
            triple_file.write_text(json.dumps(triple))
            argv = self.argv_for(rng, str(graph_file), str(triple_file), x, y)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            context = (case, argv, graph_text, json.dumps(triple), err)
            assert code in (0, 1, 2), context
            assert "Traceback" not in err, context
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), context
            codes[code] += 1
        assert time.process_time() - started < 2
        assert codes[0] and codes[1]
