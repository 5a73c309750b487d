from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphinverse import cli, graphs, oracle
from graphinverse.graphs import Graph, graph_to_json
from graphinverse.cli import main
from graphinverse.congruences import make_triple, triple_to_json
from graphinverse.corpus import (
    CORPUS,
    double_loop,
    edge_graph,
    loop_graph,
    pendant_cycle,
    two_cycle,
)
from test_congruences import loop_triple


@pytest.fixture
def loop_files(tmp_path):
    g = loop_graph()
    graph = tmp_path / "loop.json"
    graph.write_text(json.dumps(graph_to_json(g)))
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(triple_to_json(g, loop_triple(g, 2))))
    return str(graph), str(triple)


@pytest.fixture
def edge_files(tmp_path):
    g = edge_graph()
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
        path.write_text(json.dumps(graph_to_json(double_loop())))
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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["report", str(tmp_path / "nope.json")])
        assert code == 1 and "error" in err

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["v"]}')
        code, _, err = run(capsys, ["report", str(bad)])
        assert code == 1 and "error" in err


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
        original = graphs.enumerate_hereditary

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "enumerate_hereditary", counted)
        monkeypatch.setattr(cli, "enumerate_hereditary", counted)
        return calls

    @pytest.mark.parametrize("make", [pendant_cycle, double_loop])
    def test_text_unchanged_with_one_scan(self, capsys, tmp_path, scans, make):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(make())))
        code, out, _ = run(capsys, ["report", str(path)])
        assert code == 0 and len(scans) == 1
        assert out == self.EXPECTED[make.__name__]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_rees_only_matches_predicate(self, capsys, tmp_path, scans, name):
        g = CORPUS[name]
        expected = graphs.rees_only_condition(g)
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
        assert "must be strings" in line

    def test_list_vertex_in_h(self, capsys, tmp_path):
        triple = {"H": [["v"]], "W": [], "f": []}
        line = self.run_bad(capsys, tmp_path, ["nf", "@v|@v"], self.LOOP, triple)
        assert "vertex-id strings" in line

    def test_string_cycle(self, capsys, tmp_path):
        triple = {"H": [], "W": ["v"], "f": [{"cycle": "e", "value": 2}]}
        line = self.run_bad(capsys, tmp_path, ["equiv", "e.e|@v", "@v|@v"], self.LOOP, triple)
        assert "array of edge-id strings" in line


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
        g = loop_graph()
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        triple = tmp_path / "t.json"
        triple.write_text(json.dumps({"H": [], "W": [], "f": []}))
        code, out, _ = run(capsys, ["nf", str(graph), str(triple), "e.e|e"])
        assert code == 0 and out.strip() == "e.e|e"


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
        from graphinverse.corpus import single_vertex

        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(single_vertex())))
        code, out, _ = run(capsys, ["enumerate", str(path)])
        assert code == 0 and "2 triples" in out


class TestTriples:
    def test_machine_listing_parses_back(self, capsys, tmp_path):
        g = two_cycle()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g)))
        code, out, _ = run(capsys, ["triples", str(path), "--f-cap", "2"])
        assert code == 0
        from graphinverse.congruences import triple_from_json

        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 7
        for line in lines:
            triple_from_json(g, json.loads(line))

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


class TestFlags:
    def test_unknown_flag_rejected(self, loop_files):
        graph, _ = loop_files
        with pytest.raises(SystemExit):
            main(["report", graph, "--what"])

    def test_bad_f_cap(self, capsys, loop_files):
        graph, _ = loop_files
        code, _, err = run(capsys, ["enumerate", graph, "--f-cap", "0"])
        assert code == 1 and "f-cap" in err
