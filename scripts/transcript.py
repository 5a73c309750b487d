#!/usr/bin/env python3
"""Print a transcript of the CLI over a fixed list of commands.

Every subcommand runs in-process through ``graphinverse.cli.main``, in
text and JSON, on each corpus graph: ``report`` (also ``--dot``),
``enumerate``, and on the acyclic graphs ``enumerate --brute`` and
``oracle``. ``equiv`` (also ``--certify``) and ``nf`` run on three
triples per graph, picked by index in ``enumerate_triples`` order. Then
come graph and triple files that are malformed in one way each. The
files are written to a temporary directory and named relative to it, so
the transcript is the same from run to run. Each command prints as
``$ graphinverse ...``, then its stdout, its stderr lines marked ``!``
and its exit code.

``tests/golden/cli.txt`` holds the transcript; regenerate it with
``python scripts/transcript.py > tests/golden/cli.txt``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
import tempfile

from graphinverse import enumerate_triples, format_element, make_path, triple_to_json
from graphinverse.cli import Parser, main as cli_main, run
from graphinverse.corpus import CORPUS
from graphinverse.elements import path_element, vertex_element
from graphinverse.graphs import graph_to_json, is_acyclic

TRIPLE_PICKS = (0, 1, -1)  # indices into each graph's enumerate_triples listing

# graph files malformed in one way each: name -> JSON value
BAD_GRAPHS = {
    "not-an-object": [],
    "missing-edges": {"vertices": ["v"]},
    "vertices-str": {"vertices": "vw", "edges": []},
    "vertices-object": {"vertices": {"v": 1}, "edges": []},
    "vertices-number": {"vertices": 5, "edges": []},
    "vertices-null": {"vertices": None, "edges": []},
    "vertex-id-list": {"vertices": [["v"]], "edges": []},
    "vertex-id-number": {"vertices": [5], "edges": []},
    "edges-null": {"vertices": ["v"], "edges": None},
    "edges-str": {"vertices": ["v", "w"], "edges": "evw"},
    "edges-object": {"vertices": ["v"], "edges": {"e": ["v", "v"]}},
    "edge-entry-str": {"vertices": ["v", "w"], "edges": ["evw"]},
    "edge-entry-list": {"vertices": ["v"], "edges": [["e", "v", "v"]]},
    "edge-entry-missing-key": {"vertices": ["v"], "edges": [{"id": "e", "src": "v"}]},
    "edge-id-number": {"vertices": ["v"], "edges": [{"id": 5, "src": "v", "dst": "v"}]},
    "edge-src-list": {"vertices": ["v"], "edges": [{"id": "e", "src": ["v"], "dst": "v"}]},
    "edge-dst-number": {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": 5}]},
    "edge-undeclared": {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "w"}]},
}

# triple files malformed in one way each: name -> (corpus graph, JSON value)
BAD_TRIPLES = {
    "not-an-object": ("loop", "H"),
    "missing-f": ("loop", {"H": [], "W": []}),
    "h-str": ("loop", {"H": "v", "W": [], "f": []}),
    "h-object": ("loop", {"H": {"v": 1}, "W": [], "f": []}),
    "h-number": ("loop", {"H": 5, "W": [], "f": []}),
    "h-null": ("loop", {"H": None, "W": [], "f": []}),
    "h-id-list": ("loop", {"H": [["v"]], "W": [], "f": []}),
    "h-id-number": ("loop", {"H": [5], "W": [], "f": []}),
    "h-ids-mixed": ("loop", {"H": [5, "x"], "W": [], "f": []}),
    "w-str": ("loop", {"H": [], "W": "v", "f": []}),
    "w-id-list": ("loop", {"H": [], "W": [["v"]], "f": []}),
    "f-str": ("loop", {"H": [], "W": ["v"], "f": "e"}),
    "f-object": ("loop", {"H": [], "W": ["v"], "f": {"cycle": ["e"], "value": 2}}),
    "f-null": ("loop", {"H": [], "W": ["v"], "f": None}),
    "f-entry-list": ("loop", {"H": [], "W": ["v"], "f": [[["e"], 2]]}),
    "cycle-str": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": "e", "value": 2}]}),
    "cycle-number": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": 5, "value": 2}]}),
    "cycle-id-list": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": [["e"]], "value": 2}]}),
    "cycle-id-number": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": [5], "value": 2}]}),
    "cycle-rotated": ("two_cycle", {"H": [], "W": ["v", "w"],
                                    "f": [{"cycle": ["e2", "e1"], "value": 2}]}),
    "cycle-twice": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": 2},
                                                        {"cycle": ["e"], "value": 3}]}),
    "value-zero": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": 0}]}),
    "value-str": ("loop", {"H": [], "W": ["v"], "f": [{"cycle": ["e"], "value": "x"}]}),
}


def run_cli(argv: list[str]) -> str:
    """One command's block: the command line, stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    marked = "".join(f"! {line}\n" for line in err.getvalue().splitlines())
    return f"$ graphinverse {shlex.join(argv)}\n{out.getvalue()}{marked}(exit {code})\n"


def write(path: str, value: object) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    return path


def literals(t) -> tuple[str, str]:
    """Two element literals for equiv and nf over t's graph: the square of
    t's first cycle, else the first edge, as a path, and the vertex where
    it starts; on a graph with no edge, its first vertex and zero."""
    g = t.graph
    if t.f:
        p = t.f[0][0].power(2)
    elif g.edges:
        p = make_path(g, [g.edges[0].id])
    else:
        return format_element(vertex_element(g.vertices[0])), "0"
    return format_element(path_element(p)), format_element(vertex_element(p.source))


def commands() -> list[list[str]]:
    """Write the input files into the current directory; the commands over them."""
    argvs: list[list[str]] = []
    for name, g in CORPUS.items():
        gpath = write(f"{name}.json", graph_to_json(g))
        argvs.append(["report", gpath, "--dot"])
        subcommands = [["report"], ["enumerate"]]
        if is_acyclic(g):
            subcommands += [["enumerate", "--brute"], ["oracle"]]
        for sub in subcommands:
            for fmt in ("text", "json"):
                argvs.append([sub[0], gpath, *sub[1:], "--format", fmt])
        triples = list(enumerate_triples(g))
        for i in sorted({k % len(triples) for k in TRIPLE_PICKS}):
            tpath = write(f"{name}-triple-{i}.json", triple_to_json(g, triples[i]))
            x, y = literals(triples[i])
            for fmt in ("text", "json"):
                argvs.append(["equiv", gpath, tpath, x, y, "--format", fmt])
                argvs.append(["equiv", gpath, tpath, x, y, "--certify", "--len-bound", "2",
                              "--format", fmt])
                argvs.append(["nf", gpath, tpath, x, "--format", fmt])
    with open("invalid.json", "w", encoding="utf-8") as fh:
        fh.write("{")
    argvs.append(["report", "invalid.json"])
    argvs.append(["nf", "loop.json", "invalid.json", "@v|@v"])
    for name, value in BAD_GRAPHS.items():
        argvs.append(["report", write(f"bad-graph-{name}.json", value)])
    for name, (graph, value) in BAD_TRIPLES.items():
        argvs.append(["nf", f"{graph}.json", write(f"bad-triple-{name}.json", value), "@v|@v"])
    return argvs


def transcript() -> str:
    """The whole transcript, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        return "".join(map(run_cli, commands()))


def main() -> None:
    Parser(description=__doc__).parse_args()
    sys.stdout.write(transcript())


if __name__ == "__main__":
    sys.exit(run(main))
