"""Each script in scripts/ runs to completion on a small input, the CLI
transcript is the checked-in one, every public name in the package has a
caller outside the tests, no module imports a name it does not use, and
perfbench's copy of the corpus is the corpus."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from graphinverse.corpus import CORPUS
from graphinverse.graphs import Graph

ROOT = Path(__file__).resolve().parent.parent
# a cap so small that most points of each series are recorded as skipped
TINY_SERIES = ["--cap", "0.001", "--out", "{tmp}/BENCH.json"]


def in_dir(args: list[str], tmp_path: Path) -> list[str]:
    """args with {tmp} standing for the test's temporary directory."""
    return [arg.replace("{tmp}", str(tmp_path)) for arg in args]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("class_atlas.py", ["--graph", "loop", "--len-bound", "2"], "rewrite certificate"),
        (
            "verify_bijection.py",
            ["--max-vertices", "2", "--max-edges", "2"],
            "verified 6 graphs",
        ),
        (
            "noetherian_chains.py",
            ["--chains", "5", "--length", "10", "--f-cap", "2"],
            "worst index",
        ),
        ("transcript.py", [], "$ graphinverse report loop.json --dot"),
        ("series.py", TINY_SERIES, "bounded_elements loop"),
    ],
    ids=["class_atlas", "verify_bijection", "noetherian_chains", "transcript", "series"],
)
def test_script_runs(script, args, expected, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *in_dir(args, tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert any(expected in line for line in proc.stdout.splitlines()), proc.stdout


@pytest.mark.parametrize(
    "script, args, names",
    [
        ("verify_bijection.py", ["--max-elements", "10"], "--max-elements"),
        ("class_atlas.py", ["--triple-index", "999"], "--triple-index"),
        ("class_atlas.py", ["--f-cap", "0"], "--f-cap"),
        ("noetherian_chains.py", ["--f-cap", "0"], "--f-cap"),
        ("noetherian_chains.py", ["--chains", "0"], "--chains"),
        # bounds that once printed answers outside them, or passed vacuously
        ("class_atlas.py", ["--len-bound", "-1"], "--len-bound"),
        ("verify_bijection.py", ["--max-vertices", "-1"], "--max-vertices"),
        ("verify_bijection.py", ["--max-vertices", "0"], "--max-vertices"),
        ("verify_bijection.py", ["--max-edges", "-1"], "--max-edges"),
        ("noetherian_chains.py", ["--length", "0"], "--length"),
        ("series.py", ["--cap", "0", "--out", "unwritten.json"], "--cap"),
        ("verify_bijection.py", ["--max-elements", "-1"], "--max-elements must be nonnegative"),
        # usage errors, which the scripts share with the CLI
        ("noetherian_chains.py", ["--chains", "abc"], "--chains"),
        ("class_atlas.py", ["--graph", "nope"], "--graph"),
        ("class_atlas.py", ["--what"], "--what"),
        ("verify_bijection.py", ["--what"], "--what"),
        ("noetherian_chains.py", ["--what"], "--what"),
    ],
    ids=["verify_bijection-max-elements", "class_atlas-triple-index", "class_atlas-f-cap",
         "noetherian_chains-f-cap", "noetherian_chains-chains", "class_atlas-len-bound",
         "verify_bijection-max-vertices", "verify_bijection-no-vertices",
         "verify_bijection-max-edges", "noetherian_chains-length", "series-cap",
         "verify_bijection-negative-max-elements", "noetherian_chains-not-an-integer",
         "class_atlas-bad-choice", "class_atlas-unknown-flag", "verify_bijection-unknown-flag",
         "noetherian_chains-unknown-flag"],
)
def test_script_error_is_one_line(script, args, names):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0], proc.stderr


def test_verify_bijection_failure_survives_optimize():
    """A listing that drops its first triple fails verify_bijection.py in
    one line naming the graph, under python -O too."""
    script = str(ROOT / "scripts" / "verify_bijection.py")
    code = (
        "import itertools, runpy, sys\n"
        "import graphinverse\n"
        "listing = graphinverse.enumerate_triples\n"
        "graphinverse.enumerate_triples = lambda *a: itertools.islice(listing(*a), 1, None)\n"
        f"sys.argv = [{script!r}, '--max-vertices', '2', '--max-edges', '1']\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: graph 1 (edges: (none)): the 2 congruences do not read off "
                           "the 1 listed triples\n")


@pytest.mark.parametrize("script", ["class_atlas.py", "verify_bijection.py",
                                    "noetherian_chains.py", "transcript.py", "series.py"])
def test_script_help_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout.startswith("usage: ")


@pytest.mark.parametrize(
    "script, args",
    [
        ("class_atlas.py", ["--graph", "loop", "--len-bound", "1"]),
        ("verify_bijection.py", ["--max-vertices", "1", "--max-edges", "1"]),
        ("noetherian_chains.py", ["--chains", "3", "--length", "1"]),
        ("transcript.py", []),
        ("series.py", TINY_SERIES),
    ],
    ids=["class_atlas", "verify_bijection", "noetherian_chains", "transcript", "series"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_script_broken_pipe_is_one_line(script, args, buffered, tmp_path):
    argv = [str(ROOT / "scripts" / script), *in_dir(args, tmp_path)]
    assert run_into_closed_pipe(argv, buffered) == (1, "error: [Errno 32] Broken pipe\n")


def test_series_records_points_and_slopes(tmp_path):
    """Every series of scripts/series.py lists its points from small to
    large, each timed or, from the first over the cap on, skipped; it has
    a slope when at least two points were timed, and one per step."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "series.py"), *in_dir(TINY_SERIES, tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))["series"]
    assert [row["name"] for row in rows] == [
        "bounded_elements loop", "TransitionOracle build and search loop",
        "bounded_elements double_loop", "TransitionOracle build and search double_loop",
        "make_triple ring, collector on", "make_triple ring, collector off",
        "Graph.of ring", "enumerate_congruences edgeless",
    ]
    for row in rows:
        sizes = [p["n"] for p in row["points"] if "n" in p]
        assert sizes == sorted(sizes)
        best = [p["best_s"] for p in row["points"]]
        timed = [b for b in best if b != "skipped: cap"]
        assert best == timed + ["skipped: cap"] * (len(best) - len(timed))
        assert all(isinstance(b, float) and b > 0 for b in timed)
        assert (row["slope"] is None) == (len(timed) < 2)
        assert len(row["slopes"]) == max(len(timed) - 1, 0)
        if row["name"] == "Graph.of ring":  # bytes are recorded on timed points only
            for p in row["points"]:
                kept = p.get("retained_bytes_per_vertex")
                assert (kept is None) == (p["best_s"] == "skipped: cap")
                assert kept is None or kept > 0


def test_cli_transcript_matches_golden(monkeypatch):
    """scripts/transcript.py, run in this process, prints tests/golden/cli.txt
    byte for byte. A change to what the CLI prints shows up as a diff of
    that file; regenerate it as the script's docstring says."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("transcript", ROOT / "scripts" / "transcript.py")
    transcript = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(transcript)
    golden = (ROOT / "tests" / "golden" / "cli.txt").read_text(encoding="utf-8")
    assert transcript.transcript() == golden


def test_cli_transcript_ignores_hash_seed():
    """Two children under different string-hash seeds print the same
    transcript: no output depends on set or dict order of str keys."""
    children = [
        subprocess.Popen([sys.executable, str(ROOT / "scripts" / "transcript.py")],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                              "PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    (out0, err0), (out1, err1) = (child.communicate(timeout=120) for child in children)
    assert [child.returncode for child in children] == [0, 0] and err0 == err1 == ""
    assert out0 == out1


def run_into_closed_pipe(argv: list[str], buffered: bool, preexec_fn=None) -> tuple[int, str]:
    """Exit code and stderr of a fresh interpreter whose stdout reader is
    gone before it prints. Buffered, a short output fails only when
    stdout is flushed at the end. preexec_fn runs in the child before
    the interpreter starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env,
                              preexec_fn=preexec_fn)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_readme_lists_the_package_root_exports():
    """The README's export sentence names exactly the public names bound
    in the package root, submodules aside, and counts them."""
    import graphinverse

    exported = sorted(
        name for name, value in vars(graphinverse).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"The package root exports (\d+) names: (.*?)\. Every", readme, re.S)
    assert match, "README has no 'The package root exports N names: ...' sentence"
    listed = re.findall(r"`(\w+)`", match.group(2))
    assert sorted(listed) == exported
    assert int(match.group(1)) == len(exported)


def test_perfbench_corpus_copy_is_the_corpus(monkeypatch):
    """perfbench/inputs.py restates the corpus, so that it calls nothing of
    the package; its certify and cli workloads assume the two are equal.
    The file is only read: no bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    assert {name: Graph.of(*entry) for name, entry in inputs.corpus_specs().items()} == CORPUS


def _used_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names and attribute names used in tree; with strings, also the
    parts of dotted-name string constants, since perfbench names its
    trace targets in strings. A method or property is used only where it
    is read as an attribute or named after a dot in such a string, so
    those uses are recorded a second time, as ".name"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                out.add("." + node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                first, *rest = node.value.split(".")
                out.update([first, *rest, *("." + part for part in rest)])
    return out


def _definitions(module: ast.Module, module_name: str) -> list[tuple[str, set[str]]]:
    """(name, names its body uses) for each module-level function and
    class and each method, a method named as ".name". A class's body
    includes its dunder methods and its overrides of base-class methods,
    which run without being named in the package."""
    defs = []
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(module_name), node.name).__mro__[1:]
            uses: set[str] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") or any(hasattr(b, item.name) for b in bases)
                ):
                    defs.append(("." + item.name, _used_names(item)))
                else:
                    uses |= _used_names(item)
            for extra in node.bases + node.decorator_list:
                uses |= _used_names(extra)
            defs.append((node.name, uses))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, _used_names(node)))
    return defs


def _public_self_stores(tree: ast.AST) -> set[str]:
    """The public attribute names stored on self in tree."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and not node.attr.startswith("_")
    }


def _loaded_attributes(tree: ast.AST) -> set[str]:
    """The attribute names read in tree."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_src_holds_no_test_only_code():
    """A public function, class or method of the package is used from
    module-level code in src/, from a function or method so used, or from
    scripts/ or perfbench/; a method or property only through an
    attribute read or a dotted trace-target string. A public attribute
    that src/ stores on self is read somewhere in src/, scripts/ or
    perfbench/; storing it is no use. A README code span is no use
    either: documentation alone keeps no name alive."""
    used: set[str] = set()
    defs: list[tuple[str, set[str]]] = []
    stored: set[str] = set()
    loaded: set[str] = set()
    for path in sorted((ROOT / "src" / "graphinverse").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        defs += _definitions(module, f"graphinverse.{path.stem}".removesuffix(".__init__"))
        stored |= _public_self_stores(module)
        loaded |= _loaded_attributes(module)
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom)):
                used |= _used_names(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _used_names(tree, strings=True)
            loaded |= _loaded_attributes(tree)
    grew = True
    while grew:
        before = len(used)
        for name, uses in defs:
            if name in used:
                used |= uses
        grew = len(used) > before
    unused = sorted({name for name, _ in defs if not name.lstrip(".").startswith("_")} - used)
    assert not unused, f"public names with no caller outside tests: {unused}"
    unread = sorted(stored - loaded)
    assert not unread, f"public attributes stored on self and never read: {unread}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that tree's imports bind and its code never reads."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_no_unused_imports():
    """Every name imported in src/, scripts/ or tests/ is used in its
    module. A package's __init__.py imports to re-export, so it is left
    out."""
    found = {}
    for folder in ("src/graphinverse", "scripts", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":
                continue
            unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
            if unused:
                found[f"{folder}/{path.name}"] = unused
    assert not found, f"unused imports: {found}"
