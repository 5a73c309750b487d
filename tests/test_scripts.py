"""Each script in scripts/ runs to completion on a small input, and every
public name in the package has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    ],
    ids=["class_atlas", "verify_bijection", "noetherian_chains"],
)
def test_script_runs(script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
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
         "verify_bijection-max-edges", "noetherian_chains-length",
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


@pytest.mark.parametrize("script", ["class_atlas.py", "verify_bijection.py",
                                    "noetherian_chains.py"])
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
    ],
    ids=["class_atlas", "verify_bijection", "noetherian_chains"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_script_broken_pipe_is_one_line(script, args, buffered):
    assert run_into_closed_pipe([str(ROOT / "scripts" / script), *args], buffered) == (
        1, "error: [Errno 32] Broken pipe\n"
    )


def run_into_closed_pipe(argv: list[str], buffered: bool) -> tuple[int, str]:
    """Exit code and stderr of a fresh interpreter whose stdout reader is
    gone before it prints. Buffered, a short output fails only when
    stdout is flushed at the end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
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


def _used_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names and attribute names used in tree; with strings, also the
    parts of dotted-name string constants, since perfbench names its
    trace targets in strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                out.update(node.value.split("."))
    return out


def _definitions(module: ast.Module, module_name: str) -> list[tuple[str, set[str]]]:
    """(name, names its body uses) for each module-level function and
    class and each method. A class's body includes its dunder methods and
    its overrides of base-class methods, which run without being named
    in the package."""
    defs = []
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(module_name), node.name).__mro__[1:]
            uses: set[str] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") or any(hasattr(b, item.name) for b in bases)
                ):
                    defs.append((item.name, _used_names(item)))
                else:
                    uses |= _used_names(item)
            for extra in node.bases + node.decorator_list:
                uses |= _used_names(extra)
            defs.append((node.name, uses))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, _used_names(node)))
    return defs


def test_src_holds_no_test_only_code():
    """A public function, class or method of the package is used from
    module-level code in src/, from a function or method so used, from
    scripts/ or perfbench/, or from a code span of the README."""
    used: set[str] = set()
    defs: list[tuple[str, set[str]]] = []
    for path in sorted((ROOT / "src" / "graphinverse").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        defs += _definitions(module, f"graphinverse.{path.stem}".removesuffix(".__init__"))
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom)):
                used |= _used_names(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, re.S):
        used.update(re.findall(r"\w+", span))
    grew = True
    while grew:
        before = len(used)
        for name, uses in defs:
            if name in used:
                used |= uses
        grew = len(used) > before
    unused = sorted({name for name, _ in defs if not name.startswith("_")} - used)
    assert not unused, f"public names with no caller outside tests: {unused}"
