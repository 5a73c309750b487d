"""Each script in scripts/ runs to completion on a small input."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
