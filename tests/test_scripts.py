"""Smoke tests: the demo scripts run end to end, as a user runs them."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import SYNTHETIC20

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=False,
    )


def test_eval_demo_runs_on_a_subset(tmp_path):
    subset = tmp_path / "subset.jsonl"
    subset.write_text("".join(SYNTHETIC20.read_text().splitlines(keepends=True)[:3]))
    done = run_script("eval_demo.py", str(subset))
    assert done.returncode == 0, done.stderr
    assert "(3 questions)" in done.stdout
    for heading in ("mode comparison", "scoping sweep", "per-type breakdown"):
        assert heading in done.stdout
    # Oracle mode reads the gold sessions, so the oracle reader finds every answer.
    assert re.search(r"^oracle\s+1\.000\s+1\.000$", done.stdout, re.MULTILINE)


def test_train_demo_is_reproducible_for_a_seed():
    done = run_script("train_demo.py", "3")
    assert done.returncode == 0, done.stderr
    uniform, landscape = re.findall(r"^deltas vs start: \[(.*)\]$", done.stdout, re.MULTILINE)
    assert uniform == "+0.000, +0.000, +0.000, +0.000, +0.000"  # zero-variance stasis
    assert float(landscape.split(", ")[1]) > 0.0  # the live gradient raises w_bm25
    assert run_script("train_demo.py", "3").stdout == done.stdout


def test_synthetic_dataset_script_regenerates_the_fixture(tmp_path, monkeypatch):
    path = ROOT / "scripts" / "make_synthetic_dataset.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_dataset", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path / "synthetic20.jsonl")
    script.main()
    assert script.OUT.read_bytes() == SYNTHETIC20.read_bytes()
