"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must pass its output checks. It makes no timing assertion.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def bench(run: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_outputs_pass_checks(workload, trace):
    proc = bench(RUN, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_inputs_depend_only_on_seed(workload):
    assert gen.generate(workload, 5, "smoke") == gen.generate(workload, 5, "smoke")
    assert gen.generate(workload, 5, "smoke") != gen.generate(workload, 6, "smoke")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / "perfbench" / "run.py", "qa_eval", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
