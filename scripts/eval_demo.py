#!/usr/bin/env python3
"""Run the bundled 20-question corpus through the three evaluation modes and
the stage-1 scoping sweep, printing compact tables.

Usage: python scripts/eval_demo.py [dataset.jsonl]
"""

from __future__ import annotations

import sys
from pathlib import Path

from agentmem.evaluation import OracleReader, load_dataset, run_ablation, run_benchmark
from agentmem.retrieval import RetrievalConfig

DEFAULT_DATASET = Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic20.jsonl"


def main() -> None:
    dataset_path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_DATASET
    dataset = load_dataset(dataset_path)
    reader = OracleReader()

    print(f"dataset: {dataset_path} ({len(dataset)} questions)\n")
    print("== mode comparison (oracle reader) ==")
    print(f"{'mode':<14} {'acc':>7} {'f1':>7}")
    for mode in ("no_retrieval", "retrieval", "oracle"):
        report = run_benchmark(dataset, RetrievalConfig(), reader, mode=mode)
        print(f"{mode:<14} {report.overall.accuracy:>7.3f} {report.overall.f1:>7.3f}")

    print("\n== stage-1 scoping sweep (retrieval mode) ==")
    print(f"{'k1':>6} {'acc':>7} {'mean sessions ratio':>21}")
    # One memory per question, re-ranked under each k1.
    cells = [{"k1": k1} for k1 in (1, 3, 5, 10, None)]
    rows = run_ablation(dataset, RetrievalConfig(), reader, cells)
    for cell, row in zip(cells, rows):
        ratios = [r.trace["sessions_ratio"] for r in row["report"].results]
        label = "inf" if cell["k1"] is None else str(cell["k1"])
        print(f"{label:>6} {row['acc']:>7.3f} {sum(ratios)/len(ratios):>21.3f}")

    print("\n== per-type breakdown (retrieval mode, defaults) ==")
    print(rows[2]["report"].to_table())  # k1=5 is the default config


if __name__ == "__main__":
    main()
