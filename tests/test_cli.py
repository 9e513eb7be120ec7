from __future__ import annotations

import json

import pytest

from agentmem.cli import main
from conftest import SYNTHETIC20


def run_cli(capsys, *argv) -> tuple[int, list[dict]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


def test_append_then_retrieve_round_trip(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    code, records = run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a",
        "--content", "the quarterly report deadline is friday",
    )
    assert code == 0
    entry_id = records[0]["id"]

    code, records = run_cli(
        capsys, "--workspace", ws, "retrieve",
        "--project", "p", "--query", "quarterly report deadline",
    )
    assert code == 0
    assert records[0]["id"] == entry_id
    summary = records[-1]
    assert summary["record"] == "summary"
    assert summary["mode"] == "bm25"


def test_retrieve_skips_a_fact_line_with_mistyped_session_ids(tmp_path, capsys):
    ws = tmp_path / "ws"
    run_cli(
        capsys, "--workspace", str(ws), "append", "--project", "p", "--session", "s1",
        "--agent", "a", "--content", "the quarterly report deadline is friday",
    )
    good = {"id": "f1", "subject": "quarterly report", "relation": "kv", "value": "friday",
            "session_ids": ["s1"], "created_at": "2025-03-01T12:00:00+00:00"}
    bad = dict(good, id="f2", session_ids=[1, "s1"])
    facts = ws / "memory" / "semantic" / "facts.jsonl"
    facts.parent.mkdir(parents=True)
    facts.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, records = run_cli(
        capsys, "--workspace", str(ws), "retrieve", "--project", "p", "--query", "quarterly report",
    )
    assert code == 0
    assert records[-1]["scoped_session_ids"] == ["s1"]


def test_append_outcome_failure_writes_negative_deltas(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a",
        "--content", "tried the flaky deploy script",
    )
    code, records = run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a",
        "--content", "deploy script failed with a timeout", "--outcome", "failure",
    )
    assert code == 0
    updates = records[-1]
    assert updates["record"] == "cw_updates"
    assert updates["reward"] == -0.5
    assert all(u["cw"] <= 0 for u in updates["updates"])
    assert any(u["cw"] < 0 for u in updates["updates"])

    ledger = (tmp_path / "ws" / "memory" / "cw_ledger.jsonl").read_text()
    assert any(json.loads(line)["delta"] < 0 for line in ledger.splitlines())


def test_missing_project_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(tmp_path), "append", "--session", "s", "--agent", "a",
              "--content", "x"])
    assert excinfo.value.code == 2


def test_retrieve_explain_shows_bypass(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a",
        "--content", "zebra xylophone quagga marimba unique terms galore",
    )
    # A second doc makes the shared terms rare enough to clear the threshold.
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s2", "--agent", "a",
        "--content", "weather chat idle banter",
    )
    code, records = run_cli(
        capsys, "--workspace", ws, "retrieve",
        "--project", "p", "--query", "zebra xylophone quagga marimba", "--explain",
    )
    assert code == 0
    breakdown = records[0]["breakdown"]
    assert breakdown["bypass_reason"] == "bm25_threshold"
    assert breakdown["phi_decay"] == 1.0


def test_retrieve_dense_explain_reports_phi_sem(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    for session, content in (("s1", "blue bicycle"), ("s2", "quantum chromodynamics")):
        run_cli(
            capsys, "--workspace", ws, "append",
            "--project", "p", "--session", session, "--agent", "a", "--content", content,
        )
    code, records = run_cli(
        capsys, "--workspace", ws, "retrieve",
        "--project", "p", "--query", "blue bicycle", "--mode", "dense", "--explain",
    )
    assert code == 0
    top = records[0]
    assert top["id"] and "dense_similarity" not in top
    assert top["score"] == top["breakdown"]["phi_sem"] == top["breakdown"]["composite"]
    assert top["score"] == pytest.approx(1.0)


def test_retrieve_k1_inf_reports_full_ratio(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    for i, session in enumerate(("s1", "s2", "s3")):
        run_cli(
            capsys, "--workspace", ws, "append",
            "--project", "p", "--session", session, "--agent", "a",
            "--content", f"note number {i} about errands",
        )
    code, records = run_cli(
        capsys, "--workspace", ws, "retrieve",
        "--project", "p", "--query", "note errands", "--k1", "inf",
    )
    assert code == 0
    assert records[-1]["sessions_ratio"] == 1.0


def test_retrieve_hybrid_reports_latency(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a", "--content", "hello world",
    )
    code, records = run_cli(
        capsys, "--workspace", ws, "retrieve",
        "--project", "p", "--query", "hello", "--mode", "hybrid_rrf",
    )
    assert code == 0
    latency = records[-1]["latency_micros"]
    assert set(latency) == {"stage1", "stage2", "pack"}


def test_consolidate_reports(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a",
        "--content", "favorite color: blue",
    )
    code, records = run_cli(capsys, "--workspace", ws, "consolidate", "--project", "p")
    assert code == 0
    report = records[0]
    assert report["sessions_scanned"] == 1
    assert report["facts_emitted"] >= 1


def test_eval_retrieval_beats_no_retrieval(tmp_path, capsys):
    code, no_retrieval = run_cli(
        capsys, "eval", "--dataset", str(SYNTHETIC20), "--mode", "no_retrieval",
    )
    assert code == 0
    code, retrieval = run_cli(
        capsys, "eval", "--dataset", str(SYNTHETIC20), "--mode", "retrieval",
    )
    assert code == 0
    acc_none = next(r for r in no_retrieval if r.get("record") == "overall")["accuracy"]
    acc_full = next(r for r in retrieval if r.get("record") == "overall")["accuracy"]
    assert acc_full > acc_none


def test_eval_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, _ = run_cli(
        capsys, "eval", "--dataset", str(SYNTHETIC20), "--mode", "oracle",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert any('"record": "config"' in line for line in lines)


@pytest.mark.parametrize("command", [
    ["retrieve", "--project", "p", "--query", "hello", "--k1", "abc"],
    ["ablate", "--dataset", str(SYNTHETIC20), "--k1", "abc"],
    ["eval", "--dataset", str(SYNTHETIC20), "--k1", "2.5"],
])
def test_bad_k1_is_data_error(tmp_path, capsys, command):
    assert main(["--workspace", str(tmp_path / "ws"), *command]) == 3


def test_ablate_k1_unbounded_disables_scoping(capsys):
    code, records = run_cli(
        capsys, "ablate", "--dataset", str(SYNTHETIC20), "--k1", "unbounded", "--k1", "2",
    )
    assert code == 0
    assert [r["overrides"] for r in records] == [{"k1": None}, {"k1": 2}]


def test_eval_missing_dataset_is_data_error(tmp_path, capsys):
    code = main(["eval", "--dataset", str(tmp_path / "nope.jsonl")])
    assert code == 3


def test_train_seed_is_reproducible(tmp_path, capsys):
    args = [
        "--seed", "7", "train", "--dataset", str(SYNTHETIC20),
        "--epochs", "1", "--batch-size", "5", "--question-count", "10",
    ]
    code, first = run_cli(capsys, *args)
    assert code == 0
    code, second = run_cli(capsys, *args)
    assert code == 0
    assert first == second
    assert first[-1]["record"] == "final"
    assert sum(first[-1]["weights"]) == pytest.approx(1.0)


@pytest.mark.parametrize("ranking", ["dense", "hybrid_rrf"])
def test_train_embedding_modes_have_no_failures(capsys, ranking):
    code, records = run_cli(
        capsys, "train", "--dataset", str(SYNTHETIC20), "--ranking", ranking,
        "--epochs", "1", "--batch-size", "2", "--question-count", "2",
    )
    assert code == 0
    batches = [r for r in records if "batch" in r]
    assert batches and all(r["failures"] == 0 for r in batches)


def test_ablate_unknown_variant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--dataset", str(SYNTHETIC20), "--variant", "bogus"])
    assert exc.value.code == 2


def test_bad_config_value_is_data_error(tmp_path, capsys):
    config = tmp_path / "engine.yaml"
    config.write_text("retrieval: {stage2_k: abc}\n")
    code = main([
        "--config", str(config), "--workspace", str(tmp_path / "ws"), "retrieve",
        "--project", "p", "--query", "hello",
    ])
    assert code == 3


def test_dead_embedder_endpoint_is_service_error(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    run_cli(
        capsys, "--workspace", ws, "append",
        "--project", "p", "--session", "s1", "--agent", "a", "--content", "hello world",
    )
    config = tmp_path / "engine.yaml"
    config.write_text("embedder: {url: 'http://127.0.0.1:9', timeout: 0.2}\n")
    code = main([
        "--config", str(config), "--workspace", ws, "retrieve",
        "--project", "p", "--query", "hello", "--mode", "dense",
    ])
    assert code == 4


def test_http_reader_without_url_is_data_error(capsys):
    code = main(["eval", "--dataset", str(SYNTHETIC20), "--reader", "http"])
    assert code == 3


def test_ablate_default_grid(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    code, records = run_cli(
        capsys, "ablate", "--dataset", str(SYNTHETIC20), "--grid", "default",
        "--out", str(out),
    )
    assert code == 0
    labels = [r["cell"] for r in records]
    assert labels[0] == "full"
    assert "-decay" in labels and "k=2" in labels and "budget=600" in labels
    assert len(out.read_text().splitlines()) == len(records)
