from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace

import pytest

from agentmem import evaluation
from agentmem.errors import ValidationError
from agentmem.evaluation import (
    BenchmarkQuestion,
    EchoReader,
    OracleReader,
    apply_cell,
    default_cells,
    grid_cells,
    load_dataset,
    ndcg_at_k,
    normalize_answer,
    recall_at_k,
    run_ablation,
    run_benchmark,
    soft_em,
    token_f1,
    wilson_ci,
)
from agentmem.retrieval import RetrievalConfig, RetrievalPipeline
from agentmem.scoring import Variant, WeightVector
from conftest import SYNTHETIC20, make_entry


# -- normalisation ------------------------------------------------------------

def test_normalize_strips_case_punct_articles():
    assert normalize_answer("The Eiffel Tower!") == "eiffel tower"


def test_normalize_collapses_whitespace():
    assert normalize_answer("a  dog.") == "dog"


def test_normalize_empty():
    assert normalize_answer("") == ""


# -- soft EM ---------------------------------------------------------------------

def test_soft_em_normalised_equality():
    assert soft_em("paris.", "Paris") == 1


def test_soft_em_substring():
    assert soft_em("lives in Paris", "Paris") == 1


def test_soft_em_mismatch():
    assert soft_em("London", "Paris") == 0


def test_soft_em_empty_prediction_never_matches():
    assert soft_em("", "Paris") == 0


def test_soft_em_substring_is_bidirectional():
    assert soft_em("Paris", "lives in Paris") == 1


# -- token F1 -----------------------------------------------------------------------

def test_f1_identical():
    assert token_f1("red apple", "red apple") == 1.0


def test_f1_partial():
    assert token_f1("red apple", "apple") == pytest.approx(2 / 3, abs=1e-9)


def test_f1_disjoint():
    assert token_f1("red", "blue") == 0.0


def test_f1_both_empty():
    assert token_f1("", "") == 1.0


def test_f1_one_empty():
    assert token_f1("", "apple") == 0.0


def test_f1_uses_multiset_overlap():
    # "the the" collapses only under the multiset rule if gold repeats too.
    assert token_f1("dog dog", "dog") == pytest.approx(2 / 3)


# -- ranking metrics -------------------------------------------------------------------

def _ranked(session_ids):
    return [make_entry(entry_id=f"e{i}", session_id=s) for i, s in enumerate(session_ids)]


def test_recall_at_k_rank_one():
    assert recall_at_k(_ranked(["g", "x"]), ["g"], 1) == 1


def test_recall_at_k_rank_three():
    retrieved = _ranked(["x", "y", "g", "z"])
    assert recall_at_k(retrieved, ["g"], 2) == 0
    assert recall_at_k(retrieved, ["g"], 4) == 1


def test_recall_no_overlap():
    assert recall_at_k(_ranked(["x", "y"]), ["g"], 4) == 0


def test_ndcg_single_relevant_at_rank_one():
    assert ndcg_at_k(_ranked(["g", "x", "y", "z"]), ["g"], 4) == 1.0


def test_ndcg_single_relevant_at_rank_two():
    value = ndcg_at_k(_ranked(["x", "g", "y", "z"]), ["g"], 4)
    assert value == pytest.approx(1 / math.log2(3), abs=1e-9)


def test_ndcg_no_relevant():
    assert ndcg_at_k(_ranked(["x", "y"]), ["g"], 4) == 0.0


@pytest.mark.parametrize("k", [0, -1, 2.5, 1.0, True, False, "2", None],
                         ids=["zero", "negative", "float", "integral-float", "true", "false",
                              "string", "none"])
def test_ranking_metrics_reject_a_k_that_is_not_a_count(k):
    retrieved = _ranked(["g", "x"])
    with pytest.raises(ValidationError, match="k must be an int >= 1"):
        recall_at_k(retrieved, ["g"], k)
    with pytest.raises(ValidationError, match="k must be an int >= 1"):
        ndcg_at_k(retrieved, ["g"], k)


# -- Wilson ------------------------------------------------------------------------------

def test_wilson_headline_interval():
    low, high = wilson_ci(191, 500)
    assert low == pytest.approx(0.340, abs=0.002)
    assert high == pytest.approx(0.425, abs=0.002)


def test_wilson_small_n():
    low, high = wilson_ci(2, 30)
    assert low == pytest.approx(0.019, abs=0.002)
    assert high == pytest.approx(0.214, abs=0.002)


def test_wilson_zero_successes():
    low, high = wilson_ci(0, 10)
    assert low == 0.0
    assert 0 < high < 0.35


def test_wilson_rejects_empty_sample():
    with pytest.raises(ValidationError):
        wilson_ci(0, 0)


@pytest.mark.parametrize(
    "successes, n",
    [(1, 2.5), (1.0, 2), (1, 2.0), (True, 2), (1, True), ("1", 2), (1, None)],
    ids=["n-float", "successes-float", "n-integral-float", "successes-bool", "n-bool",
         "successes-string", "n-none"],
)
def test_wilson_rejects_counts_that_are_not_ints(successes, n):
    with pytest.raises(ValidationError, match="must be ints"):
        wilson_ci(successes, n)


# -- dataset -----------------------------------------------------------------------------

def test_load_synthetic_dataset():
    questions = load_dataset(SYNTHETIC20)
    assert len(questions) == 20
    types = {q.question_type for q in questions}
    assert "single-session-user" in types and "multi-session" in types
    for q in questions:
        haystack = {s.session_id for s in q.sessions}
        assert set(q.answer_session_ids) <= haystack


def test_dataset_rejects_gold_outside_haystack(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"question_id":"x","question_type":"multi-session","question":"?",'
        '"answer":"a","haystack_session_ids":["s1"],"haystack_dates":["2025-01-01"],'
        '"haystack_sessions":[[{"role":"user","content":"hi"}]],'
        '"answer_session_ids":["ghost"]}\n'
    )
    with pytest.raises(ValidationError):
        load_dataset(bad)


def test_dataset_rejects_unknown_type(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"question_id":"x","question_type":"trivia","question":"?","answer":"a",'
        '"haystack_session_ids":["s1"],"haystack_dates":["2025-01-01"],'
        '"haystack_sessions":[[{"role":"user","content":"hi"}]],"answer_session_ids":["s1"]}\n'
    )
    with pytest.raises(ValidationError):
        load_dataset(bad)


def test_dataset_accepts_json_array(tmp_path):
    path = tmp_path / "array.json"
    path.write_text(
        '[{"question_id":"x","question_type":"multi-session","question":"?","answer":"a",'
        '"haystack_session_ids":["s1"],"haystack_dates":["2025/01/01 (Wed) 10:00"],'
        '"haystack_sessions":[[{"role":"user","content":"hi"}]],"answer_session_ids":["s1"]}]'
    )
    questions = load_dataset(path)
    assert questions[0].sessions[0].date.year == 2025


def test_jsonl_dataset_keeps_unicode_line_separators_in_text(tmp_path):
    content = "alpha\u2028beta\x85gamma"
    record = {
        "question_id": "x", "question_type": "multi-session", "question": "?", "answer": "a",
        "haystack_session_ids": ["s1"], "haystack_dates": ["2025-01-01"],
        "haystack_sessions": [[{"role": "user", "content": content}]],
        "answer_session_ids": ["s1"],
    }
    path = tmp_path / "separators.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    (question,) = load_dataset(path)
    assert question.sessions[0].turns[0].content == content


def test_dataset_casts_numeric_text_fields(tmp_path):
    record = {
        "question_id": 7, "question_type": "multi-session", "question": "how many?", "answer": 42,
        "haystack_session_ids": ["s1"], "haystack_dates": ["2025-01-01"],
        "haystack_sessions": [[{"role": "user", "content": 3.5}]],
        "answer_session_ids": ["s1"],
    }
    path = tmp_path / "numbers.jsonl"
    path.write_text(json.dumps(record) + "\n")
    (question,) = load_dataset(path)
    assert (question.question_id, question.answer) == ("7", "42")
    assert question.sessions[0].turns[0].content == "3.5"


# -- benchmark runner -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic20():
    return load_dataset(SYNTHETIC20)


def test_oracle_mode_with_oracle_reader_is_perfect(synthetic20):
    report = run_benchmark(synthetic20, RetrievalConfig(), OracleReader(), mode="oracle")
    assert report.overall.accuracy == 1.0
    assert report.overall.n == 20


def test_no_retrieval_mode_with_echo_reader_scores_zero(synthetic20):
    report = run_benchmark(
        synthetic20[:5], RetrievalConfig(), EchoReader(), mode="no_retrieval", extractor=None
    )
    assert report.overall.accuracy == 0.0


def test_retrieval_accuracy_equals_context_hit_rate(synthetic20):
    report = run_benchmark(synthetic20, RetrievalConfig(), OracleReader(), mode="retrieval")
    hits = sum(1 for r in report.results if r.trace["gold_in_context"]) / len(report.results)
    assert report.overall.accuracy == pytest.approx(hits)
    assert 0.0 < report.overall.accuracy <= 1.0


def test_overall_accuracy_is_weighted_type_mean(synthetic20):
    report = run_benchmark(synthetic20, RetrievalConfig(), OracleReader(), mode="retrieval")
    weighted = sum(agg.n * agg.accuracy for agg in report.per_type.values())
    assert report.overall.accuracy == pytest.approx(weighted / report.overall.n)


def test_attribution_on_eval_records_updates(synthetic20):
    report = run_benchmark(
        synthetic20[:3],
        RetrievalConfig(),
        OracleReader(),
        mode="retrieval",
        attribute_on_eval=True,
    )
    traced = [r for r in report.results if r.em == 1]
    assert traced, "fixture should have at least one retrievable question"
    for result in traced:
        updates = result.trace["cw_updates"]
        assert updates
        assert all(-1.0 <= u["cw"] <= 1.0 for u in updates)


def test_report_config_echoes_retrieval_config(synthetic20):
    cfg = RetrievalConfig(include_timestamps=True)
    report = run_benchmark(synthetic20[:1], cfg, OracleReader(), mode="oracle")
    assert report.config["retrieval"] == cfg.to_dict()
    assert report.config["retrieval"]["include_timestamps"] is True


def test_report_jsonl_and_table_render(synthetic20):
    report = run_benchmark(synthetic20[:4], RetrievalConfig(), OracleReader(), mode="oracle")
    lines = report.to_jsonl_lines()
    assert any('"record": "overall"' in line for line in lines)
    assert "overall" in report.to_table()


# -- ablation ----------------------------------------------------------------------------------

def test_signal_removal_renormalises():
    cfg = apply_cell(RetrievalConfig(), {"remove": "decay"})
    assert cfg.weights.as_list() == pytest.approx([0.0, 0.4667, 0.0, 0.3333, 0.2], abs=1e-4)


def test_scoping_removal_disables_stage1():
    cfg = apply_cell(RetrievalConfig(), {"remove": "scoping"})
    assert cfg.stage1_k1 is None


@pytest.mark.parametrize("k1, expected", [
    (None, None), ("inf", None), ("none", None), ("Unbounded", None), (3, 3), ("3", 3),
])
def test_k1_cell_accepts_every_spelling(k1, expected):
    assert apply_cell(RetrievalConfig(), {"k1": k1}).stage1_k1 == expected


def test_k1_cell_rejects_garbage():
    with pytest.raises(ValidationError):
        apply_cell(RetrievalConfig(), {"k1": "abc"})


def test_grid_cartesian_product(synthetic20):
    cells = grid_cells({"budget": [150, 300, 600], "k": [2, 4]})
    assert len(cells) == 6
    rows = run_ablation(synthetic20[:2], RetrievalConfig(), OracleReader(), cells)
    assert len(rows) == 6
    assert all("acc" in row for row in rows)


def test_default_grid_shape():
    labels = [cell["label"] for cell in default_cells()]
    assert labels[0] == "full"
    assert "-decay" in labels and "-scoping" in labels
    assert "k=2" in labels and "budget=600" in labels


def test_variant_sweep_identical_traces_under_bm25_only(synthetic20):
    weights = WeightVector(0.0, 1.0, 0.0, 0.0, 0.0)
    base = RetrievalConfig(weights=weights)
    traces = []
    for variant in (Variant.RAW, Variant.LOG1P, Variant.MINMAX, Variant.ZSCORE):
        cfg = apply_cell(base, {"variant": variant.value})
        report = run_benchmark(synthetic20[:6], cfg, OracleReader(), mode="retrieval")
        traces.append([r.trace["ranked_ids"] for r in report.results])
    assert all(t == traces[0] for t in traces[1:])


def _without_latency(results):
    return [
        replace(r, trace={k: v for k, v in r.trace.items() if k != "latency_micros"})
        for r in results
    ]


@pytest.mark.parametrize("base, cells", [
    (RetrievalConfig(), default_cells()),
    # An unscoped base pipeline builds the fact index for the k1=3 cell.
    (RetrievalConfig(stage1_k1=None), grid_cells({"k1": [None, 3]})),
])
def test_each_ablation_row_equals_run_benchmark_of_its_cell(synthetic20, base, cells):
    rows = run_ablation(synthetic20[:4], base, OracleReader(), cells)
    assert len(rows) == len(cells)
    for cell, row in zip(cells, rows):
        overrides = {k: v for k, v in cell.items() if k != "label"}
        expected = run_benchmark(synthetic20[:4], apply_cell(base, overrides), OracleReader())
        report = row["report"]
        assert _without_latency(report.results) == _without_latency(expected.results)
        assert report.config == expected.config
        assert (row["acc"], row["f1"], row["n"]) == (
            expected.overall.accuracy, expected.overall.f1, expected.overall.n
        )


def test_an_ablation_builds_each_question_memory_once(synthetic20, monkeypatch):
    calls = Counter()
    ingest, from_store = evaluation.ingest_question, RetrievalPipeline.from_store

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(evaluation, "ingest_question", counted("ingest", ingest))
    monkeypatch.setattr(RetrievalPipeline, "from_store", counted("from_store", from_store))
    rows = run_ablation(synthetic20[:2], RetrievalConfig(), OracleReader(), default_cells())
    assert len(rows) == 12
    assert calls == {"ingest": 2, "from_store": 2}
