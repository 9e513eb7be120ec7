from __future__ import annotations

import json
import math

import pytest

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
from agentmem.retrieval import RetrievalConfig
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
