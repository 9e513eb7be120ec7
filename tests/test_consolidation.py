from __future__ import annotations

import json
import time
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentmem import store as store_module
from agentmem.consolidation import (
    _ENTITY_RE,
    _IS_RE,
    _PREFERS_RE,
    ConsolidationDaemon,
    FactDraft,
    HeuristicExtractor,
    _trim,
    extract_facts_heuristic,
    run_consolidation_pass,
    schedule,
)
from agentmem.errors import ValidationError
from agentmem.evaluation import BENCH_PROJECT, ingest_question, load_dataset
from agentmem.retrieval import RetrievalConfig, RetrievalPipeline
from agentmem.store import MemoryStore
from conftest import SYNTHETIC20, make_entry


# -- heuristic extraction ------------------------------------------------------

def test_kv_pattern():
    drafts = extract_facts_heuristic("s1", "favorite color: blue")
    assert drafts == [FactDraft("favorite color", "kv", "blue")]


def test_is_a_pattern():
    drafts = extract_facts_heuristic("s1", "Alice is an engineer")
    assert drafts == [FactDraft("Alice", "is_a", "an engineer")]


def test_prefers_pattern():
    assert FactDraft("bob", "prefers", "tea") in extract_facts_heuristic("s1", "bob prefers tea")
    assert FactDraft("bob", "prefers", "tea") in extract_facts_heuristic("s1", "bob likes tea")


def test_capitalised_entity_pattern():
    drafts = extract_facts_heuristic("s7", "we walked past the Eiffel Tower today")
    assert FactDraft("Eiffel Tower", "mentioned_in", "s7") in drafts


def test_empty_session_yields_nothing():
    assert extract_facts_heuristic("s1", "") == []


def test_duplicates_within_session_dropped():
    drafts = extract_facts_heuristic("s1", "mood: great\nmood: great")
    assert len(drafts) == 1


def test_fields_capped_at_twelve_tokens():
    long_tail = " ".join(f"w{i}" for i in range(30))
    drafts = extract_facts_heuristic("s1", f"note: {long_tail}")
    assert len(drafts[0].value.split()) == 12


def unfiltered_extract(session_id, text):
    """extract_facts_heuristic with every pattern tried on every line."""
    drafts, seen = [], set()

    def emit(subject, relation, value):
        subject, value = _trim(subject), _trim(value)
        key = (subject, relation, value)
        if subject and value and key not in seen:
            seen.add(key)
            drafts.append(FactDraft(*key))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if ":" in line:
            head, _, tail = line.partition(":")
            emit(head, "kv", tail)
        for pattern, relation in ((_IS_RE, "is_a"), (_PREFERS_RE, "prefers")):
            match = pattern.match(line)
            if match:
                emit(match.group(1), relation, match.group(2))
        for entity in _ENTITY_RE.findall(line):
            emit(entity, "mentioned_in", session_id)
    return drafts


EXTRACTOR_WORDS = st.sampled_from(
    ["is", "IS", "this", "isn't", "likes", "dislikes", "prefers", "preferred", "Alice",
     "New York", "tea", "a:", ":", "x:y", "Big Apple City", "café", "Élan", "ǅx", "42"]
)
# ASCII and Unicode spaces \s matches, and line breaks splitlines cuts on.
EXTRACTOR_GAPS = st.sampled_from(
    [" ", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x1f", "\n", "\x85",
     "\u2028", "", "\r\n"]
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(EXTRACTOR_WORDS, EXTRACTOR_GAPS), max_size=16))
@example([("Alice", "\u00a0"), ("is", "\u3000"), ("tea", "")])
@example([("Alice", "\t"), ("likes", "\u2003"), ("tea", "\x85"), ("bob", " ")])
@example([("this", " "), ("dislikes", " "), ("preferred", "\u2028"), ("is", " ")])
@example([("Big", "\u00a0"), ("Apple", "\x85"), ("New", "\t"), ("York", "")])
def test_prefiltered_extractor_equals_trying_every_pattern_on_every_line(parts):
    text = "".join(word + gap for word, gap in parts)
    assert extract_facts_heuristic("s1", text) == unfiltered_extract("s1", text)


# -- consolidation pass ---------------------------------------------------------

def test_pass_scans_unpromoted_sessions(store):
    store.append_entries(
        [
            make_entry(entry_id="a1", session_id="s1", content="favorite color: blue"),
            make_entry(entry_id="b1", session_id="s2", content="Alice is an engineer"),
        ]
    )
    report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert report.sessions_scanned == 2
    assert report.facts_emitted >= 2
    assert report.entries_promoted == 2
    assert store.load_facts().facts


def test_second_pass_is_idempotent(store):
    store.append_entry(make_entry(entry_id="a1", content="favorite color: blue"))
    run_consolidation_pass(store, HeuristicExtractor(), "proj")
    again = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert again.sessions_scanned == 0
    assert again.facts_emitted == 0
    assert again.entries_promoted == 0


def test_new_entries_reopen_a_session(store):
    store.append_entry(make_entry(entry_id="a1", session_id="s1", content="mood: good"))
    run_consolidation_pass(store, HeuristicExtractor(), "proj")
    store.append_entry(make_entry(entry_id="a2", session_id="s1", content="lunch: soup"))
    report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert report.sessions_scanned == 1
    assert report.facts_emitted >= 1  # the new line's fact; old ones dedupe by id


class ExplodingOnSession:
    def __init__(self, bad_session: str):
        self.bad = bad_session

    def extract(self, session_id, session_text):
        if session_id == self.bad:
            raise RuntimeError("extractor crashed")
        return [FactDraft("subject", "kv", "value")]


def test_extractor_failure_is_isolated(store):
    store.append_entries(
        [
            make_entry(entry_id=f"{s}-0", session_id=s, content="k: v")
            for s in ("s1", "s2", "s3")
        ]
    )
    report = run_consolidation_pass(store, ExplodingOnSession("s2"), "proj")
    assert len(report.failures) == 1
    assert report.failures[0][0] == "s2"
    assert report.sessions_scanned == 3
    promoted = store.promoted_entry_ids()
    assert "s1-0" in promoted and "s3-0" in promoted and "s2-0" not in promoted


def test_pass_never_touches_episodic_files(store):
    store.append_entry(make_entry(entry_id="a1", content="favorite color: blue"))
    episodic = sorted(store.episodic_dir.glob("*.jsonl"))
    before = [p.read_bytes() for p in episodic]
    run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert [p.read_bytes() for p in episodic] == before


def test_pass_appends_at_most_twice_per_session(store, monkeypatch):
    sessions = [f"s{i}" for i in range(4)]
    store.append_entries(
        [
            make_entry(entry_id=f"{sid}-{j}", session_id=sid, content=f"key{j}: value {sid} {j}")
            for sid in sessions
            for j in range(5)
        ]
    )
    calls = []
    original = MemoryStore._append_lines

    def counting(path, lines):
        calls.append(path)
        original(path, lines)

    monkeypatch.setattr(MemoryStore, "_append_lines", staticmethod(counting))
    report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert report.facts_emitted == 20
    assert report.entries_promoted == 20
    assert len(calls) <= 2 * len(sessions)
    assert len(store.load_facts().facts) == 20


def _four_sessions(store):
    store.append_entries(
        [
            make_entry(entry_id=f"s{i}-{j}", session_id=f"s{i}", content=f"key{j}: value {i} {j}")
            for i in range(4)
            for j in range(3)
        ]
    )


def test_pass_appends_once_per_file(store, monkeypatch):
    _four_sessions(store)
    calls = []
    original = MemoryStore._append_lines

    def counting(path, lines):
        calls.append(path)
        original(path, lines)

    monkeypatch.setattr(MemoryStore, "_append_lines", staticmethod(counting))
    report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert (report.sessions_scanned, report.facts_emitted, report.entries_promoted) == (4, 12, 12)
    assert calls == [store.facts_path, store.promotions_path]


def test_crash_between_fact_and_promotion_appends_is_redone(store, monkeypatch):
    _four_sessions(store)
    original = MemoryStore.promote_many
    crashes = []

    def crash_once(self, entry_ids):
        if not crashes:
            crashes.append(True)
            raise OSError("crash before the promotion append")
        original(self, entry_ids)

    monkeypatch.setattr(MemoryStore, "promote_many", crash_once)
    with pytest.raises(OSError):
        run_consolidation_pass(store, HeuristicExtractor(), "proj")
    facts = store.facts_path.read_bytes()
    assert len(MemoryStore(store.root).load_facts().facts) == 12
    assert MemoryStore(store.root).promoted_entry_ids() == set()

    report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
    assert (report.facts_emitted, report.entries_promoted) == (0, 12)
    assert len(MemoryStore(store.root).promoted_entry_ids()) == 12
    assert store.facts_path.read_bytes() == facts


def test_pass_writes_one_promotion_line_and_a_torn_one_is_redone(store):
    _four_sessions(store)
    run_consolidation_pass(store, HeuristicExtractor(), "proj")
    (line,) = store.promotions_path.read_text().splitlines()
    assert json.loads(line)["entry_ids"] == [f"s{i}-{j}" for i in range(4) for j in range(3)]
    facts = store.facts_path.read_bytes()
    store.promotions_path.write_text(line[:-1])  # a crash tore the pass's line
    assert MemoryStore(store.root).promoted_entry_ids() == set()

    report = run_consolidation_pass(MemoryStore(store.root), HeuristicExtractor(), "proj")
    assert (report.facts_emitted, report.entries_promoted) == (0, 12)
    assert len(MemoryStore(store.root).promoted_entry_ids()) == 12
    assert store.facts_path.read_bytes() == facts


def test_pass_parses_each_episodic_line_once(tmp_path, monkeypatch):
    writer = MemoryStore(tmp_path / "ws")
    for question in load_dataset(SYNTHETIC20):
        ingest_question(writer, question)
    lines = sum(
        len(path.read_bytes().splitlines()) for path in writer.episodic_dir.glob("*.jsonl")
    )
    parses = []
    original = json.loads

    def counting(text, *args, **kwargs):
        parses.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(store_module.json, "loads", counting)
    fresh = MemoryStore(tmp_path / "ws")
    report = run_consolidation_pass(fresh, HeuristicExtractor(), BENCH_PROJECT)
    assert report.entries_promoted == lines
    assert len(parses) == lines


def test_pass_writes_fact_lines_without_source_entry_ids(tmp_path):
    store = MemoryStore(tmp_path / "ws")
    for question in load_dataset(SYNTHETIC20):
        ingest_question(store, question)
    assert run_consolidation_pass(store, HeuristicExtractor(), BENCH_PROJECT).facts_emitted
    records = [json.loads(line) for line in store.facts_path.read_text().split("\n") if line]
    assert not [r for r in records if "source_entry_ids" in r]


def test_pipeline_snapshot_isolated_from_pass(store):
    store.append_entry(make_entry(entry_id="a1", content="favorite color: blue"))
    before = RetrievalPipeline.from_store(store, RetrievalConfig(), project="proj")
    run_consolidation_pass(store, HeuristicExtractor(), "proj")
    after = RetrievalPipeline.from_store(store, RetrievalConfig(), project="proj")
    assert before.facts == []
    assert after.facts


# -- scheduling -------------------------------------------------------------------

@pytest.mark.parametrize(
    "interval", [0, -1, 0.0, float("nan"), float("inf"), -float("inf"), True, "1", None, 10**400],
    ids=["zero", "negative", "zero-float", "nan", "inf", "minus-inf", "bool", "string", "none",
         "beyond-float"],
)
def test_daemon_rejects_an_interval_that_is_not_a_finite_positive_number(interval):
    with pytest.raises(ValidationError, match="interval_seconds"):
        ConsolidationDaemon(interval, lambda: None)
    with pytest.raises(ValidationError, match="interval_seconds"):
        schedule(interval, lambda: None)


def test_daemon_accepts_a_finite_positive_interval():
    daemon = ConsolidationDaemon(0.5, lambda: None)  # built, never started
    assert daemon.interval == 0.5
    assert ConsolidationDaemon(2, lambda: None).interval == 2
    assert not daemon._thread.is_alive()


def test_daemon_runs_at_interval():
    count = {"n": 0}
    daemon = schedule(0.05, lambda: count.__setitem__("n", count["n"] + 1))
    time.sleep(0.26)
    daemon.stop()
    assert count["n"] >= 4


def test_stop_prevents_further_passes():
    count = {"n": 0}
    daemon = schedule(0.03, lambda: count.__setitem__("n", count["n"] + 1))
    time.sleep(0.08)
    daemon.stop()
    settled = count["n"]
    time.sleep(0.1)
    assert count["n"] == settled


def test_daemon_keeps_the_last_error():
    calls = []

    def fail_once():
        calls.append(True)
        if len(calls) == 1:
            raise RuntimeError("extractor down")

    before = datetime.now(timezone.utc)
    daemon = schedule(0.02, fail_once)
    deadline = time.monotonic() + 5.0
    while daemon.passes_run < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    daemon.stop()
    assert not daemon._thread.is_alive()
    assert daemon.passes_run >= 2
    assert daemon.pass_errors == 1
    assert daemon.last_error == "extractor down"
    assert before <= daemon.last_error_at <= datetime.now(timezone.utc)


def test_overrunning_pass_skips_ticks():
    daemon = schedule(0.02, lambda: time.sleep(0.05))
    time.sleep(0.2)
    daemon.stop()
    assert daemon.passes_skipped >= 1
