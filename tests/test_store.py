from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmem import store as store_mod
from agentmem.errors import NotFoundError, ValidationError
from agentmem.store import EpisodicEntry, MemoryStore, SemanticFact
from conftest import make_entry, make_fact


def test_round_trip_preserves_all_fields(store):
    entry = make_entry(entry_id="abc", content="the cat sat", session_id="s9",
                       agent_id="ag", project="p")
    store.append_entry(entry)
    loaded = store.load_entries("p").entries
    assert len(loaded) == 1
    got = loaded[0]
    assert (got.id, got.session_id, got.agent_id, got.project) == ("abc", "s9", "ag", "p")
    assert got.content == "the cat sat"
    assert got.timestamp == entry.timestamp
    assert got.tokens == 3
    assert got.promoted is False
    assert got.cognitive_weight == 0.0


def test_default_cognitive_weight_is_zero(store):
    store.append_entry(make_entry())
    assert store.load_entries("proj").entries[0].cognitive_weight == 0.0


def test_same_day_appends_share_one_file(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_entry(make_entry(entry_id="e2"))
    files = list(store.episodic_dir.glob("*.jsonl"))
    assert len(files) == 1
    ids = [json.loads(line)["id"] for line in files[0].read_text().splitlines()]
    assert ids == ["e1", "e2"]


def test_day_files_split_by_utc_date(store):
    store.append_entry(make_entry(entry_id="e1", days_ago=0))
    store.append_entry(make_entry(entry_id="e2", days_ago=2))
    assert len(list(store.episodic_dir.glob("*.jsonl"))) == 2


def test_line_fields_are_exactly_the_contract(store):
    store.append_entry(make_entry())
    (path,) = store.episodic_dir.glob("*.jsonl")
    record = json.loads(path.read_text().splitlines()[0])
    assert list(record) == [
        "id", "timestamp", "session_id", "agent_id", "project",
        "content", "tokens", "promoted", "cognitive_weight",
    ]


def test_system_entries_flagged_on_load(store):
    store.append_entry(make_entry(entry_id="sys", content="[system] compaction marker"))
    got = store.load_entries("proj").entries[0]
    assert got.system is True
    assert got.content == "[system] compaction marker"


def test_empty_project_returns_empty(store):
    assert store.load_entries("missing").entries == []


def test_project_must_be_nonempty(store):
    with pytest.raises(ValidationError):
        store.append_entry(make_entry(project=""))


def test_new_entries_must_start_neutral(store):
    entry = make_entry()
    entry.cognitive_weight = 0.25
    with pytest.raises(ValidationError):
        store.append_entry(entry)


def test_agent_privacy(store):
    store.append_entry(make_entry(entry_id="a1", agent_id="alice"))
    store.append_entry(make_entry(entry_id="b1", agent_id="bob"))
    alice_view = store.load_entries("proj", agent_view="alice").entries
    assert [e.id for e in alice_view] == ["a1"]


def test_orchestrator_view_sees_everyone(store):
    store.append_entry(make_entry(entry_id="a1", agent_id="alice"))
    store.append_entry(make_entry(entry_id="b1", agent_id="bob"))
    assert {e.id for e in store.load_entries("proj").entries} == {"a1", "b1"}


def test_session_scope_filter(store):
    store.append_entry(make_entry(entry_id="e1", session_id="s1"))
    store.append_entry(make_entry(entry_id="e2", session_id="s2"))
    got = store.load_entries("proj", sessions=["s2"]).entries
    assert [e.id for e in got] == ["e2"]


def test_corrupt_lines_skipped_and_counted(store):
    store.append_entry(make_entry(entry_id="good"))
    (path,) = store.episodic_dir.glob("*.jsonl")
    with path.open("a") as handle:
        handle.write("{not json\n")
        handle.write('{"id": "missing-fields"}\n')
    result = store.load_entries("proj")
    assert [e.id for e in result.entries] == ["good"]
    assert result.skipped == 2


def test_torn_tail_is_ended_before_the_next_append(store):
    store.append_entry(make_entry(entry_id="a"))
    (path,) = store.episodic_dir.glob("*.jsonl")
    with path.open("a") as handle:
        handle.write('{"id": "torn", "timest')  # a crash mid-append: no newline
    store.append_entry(make_entry(entry_id="b"))
    result = MemoryStore(store.root).load_entries("proj")
    assert [e.id for e in result.entries] == ["a", "b"]
    assert result.skipped == 1


def test_tail_torn_inside_a_character_is_skipped(store):
    store.append_entry(make_entry(entry_id="a"))
    (path,) = store.episodic_dir.glob("*.jsonl")
    with path.open("ab") as handle:
        handle.write('{"id": "torn", "content": "caf\u00e9'.encode("utf-8")[:-1])
    store.append_entry(make_entry(entry_id="b"))
    result = MemoryStore(store.root).load_entries("proj")
    assert [e.id for e in result.entries] == ["a", "b"]
    assert result.skipped == 1


def test_unicode_line_separators_round_trip(store):
    text = "alpha\x85beta\u2028gamma\x1cdelta"
    entry = make_entry(entry_id="e1", content=text)
    store.append_entry(entry)
    store.append_fact(make_fact(fact_id="f1", value=text))
    fresh = MemoryStore(store.root)
    loaded = fresh.load_entries("proj")
    assert [e.content for e in loaded.entries] == [text]
    assert loaded.skipped == 0
    facts = fresh.load_facts()
    assert [f.value for f in facts.facts] == [text]
    assert facts.skipped == 0
    assert fresh.apply_cw_delta("e1", 0.1, 1.0) == pytest.approx(0.1)


@pytest.mark.parametrize(
    "path_of, parse, skipped",
    [
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), EpisodicEntry.from_dict, (3, 0)),
        (lambda s: s.facts_path, SemanticFact.from_dict, (0, 3)),
        (lambda s: s.cw_ledger_path, store_mod._cw_delta, (0, 0)),
        (lambda s: s.promotions_path, store_mod._ledger_entry_id, (0, 0)),
    ],
    ids=["episodic", "facts", "cw_ledger", "promotions"],
)
def test_bad_lines_are_skipped_and_counted_in_every_file(store, path_of, parse, skipped):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_fact(make_fact(fact_id="f1"))
    store.apply_cw_delta("e1", 0.5, 1.0)
    store.promote("e1", "f1")
    path = path_of(store)
    with path.open("a") as handle:
        handle.write('{not json\n[1, 2]\n{"no_key": 1}\n')
    values, bad = MemoryStore._read_jsonl([path], parse)
    assert (len(values), bad) == (1, 3)
    fresh = MemoryStore(store.root)
    entries, facts = fresh.load_entries("proj"), fresh.load_facts()
    assert [(e.id, e.cognitive_weight, e.promoted) for e in entries] == [("e1", 0.5, True)]
    assert [f.id for f in facts] == ["f1"]
    assert (entries.skipped, facts.skipped) == skipped


@pytest.mark.parametrize(
    "path_of, key, value",
    [
        (lambda s: s.facts_path, "session_ids", "s12"),
        (lambda s: s.facts_path, "session_ids", [1, "s1"]),
        (lambda s: s.facts_path, "session_ids", {"s1": 1}),
        (lambda s: s.facts_path, "session_ids", []),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "promoted", "false"),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "promoted", 0),
    ],
    ids=["session_ids-string", "session_ids-int", "session_ids-object", "session_ids-empty",
         "promoted-string", "promoted-int"],
)
def test_mistyped_field_is_a_skipped_line(store, path_of, key, value):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_fact(make_fact(fact_id="f1"))
    path = path_of(store)
    record = json.loads(path.read_text())
    record.update({"id": "mistyped", key: value})
    with path.open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    fresh = MemoryStore(store.root)
    entries, facts = fresh.load_entries("proj"), fresh.load_facts()
    assert [e.id for e in entries] == ["e1"]
    assert [f.id for f in facts] == ["f1"]
    assert entries.skipped + facts.skipped == 1


def test_loads_never_mutate_files(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.apply_cw_delta("e1", 0.2, 1.0)
    paths = sorted(store.root.rglob("*.jsonl"))
    before = [p.read_bytes() for p in paths]
    fresh = MemoryStore(store.root)
    fresh.load_entries("proj")
    fresh.load_facts()
    assert [p.read_bytes() for p in paths] == before


def test_load_leaves_the_entry_id_cache_equal_to_the_id_parse(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="x1", project="other")])
    fresh = MemoryStore(store.root)
    fresh.load_entries("proj")
    fresh.apply_cw_delta("x1", 0.1, 1.0)  # ids of every project are known
    (path,) = store.episodic_dir.glob("*.jsonl")
    with path.open("a") as handle:
        handle.write('{"id": "bad-ts", "timestamp": "never"}\n')
    fresh = MemoryStore(store.root)
    assert fresh.load_entries("proj").skipped == 1
    fresh.apply_cw_delta("bad-ts", 0.1, 1.0)  # the id parse still accepts this line
    with pytest.raises(NotFoundError):
        fresh.apply_cw_delta("missing", 0.1, 1.0)


# -- cognitive weight ledger ---------------------------------------------------

def test_cw_delta_applied(store):
    store.append_entry(make_entry(entry_id="e1"))
    assert store.apply_cw_delta("e1", 0.1, 1.0) == pytest.approx(0.1)


def test_cw_delta_clips_high(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.apply_cw_delta("e1", 0.98, 1.0)
    assert store.apply_cw_delta("e1", 0.1, 1.0) == 1.0


def test_cw_delta_clips_low(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.apply_cw_delta("e1", -0.95, -0.5)
    assert store.apply_cw_delta("e1", -0.2, -0.5) == -1.0


def test_cw_delta_unknown_entry(store):
    with pytest.raises(NotFoundError):
        store.apply_cw_delta("ghost", 0.1, 1.0)


def test_ledger_replay_reproduces_cw(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_entry(make_entry(entry_id="e2"))
    deltas = [("e1", 0.3), ("e2", -0.7), ("e1", 0.85), ("e1", -0.05), ("e2", -0.9)]
    for entry_id, delta in deltas:
        store.apply_cw_delta(entry_id, delta, 1.0)
    live = {e.id: e.cognitive_weight for e in store.load_entries("proj").entries}
    replayed = {
        e.id: e.cognitive_weight
        for e in MemoryStore(store.root).load_entries("proj").entries
    }
    assert live == replayed


@settings(max_examples=30, deadline=None)
@given(deltas=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=20))
def test_ledger_replay_property(tmp_path_factory, deltas):
    ws = tmp_path_factory.mktemp("replay")
    store = MemoryStore(ws)
    store.append_entry(make_entry(entry_id="e1"))
    final = 0.0
    for delta in deltas:
        final = store.apply_cw_delta("e1", delta, 0.0)
    assert -1.0 <= final <= 1.0
    reloaded = MemoryStore(ws).load_entries("proj").entries[0]
    assert reloaded.cognitive_weight == final


# -- semantic facts -------------------------------------------------------------

def test_fact_round_trip(store):
    fact = make_fact(fact_id="f1", session_ids=("s1", "s2"))
    store.append_fact(fact)
    got = store.load_facts().facts[0]
    assert got == fact


def test_fact_line_fields_are_exactly_the_contract(store):
    store.append_fact(make_fact())
    record = json.loads(store.facts_path.read_text())
    assert list(record) == ["id", "subject", "relation", "value", "session_ids", "created_at"]


def test_older_fact_lines_with_source_entry_ids_still_load(store):
    old, new = make_fact(fact_id="f0", session_ids=("s1", "s2")), make_fact(fact_id="f1")
    store.facts_path.parent.mkdir(parents=True)
    store.facts_path.write_text(
        '{"id":"f0","subject":"alice","relation":"is_a","value":"engineer",'
        '"session_ids":["s1","s2"],"source_entry_ids":["e1","e2","e3"],'
        '"created_at":"2025-03-01T12:00:00+00:00"}\n'
    )
    assert store.load_facts().facts == [old]
    store.append_fact(new)
    loaded = MemoryStore(store.root).load_facts()
    assert loaded.facts == [old, new]
    assert loaded.skipped == 0


def test_fact_requires_sessions():
    with pytest.raises(ValidationError):
        SemanticFact(id="f", subject="a", relation="kv", value="b", session_ids=frozenset())


def test_fact_append_order_preserved(store):
    for i in range(3):
        store.append_fact(make_fact(fact_id=f"f{i}"))
    assert [f.id for f in store.load_facts().facts] == ["f0", "f1", "f2"]


def test_duplicate_fact_is_noop(store):
    store.append_fact(make_fact(fact_id="f1"))
    store.append_fact(make_fact(fact_id="f1"))
    assert len(store.load_facts().facts) == 1


def test_append_facts_dedupes_within_batch_and_against_file(store):
    assert store.append_facts([make_fact(fact_id="f1"), make_fact(fact_id="f2")]) == 2
    batch = [
        make_fact(fact_id="f2"),
        make_fact(fact_id="f3"),
        make_fact(fact_id="f3", value="second copy"),
        make_fact(fact_id="f4"),
    ]
    assert store.append_facts(batch) == 2
    assert store.append_facts([]) == 0
    facts = MemoryStore(store.root).load_facts().facts
    assert [f.id for f in facts] == ["f1", "f2", "f3", "f4"]
    assert facts[2].value == "engineer"


# -- promotions ------------------------------------------------------------------

def test_promotion_is_ledger_derived(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.promote("e1", "f1")
    assert store.load_entries("proj").entries[0].promoted is True
    assert MemoryStore(store.root).load_entries("proj").entries[0].promoted is True


def test_promote_many_marks_every_entry(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.promote_many([("e1", "f1"), ("e2", "f1")])
    assert MemoryStore(store.root).promoted_entry_ids() == {"e1", "e2"}
    assert len(store.promotions_path.read_text().splitlines()) == 2


def test_promote_many_with_an_unknown_id_writes_nothing(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.promote("e1", "f0")
    before = store.promotions_path.read_bytes()
    with pytest.raises(NotFoundError):
        store.promote_many([("e2", "f1"), ("ghost", "f1")])
    assert store.promotions_path.read_bytes() == before
    assert store.promoted_entry_ids() == {"e1"}


def test_timestamp_parsing_rejects_garbage():
    from agentmem.store import parse_timestamp

    with pytest.raises(ValidationError):
        parse_timestamp("not-a-date")
