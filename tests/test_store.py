from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from datetime import datetime, timedelta, timezone

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


def test_stored_id_is_rejected_and_nothing_written(store):
    store.append_entry(make_entry(entry_id="e1", session_id="s1"))
    before = [p.read_bytes() for p in sorted(store.episodic_dir.glob("*.jsonl"))]
    with pytest.raises(ValidationError, match="e1"):
        store.append_entries([make_entry(entry_id="e2"), make_entry(entry_id="e1", session_id="s2")])
    with pytest.raises(ValidationError, match="e1"):
        MemoryStore(store.root).append_entry(make_entry(entry_id="e1", days_ago=3))
    assert [p.read_bytes() for p in sorted(store.episodic_dir.glob("*.jsonl"))] == before
    store.append_entry(make_entry(entry_id="e2"))


def test_id_repeated_in_a_batch_is_rejected(store):
    with pytest.raises(ValidationError, match="x"):
        store.append_entries([make_entry(entry_id="x"), make_entry(entry_id="x", days_ago=1)])
    assert not list(store.episodic_dir.glob("*.jsonl"))
    assert store.load_entries("proj").entries == []


def test_entries_of_every_utc_day_go_to_one_log_in_call_order(store):
    store.append_entry(make_entry(entry_id="e1", days_ago=0))
    store.append_entries([
        make_entry(entry_id="e2", days_ago=2), make_entry(entry_id="e3", days_ago=1)
    ])
    assert list(store.episodic_dir.glob("*.jsonl")) == [store.episodic_log_path]
    lines = store.episodic_log_path.read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["e1", "e2", "e3"]
    assert [e.id for e in MemoryStore(store.root).load_entries("proj")] == ["e1", "e2", "e3"]


def test_a_torn_batch_loads_a_prefix_of_its_entries_in_call_order(store):
    """A crash can keep any prefix of the one write of a batch that spans
    three UTC days; every such prefix loads as a prefix of the batch."""
    batch = [make_entry(entry_id=f"e{i}", days_ago=(2, 0, 1)[i % 3]) for i in range(6)]
    store.append_entries(batch)
    (path,) = store.episodic_dir.glob("*.jsonl")
    data = path.read_bytes()
    ids = [e.id for e in batch]
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        loaded = [e.id for e in MemoryStore(store.root).load_entries("proj")]
        assert loaded == ids[:len(loaded)]
        assert len(loaded) >= data[:cut].count(b"\n")  # every whole line loads
        assert [e.id for e in store.load_entries("proj")] == loaded


# The lines an older version wrote into its per-day files, byte for byte.
_LEGACY_DAYS = {
    "2025-02-27.jsonl": [
        b'{"id":"d1","timestamp":"2025-02-27T12:00:00+00:00","session_id":"s1","agent_id":"a",'
        b'"project":"proj","content":"caf\xc3\xa9 on day one","tokens":4,"promoted":false,'
        b'"cognitive_weight":0.0}',
        b'{"id":"d2","timestamp":"2025-02-27T23:30:00+00:00","session_id":"s2","agent_id":"b",'
        b'"project":"proj","content":"[system] late note","tokens":3,"promoted":true,'
        b'"cognitive_weight":0.0}',
    ],
    "2025-03-01.jsonl": [
        b'{"id":"d3","timestamp":"2025-03-01T00:15:00+00:00","session_id":"s1","agent_id":"a",'
        b'"project":"proj","content":"third \\"quoted\\" note","tokens":3,"promoted":false,'
        b'"cognitive_weight":0.0}',
    ],
}


def test_legacy_day_files_load_first_and_are_never_written(store):
    store.episodic_dir.mkdir(parents=True)
    for name in sorted(_LEGACY_DAYS, reverse=True):  # made out of name order
        (store.episodic_dir / name).write_bytes(b"".join(l + b"\n" for l in _LEGACY_DAYS[name]))
    before = {p: p.read_bytes() for p in store.episodic_dir.glob("*.jsonl")}
    utc = timezone.utc
    want = [
        EpisodicEntry("d1", datetime(2025, 2, 27, 12, tzinfo=utc), "s1", "a", "proj",
                      "café on day one", 4, False, 0.0),
        EpisodicEntry("d2", datetime(2025, 2, 27, 23, 30, tzinfo=utc), "s2", "b", "proj",
                      "[system] late note", 3, True, 0.0),
        EpisodicEntry("d3", datetime(2025, 3, 1, 0, 15, tzinfo=utc), "s1", "a", "proj",
                      'third "quoted" note', 3, False, 0.0),
    ]
    assert store.load_entries("proj").entries == want
    assert [e.to_line().encode() for e in want] == [
        line for name in sorted(_LEGACY_DAYS) for line in _LEGACY_DAYS[name]
    ]
    early = make_entry(entry_id="n1", days_ago=30)  # older than every day file
    store.append_entries([early])
    for writer in (store, MemoryStore(store.root)):
        with pytest.raises(ValidationError, match="d2"):
            writer.append_entries([make_entry(entry_id="n2"), make_entry(entry_id="d2")])
    store.apply_cw_delta("d1", 0.5, 1.0)
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(store.episodic_dir.glob("*.jsonl")) == sorted([*before, store.episodic_log_path])
    assert store.episodic_log_path.read_bytes() == early.to_line().encode() + b"\n"
    for reader in (store, MemoryStore(store.root)):
        loaded = reader.load_entries("proj")
        assert [(e.id, e.cognitive_weight) for e in loaded] == [
            ("d1", 0.5), ("d2", 0.0), ("d3", 0.0), ("n1", 0.0)
        ]
        assert loaded.skipped == 0


def test_an_append_opens_stats_and_writes_one_episodic_file(store, monkeypatch):
    store.append_entries([make_entry(entry_id=f"old{i}", days_ago=i) for i in range(60)])
    episodic = str(store.episodic_dir)
    calls: Counter = Counter()
    fds: set[int] = set()
    real_open, real_stat, real_write = os.open, os.stat, os.write

    def counted_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        if str(path).startswith(episodic):
            calls["open"] += 1
            fds.add(fd)
        return fd

    def counted_stat(path, *args, **kwargs):
        calls["stat"] += str(path).startswith(episodic)
        return real_stat(path, *args, **kwargs)

    def counted_write(fd, data):
        calls["write"] += fd in fds
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", counted_open)
    monkeypatch.setattr(os, "stat", counted_stat)
    monkeypatch.setattr(os, "write", counted_write)
    store.append_entries([make_entry(entry_id=f"new{i}", days_ago=i * 7) for i in range(5)])
    monkeypatch.undo()
    assert calls == {"open": 1, "stat": 1, "write": 1}
    assert len(MemoryStore(store.root).load_entries("proj")) == 65


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
    with pytest.raises(ValidationError):
        store.append_entry(make_entry(cognitive_weight=0.25))


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


def test_session_scope_rejects_a_string(store):
    store.append_entries([make_entry(entry_id="e1", session_id="s"),
                          make_entry(entry_id="e2", session_id="s1")])
    with pytest.raises(ValidationError, match="sessions"):
        store.load_entries("proj", sessions="s1")
    assert [e.id for e in store.load_entries("proj", sessions=("s1",))] == ["e2"]


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
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, (0, 0)),
        (lambda s: s.promotions_path, store_mod._promoted_ids, (0, 0)),
    ],
    ids=["episodic", "facts", "cw_ledger", "promotions"],
)
def test_bad_lines_are_skipped_and_counted_in_every_file(store, path_of, parse, skipped):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_fact(make_fact(fact_id="f1"))
    store.apply_cw_delta("e1", 0.5, 1.0)
    store.promote("e1")
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
        (lambda s: s.facts_path, "id", 7),
        (lambda s: s.facts_path, "value", 42),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "promoted", "false"),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "promoted", 0),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "session_id", None),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "tokens", 2.9),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "tokens", True),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "cognitive_weight", "0.0"),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "cognitive_weight", False),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "content", 123),
        (lambda s: next(s.episodic_dir.glob("*.jsonl")), "id", 7),
    ],
    ids=["session_ids-string", "session_ids-int", "session_ids-object", "session_ids-empty",
         "fact-id-int", "value-int", "promoted-string", "promoted-int", "session_id-null",
         "tokens-float", "tokens-bool", "cognitive_weight-string", "cognitive_weight-bool",
         "content-int", "entry-id-int"],
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


@pytest.mark.parametrize(
    "path_of, parse, record",
    [
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": "0.5"}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": True}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": ["e1"], "delta": 0.5}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": float("nan")}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": float("inf")}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": -float("inf")}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"entry_id": "e1", "delta": 10**400}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [["e1", 0.5], ["e1", "0.5"]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [["e1", 0.5], ["e1"]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [["e1", 0.5, 0.5]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [[1, 0.5]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [["e1", True]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": [["e1", float("nan")]]}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": {"e1": 0.5}}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas, {"deltas": "e1"}),
        (lambda s: s.cw_ledger_path, store_mod._cw_deltas,
         {"deltas": None, "entry_id": "e1", "delta": 0.5}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_id": ["e1"]}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_id": 1}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_ids": "e1"}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_ids": ["e1", 1]}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_ids": ["e1", ["e1"]]}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_ids": {"e1": 1}}),
        (lambda s: s.promotions_path, store_mod._promoted_ids, {"entry_ids": None}),
        (lambda s: s.promotions_path, store_mod._promoted_ids,
         {"entry_ids": "e1", "entry_id": "e1"}),
    ],
    ids=["delta-string", "delta-bool", "cw-entry_id-list", "delta-nan", "delta-inf",
         "delta-minus-inf", "delta-beyond-float", "deltas-string-member", "deltas-short-pair",
         "deltas-long-pair", "deltas-int-id", "deltas-bool-delta", "deltas-nan-delta",
         "deltas-object", "deltas-string", "deltas-null-beside-entry_id", "promotion-entry_id-list",
         "promotion-entry_id-int", "promotion-entry_ids-string",
         "promotion-entry_ids-int-member", "promotion-entry_ids-list-member",
         "promotion-entry_ids-object", "promotion-entry_ids-null",
         "promotion-entry_ids-string-beside-entry_id"],
)
def test_mistyped_ledger_line_is_skipped(store, path_of, parse, record):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="['e1']")])
    store.apply_cw_delta("e1", 0.1, 1.0)
    path = path_of(store)
    with path.open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    assert MemoryStore._read_jsonl([path], parse)[1] == 1
    entries = MemoryStore(store.root).load_entries("proj").entries
    assert [(e.id, e.cognitive_weight, e.promoted) for e in entries] == [
        ("e1", pytest.approx(0.1), False), ("['e1']", 0.0, False)
    ]


def test_append_after_memory_dir_deleted_recreates_it(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_fact(make_fact(fact_id="f1"))
    store.promote("e1")
    shutil.rmtree(store.memory_dir)
    store.append_entry(make_entry(entry_id="e2"))
    store.append_fact(make_fact(fact_id="f2"))
    store.apply_cw_delta("e2", 0.5, 1.0)
    store.promote("e2")
    fresh = MemoryStore(store.root)
    assert [(e.id, e.cognitive_weight, e.promoted) for e in fresh.load_entries("proj")] == [
        ("e2", 0.5, True)
    ]
    assert [f.id for f in fresh.load_facts()] == ["f2"]


_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\u2028", "\u0085", "\n", "é", "漢", "\U0001f600", "\x00"]),
        st.characters(),
    ),
)
_UTC = st.datetimes(timezones=st.just(timezone.utc))


def _has_surrogate(*texts: str) -> bool:
    return any("\ud800" <= c <= "\udfff" for text in texts for c in text)


@settings(max_examples=60, deadline=None)
@given(
    text=st.lists(_TEXT, min_size=6, max_size=6),
    ts=_UTC,
    tokens=st.integers(min_value=0),
    weight=st.floats(min_value=-1.0, max_value=1.0),
    promoted=st.booleans(),
    numbers=st.lists(st.floats(), min_size=2, max_size=2),
)
def test_to_line_equals_the_json_dumps_it_replaced(text, ts, tokens, weight, promoted, numbers):
    """Every record's line is the ``json.dumps`` it replaced. A record whose
    text holds a lone surrogate, which no line can carry, cannot be built."""
    entry_id, session_id, agent_id, content, subject, value = text
    if _has_surrogate(entry_id, session_id, agent_id, content):
        with pytest.raises(ValidationError, match="UTF-8"):
            EpisodicEntry(entry_id, ts, session_id, agent_id, "p", content)
    else:
        entry = EpisodicEntry(entry_id, ts, session_id, agent_id, "p\u2028\"", content,
                              tokens=tokens, promoted=promoted, cognitive_weight=weight)
        assert entry.to_line() == json.dumps(
            {"id": entry_id, "timestamp": ts.isoformat(), "session_id": session_id,
             "agent_id": agent_id, "project": "p\u2028\"", "content": content, "tokens": tokens,
             "promoted": promoted, "cognitive_weight": weight},
            ensure_ascii=False, separators=(",", ":"),
        )
    if _has_surrogate(entry_id, subject, content, value, session_id):
        with pytest.raises(ValidationError, match="UTF-8"):
            SemanticFact(entry_id, subject, content, value, frozenset({session_id, value}), ts)
    else:
        fact = SemanticFact(entry_id, subject, content, value, frozenset({session_id, value}), ts)
        assert fact.to_line() == json.dumps(
            {"id": entry_id, "subject": subject, "relation": content, "value": value,
             "session_ids": sorted({session_id, value}), "created_at": ts.isoformat()},
            ensure_ascii=False, separators=(",", ":"),
        )
    delta, reward = numbers
    deltas = ((entry_id, delta), (value, -delta))
    assert store_mod.CwLedgerRecord(deltas, reward, ts).to_line() == json.dumps(
        {"deltas": [[entry_id, delta], [value, -delta]], "reward": reward,
         "applied_at": ts.isoformat()},
        separators=(",", ":"),
    )
    assert store_mod._promotion_line([entry_id, value], ts.isoformat()) == json.dumps(
        {"entry_ids": [entry_id, value], "promoted_at": ts.isoformat()},
        separators=(",", ":"),
    )


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


# -- construction accepts exactly what a parse accepts ---------------------------

_WRONG = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2.0, 2.0))
_OFFSET = st.builds(
    timezone, st.timedeltas(min_value=-timedelta(hours=23), max_value=timedelta(hours=23))
)
_WHEN = st.one_of(
    st.datetimes(),  # naive
    st.datetimes(timezones=st.just(timezone.utc)),
    st.datetimes(timezones=_OFFSET),
    st.datetimes(min_value=datetime(9999, 12, 31), timezones=_OFFSET),  # near the range's ends
    st.datetimes(max_value=datetime(1, 1, 2), timezones=_OFFSET),
)
# (valid, wrong) values per field, in field order.
# Text with a lone surrogate is a str, but no line can hold it.
_UNENCODABLE = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
_TEXT_FIELD = (st.text(max_size=4), st.one_of(_WRONG, _UNENCODABLE))
_WHEN_FIELD = (_WHEN, st.one_of(st.none(), st.booleans(), st.integers(0, 2)))
_ENTRY_FIELDS = [
    _TEXT_FIELD, _WHEN_FIELD, _TEXT_FIELD, _TEXT_FIELD, _TEXT_FIELD, _TEXT_FIELD,
    (st.integers(-3, 2**70), st.one_of(_WRONG.filter(lambda v: type(v) is not int), st.text())),
    (st.booleans(), st.one_of(_WRONG.filter(lambda v: type(v) is not bool), st.text())),
    (st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 1)),
     st.one_of(st.floats(), st.integers(-5, 5), st.booleans(), st.none(), st.text())),
]
_FACT_FIELDS = [
    _TEXT_FIELD, _TEXT_FIELD, _TEXT_FIELD, _TEXT_FIELD,
    (st.one_of(st.lists(st.text(max_size=3), min_size=1, max_size=3),
               st.frozensets(st.text(max_size=3), min_size=1, max_size=3)),
     st.one_of(st.just([]), st.text(max_size=3), _WRONG,
               st.lists(st.one_of(st.text(max_size=3), _WRONG, _UNENCODABLE), min_size=1,
                        max_size=3),
               st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))),
    _WHEN_FIELD,
]


@st.composite
def _field_values(draw, fields) -> tuple:
    """A value for every field, at most two of them drawn from the wrong ones."""
    wrong = draw(st.sets(st.integers(0, len(fields) - 1), max_size=2))
    return tuple(draw(field[i in wrong]) for i, field in enumerate(fields))


def _as_kept(record):
    """``record`` as the store keeps it: its timestamp as a parse of the
    written form returns it, in UTC."""
    name = "timestamp" if isinstance(record, EpisodicEntry) else "created_at"
    return record._replace(**{name: store_mod.parse_timestamp(getattr(record, name).isoformat())})


@settings(max_examples=400, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just(EpisodicEntry), _field_values(_ENTRY_FIELDS)),
        st.tuples(st.just(SemanticFact), _field_values(_FACT_FIELDS)),
    )
)
def test_construction_accepts_exactly_what_a_parse_accepts(case):
    """Either construction and from_dict both raise ValidationError, or both
    build the record and its line parses back to it, field types included."""
    cls, values = case
    # A line carries a timestamp as its ISO-8601 text.
    record = {
        name: value.isoformat() if isinstance(value, datetime) else value
        for name, value in zip(cls._fields, values)
    }
    try:
        built = cls(*values)
    except ValidationError:
        with pytest.raises(ValidationError):
            cls.from_dict(record)
        return
    kept = _as_kept(built)
    assert cls.from_dict(record) == kept
    parsed = cls.from_dict(json.loads(built.to_line().encode("utf-8").decode("utf-8")))
    assert parsed == kept
    assert [type(v) for v in parsed] == [type(v) for v in kept]


def test_a_line_whose_instant_has_no_utc_datetime_is_skipped(store):
    store.append_entry(make_entry(entry_id="e1"))
    (path,) = store.episodic_dir.glob("*.jsonl")
    line = json.loads(path.read_text())
    line.update(id="e0", timestamp="0001-01-01T00:00:00+05:00")
    with path.open("a") as handle:
        handle.write(json.dumps(line) + "\n")
    loaded = MemoryStore(store.root).load_entries("proj")
    assert ([e.id for e in loaded], loaded.skipped) == (["e1"], 1)
    with pytest.raises(ValidationError):
        EpisodicEntry("e0", datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))), "s1", "a",
                      "proj", "early")


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
    store.promote("e1")
    assert store.load_entries("proj").entries[0].promoted is True
    assert MemoryStore(store.root).load_entries("proj").entries[0].promoted is True


def test_promote_many_marks_every_entry(store, frozen_clock):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.promote_many(["e1", "e2"])
    assert MemoryStore(store.root).promoted_entry_ids() == {"e1", "e2"}
    assert store.promotions_path.read_text().splitlines() == [json.dumps(
        {"entry_ids": ["e1", "e2"], "promoted_at": frozen_clock.isoformat()},
        separators=(",", ":"),
    )]


def test_promote_many_of_no_ids_writes_nothing(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.promote_many([])
    assert not store.promotions_path.exists()
    store.promote("e1")
    before = store.promotions_path.read_bytes()
    store.promote_many(iter([]))
    assert store.promotions_path.read_bytes() == before
    assert MemoryStore(store.root).promoted_entry_ids() == {"e1"}


_STAMP = "2025-03-01T09:00:00+00:00"
# Lines of the older shape, one per entry; a session the extractor found no
# fact in was promoted with fact_id "".
_OLD_PROMOTIONS = [
    {"entry_id": "e1", "fact_id": "f1", "promoted_at": _STAMP},
    {"entry_id": "e2", "fact_id": "", "promoted_at": _STAMP},
    {"entry_id": "e2", "fact_id": "f1", "promoted_at": _STAMP},
]


@pytest.mark.parametrize(
    "records, want, skipped",
    [
        (_OLD_PROMOTIONS, {"e1", "e2"}, 0),
        (_OLD_PROMOTIONS[:1] + [{"entry_ids": ["e3", "e4"], "promoted_at": _STAMP}]
         + _OLD_PROMOTIONS[1:] + [{"entry_ids": [], "promoted_at": _STAMP}],
         {"e1", "e2", "e3", "e4"}, 0),
        (_OLD_PROMOTIONS + [{"entry_ids": ["e3", 4], "promoted_at": _STAMP},
                            {"entry_ids": ["e4"], "promoted_at": _STAMP}],
         {"e1", "e2", "e4"}, 1),
    ],
    ids=["old", "mixed", "mixed-with-a-malformed-line"],
)
def test_promotion_lines_of_both_shapes_replay(store, records, want, skipped):
    """A workspace whose ledger an older writer began loads the promoted set
    its lines name, in a fresh instance, a long-lived one and ``_read_jsonl``;
    a line whose ``entry_ids`` is malformed promotes none of its ids."""
    store.append_entries([make_entry(entry_id=f"e{i}") for i in range(6)])
    store.load_entries("proj")  # this instance's views are read before the ledger exists
    store.memory_dir.mkdir(parents=True, exist_ok=True)
    store.promotions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    groups, bad = MemoryStore._read_jsonl([store.promotions_path], store_mod._promoted_ids)
    assert (set().union(*groups), bad) == (want, skipped)
    for instance in (store, MemoryStore(store.root)):
        assert instance.promoted_entry_ids() == want
        assert {e.id for e in instance.load_entries("proj") if e.promoted} == want
        assert instance._promoted.read().skipped == skipped
    store.promote("e5")  # a new-shape line after the old ones
    assert MemoryStore(store.root).promoted_entry_ids() == want | {"e5"}


def test_a_torn_promotion_line_promotes_all_of_its_ids_or_none(tmp_path):
    root = tmp_path / "ws"
    store = MemoryStore(root)
    store.append_entries([make_entry(entry_id=f"e{i}") for i in range(4)])
    store.promote("e0")
    head = store.promotions_path.read_bytes()
    store.promote_many(["e1", "e2", "e3"])
    line = store.promotions_path.read_bytes()[len(head):]
    outcomes = set()
    for cut in range(len(line) + 1):
        store.promotions_path.write_bytes(head + line[:cut])
        fresh = MemoryStore(root)
        promoted = frozenset(fresh.promoted_entry_ids())
        assert promoted in ({"e0"}, {"e0", "e1", "e2", "e3"}), cut
        assert {e.id for e in fresh.load_entries("proj") if e.promoted} == promoted
        outcomes.add(promoted)
    assert len(outcomes) == 2


def test_apply_cw_deltas_writes_one_line_per_call(store, frozen_clock):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    assert store.apply_cw_deltas([("e1", 0.25), ("e2", -0.5), ("e1", 1)], 0.5) == [0.25, -0.5, 1.0]
    assert store.cw_ledger_path.read_text().splitlines() == [json.dumps(
        {"deltas": [["e1", 0.25], ["e2", -0.5], ["e1", 1]], "reward": 0.5,
         "applied_at": frozen_clock.isoformat()},
        separators=(",", ":"),
    )]
    store.apply_cw_deltas([], 1.0)
    assert len(store.cw_ledger_path.read_text().splitlines()) == 1


def test_cw_lines_of_both_shapes_replay(store):
    """A ledger an older writer began, one line per delta, loads the same
    weights in a fresh instance, a long-lived one and ``_read_jsonl``, and
    new lines fold after the old ones in file order."""
    store.append_entries([make_entry(entry_id=f"e{i}") for i in range(3)])
    store.load_entries("proj")  # this instance's views are read before the ledger exists
    store.memory_dir.mkdir(parents=True, exist_ok=True)
    records = [
        {"entry_id": "e0", "delta": 0.5, "reward": 1.0, "applied_at": _STAMP},
        {"deltas": [["e1", -0.25], ["e0", 0.75]], "reward": 1.0, "applied_at": _STAMP},
        {"entry_id": "e1", "delta": -0.5, "reward": -1.0, "applied_at": _STAMP},
        {"deltas": [], "reward": 1.0, "applied_at": _STAMP},
    ]
    store.cw_ledger_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    groups, bad = MemoryStore._read_jsonl([store.cw_ledger_path], store_mod._cw_deltas)
    assert ([list(map(tuple, g)) for g in groups], bad) == (
        [[("e0", 0.5)], [("e1", -0.25), ("e0", 0.75)], [("e1", -0.5)], []], 0
    )
    want = [("e0", 1.0), ("e1", -0.75), ("e2", 0.0)]
    for instance in (store, MemoryStore(store.root)):
        assert [(e.id, e.cognitive_weight) for e in instance.load_entries("proj")] == want
    assert store.apply_cw_deltas([("e2", 0.25), ("e1", 0.5)], 1.0) == [0.25, -0.25]
    assert [(e.id, e.cognitive_weight) for e in MemoryStore(store.root).load_entries("proj")] == [
        ("e0", 1.0), ("e1", -0.25), ("e2", 0.25)
    ]


def test_a_torn_cw_line_applies_all_of_its_deltas_or_none(tmp_path):
    """Total applied credit equals alpha * reward only if an attribution's
    deltas replay together: a line cut at any byte applies none of them."""
    root = tmp_path / "ws"
    store = MemoryStore(root)
    store.append_entries([make_entry(entry_id=f"e{i}") for i in range(4)])
    store.apply_cw_delta("e0", 0.5, 1.0)
    head = store.cw_ledger_path.read_bytes()
    store.apply_cw_deltas([("e1", 0.25), ("e2", -0.25), ("e3", 0.125)], 1.0)
    line = store.cw_ledger_path.read_bytes()[len(head):]
    before = {"e0": 0.5, "e1": 0.0, "e2": 0.0, "e3": 0.0}
    after = {"e0": 0.5, "e1": 0.25, "e2": -0.25, "e3": 0.125}
    outcomes = []
    for cut in range(len(line) + 1):
        store.cw_ledger_path.write_bytes(head + line[:cut])
        weights = {e.id: e.cognitive_weight for e in MemoryStore(root).load_entries("proj")}
        assert weights in (before, after), cut
        outcomes.append(weights == after)
    assert outcomes[-2:] == [True, True] and not any(outcomes[:-2])


def test_promote_many_with_an_unknown_id_writes_nothing(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.promote("e1")
    before = store.promotions_path.read_bytes()
    with pytest.raises(NotFoundError):
        store.promote_many(["e2", "ghost"])
    assert store.promotions_path.read_bytes() == before
    assert store.promoted_entry_ids() == {"e1"}


def test_timestamp_parsing_rejects_garbage():
    from agentmem.store import parse_timestamp

    with pytest.raises(ValidationError):
        parse_timestamp("not-a-date")


@pytest.mark.parametrize(
    "delta, reward",
    [(float("nan"), 0.0), (float("inf"), 1.0), (-float("inf"), 1.0), (10**400, 1.0),
     (0.1, float("nan"))],
    ids=["delta-nan", "delta-inf", "delta-minus-inf", "delta-beyond-float", "reward-nan"],
)
def test_a_non_finite_delta_or_reward_raises_before_anything_is_written(store, delta, reward):
    """No JSON line can hold NaN or an infinity, and a replayed NaN delta
    would clip to a weight of +1.0."""
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.apply_cw_delta("e1", 0.1, 1.0)
    before = store.cw_ledger_path.read_bytes()
    with pytest.raises(ValidationError):
        store.apply_cw_deltas([("e2", 0.2), ("e1", delta)], reward)
    assert store.cw_ledger_path.read_bytes() == before
    for view in (store, MemoryStore(store.root)):
        weights = [(e.id, e.cognitive_weight) for e in view.load_entries("proj")]
        assert weights == [("e1", pytest.approx(0.1)), ("e2", 0.0)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_entry(content="bad \ud800"),
        lambda: make_entry(session_id="s\udfff"),
        lambda: make_entry(entry_id="\ud800"),
        lambda: make_fact(value="bad \ud800"),
        lambda: make_fact(session_ids=("s1", "\udc00")),
    ],
    ids=["entry-content", "entry-session", "entry-id", "fact-value", "fact-session"],
)
def test_text_no_line_can_hold_is_rejected_at_construction(build):
    with pytest.raises(ValidationError, match="UTF-8"):
        build()


def test_unencodable_day_group_writes_no_day_of_its_batch(store):
    """A batch is encoded before its one write, also when its entries fall on
    two UTC days, so a record that skipped the construction checks fails the
    whole batch."""
    good = make_entry(entry_id="a", days_ago=1)
    bad = make_entry(entry_id="b")._replace(content="bad \ud800")
    with pytest.raises(UnicodeEncodeError):
        store.append_entries([good, bad])
    assert not list(store.episodic_dir.glob("*.jsonl"))
    store.append_entry(make_entry(entry_id="b"))
    assert [e.id for e in MemoryStore(store.root).load_entries("proj")] == ["b"]


def test_a_stored_line_with_a_lone_surrogate_is_skipped_and_consolidation_goes_on(store):
    from agentmem.consolidation import HeuristicExtractor, run_consolidation_pass

    store.append_entry(make_entry(entry_id="e1", session_id="s1", content="key1: value one"))
    day_file = next(store.episodic_dir.glob("*.jsonl"))
    record = json.loads(day_file.read_text())
    record.update({"id": "e2", "session_id": "s2", "content": "key2: value \ud800"})
    with day_file.open("a") as handle:  # another writer; json escapes the surrogate
        handle.write(json.dumps(record) + "\n")
    loaded = MemoryStore(store.root).load_entries("proj")
    assert ([e.id for e in loaded], loaded.skipped) == (["e1"], 1)
    for _ in range(2):
        report = run_consolidation_pass(store, HeuristicExtractor(), "proj")
        assert not report.failures
    assert [f.session_ids for f in store.load_facts()] == [frozenset({"s1"})]
    assert store.promoted_entry_ids() == {"e1"}
