"""A store instance's file views against a fresh instance's parse.

Every check compares what a long-lived instance loads with what a new
``MemoryStore`` on the same directory loads: ids, every field (including the
timestamps' tzinfo), order and skip counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from datetime import timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import agentmem
from agentmem.consolidation import HeuristicExtractor, run_consolidation_pass
from agentmem.errors import NotFoundError, ValidationError
from agentmem.evaluation import BENCH_PROJECT, ingest_question, load_dataset
from agentmem.retrieval import RetrievalConfig, RetrievalPipeline
from agentmem.store import EpisodicEntry, MemoryStore, SemanticFact
from conftest import BASE_TS, SYNTHETIC20, make_entry, make_fact

# sha256 of every file that test_frozen_clock_writes_are_byte_identical
# makes, by path. The encoding of these files is a format: a change of one of
# these values is a change of the format.
SYNTHETIC20_FILES_SHA256 = {
    "memory/cw_ledger.jsonl": "e33e40b13d7dbc0180fdada63d4e3db06a21ae8b7251d319251c564ab43060c6",
    "memory/episodic/log.jsonl": "6d849e56bbcb71fe1191f2a9f6f9b695f4b7124f3a0eaf79f369ee88fde56201",
    "memory/promotions.jsonl": "78b1252b509a8d6014cd18b335448452d9ff21a99fbfba7cd8155374aea8673e",
    "memory/semantic/facts.jsonl": "3e708ac40f6e936bf1085b7561de706914d59b6485c7990a6960feef31826f60",
}


def _entry_fields(entry: EpisodicEntry) -> tuple:
    return (
        entry.id, entry.timestamp, entry.timestamp.tzinfo, entry.session_id, entry.agent_id,
        entry.project, entry.content, entry.tokens, entry.promoted, entry.cognitive_weight,
        entry.system,
    )


def _fact_fields(fact: SemanticFact) -> tuple:
    return (
        fact.id, fact.subject, fact.relation, fact.value, fact.session_ids, fact.created_at,
        fact.created_at.tzinfo,
    )


def _replay(store: MemoryStore, project: str = "proj") -> tuple:
    entries, facts = store.load_entries(project), store.load_facts()
    return (
        [_entry_fields(e) for e in entries], entries.skipped,
        [_fact_fields(f) for f in facts], facts.skipped,
        store.promoted_entry_ids(),
    )


def _assert_like_fresh(
    *stores: MemoryStore, projects: tuple[str, ...] = ("proj", "other")
) -> None:
    """Each store replays each project as a fresh instance does."""
    for project in projects:
        fresh = _replay(MemoryStore(stores[0].root), project)
        for store in stores:
            assert _replay(store, project) == fresh


# -- views that went stale ---------------------------------------------------

def test_another_instances_weights_promotions_and_facts_are_seen(store):
    store.append_entries([make_entry(entry_id="e1"), make_entry(entry_id="e2")])
    store.append_fact(make_fact(fact_id="f1"))
    other = MemoryStore(store.root)
    store.load_entries("proj")  # this instance's views are read
    other.apply_cw_delta("e1", 0.5, 1.0)
    other.promote("e2")
    other.append_fact(make_fact(fact_id="f2"))
    assert [(e.id, e.cognitive_weight, e.promoted) for e in store.load_entries("proj")] == [
        ("e1", 0.5, False), ("e2", 0.0, True)
    ]
    assert store.apply_cw_delta("e1", 0.25, 1.0) == 0.75
    assert store.append_facts([make_fact(fact_id="f2"), make_fact(fact_id="f3")]) == 1
    assert [f.id for f in MemoryStore(store.root).load_facts()] == ["f1", "f2", "f3"]
    _assert_like_fresh(store, other)


def test_entry_another_instance_appended_takes_deltas(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.apply_cw_delta("e1", 0.1, 1.0)  # this instance's id view is read
    MemoryStore(store.root).append_entry(make_entry(entry_id="e2"))
    assert store.apply_cw_delta("e2", 0.5, 1.0) == 0.5
    store.promote_many(["e2"])
    with pytest.raises(NotFoundError):
        store.apply_cw_delta("e3", 0.5, 1.0)
    _assert_like_fresh(store)


def test_id_another_instance_appended_is_a_duplicate(store):
    store.append_entry(make_entry(entry_id="e1"))
    MemoryStore(store.root).append_entry(make_entry(entry_id="e2"))
    with pytest.raises(ValidationError, match="e2"):
        store.append_entry(make_entry(entry_id="e2", days_ago=1))
    assert [e.id for e in MemoryStore(store.root).load_entries("proj")] == ["e1", "e2"]


# -- what the views parse --------------------------------------------------------

def test_own_appends_are_never_parsed_back(store, monkeypatch):
    store.append_entries([make_entry(entry_id=f"e{i}", days_ago=i % 3) for i in range(6)])
    store.append_facts([make_fact(fact_id="f1"), make_fact(fact_id="f2")])
    store.promote_many(["e1"])
    store.apply_cw_delta("e2", 0.5, 1.0)
    parses = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parses.append(text) or real(text, **kw))
    store.load_entries("proj")
    store.load_facts()
    store.apply_cw_delta("e3", 0.5, 1.0)
    store.append_entry(make_entry(entry_id="e9"))
    assert parses == []
    other = MemoryStore(store.root)
    other.append_entry(make_entry(entry_id="x1"))
    other.apply_cw_delta("x1", 0.1, 1.0)
    parses.clear()
    store.load_entries("proj")  # parses only the two lines the other instance wrote
    assert sorted(parses) == sorted(
        path.read_text().splitlines()[-1] + "\n"
        for path in (store.episodic_log_path, store.cw_ledger_path)
    )


def test_each_line_is_parsed_once(tmp_path, monkeypatch):
    seed = MemoryStore(tmp_path)
    seed.append_entries([make_entry(entry_id=f"e{i}") for i in range(10)])
    seed.append_facts([make_fact(fact_id=f"f{i}") for i in range(10)])
    parses = []
    real = agentmem.store.json.loads
    monkeypatch.setattr(agentmem.store.json, "loads",
                        lambda text, **kw: parses.append(text) or real(text, **kw))
    store = MemoryStore(tmp_path)
    store.append_entry(make_entry(entry_id="e10"))  # the id check parses the log
    assert len(store.load_entries("proj")) == 11
    assert len(parses) == 10
    parses.clear()
    assert store.append_facts([make_fact(fact_id="f10")]) == 1
    assert len(store.load_facts()) == 11
    assert len(parses) == 10


def test_an_id_check_builds_no_record_and_a_load_builds_each_once(tmp_path, monkeypatch):
    seed = MemoryStore(tmp_path)
    seed.append_entries([make_entry(entry_id=f"e{i}") for i in range(10)])
    seed.append_facts([make_fact(fact_id=f"f{i}") for i in range(10)])
    built = Counter()
    for cls in (EpisodicEntry, SemanticFact):
        real = cls.from_dict
        monkeypatch.setattr(cls, "from_dict",
                            lambda record, real=real: built.update([record["id"]]) or real(record))
    store = MemoryStore(tmp_path)
    store.append_entry(make_entry(entry_id="e10"))  # the one-shot `agentmem append` path
    store.append_facts([make_fact(fact_id="f10")])  # a consolidation pass's fact write
    store.promote_many(["e0"])
    assert not built
    assert len(store.load_entries("proj")) == 11 and len(store.load_facts()) == 11
    assert len(store.load_entries("proj")) == 11 and len(store.load_facts()) == 11
    assert built == Counter([f"e{i}" for i in range(10)] + [f"f{i}" for i in range(10)])


def test_a_later_line_of_a_loaded_id_is_skipped_and_every_query_runs(store):
    store.append_entries([
        make_entry(entry_id="e1", content="user: alpha deadline is friday"),
        make_entry(entry_id="e2", content="user: beta lunch", session_id="s2"),
    ])
    store.append_fact(make_fact(fact_id="f1", subject="alpha", value="deadline"))
    other = MemoryStore(store.root)  # its views hold the lines before the copies
    other.load_entries("proj")
    other.load_facts()
    for path in (store.episodic_log_path, store.facts_path):
        first = path.read_text().splitlines()[0]
        with path.open("a") as handle:  # the first line again, its text changed
            handle.write(first.replace("alpha", "gamma") + "\n")
    for instance in (store, other, MemoryStore(store.root)):
        entries, facts = instance.load_entries("proj"), instance.load_facts()
        assert ([e.content for e in entries], entries.skipped) == (
            ["user: alpha deadline is friday", "user: beta lunch"], 1
        )
        assert ([f.subject for f in facts], facts.skipped) == (["alpha"], 1)
        for k1 in (None, 5):
            pipeline = RetrievalPipeline.from_store(
                instance, RetrievalConfig(stage1_k1=k1), project="proj"
            )
            assert pipeline.retrieve("alpha deadline").ranked[0].entry.id == "e1"
    _assert_like_fresh(store, other)


def test_an_entry_whose_line_would_be_skipped_cannot_be_constructed(store):
    with pytest.raises(ValidationError):
        make_entry(entry_id="w1", tokens=True)  # would be written as true, which a parse skips
    store.append_entries([make_entry(entry_id="e1", cognitive_weight=0)])
    loaded = store.load_entries("proj")
    assert ([e.id for e in loaded], loaded.skipped) == (["e1"], 0)
    _assert_like_fresh(store)


def test_timestamps_are_normalised_as_a_parse_normalises_them(store):
    plus_two = timezone(timedelta(hours=2))
    store.append_entries([
        EpisodicEntry("naive", BASE_TS.replace(tzinfo=None), "s1", "a", "proj", "naive time"),
        EpisodicEntry("plus2", BASE_TS.astimezone(plus_two), "s1", "a", "proj", "offset time"),
    ])
    store.append_fact(
        SemanticFact("f1", "alice", "is_a", "engineer", {"s1"}, BASE_TS.astimezone(plus_two))
    )
    assert {e.timestamp.tzinfo for e in store.load_entries("proj")} == {timezone.utc}
    assert store.load_facts().facts[0].created_at.tzinfo is timezone.utc
    _assert_like_fresh(store)


def test_loaded_records_cannot_be_changed(store):
    store.append_entry(make_entry(entry_id="e1"))
    store.append_fact(make_fact(fact_id="f1"))
    with pytest.raises(AttributeError):
        store.load_entries("proj").entries[0].content = "changed"
    with pytest.raises(AttributeError):
        store.load_facts().facts[0].value = "changed"
    _assert_like_fresh(store)


def test_loads_hand_out_the_written_objects(store):
    written = [make_entry(entry_id=f"e{i}") for i in range(3)]
    fact = make_fact(fact_id="f1")
    store.append_entries(written)
    store.append_fact(fact)
    store.apply_cw_delta("e1", 0.5, 1.0)
    first, second = store.load_entries("proj").entries, store.load_entries("proj").entries
    assert [a is b is w for a, b, w in zip(first, second, written)] == [True, False, True]
    assert (second[1].id, second[1].cognitive_weight) == ("e1", 0.5)
    assert store.load_facts().facts[0] is fact
    _assert_like_fresh(store)


def test_a_question_builds_each_record_once_and_each_entry_once_more_when_promoted(
    tmp_path, monkeypatch
):
    built: Counter = Counter()
    for cls in (EpisodicEntry, SemanticFact):
        # Every way to build a record: the checked constructor, and _make,
        # which _replace and the store's ledger copies go through.
        new, make = cls.__new__, cls._make.__func__

        def counting_new(klass, *args, _new=new, **kwargs):
            built[klass] += 1
            return _new(klass, *args, **kwargs)

        def counting_make(klass, iterable, _make=make):
            built[klass] += 1
            return _make(klass, iterable)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(cls, "_make", classmethod(counting_make))
    question = load_dataset(SYNTHETIC20)[0]
    store = MemoryStore(tmp_path / "ws")
    ingest_question(store, question)
    run_consolidation_pass(store, HeuristicExtractor(), BENCH_PROJECT)
    pipeline = RetrievalPipeline.from_store(store, RetrievalConfig(), project=BENCH_PROJECT)
    entries = sum(len(s.turns) for s in question.sessions)
    assert len(pipeline.entries) == entries > 0
    assert all(e.promoted for e in pipeline.entries)
    assert built[EpisodicEntry] <= 2 * entries
    assert built[SemanticFact] == len(pipeline.facts) > 0


# -- two instances, interleaved ----------------------------------------------------

_TEXT = st.one_of(
    st.sampled_from(["plain", 'quote " and \\ slash', "line\u2028sep\x85", "café \U0001f600",
                     "ctl\x01\x1f\x7f", "[system] marker"]),
    st.text(max_size=8),
)
_TZ = st.sampled_from([timezone.utc, timezone(timedelta(hours=-5)), None])
_DAYS = st.integers(min_value=0, max_value=2)


@st.composite
def _entry(draw):
    tz = draw(_TZ)
    ts = BASE_TS - timedelta(days=draw(_DAYS), minutes=draw(st.integers(0, 600)))
    ts = ts.replace(tzinfo=None) if tz is None else ts.astimezone(tz)
    return EpisodicEntry(
        draw(st.sampled_from([f"e{i}" for i in range(6)])), ts,
        draw(st.sampled_from(["s1", "s2", "s3"])), draw(st.sampled_from(["a", "b"])),
        draw(st.sampled_from(["proj", "other"])), draw(_TEXT),
        cognitive_weight=draw(st.sampled_from([0, 0.0])),
    )


@st.composite
def _fact(draw):
    tz = draw(_TZ)
    return SemanticFact(
        draw(st.sampled_from([f"f{i}" for i in range(4)])), draw(_TEXT), "kv", draw(_TEXT),
        frozenset(draw(st.lists(st.sampled_from(["s1", "s2", "s3"]), min_size=1, max_size=2))),
        BASE_TS.replace(tzinfo=None) if tz is None else BASE_TS.astimezone(tz),
    )


_ENTRY_IDS = st.sampled_from([f"e{i}" for i in range(7)])
_FILES = st.sampled_from(["log", "day", "facts", "cw", "promotions"])
_STEP = st.one_of(
    st.tuples(st.just("entries"), st.lists(_entry(), min_size=1, max_size=3)),
    st.tuples(st.just("facts"), st.lists(_fact(), min_size=1, max_size=3)),
    st.tuples(st.just("promote"), st.lists(_ENTRY_IDS, min_size=1, max_size=3)),
    st.tuples(st.just("legacy"), st.lists(_ENTRY_IDS, min_size=1, max_size=3)),
    st.tuples(st.just("day"), st.lists(_entry(), min_size=1, max_size=3)),
    st.tuples(st.just("cw"), st.tuples(_ENTRY_IDS, st.floats(-0.7, 0.7))),
    st.tuples(st.just("corrupt"), _FILES),
    st.tuples(st.just("torn"), st.tuples(_FILES, st.booleans())),
    st.tuples(st.just("truncate"), st.tuples(_FILES, st.floats(0.0, 1.0))),
    st.tuples(st.just("replace"), _FILES),
)


def _file(store: MemoryStore, name: str) -> Path:
    """The file a name stands for; ``day`` is a day file of the older layout."""
    return {"log": store.episodic_log_path, "day": store.episodic_dir / "2025-03-01.jsonl",
            "facts": store.facts_path, "cw": store.cw_ledger_path,
            "promotions": store.promotions_path}[name]


_ENTRY_LINE = ('{"id":"t1","timestamp":"2025-03-01T09:00:00+00:00","session_id":"s9",'
               '"agent_id":"a","project":"proj","content":"tail","tokens":1,"promoted":false,'
               '"cognitive_weight":0.0}')
_WHOLE_LINES = {
    "log": _ENTRY_LINE,
    "day": _ENTRY_LINE.replace('"t1"', '"t2"'),
    "facts": '{"id":"ft","subject":"x","relation":"kv","value":"y","session_ids":["s9"],'
             '"created_at":"2025-03-01T09:00:00+00:00"}',
    "cw": '{"entry_id":"e1","delta":0.5,"reward":1.0,"applied_at":"2025-03-01T09:00:00+00:00"}',
    "promotions": '{"entry_ids":["e2","e3"],"promoted_at":"2025-03-01T09:00:00+00:00"}',
}


def _legacy_day(store: MemoryStore, entries: list[EpisodicEntry]) -> None:
    """Entry lines in a day file of the older layout, which no instance
    writes, appended as such a version appended them."""
    path = _file(store, "day")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as handle:
        handle.write("".join(e.to_line() + "\n" for e in entries).encode())


def _legacy_promotions(store: MemoryStore, entry_ids: list[str]) -> None:
    """Promotion lines of the older one-per-entry shape, one of them with an
    empty ``fact_id``, appended by a writer other than the two instances."""
    store.promotions_path.parent.mkdir(parents=True, exist_ok=True)
    with store.promotions_path.open("a") as handle:
        for i, entry_id in enumerate(entry_ids):
            handle.write(json.dumps({"entry_id": entry_id, "fact_id": "f0" if i else "",
                                     "promoted_at": "2025-03-01T09:00:00+00:00"}) + "\n")


def _foreign(store: MemoryStore, kind: str, arg) -> None:
    """Bytes that no instance wrote: corrupt or torn lines, a cut, a new inode."""
    name = arg[0] if isinstance(arg, tuple) else arg
    path = _file(store, name)
    if kind in ("truncate", "replace") and not path.exists():
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    if kind == "corrupt":
        with path.open("ab") as handle:
            handle.write(b'{not json\n{"id": 7, "entry_id": 7}\n')
    elif kind == "torn":
        whole = arg[1] and name in _WHOLE_LINES
        with path.open("ab") as handle:  # a whole record that lacks only its newline, or less
            handle.write(_WHOLE_LINES[name].encode() if whole else '{"id": "torn", "café'.encode()[:-1])
    elif kind == "truncate":
        os.truncate(path, int(path.stat().st_size * arg[1]))
    else:
        lines = path.read_bytes().split(b"\n")
        temp = path.with_suffix(".tmp")
        temp.write_bytes(b"\n".join(lines[1:] + lines[:1]))  # first line moved to the end
        os.replace(temp, path)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), _STEP), min_size=1, max_size=14))
# The log, holding two proj lines that both instances have read, is replaced
# by a file of the same size: only its new inode tells the views to reparse.
@example(steps=[
    (False, ("entries", [make_entry(entry_id="e0"), make_entry(entry_id="e1", content="b")])),
    (True, ("replace", "log")),
])
def test_two_instances_replay_like_a_fresh_one(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("views")
    instances = (MemoryStore(root), MemoryStore(root))
    for second, (kind, arg) in steps:
        store = instances[second]
        try:
            if kind == "entries":
                store.append_entries(arg)
            elif kind == "facts":
                store.append_facts(arg)
            elif kind == "promote":
                store.promote_many(arg)
            elif kind == "cw":
                store.apply_cw_delta(arg[0], arg[1], 1.0)
            elif kind == "legacy":
                _legacy_promotions(store, arg)
            elif kind == "day":
                _legacy_day(store, arg)
            else:
                _foreign(store, kind, arg)
        except (ValidationError, NotFoundError):
            pass
        _assert_like_fresh(*instances)


# -- processes ----------------------------------------------------------------------

_WRITER = """
import json, sys, time
from datetime import datetime, timezone
from agentmem.store import EpisodicEntry, MemoryStore

root, prefix, count, total = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
store = MemoryStore(root)
ts = datetime(2025, 3, 1, 12, tzinfo=timezone.utc)
for i in range(count):
    store.append_entry(EpisodicEntry(f"{prefix}{i}", ts, "s1", prefix, "proj", f"note {i}"))
    store.apply_cw_delta(f"{prefix}{i}", 0.25, 1.0)
deadline = time.monotonic() + 60
while len(store.load_entries("proj")) < total and time.monotonic() < deadline:
    time.sleep(0.01)
loaded = store.load_entries("proj")
print(json.dumps([[e.id, e.cognitive_weight] for e in loaded] + [loaded.skipped]))
"""


def test_two_processes_append_to_one_workspace(tmp_path):
    count = 60
    env = {**os.environ, "PYTHONPATH": str(Path(agentmem.__file__).parents[1])}
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(tmp_path), prefix, str(count), str(2 * count)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        for prefix in ("a", "b")
    ]
    outputs = [json.loads(w.communicate(timeout=120)[0]) for w in writers]
    assert [w.returncode for w in writers] == [0, 0]
    fresh = MemoryStore(tmp_path).load_entries("proj")
    want = [[e.id, e.cognitive_weight] for e in fresh] + [fresh.skipped]
    assert sorted(e[0] for e in want[:-1]) == sorted(f"{p}{i}" for p in "ab" for i in range(count))
    assert {e[1] for e in want[:-1]} == {0.25}
    assert fresh.skipped == 0
    assert outputs == [want, want]


# -- byte-identical files ---------------------------------------------------------

def test_frozen_clock_writes_are_byte_identical(tmp_path, frozen_clock):
    store = MemoryStore(tmp_path / "ws")
    for question in load_dataset(SYNTHETIC20):
        ingest_question(store, question)
    run_consolidation_pass(store, HeuristicExtractor(), BENCH_PROJECT)
    entries = store.load_entries(BENCH_PROJECT).entries
    for i, entry_id in enumerate(sorted(e.id for e in entries)[:12]):
        store.apply_cw_delta(entry_id, (0, 0.25, -0.5)[i % 3], 1.0)
    digests = {}
    for path in sorted(store.root.rglob("*.jsonl")):
        digests[str(path.relative_to(store.root))] = hashlib.sha256(path.read_bytes()).hexdigest()
        ledger = path.parent == store.memory_dir
        for line in path.read_text(encoding="utf-8").splitlines():
            assert line == json.dumps(json.loads(line), ensure_ascii=ledger, separators=(",", ":"))
    assert digests == SYNTHETIC20_FILES_SHA256
    # The log holds the entries in the order they were appended.
    log = store.episodic_log_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in log] == [
        f"{s.session_id}-{i:03d}"
        for question in load_dataset(SYNTHETIC20) for s in question.sessions
        for i in range(len(s.turns))
    ]
    _assert_like_fresh(store, projects=(BENCH_PROJECT,))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.lists(_entry(), min_size=1, max_size=4, unique_by=lambda e: e.id),
    facts=st.lists(_fact(), min_size=1, max_size=3, unique_by=lambda f: f.id),
    promoted=st.lists(st.booleans(), min_size=4, max_size=4),
    deltas=st.lists(st.one_of(st.just(0), st.floats(-1.0, 1.0)), min_size=1, max_size=3),
)
def test_every_written_line_equals_json_dumps(tmp_path_factory, frozen_clock, entries, facts,
                                              promoted, deltas):
    store = MemoryStore(tmp_path_factory.mktemp("lines"))
    entries = [EpisodicEntry(*e[:7], flag, e.cognitive_weight) for e, flag in zip(entries, promoted)]
    store.append_entries(entries)
    store.append_facts(facts)
    store.promote_many([e.id for e in entries])
    for delta in deltas:
        store.apply_cw_delta(entries[0].id, delta, 1)
    stamp = frozen_clock.isoformat()
    want: dict[Path, list[str]] = {}
    want[store.episodic_log_path] = [json.dumps(
        {"id": e.id, "timestamp": e.timestamp.isoformat(), "session_id": e.session_id,
         "agent_id": e.agent_id, "project": e.project, "content": e.content,
         "tokens": e.tokens, "promoted": e.promoted, "cognitive_weight": e.cognitive_weight},
        ensure_ascii=False, separators=(",", ":")) for e in entries]
    want[store.facts_path] = [json.dumps(
        {"id": f.id, "subject": f.subject, "relation": f.relation, "value": f.value,
         "session_ids": sorted(f.session_ids), "created_at": f.created_at.isoformat()},
        ensure_ascii=False, separators=(",", ":")) for f in facts]
    want[store.promotions_path] = [json.dumps(
        {"entry_ids": [e.id for e in entries], "promoted_at": stamp}, separators=(",", ":"))]
    want[store.cw_ledger_path] = [json.dumps(
        {"deltas": [[entries[0].id, d]], "reward": 1, "applied_at": stamp},
        separators=(",", ":")) for d in deltas]
    assert {p: p.read_text(encoding="utf-8").split("\n")[:-1] for p in want} == want
