from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agentmem.attribution import (
    AttributionConfig,
    apply_attribution,
    compute_attribution,
    jaccard_attribution,
)
from agentmem.errors import NotFoundError, ValidationError
from agentmem.store import MemoryStore, _cw_deltas
from conftest import make_entry

CFG = AttributionConfig()


def test_jaccard_identical_texts():
    assert jaccard_attribution("paris is lovely", "paris is lovely") == 1.0


def test_jaccard_disjoint():
    assert jaccard_attribution("alpha beta", "gamma delta") == 0.0


def test_jaccard_partial_overlap():
    assert jaccard_attribution("paris", "paris france trip") == pytest.approx(1 / 3)


def test_jaccard_both_empty():
    assert jaccard_attribution("", "") == 0.0


def test_jaccard_deduplicates_tokens():
    assert jaccard_attribution("paris paris paris", "paris") == 1.0


def test_single_entry_gets_full_credit():
    outcome = compute_attribution("paris trip", [("e1", "the paris notes")], 1.0, CFG)
    assert outcome.normalised == (1.0,)
    assert outcome.deltas[0] == pytest.approx(0.1)


def test_proportional_negative_credit():
    # Raw scores engineered to 0.3 and 0.1 via token-set arithmetic:
    # answer {a,b,c,d,e,f,g,h,i,j} vs {a,b,c} -> 3/10; vs {a} -> 1/10.
    answer = "a b c d e f g h i j"
    outcome = compute_attribution(answer, [("e1", "a b c"), ("e2", "a")], -0.5, CFG)
    assert outcome.raw == pytest.approx((0.3, 0.1))
    assert outcome.deltas == pytest.approx((-0.0375, -0.0125))


def test_zero_reward_changes_nothing(store):
    store.append_entry(make_entry(entry_id="e1", content="paris notes"))
    updates = apply_attribution(
        store, store.load_entries("proj").entries, "paris", 0.0, CFG
    )
    assert updates == [("e1", 0.0)]


def test_reward_must_be_known():
    with pytest.raises(ValidationError):
        compute_attribution("x", [("e1", "x")], 0.7, CFG)


def test_empty_entry_list_is_noop(store):
    assert apply_attribution(store, [], "answer", 1.0, CFG) == []


def test_no_overlap_distributes_uniformly():
    outcome = compute_attribution("zzz", [("e1", "aaa"), ("e2", "bbb")], 1.0, CFG)
    assert outcome.normalised == pytest.approx((0.5, 0.5))
    assert sum(outcome.deltas) == pytest.approx(0.1)


def test_applies_through_store_and_clips(store):
    store.append_entry(make_entry(entry_id="e1", content="paris"))
    for _ in range(15):
        apply_attribution(store, store.load_entries("proj").entries, "paris", 1.0, CFG)
    assert store.load_entries("proj").entries[0].cognitive_weight == 1.0


def test_an_unknown_entry_writes_no_delta(store):
    store.append_entries([make_entry(entry_id="e0", content="paris notes"),
                          make_entry(entry_id="e1", content="paris trip")])
    entries = [*store.load_entries("proj").entries, make_entry(entry_id="e2", content="paris")]
    with pytest.raises(NotFoundError):
        apply_attribution(store, entries, "paris", 1.0, CFG)
    assert not store.cw_ledger_path.exists()
    assert [e.cognitive_weight for e in MemoryStore(store.root).load_entries("proj")] == [0.0, 0.0]


def test_one_append_folds_repeats_and_clips_in_order(store):
    store.append_entries([make_entry(entry_id="e0"), make_entry(entry_id="e1")])
    pairs = [("e0", 0.8), ("e0", 0.5), ("e1", -0.7), ("e1", -0.6), ("e0", -0.25)]
    assert store.apply_cw_deltas(pairs, 1.0) == [0.8, 1.0, -0.7, -1.0, 0.75]
    assert len(store.cw_ledger_path.read_text().splitlines()) == 1
    with pytest.raises(ValidationError):
        store.apply_cw_deltas([("e0", 0.1), ("e1", True)], 1.0)  # a bool is not a delta
    assert store.apply_cw_deltas([], 1.0) == []
    assert len(store.cw_ledger_path.read_text().splitlines()) == 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(
    st.tuples(st.sampled_from(["e0", "e1", "e2"]),
              st.one_of(st.floats(-1.5, 1.5), st.integers(-2, 2))),
    max_size=8,
))
def test_one_batch_equals_one_call_per_pair(tmp_path_factory, frozen_clock, pairs):
    batch, each = (MemoryStore(tmp_path_factory.mktemp("cw")) for _ in range(2))
    for store in (batch, each):
        store.append_entries([make_entry(entry_id=f"e{i}") for i in range(3)])
        store.apply_cw_delta("e0", 0.9, 1.0)  # a weight the pairs start from
    assert batch.apply_cw_deltas(pairs, -0.5) == [each.apply_cw_delta(i, d, -0.5) for i, d in pairs]
    # One line for the batch, one per pair for the single calls: the same
    # pairs in the same order.
    lines = [s.cw_ledger_path.read_text().splitlines() for s in (batch, each)]
    assert lines[0][0] == lines[1][0]
    assert (len(lines[0]), len(lines[1])) == (1 + bool(pairs), 1 + len(pairs))
    replayed = [[tuple(p) for line in ls[1:] for p in _cw_deltas(json.loads(line))] for ls in lines]
    assert replayed[0] == replayed[1] == pairs
    weights = [[(e.id, e.cognitive_weight) for e in s.load_entries("proj")]
               for s in (batch, each, MemoryStore(batch.root))]
    assert weights[0] == weights[1] == weights[2]


TEXTS = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=6).map(" ".join),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(texts=TEXTS, answer=st.lists(st.sampled_from("abcdefgh"), max_size=6).map(" ".join),
       reward=st.sampled_from([-0.5, 0.0, 1.0]))
def test_conservation_and_sign_law(texts, answer, reward):
    entries = [(f"e{i}", text) for i, text in enumerate(texts)]
    outcome = compute_attribution(answer, entries, reward, CFG)
    assert sum(outcome.deltas) == pytest.approx(CFG.alpha * reward, abs=1e-9)
    if reward > 0:
        assert all(d >= 0 for d in outcome.deltas)
    if reward < 0:
        assert all(d <= 0 for d in outcome.deltas)
