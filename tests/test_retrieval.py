from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmem import consolidation, lexical, retrieval
from agentmem.errors import ValidationError
from agentmem.lexical import tokenize
from agentmem.retrieval import (
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    oracle_context,
    pack_context,
    parse_stage1_k1,
    rrf_fuse,
    stage1_scope,
    stage2_retrieve,
)
from agentmem.scoring import Variant, WeightVector
from conftest import make_entry, make_fact


# -- stage 1 -----------------------------------------------------------------

@pytest.mark.parametrize("value, expected", [
    (None, None), ("inf", None), ("NONE", None), ("unbounded", None), (" Inf ", None),
    (float("inf"), None), (5, 5), ("5", 5), ("0", 0),
])
def test_parse_stage1_k1_accepts(value, expected):
    assert parse_stage1_k1(value) == expected


@pytest.mark.parametrize("value", ["abc", "", "2.5", "-1", 2.5, True, [3]])
def test_parse_stage1_k1_rejects(value):
    with pytest.raises(ValidationError):
        parse_stage1_k1(value)


def test_stage1_k1_one_returns_single_session():
    facts = [
        make_fact(fact_id="f1", subject="quarterly report", value="due friday", session_ids=("s1",)),
        make_fact(fact_id="f2", subject="lunch", value="soup", session_ids=("s2",)),
    ]
    scoped = stage1_scope(tokenize("quarterly report"), facts, k1=1)
    assert scoped == ["s1"]


def test_stage1_fewer_matching_sessions_than_k1():
    facts = [
        make_fact(fact_id="f1", subject="report", value="alpha", session_ids=("s1",)),
        make_fact(fact_id="f2", subject="report", value="beta", session_ids=("s2",)),
        make_fact(fact_id="f3", subject="gardening", value="roses", session_ids=("s3",)),
    ]
    scoped = stage1_scope(tokenize("report"), facts, k1=3)
    assert set(scoped) == {"s1", "s2"}


def test_stage1_unbounded_collects_all_positive_sessions():
    facts = [
        make_fact(fact_id=f"f{i}", subject="report", value=f"v{i}", session_ids=(f"s{i}",))
        for i in range(6)
    ]
    scoped = stage1_scope(tokenize("report"), facts, k1=None)
    assert len(scoped) == 6


def test_stage1_multi_session_fact_contributes_all_sessions():
    facts = [make_fact(fact_id="f1", subject="report", value="x", session_ids=("s2", "s1"))]
    assert stage1_scope(tokenize("report"), facts, k1=5) == ["s1", "s2"]


def test_stage1_empty_tier():
    assert stage1_scope(tokenize("anything"), [], k1=5) == []


def test_stage1_counts_only_the_given_sessions_towards_k1():
    facts = [
        make_fact(fact_id="f1", subject="dog parks", value="riverside", session_ids=("s2",)),
        make_fact(fact_id="f2", subject="dog food", value="acme", session_ids=("s1", "s3")),
    ]
    tokens = tokenize("dog parks")
    assert stage1_scope(tokens, facts, k1=1) == ["s2"]
    assert stage1_scope(tokens, facts, k1=1, sessions={"s1", "s3"}) == ["s1"]
    assert stage1_scope(tokens, facts, k1=None, sessions={"s3", "s2"}) == ["s2", "s3"]
    assert stage1_scope(tokens, facts, k1=5, sessions=set()) == []


# -- stage 2 -----------------------------------------------------------------

def test_stage2_orders_by_composite_and_cuts_at_k():
    entries = [
        make_entry(entry_id="weak", content="user: report arrived", days_ago=0),
        make_entry(entry_id="strong", content="user: quarterly report deadline friday",
                   days_ago=0),
        make_entry(entry_id="off", content="user: gardening tips", days_ago=0),
    ]
    ranked = stage2_retrieve(
        tokenize("quarterly report deadline"), entries, RetrievalConfig(stage2_k=2)
    )
    assert [r.entry.id for r in ranked] == ["strong", "weak"]
    assert ranked[0].breakdown.composite > ranked[1].breakdown.composite


def test_stage2_equal_scores_tie_break_newer_then_id():
    entries = [
        make_entry(entry_id="b", content="same words here", days_ago=1),
        make_entry(entry_id="a", content="same words here", days_ago=1),
        make_entry(entry_id="c", content="same words here", days_ago=0),
    ]
    ranked = stage2_retrieve(tokenize("same words"), entries, RetrievalConfig())
    assert [r.entry.id for r in ranked] == ["c", "a", "b"]


def test_stage2_rejects_similarities_of_another_length():
    entries = [make_entry(entry_id="a", content="blue"), make_entry(entry_id="b", content="red")]
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("blue"), entries, RetrievalConfig(mode="dense"), similarities=[1.0])


@pytest.mark.parametrize("k", [-1, 2.5, True, False, "2"])
def test_stage2_rejects_a_k_that_is_not_a_count(k):
    entries = [make_entry(entry_id=f"e{i}", content="same words") for i in range(5)]
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("same words"), entries, RetrievalConfig(), k=k)
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("same words"), [], RetrievalConfig(), k=k)


def test_stage2_k_counts_entries_and_zero_takes_the_config():
    entries = [make_entry(entry_id=f"e{i}", content="same words") for i in range(5)]
    cfg = RetrievalConfig(stage2_k=3)
    assert [len(stage2_retrieve(["same"], entries, cfg, k=k)) for k in (0, 2, None)] == [3, 2, 5]


@pytest.mark.parametrize("variant", list(Variant))
def test_stage2_ranks_a_raw_bm25_array_as_the_same_values_in_a_list(variant):
    """The whole-snapshot pool hands stage 2 its BM25 as a float64 array;
    every variant, pool-relative ones too, ranks it as the same list."""
    entries = [
        make_entry(entry_id="a", content="alpha"),
        make_entry(entry_id="b", content="beta", days_ago=3),
        make_entry(entry_id="c", content="gamma", days_ago=1),
    ]
    cfg = RetrievalConfig(variant=variant, stage2_k=3)
    want = stage2_retrieve(["alpha"], entries, cfg, raw_bm25=[1.5, 0.0, 0.25])
    got = stage2_retrieve(["alpha"], entries, cfg, raw_bm25=np.array([1.5, 0.0, 0.25]))
    assert [(r.entry.id, r.breakdown) for r in got] == [(r.entry.id, r.breakdown) for r in want]
    assert [r.entry.id for r in got] == ["a", "c", "b"]


@pytest.mark.parametrize("variant", [Variant.ZSCORE, Variant.ZSCORE_EQUAL_FUSION])
def test_zscore_of_a_constant_pool_is_zero(variant):
    entries = [make_entry(entry_id=f"e{i}", content="report due friday") for i in range(7)]
    pipeline = RetrievalPipeline(
        RetrievalConfig(stage1_k1=None, variant=variant), entries=entries, facts=[]
    )
    weights = pipeline.cfg.weights
    for ranked in pipeline.retrieve("report friday").ranked:
        assert ranked.breakdown.phi_bm25 == 0.0
        # No bypass: decay 1 at age 0, phi_cw 0.5, no tier bonus.
        assert ranked.breakdown.composite == weights.w_decay + weights.w_cw * 0.5


# -- dense / rrf ---------------------------------------------------------------

def test_hash_embedder_unit_norm():
    embedder = HashedBowEmbedder()
    for vec in embedder.embed(["hello world", "", "k1=1.5"]):
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)


class StubEmbedder:
    """Looks each text's vector up in a table and counts embed calls."""

    dimension = 8

    def __init__(self, table):
        self.table = table
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [self.table[t] for t in texts]


def _unscoped_pipeline(entries, embedder, mode="dense", **cfg):
    """Ranks the whole pool and returns it all."""
    return RetrievalPipeline(
        RetrievalConfig(mode=mode, stage1_k1=None, stage2_k=len(entries), **cfg),
        entries=entries,
        facts=[],
        embedder=embedder,
    )


def test_dense_mode_identity_first():
    entries = [
        make_entry(entry_id="e1", content="blue bicycle"),
        make_entry(entry_id="e2", content="quantum chromodynamics"),
    ]
    ranked = _unscoped_pipeline(entries, HashedBowEmbedder()).retrieve("blue bicycle").ranked
    assert ranked[0].entry.id == "e1"
    assert ranked[0].score == pytest.approx(1.0, abs=1e-6)
    assert ranked[0].breakdown.phi_sem == ranked[0].score


def test_dense_mode_matches_brute_force_cosine():
    rng = np.random.default_rng(3)
    entries = [make_entry(entry_id=f"e{i}", content=f"text {i}") for i in range(10)]
    table = {}
    for text in ["q"] + [e.content for e in entries]:
        vec = rng.normal(size=8)
        table[text] = (vec / np.linalg.norm(vec)).tolist()
    embedder = StubEmbedder(table)
    ranked = _unscoped_pipeline(entries, embedder).retrieve("q").ranked
    expected = sorted(
        entries,
        key=lambda e: (-float(np.dot(table["q"], table[e.content])), -e.timestamp.timestamp(), e.id),
    )
    assert [r.entry.id for r in ranked] == [e.id for e in expected]
    assert embedder.calls == 1


def _reference_rankings(entries, query, embedder, cfg):
    """Dense and hybrid rankings recomputed from their definitions: cosine by
    per-vector dot product, ties to the newer entry then the smaller id, and
    reciprocal-rank fusion with the bm25-mode composite order."""
    vectors = embedder.embed([query] + [e.content for e in entries])
    sims = {e.id: float(np.dot(vectors[0], v)) for e, v in zip(entries, vectors[1:])}
    dense = sorted(entries, key=lambda e: (-sims[e.id], -e.timestamp.timestamp(), e.id))
    composite = stage2_retrieve(tokenize(query), entries, replace(cfg, mode="bm25"), k=None)
    fused: dict[str, float] = {}
    for ranking in ([r.entry.id for r in composite], [e.id for e in dense]):
        for position, entry_id in enumerate(ranking, start=1):
            fused[entry_id] = fused.get(entry_id, 0.0) + 1.0 / (cfg.rrf_k + position)
    hybrid = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return [(e.id, sims[e.id]) for e in dense], hybrid


POOL_WORDS = ["report", "deadline", "friday", "soup", "lunch", "bike", "blue"]


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            st.lists(st.sampled_from(POOL_WORDS), max_size=5).map(" ".join),
            st.sampled_from(["s1", "s2", "s3"]),
            st.integers(0, 3),
            st.sampled_from([-0.5, 0.0, 0.5]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    query=st.lists(st.sampled_from(POOL_WORDS), min_size=1, max_size=3).map(" ".join),
    variant=st.sampled_from(list(Variant)),
)
def test_dense_and_hybrid_match_reference_on_random_pools(pool, query, variant):
    entries = [
        make_entry(entry_id=f"e{i}", content=content, session_id=sid, days_ago=days,
                   cognitive_weight=cw, promoted=promoted)
        for i, (content, sid, days, cw, promoted) in enumerate(pool)
    ]
    dense_pipeline = _unscoped_pipeline(entries, HashedBowEmbedder(), variant=variant)
    dense, hybrid = _reference_rankings(entries, query, HashedBowEmbedder(), dense_pipeline.cfg)
    ranked = dense_pipeline.retrieve(query).ranked
    assert [(r.entry.id, r.score) for r in ranked] == dense
    assert [(r.entry.id, r.breakdown.phi_sem) for r in ranked] == dense
    hybrid_pipeline = _unscoped_pipeline(entries, HashedBowEmbedder(), "hybrid_rrf", variant=variant)
    assert [(r.entry.id, r.score) for r in hybrid_pipeline.retrieve(query).ranked] == hybrid


def test_rrf_top_of_both_lists():
    fused = rrf_fuse(["a", "b"], ["a", "c"], rrf_k=60)
    scores = dict(fused)
    assert scores["a"] == pytest.approx(2 / 61, abs=1e-6)
    assert fused[0][0] == "a"


def test_rrf_single_list_membership():
    scores = dict(rrf_fuse(["a"], [], rrf_k=60))
    assert scores["a"] == pytest.approx(1 / 61, abs=1e-6)


def test_rrf_identical_rankings_preserved():
    items = [f"i{k}" for k in range(8)]
    fused = rrf_fuse(items, items, rrf_k=60)
    assert [item for item, _ in fused] == items


def test_rrf_matches_brute_force_on_random_rankings():
    rng = random.Random(11)
    for _ in range(50):
        universe = [f"x{j}" for j in range(rng.randint(1, 50))]
        a = rng.sample(universe, k=rng.randint(1, len(universe)))
        b = rng.sample(universe, k=rng.randint(1, len(universe)))
        fused = rrf_fuse(a, b, rrf_k=60)
        brute = {}
        for item in set(a) | set(b):
            score = 0.0
            if item in a:
                score += 1.0 / (60 + a.index(item) + 1)
            if item in b:
                score += 1.0 / (60 + b.index(item) + 1)
            brute[item] = score
        expected = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))
        assert fused == pytest.approx(expected)


# -- packing ---------------------------------------------------------------------

def _entry_of_tokens(entry_id: str, n: int):
    return make_entry(entry_id=entry_id, content=" ".join(["tok"] * n))


def test_pack_fills_budget_in_order():
    entries = [_entry_of_tokens(f"e{i}", 100) for i in range(5)]
    context, used = pack_context(entries, 300)
    assert [e.id for e in used] == ["e0", "e1", "e2"]
    assert context.count("\n") == 2


def test_pack_skips_oversized_entry():
    entries = [_entry_of_tokens("big", 700), _entry_of_tokens("small", 200)]
    _, used = pack_context(entries, 300)
    assert [e.id for e in used] == ["small"]


def test_pack_small_budget_subset_of_large():
    entries = [_entry_of_tokens(f"e{i}", 100) for i in range(6)]
    _, small = pack_context(entries, 150)
    _, large = pack_context(entries, 600)
    assert {e.id for e in small} <= {e.id for e in large}


# -- oracle context ----------------------------------------------------------------

def test_oracle_context_single_session():
    context = oracle_context([("s1", "user: the answer is 42")], [])
    assert context == "user: the answer is 42"


def test_oracle_context_limited_to_three_sessions():
    sessions = [(f"s{i}", f"text {i}") for i in range(5)]
    context = oracle_context(sessions, [])
    assert "text 2" in context and "text 3" not in context


def test_oracle_context_facts_only():
    context = oracle_context([], [make_fact(subject="sky", relation="kv", value="blue")])
    assert context == "sky kv blue"


def test_oracle_context_requires_gold():
    with pytest.raises(ValidationError):
        oracle_context([], [])


# -- pipeline -----------------------------------------------------------------------

def _pipeline_store(store):
    store.append_entries(
        [
            make_entry(entry_id="s1-0", session_id="s1",
                       content="user: the quarterly report deadline is friday", days_ago=1),
            make_entry(entry_id="s1-1", session_id="s1",
                       content="assistant: noted, friday it is", days_ago=1),
            make_entry(entry_id="s2-0", session_id="s2",
                       content="user: lunch was minestrone soup", days_ago=2),
            make_entry(entry_id="s2-sys", session_id="s2",
                       content="[system] compaction marker quarterly report", days_ago=0),
        ]
    )
    store.append_fact(
        make_fact(fact_id="f1", subject="quarterly report", relation="kv",
                  value="deadline friday", session_ids=("s1",))
    )
    return store


def test_pipeline_scopes_and_ranks(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store), RetrievalConfig(stage2_k=4), project="proj"
    )
    result = pipeline.retrieve("quarterly report deadline")
    assert result.scoped_session_ids == ["s1"]
    assert result.mode == "bm25"
    assert all(r.entry.session_id == "s1" for r in result.ranked)
    assert result.ranked[0].entry.id == "s1-0"
    assert result.packed_token_count <= 300


def test_scoped_query_indexes_only_its_sessions_and_only_once(monkeypatch):
    entries = [
        make_entry(entry_id=f"{s}-{i}", session_id=s, content=f"{topic} note {i}")
        for s, topic in (("s1", "quarterly report"), ("s2", "weather"), ("s3", "lunch soup"))
        for i in range(2)
    ]
    facts = [
        make_fact(fact_id="f1", subject="quarterly report", value="friday", session_ids=("s1",)),
        make_fact(fact_id="f3", subject="lunch", value="soup", session_ids=("s3",)),
    ]
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=5), entries=entries, facts=facts)
    built = []
    real = lexical.build_postings

    def recording(docs, terms, doc_len):
        docs = list(docs)
        built.append(sorted({pipeline.entries[i].session_id for i, _ in docs}))
        return real(docs, terms, doc_len)

    monkeypatch.setattr(lexical, "build_postings", recording)
    first = pipeline.retrieve("quarterly report")
    assert first.scoped_session_ids == ["s1"]
    assert built == [["s1"]]
    again = pipeline.retrieve("quarterly report")
    assert built == [["s1"]]
    assert [(r.entry.id, r.breakdown) for r in again.ranked] == [
        (r.entry.id, r.breakdown) for r in first.ranked
    ]
    assert pipeline.retrieve("lunch soup").scoped_session_ids == ["s3"]
    assert built == [["s1"], ["s3"]]


def test_a_session_whose_signals_raise_is_not_stored(monkeypatch):
    """Its postings are not built and nothing is published, so the next
    pool that holds it builds it again."""
    query = "report friday"
    expected = _outputs(_fact_pipeline().retrieve(query))
    scoped = set(expected[0])
    assert "s0" in scoped
    pipeline = _fact_pipeline()
    built = _record_builds(monkeypatch)
    real = retrieval._entry_signals

    def failing(entry, *args):
        if entry.session_id == "s0":
            raise ValidationError("cognitive weight out of range")
        return real(entry, *args)

    monkeypatch.setattr(retrieval, "_entry_signals", failing)
    with pytest.raises(ValidationError):
        pipeline.retrieve(query)
    assert "s0" not in pipeline._session_postings
    assert all(pipeline.entries[doc].session_id != "s0" for docs in built for doc in docs)
    assert not any(pipeline._doc_len[i] for i in pipeline._session_positions["s0"])
    monkeypatch.setattr(retrieval, "_entry_signals", real)
    assert _outputs(pipeline.retrieve(query)) == expected
    assert set(pipeline._session_postings) == scoped


def test_an_agent_view_scopes_only_the_sessions_it_holds(store):
    """Facts are shared by the project, but alice's view holds only her
    session: bob's better match must not use up k1, and a query whose facts
    are all bob's falls back to her whole snapshot."""
    store.append_entries([
        make_entry(entry_id="a1", session_id="s1", agent_id="alice",
                   content="My dog food brand is Acme."),
        make_entry(entry_id="b1", session_id="s2", agent_id="bob",
                   content="Favourite dog parks is Riverside."),
    ])
    consolidation.run_consolidation_pass(store, consolidation.HeuristicExtractor(), "proj")
    pipeline = RetrievalPipeline.from_store(
        store, RetrievalConfig(stage1_k1=1), project="proj", agent_view="alice"
    )
    result = pipeline.retrieve("dog parks")
    assert (result.scoped_session_ids, result.fallback_unscoped) == (["s1"], False)
    assert [r.entry.id for r in result.ranked] == ["a1"]
    result = pipeline.retrieve("riverside")
    assert (result.scoped_session_ids, result.fallback_unscoped) == ([], True)
    assert [r.entry.id for r in result.ranked] == ["a1"]


def _fact_pipeline(k1=5):
    entries = [
        make_entry(entry_id=f"e{i}", session_id=f"s{i % 7}", content=f"{word} note {i}")
        for i, word in enumerate(["report", "lunch", "deadline", "bike", "soup"] * 6)
    ]
    subjects = [f"{a} {b}" for a in ("report", "lunch", "deadline", "bike")
                for b in ("friday", "soup", "blue")]
    facts = [
        make_fact(fact_id=f"f{i}", subject=subject, value=f"v{i % 5}",
                  session_ids=(f"s{i % 7}", f"s{(i * 3) % 7}"))
        for i, subject in enumerate(subjects)
    ]
    return RetrievalPipeline(RetrievalConfig(stage1_k1=k1), entries=entries, facts=facts)


def _record_builds(monkeypatch):
    """Every ``lexical.build_postings`` call from now on, as its list of
    positions."""
    built = []
    real = lexical.build_postings

    def recording(docs, *args):
        docs = list(docs)
        built.append([doc for doc, _ in docs])
        return real(docs, *args)

    monkeypatch.setattr(lexical, "build_postings", recording)
    return built


def test_unscoped_pipeline_indexes_the_snapshot_once_on_its_first_query(monkeypatch):
    """The first query builds every session's postings once, in snapshot
    session order, and no later query builds any."""
    source = _fact_pipeline()
    built = _record_builds(monkeypatch)
    pipeline = RetrievalPipeline(
        RetrievalConfig(stage1_k1=None), entries=source.entries, facts=source.facts
    )
    assert built == []
    first = pipeline.retrieve("report friday")
    assert built == list(pipeline._session_positions.values())
    again = pipeline.retrieve("report friday")
    pipeline.retrieve("lunch soup nowhere")
    assert len(built) == len(pipeline._session_positions) == 7
    assert pipeline._snapshot_bm25.groups == list(pipeline._session_postings.values())
    assert _outputs(again) == _outputs(first)


def test_a_scoped_pipeline_indexes_the_snapshot_only_when_a_query_falls_back(monkeypatch):
    """A fallback builds only the sessions that no scoped pool has built,
    and its whole-snapshot column reuses the ones already built."""
    pipeline = _fact_pipeline()
    built = _record_builds(monkeypatch)
    assert pipeline.retrieve("report friday").scoped_session_ids
    assert len(built) == len(pipeline._session_postings) and pipeline._snapshot_bm25 is None
    scoped = dict(pipeline._session_postings)
    sessions = len(built)
    assert 0 < sessions < len(pipeline._session_positions)
    for _ in range(2):
        assert pipeline.retrieve("nowhere").fallback_unscoped
    assert built[sessions:] == [
        positions for session, positions in pipeline._session_positions.items()
        if session not in scoped
    ]
    assert sorted(chain.from_iterable(built)) == list(range(len(pipeline.entries)))
    assert pipeline._snapshot_bm25.groups == [
        pipeline._session_postings[session] for session in pipeline._session_positions
    ]
    assert all(pipeline._session_postings[session] is group for session, group in scoped.items())


def test_whole_snapshot_column_is_in_snapshot_position_order():
    """The ids e0..e13 sort as strings (e0, e1, e10, ..., e13, e2, ...) in
    another order than their positions, and the sessions interleave; the
    whole snapshot's column, and the raw BM25 each ranked entry reports,
    follow the positions and equal ``bm25_score`` over one index keyed by
    position."""
    words = ["report", "lunch", "deadline", "bike", "soup", "friday", "blue"]
    entries = [
        make_entry(entry_id=f"e{i}", session_id=f"s{i % 3}",
                   content=" ".join(words[j % 7] for j in range(i, i + 1 + i % 4)))
        for i in range(14)
    ]
    pipeline = RetrievalPipeline(
        RetrievalConfig(stage1_k1=None, stage2_k=len(entries)), entries=entries, facts=[]
    )
    assert sorted(pipeline._ids) != pipeline._ids
    by_position = lexical.build_index([(i, e.content) for i, e in enumerate(pipeline.entries)])
    bm25 = pipeline._whole_snapshot_bm25()
    for query in (["report"], ["lunch", "blue", "report"], ["friday", "bike"], ["nowhere"]):
        expected = [lexical.bm25_score(by_position, query, i) for i in range(len(entries))]
        assert bm25.scores(query).tolist() == expected
        ranked = pipeline.retrieve(" ".join(query)).ranked
        assert {r.entry.id: r.breakdown.phi_bm25_raw for r in ranked} == {
            e.id: expected[i] for i, e in enumerate(pipeline.entries)
        }


def test_length_norms_are_built_once_per_snapshot_with_its_index(monkeypatch):
    """Counts the ``Bm25Columns`` a snapshot builds, each with its length
    norms: one over the facts when the pipeline scopes, and one over the
    entries the first time a query needs the whole snapshot."""
    made = []
    real = lexical.Bm25Columns

    def recording(groups, doc_len):
        made.append(real(groups, doc_len))
        return made[-1]

    monkeypatch.setattr(lexical, "Bm25Columns", recording)
    scoped = _fact_pipeline()
    for query in ("report friday", "lunch soup blue", "deadline v1 note"):
        assert scoped.retrieve(query).scoped_session_ids
    assert made == [scoped._fact_index.bm25]
    unscoped = _fact_pipeline(None)
    for query in ("report friday", "nowhere", "report friday"):
        unscoped.retrieve(query)
    assert made[1:] == [unscoped._snapshot_bm25]
    for _ in range(2):
        assert scoped.retrieve("nowhere").fallback_unscoped
    assert made[2:] == [scoped._snapshot_bm25]


def test_stage1_builds_postings_arrays_only_for_query_terms_and_once():
    pipeline = _fact_pipeline()
    columns = pipeline._fact_index.bm25
    assert columns._terms == {}  # nothing built with the snapshot
    pipeline.retrieve("report friday nowhere report")
    assert set(columns._terms) == {"report", "friday", "nowhere"}
    assert columns._terms["nowhere"][0].size == 0  # "nowhere" indexes no fact
    built = dict(columns._terms)
    pipeline.retrieve("friday report nowhere")
    assert columns._terms.keys() == built.keys()
    assert all(columns._terms[t] is arrays for t, arrays in built.items())
    pipeline.retrieve("lunch")
    assert set(columns._terms) == {"report", "friday", "nowhere", "lunch"}
    # The whole snapshot keeps its contributions the same way.
    unscoped = _fact_pipeline(None)
    first = unscoped.retrieve("report note nowhere report")
    bm25 = unscoped._snapshot_bm25
    assert set(bm25._terms) == {"report", "note", "nowhere"}
    assert bm25._terms["nowhere"][0].size == 0  # "nowhere" is in no entry
    built = dict(bm25._terms)
    again = unscoped.retrieve("report note nowhere report")
    assert bm25._terms.keys() == built.keys()
    assert all(bm25._terms[t] is contributions for t, contributions in built.items())
    assert _outputs(again) == _outputs(first)


def _outputs(result):
    return (
        result.scoped_session_ids,
        [(r.entry.id, r.breakdown) for r in result.ranked],
        result.packed_context,
    )


def _check_threads_on_cold_caches(k1, cfg=None):
    """Threads querying fresh pipelines built with ``k1`` under ``cfg`` get
    the serial results of a pipeline built with ``cfg``."""
    queries = [f"{a} {b}" for a in ("report", "lunch", "deadline", "bike", "soup")
               for b in ("friday", "blue", "note", "v1")] * 3
    queries += ["nowhere", "blue nowhere"] * 5  # no fact matches: fallbacks
    pipeline = _fact_pipeline(k1 if cfg is None else cfg.stage1_k1)
    serial = [_outputs(pipeline.retrieve(q)) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            pipeline = _fact_pipeline(k1)  # cold fact-term, session and snapshot caches
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(pipeline.retrieve, q, cfg) for q in queries]
                results = [_outputs(f.result(timeout=60)) for f in futures]
            assert results == serial
    finally:
        sys.setswitchinterval(interval)


def test_threads_on_cold_caches_match_serial_results():
    _check_threads_on_cold_caches(5)


def test_threads_on_cold_unscoped_pipelines_match_serial_results():
    _check_threads_on_cold_caches(None)


def test_threads_scoping_cold_unscoped_pipelines_match_serial_results():
    # The pipelines hold no fact index: the first scoped queries build it.
    _check_threads_on_cold_caches(None, RetrievalConfig(stage1_k1=5))


def test_threads_building_sessions_at_once_match_a_sequential_pipeline():
    """Four threads run overlapping queries on one fresh scoped pipeline, so
    they build the same sessions at once. Every result, every session's
    postings and the length column equal a sequential pipeline's, and each
    term of every session is the snapshot's one interned string."""
    rng = random.Random(11)
    words = [f"w{i}" for i in range(40)]
    entries = [
        make_entry(entry_id=f"e{i}", session_id=f"s{i % 24}",
                   content=" ".join(rng.choices(words, k=rng.randint(0, 12))))
        for i in range(240)
    ]
    facts = [
        make_fact(fact_id=f"f{i}", subject=f"{words[i]} {words[i + 1]}", value="v",
                  session_ids=(f"s{i % 24}", f"s{(i * 5) % 24}"))
        for i in range(39)
    ]
    queries = [f"{words[i]} {words[(i * 7) % 40]} {words[(i * 3) % 40]}" for i in range(40)]
    cfg = RetrievalConfig(stage1_k1=5)
    sequential = RetrievalPipeline(cfg, entries=entries, facts=facts)
    serial = [_outputs(sequential.retrieve(q)) for q in queries]
    offsets = (0, 3, 6, 9)  # each thread runs every query, from its own start
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            pipeline = RetrievalPipeline(cfg, entries=entries, facts=facts)
            start = threading.Barrier(len(offsets))

            def run(offset, pipeline=pipeline, start=start):
                start.wait()
                return [_outputs(pipeline.retrieve(q)) for q in queries[offset:] + queries[:offset]]

            with ThreadPoolExecutor(max_workers=len(offsets)) as pool:
                results = list(pool.map(run, offsets))
            assert results == [serial[offset:] + serial[:offset] for offset in offsets]
            assert pipeline._session_postings == sequential._session_postings
            assert pipeline._doc_len == sequential._doc_len
            terms = pipeline._terms
            assert all(
                terms[term] is term
                for session in pipeline._session_postings.values() for term in session.postings
            )
    finally:
        sys.setswitchinterval(interval)


def test_facts_sharing_an_id_raise_naming_it_when_stage_1_runs():
    """The fact index rejects a repeated fact id as ``build_index`` did,
    whether the snapshot's config scopes or a per-call config does; an
    unscoped query never reads the facts."""
    entries = [make_entry(entry_id="e1", content="report due friday", session_id="s1")]
    facts = [
        make_fact(fact_id="f1", subject="report", value="friday", session_ids=("s1",)),
        make_fact(fact_id="f0", subject="bike", value="blue", session_ids=("s1",)),
        make_fact(fact_id="f1", subject="lunch", value="soup", session_ids=("s1",)),
    ]
    with pytest.raises(ValidationError, match="duplicate doc_id: 'f1'"):
        RetrievalPipeline(RetrievalConfig(stage1_k1=5), entries=entries, facts=facts)
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=None), entries=entries, facts=facts)
    for _ in range(2):
        with pytest.raises(ValidationError, match="duplicate doc_id: 'f1'"):
            pipeline.retrieve("report", RetrievalConfig(stage1_k1=5))
    assert [r.entry.id for r in pipeline.retrieve("report").ranked] == ["e1"]


def test_unscoped_pipeline_builds_no_fact_index(monkeypatch):
    queries = ["report friday", "lunch soup blue", "nowhere", "deadline v1 note"]
    source = _fact_pipeline()
    cfg = RetrievalConfig(stage1_k1=None)
    indexed = RetrievalPipeline(cfg, entries=source.entries, facts=source.facts)
    indexed._fact_index = retrieval.build_fact_index(indexed.facts)  # as a scoped config has

    def refuse(facts):
        raise AssertionError("an unscoped pipeline built the fact index")

    monkeypatch.setattr(retrieval, "build_fact_index", refuse)
    pipeline = RetrievalPipeline(cfg, entries=source.entries, facts=source.facts)
    assert pipeline._fact_index is None
    for query in queries:
        assert _outputs(pipeline.retrieve(query)) == _outputs(indexed.retrieve(query))


def test_pipeline_excludes_system_entries(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store), RetrievalConfig(stage1_k1=None), project="proj"
    )
    result = pipeline.retrieve("quarterly report compaction")
    assert all(not r.entry.system for r in result.ranked)
    assert "s2-sys" not in result.packed_entry_ids
    assert "[system]" not in result.packed_context


def test_pipeline_empty_semantic_tier_falls_back_unscoped(store):
    store.append_entry(make_entry(entry_id="e1", content="user: hello there"))
    pipeline = RetrievalPipeline.from_store(store, RetrievalConfig(), project="proj")
    result = pipeline.retrieve("hello")
    assert result.fallback_unscoped is True
    assert result.sessions_ratio == 1.0
    assert [r.entry.id for r in result.ranked] == ["e1"]


def test_pipeline_scoping_disabled_reports_full_ratio(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store), RetrievalConfig(stage1_k1=None), project="proj"
    )
    result = pipeline.retrieve("quarterly report")
    assert result.scoping_disabled is True
    assert result.sessions_ratio == 1.0


def test_pipeline_bypass_beats_recency(store):
    # Old entry with a strong lexical match outranks a fresh weak one.
    store.append_entries(
        [
            make_entry(entry_id="old", session_id="sA",
                       content="user: zebra xylophone quarterly report deadline", days_ago=90),
            make_entry(entry_id="new", session_id="sB",
                       content="user: report arrived", days_ago=0),
        ]
    )
    pipeline = RetrievalPipeline.from_store(
        store, RetrievalConfig(stage1_k1=None, stage2_k=2), project="proj"
    )
    result = pipeline.retrieve("zebra xylophone quarterly report deadline")
    assert [r.entry.id for r in result.ranked] == ["old", "new"]
    top = result.ranked[0].breakdown
    assert top.bypass_applied and top.phi_decay == 1.0


def test_pipeline_stage2_k_limits_results(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store), RetrievalConfig(stage2_k=1), project="proj"
    )
    assert len(pipeline.retrieve("quarterly report").ranked) == 1


def test_pipeline_scoping_soundness(fifty_three_session_store):
    pipeline = RetrievalPipeline.from_store(
        fifty_three_session_store, RetrievalConfig(stage1_k1=5), project="proj"
    )
    result = pipeline.retrieve("quarterly report deadline")
    scoped = set(result.scoped_session_ids)
    assert scoped == {"s07", "s21", "s33"}
    assert all(r.entry.session_id in scoped for r in result.ranked)
    assert result.sessions_ratio == pytest.approx(3 / 53)


def test_pipeline_sessions_ratio_bounded_by_k1(fifty_three_session_store):
    pipeline = RetrievalPipeline.from_store(
        fifty_three_session_store, RetrievalConfig(stage1_k1=2), project="proj"
    )
    result = pipeline.retrieve("quarterly report deadline")
    assert result.sessions_ratio <= 2 / 53 + 1e-12


def test_pipeline_dense_mode_records_similarity(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store),
        RetrievalConfig(mode="dense", stage1_k1=None),
        project="proj",
        embedder=HashedBowEmbedder(),
    )
    result = pipeline.retrieve("quarterly report deadline")
    assert result.mode == "dense"
    assert all(r.score == r.breakdown.phi_sem == r.breakdown.composite for r in result.ranked)
    assert result.ranked[0].breakdown.phi_sem > 0.0


def test_pipeline_hybrid_mode_fuses(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store),
        RetrievalConfig(mode="hybrid_rrf", stage1_k1=None),
        project="proj",
        embedder=HashedBowEmbedder(),
    )
    result = pipeline.retrieve("quarterly report deadline")
    assert result.mode == "hybrid_rrf"
    assert all(r.fused_score is not None for r in result.ranked)
    assert set(result.latency_micros) == {"stage1", "stage2", "pack"}


def test_pipeline_bm25_mode_never_embeds(store):
    class RaisingEmbedder:
        dimension = 8

        def embed(self, texts):
            raise AssertionError("bm25 mode must not embed")

    _pipeline_store(store)
    for k1 in (5, None):
        pipeline = RetrievalPipeline.from_store(
            store,
            RetrievalConfig(stage1_k1=k1),
            project="proj",
            embedder=RaisingEmbedder(),
        )
        result = pipeline.retrieve("quarterly report deadline")
        assert result.ranked
        assert all(r.breakdown.phi_sem == 0.0 for r in result.ranked)


def test_pipeline_dense_requires_embedder(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store), RetrievalConfig(mode="dense"), project="proj"
    )
    with pytest.raises(ValidationError):
        pipeline.retrieve("anything")
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("anything"), pipeline.entries, pipeline.cfg)


def test_equal_fusion_variant_swaps_weights(store):
    pipeline = RetrievalPipeline.from_store(
        _pipeline_store(store),
        RetrievalConfig(variant=Variant.ZSCORE_EQUAL_FUSION),
        project="proj",
    )
    assert pipeline.cfg.weights == WeightVector.equal_fusion()


def test_equal_fusion_weights_are_echoed_and_used_by_every_caller():
    cfg = RetrievalConfig(stage1_k1=None, variant=Variant.ZSCORE_EQUAL_FUSION)
    assert cfg.to_dict()["weights"] == WeightVector.equal_fusion().as_list()
    entries = [
        make_entry(entry_id="a", content="report report due friday", days_ago=9,
                   cognitive_weight=0.8),
        make_entry(entry_id="b", content="the report", days_ago=0, session_id="s2"),
        make_entry(entry_id="c", content="lunch on friday", days_ago=3, session_id="s3",
                   promoted=True),
        make_entry(entry_id="d", content="nothing relevant here", days_ago=1,
                   cognitive_weight=-0.5),
    ]
    pipeline = RetrievalPipeline(cfg, entries=entries, facts=[])
    ranked = pipeline.retrieve("report friday").ranked
    direct = stage2_retrieve(tokenize("report friday"), entries, cfg, now=pipeline.now)
    assert [(r.entry.id, r.score) for r in direct] == [(r.entry.id, r.score) for r in ranked]
    default = stage2_retrieve(tokenize("report friday"), entries, RetrievalConfig(
        stage1_k1=None, variant=Variant.ZSCORE), now=pipeline.now)
    assert [r.score for r in default] != [r.score for r in ranked]
