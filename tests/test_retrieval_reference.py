"""The retrieval fast path against a reference built from the definitions.

Stage 1 walks the facts best-first from ``lexical.Bm25Columns``, score
columns with a partial top-k over one postings group of the facts. Stage 2
scores a scoped pool with ``lexical.pool_scores`` over per-session postings
cached per snapshot, and the whole snapshot with a second ``Bm25Columns``
over every session's postings. The stage-1
scope is also checked against a walk of ``lexical.rank``, the fully sorted
list. The reference scores every fact and
every pool entry with ``build_index`` + ``bm25_score``, then combines each
candidate with ``composite_score`` and orders with ``rank_order``. Results
must be equal with ``==``: ids, scopes and every ``ScoreBreakdown`` field.
``stage2_retrieve`` is also called on the pool itself for the full order,
whose breakdown fields must be plain Python floats and bools, and the
pipeline's top k must equal the benchmark's own stage-2 reference
(``perfbench/workloads.py``).
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmem import consolidation, evaluation
from agentmem.cli import main
from agentmem.errors import ValidationError
from agentmem.lexical import bm25_score, build_index, rank, tokenize
from agentmem.retrieval import (
    DENSE_WEIGHTS,
    MODE_BM25,
    MODE_DENSE,
    MODE_HYBRID,
    MODES,
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    build_fact_index,
    pack_context,
    rrf_fuse,
    stage1_scope,
    stage2_retrieve,
)
from agentmem.scoring import (
    EPISODIC,
    SEMANTIC,
    Candidate,
    Variant,
    WeightVector,
    composite_score,
    normalise_scores,
    rank_order,
)
from agentmem.store import MemoryStore
from conftest import make_entry, make_fact

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import workloads  # noqa: E402


def reference_scope(query, facts, k1, sessions=None):
    """Stage 1 with every fact scored by ``bm25_score``, gathering only the
    sessions in ``sessions`` when it is given."""
    if not facts:
        return []
    index = build_index([(f.id, f.search_text()) for f in facts])
    tokens = tokenize(query)
    scored = sorted(
        ((f.id, bm25_score(index, tokens, f.id)) for f in facts), key=lambda p: (-p[1], p[0])
    )
    by_id = {f.id: f for f in facts}
    scoped: list[str] = []
    for fact_id, score in scored:
        if score <= 0.0:
            break
        for session_id in sorted(by_id[fact_id].session_ids):
            if sessions is not None and session_id not in sessions:
                continue
            if session_id not in scoped:
                scoped.append(session_id)
            if k1 is not None and len(scoped) >= k1:
                return scoped
    return scoped


def rank_walk_scope(query, facts, k1):
    """Stage 1 as a walk of ``lexical.rank``, every match scored and sorted."""
    index = build_index([(f.id, f.search_text()) for f in facts])
    by_id = {f.id: f for f in facts}
    scoped: list[str] = []
    for fact_id, _ in rank(index, tokenize(query)):
        for session_id in sorted(by_id[fact_id].session_ids):
            if session_id not in scoped:
                scoped.append(session_id)
            if k1 is not None and len(scoped) >= k1:
                return scoped
    return scoped


def check_stage1(query, facts, k1):
    """The pipeline's stage 1 against both references, and its score column,
    in fact id order, against ``bm25_score``."""
    index = build_fact_index(facts)
    scoped = stage1_scope(tokenize(query), facts, k1, index)
    assert scoped == reference_scope(query, facts, k1) == rank_walk_scope(query, facts, k1)
    reference = build_index([(f.id, f.search_text()) for f in facts])
    scores = index.bm25.scores(tokenize(query))
    assert [(f.id, scores[i]) for i, f in enumerate(index.by_id)] == [
        (fact_id, bm25_score(reference, tokenize(query), fact_id))
        for fact_id in sorted(f.id for f in facts)
    ]
    return scoped


def reference_ranking(pipeline, query, scoped):
    """Stage 2 over the scoped pool: [(entry id, breakdown, fused score)]."""
    cfg = pipeline.cfg
    scope = frozenset(scoped)
    pool = [e for e in pipeline.entries if not scope or e.session_id in scope]
    if not pool:
        return []
    tokens = tokenize(query)
    index = build_index([(e.id, e.content) for e in pool])
    similarities = [0.0] * len(pool)
    if cfg.mode != MODE_BM25:
        vectors = pipeline.embedder.embed([query] + [e.content for e in pool])
        similarities = [float(np.dot(vectors[0], v)) for v in vectors[1:]]
    candidates = [
        Candidate(
            id=e.id,
            session_id=e.session_id,
            timestamp=e.timestamp,
            raw_bm25=bm25_score(index, tokens, e.id),
            age_days=max(0.0, (pipeline.now - e.timestamp).total_seconds() / 86400.0),
            cw=e.cognitive_weight,
            tier=SEMANTIC if e.promoted else EPISODIC,
            similarity=sim,
        )
        for e, sim in zip(pool, similarities)
    ]
    signals = normalise_scores([c.raw_bm25 for c in candidates], cfg.variant)

    def ranking(weights):
        breakdowns = [
            composite_score(
                c, weights, pipeline.tiers, pipeline.decay, scope, cfg.variant, bm25_signal=s
            )
            for c, s in zip(candidates, signals)
        ]
        return breakdowns, rank_order(candidates, breakdowns)

    breakdowns, order = ranking(DENSE_WEIGHTS if cfg.mode == MODE_DENSE else cfg.weights)
    if cfg.mode == MODE_HYBRID:
        _, dense_order = ranking(DENSE_WEIGHTS)
        at = {c.id: i for i, c in enumerate(candidates)}
        fused = rrf_fuse(
            [candidates[i].id for i in order], [candidates[i].id for i in dense_order], cfg.rrf_k
        )
        ranked = [(cid, breakdowns[at[cid]], score) for cid, score in fused]
    else:
        ranked = [(candidates[i].id, breakdowns[i], None) for i in order]
    return ranked[: cfg.stage2_k]


def pipeline_scope(pipeline, query):
    """The reference stage 1 of a pipeline, over the sessions it holds."""
    k1 = pipeline.cfg.stage1_k1
    sessions = {e.session_id for e in pipeline.entries}
    return [] if k1 is None else reference_scope(query, pipeline.facts, k1, sessions)


def check_against_reference(pipeline, query):
    result = pipeline.retrieve(query)
    scoped = pipeline_scope(pipeline, query)
    assert result.scoped_session_ids == scoped
    got = [(r.entry.id, r.breakdown, r.fused_score) for r in result.ranked]
    assert got == reference_ranking(pipeline, query, scoped)
    sessions = {e.session_id for e in pipeline.entries}
    assert result.total_sessions == len(sessions)
    assert result.fallback_unscoped == (pipeline.cfg.stage1_k1 is not None and not scoped)
    assert result.sessions_searched == (len(scoped) if scoped else len(sessions))
    return result


def assert_plain_types(breakdown):
    """The fields ``retrieve --explain`` hands to ``json.dumps``: no numpy scalars."""
    values = breakdown.as_dict()
    assert type(values.pop("bypass_applied")) is bool
    assert type(values.pop("bypass_reason")) is str
    assert all(type(v) is float for v in values.values()), values


def check_full_ranking(pipeline, query):
    """``stage2_retrieve`` on the reference's pool with k=None, against the
    reference's full order."""
    scoped = pipeline_scope(pipeline, query)
    scope = frozenset(scoped)
    pool = [e for e in pipeline.entries if not scope or e.session_id in scope]
    similarities = None
    if pipeline.cfg.mode != MODE_BM25:
        vectors = pipeline.embedder.embed([query] + [e.content for e in pool])
        similarities = [float(np.dot(vectors[0], v)) for v in vectors[1:]]
    ranked = stage2_retrieve(
        tokenize(query),
        pool,
        pipeline.cfg,
        decay=pipeline.decay,
        tiers=pipeline.tiers,
        semantic_scope=scope,
        now=pipeline.now,
        k=None,
        similarities=similarities,
    )
    uncut = copy.copy(pipeline)
    uncut.cfg = replace(pipeline.cfg, stage2_k=max(1, len(pool)))
    assert [(r.entry.id, r.breakdown, r.fused_score) for r in ranked] == reference_ranking(
        uncut, query, scoped
    )
    for r in ranked:
        assert_plain_types(r.breakdown)


WORDS = ["report", "deadline", "friday", "soup", "lunch", "bike", "blue", "the"]
TEXT = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)


POOL = st.lists(
    st.tuples(
        TEXT,
        st.sampled_from(["s1", "s2", "s3", "s4"]),
        st.integers(0, 40),
        st.sampled_from([-0.5, 0.0, 0.5]),
        st.booleans(),
    ),
    max_size=14,
)
FACTS = st.lists(
    st.tuples(TEXT, TEXT, st.sets(st.sampled_from(["s1", "s2", "s3", "s4", "s9"]), min_size=1)),
    max_size=6,
)
QUERIES = st.lists(
    st.lists(st.sampled_from(WORDS + ["nowhere"]), min_size=1, max_size=3).map(" ".join),
    min_size=1,
    max_size=3,
)


def random_store(pool, facts):
    """The entries, with one system entry, and the facts drawn as POOL and FACTS."""
    entries = [
        make_entry(entry_id=f"e{i}", content=content, session_id=sid, days_ago=days,
                   cognitive_weight=cw, promoted=promoted)
        for i, (content, sid, days, cw, promoted) in enumerate(pool)
    ]
    entries.append(make_entry(entry_id="sys", content="[system] report", session_id="s1"))
    fact_list = [
        make_fact(fact_id=f"f{i}", subject=subject, value=value, session_ids=sessions)
        for i, (subject, value, sessions) in enumerate(facts)
    ]
    return entries, fact_list


@settings(max_examples=40, deadline=None)
@given(
    pool=POOL,
    facts=FACTS,
    queries=QUERIES,
    variant=st.sampled_from(list(Variant)),
    k1=st.sampled_from([None, 1, 3]),
    mode=st.sampled_from(MODES),
    stage2_k=st.sampled_from([1, 4, 100]),  # 100 is larger than any pool
)
def test_retrieve_matches_reference_on_random_stores(
    pool, facts, queries, variant, k1, mode, stage2_k
):
    entries, fact_list = random_store(pool, facts)
    cfg = RetrievalConfig(stage1_k1=k1, variant=variant, mode=mode, stage2_k=stage2_k)
    pipeline = RetrievalPipeline(
        cfg, entries=entries, facts=fact_list, embedder=HashedBowEmbedder(16)
    )
    for _ in range(2):  # the second round reuses the cached term counts and signals
        for query in queries:
            check_against_reference(pipeline, query)
            check_full_ranking(pipeline, query)


CONFIGS = st.builds(
    RetrievalConfig,
    stage1_k1=st.sampled_from([None, 1, 3]),
    stage2_k=st.sampled_from([1, 4, 100]),
    token_budget=st.sampled_from([3, 12, 300]),
    weights=st.sampled_from(
        [WeightVector.default(), WeightVector.default().without("decay"), DENSE_WEIGHTS]
    ),
    variant=st.sampled_from(list(Variant)),
    mode=st.sampled_from(MODES),
)


@settings(max_examples=60, deadline=None)
@given(
    pool=POOL,
    facts=FACTS,
    queries=QUERIES,
    base=CONFIGS,
    configs=st.lists(CONFIGS, min_size=1, max_size=5),
)
def test_one_pipeline_ranks_each_config_as_a_pipeline_built_with_it(
    pool, facts, queries, base, configs
):
    """Per-call configs share the caches that the configs before them
    filled, the fact index too when ``base`` does not scope; every result
    field but the latencies equals a fresh pipeline's: ranked ids, every
    breakdown field, fused scores, scopes and packed ids and context."""
    entries, fact_list = random_store(pool, facts)
    embedder = HashedBowEmbedder(16)
    shared = RetrievalPipeline(base, entries=entries, facts=fact_list, embedder=embedder)
    for cfg in configs:
        fresh = RetrievalPipeline(cfg, entries=entries, facts=fact_list, embedder=embedder)
        for query in queries:
            got, want = shared.retrieve(query, cfg), fresh.retrieve(query)
            assert replace(got, latency_micros={}) == replace(want, latency_micros={})
    assert shared.cfg == base


def whole_pool_reference(pipeline, query):
    """Stage 2 over the whole snapshot by ``stage2_retrieve`` indexing the
    pool itself: [(entry id, breakdown, fused score)] and the packed ids."""
    cfg = pipeline.cfg
    similarities = None
    if cfg.mode != MODE_BM25:
        vectors = pipeline.embedder.embed([query] + [e.content for e in pipeline.entries])
        similarities = [float(np.dot(vectors[0], v)) for v in vectors[1:]]
    ranked = stage2_retrieve(
        tokenize(query),
        pipeline.entries,
        cfg,
        decay=pipeline.decay,
        tiers=pipeline.tiers,
        now=pipeline.now,
        similarities=similarities,
    )
    _, used = pack_context([r.entry for r in ranked], cfg.token_budget, cfg.include_timestamps)
    return [(r.entry.id, r.breakdown, r.fused_score) for r in ranked], [e.id for e in used]


def check_whole_pool(pipeline, query):
    result = pipeline.retrieve(query)
    assert result.scoped_session_ids == [] and result.sessions_searched == result.total_sessions
    got = [(r.entry.id, r.breakdown, r.fused_score) for r in result.ranked]
    assert (got, result.packed_entry_ids) == whole_pool_reference(pipeline, query)
    for r in result.ranked:
        assert_plain_types(r.breakdown)
    return result


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            TEXT,
            st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6"]),
            st.integers(0, 40),
            st.sampled_from([-0.5, 0.0, 0.5]),
            st.booleans(),
        ),
        max_size=20,
    ),
    queries=st.lists(
        st.lists(st.sampled_from(WORDS + ["nowhere"]), min_size=1, max_size=3).map(" ".join),
        min_size=1,
        max_size=3,
    ),
    variant=st.sampled_from(list(Variant)),
    mode=st.sampled_from(MODES),
    stage2_k=st.sampled_from([1, 4, 100]),
    token_budget=st.sampled_from([3, 12, 300]),
)
def test_whole_snapshot_pool_matches_stage2_indexing_its_own_pool(
    pool, queries, variant, mode, stage2_k, token_budget
):
    """Unscoped queries, and the fallbacks of a scoped pipeline, score the
    whole snapshot from its one index: every result equals ``stage2_retrieve``
    given no raw BM25, which indexes the pool itself."""
    entries = [
        make_entry(entry_id=f"e{i}", content=content, session_id=sid, days_ago=days,
                   cognitive_weight=cw, promoted=promoted)
        for i, (content, sid, days, cw, promoted) in enumerate(pool)
    ]
    # The first fact matches words of the queries but names a session no
    # snapshot holds, the second matches no query word.
    facts = [
        make_fact(fact_id="f1", subject="report friday", value="soup", session_ids=("s9",)),
        make_fact(fact_id="f2", subject="zebra", value="quagga", session_ids=("s1",)),
    ]
    for k1 in (None, 2):
        cfg = RetrievalConfig(
            stage1_k1=k1, variant=variant, mode=mode, stage2_k=stage2_k, token_budget=token_budget
        )
        pipeline = RetrievalPipeline(
            cfg, entries=entries, facts=facts, embedder=HashedBowEmbedder(16)
        )
        for _ in range(2):  # the second round reuses the snapshot's index and signals
            for query in queries:
                result = check_whole_pool(pipeline, query)
                assert result.fallback_unscoped == (k1 is not None)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k1", [None, 2])
def test_an_empty_snapshot_ranks_nothing(mode, k1):
    entries = [make_entry(entry_id="sys", content="[system] report", session_id="s1")]
    facts = [make_fact(fact_id="f1", subject="report", value="friday", session_ids=("s1",))]
    cfg = RetrievalConfig(stage1_k1=k1, mode=mode)
    for kept in ([], entries):  # no entries, or only a system entry
        pipeline = RetrievalPipeline(cfg, entries=kept, facts=facts, embedder=HashedBowEmbedder())
        for _ in range(2):
            result = pipeline.retrieve("report")
            assert (result.ranked, result.packed_entry_ids, result.total_sessions) == ([], [], 0)
            assert result.fallback_unscoped == (k1 is not None)


@pytest.mark.parametrize("mode", MODES)
def test_ids_shared_across_sessions_raise_on_every_whole_pool_query(mode):
    entries = [
        make_entry(entry_id="x", content="report due friday", session_id="s1"),
        make_entry(entry_id="y", content="soup for lunch", session_id="s1"),
        make_entry(entry_id="x", content="blue bike", session_id="s2"),
    ]
    facts = [make_fact(fact_id="f1", subject="soup", value="lunch", session_ids=("s1",))]
    for k1 in (None, 2):
        cfg = RetrievalConfig(stage1_k1=k1, mode=mode)
        pipeline = RetrievalPipeline(cfg, entries=entries, facts=facts, embedder=HashedBowEmbedder())
        for query in ("report", "nowhere", "report"):
            with pytest.raises(ValidationError, match="duplicate doc_id: 'x'"):
                pipeline.retrieve(query)
    # A scoped pool of s1 alone holds each id once, so it ranks; a pool of
    # both sessions holds "x" twice and raises, on the repeat too.
    facts.append(make_fact(fact_id="f2", subject="blue", value="bike", session_ids=("s1", "s2")))
    scoped = RetrievalPipeline(RetrievalConfig(stage1_k1=2, mode=mode), entries=entries,
                               facts=facts, embedder=HashedBowEmbedder())
    for _ in range(2):
        assert {r.entry.id for r in scoped.retrieve("soup lunch").ranked} == {"x", "y"}
        for query in ("blue bike", "soup blue"):
            with pytest.raises(ValidationError, match="duplicate doc_id: 'x'"):
                scoped.retrieve(query)


SESSIONS = [f"s{i}" for i in range(12)]


@settings(max_examples=60, deadline=None)
@given(
    facts=st.lists(
        st.tuples(TEXT, TEXT, st.sets(st.sampled_from(SESSIONS), min_size=1, max_size=3)),
        max_size=60,
    ),
    queries=st.lists(
        st.lists(st.sampled_from(WORDS + ["nowhere"]), min_size=1, max_size=5).map(" ".join),
        min_size=1,
        max_size=3,
    ),
    k1=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
)
def test_stage1_scope_matches_both_references_on_random_facts(facts, queries, k1):
    """Multi-session facts over few words, so scores tie often, and queries
    that repeat a word."""
    fact_list = [
        make_fact(fact_id=f"f{i}", subject=subject, value=value, session_ids=sessions)
        for i, (subject, value, sessions) in enumerate(facts)
    ]
    for query in queries:
        if fact_list:
            check_stage1(query, fact_list, k1)


@pytest.mark.parametrize("k1", [1, 15, 16, 17, 30, 44, 45, None])
def test_tied_facts_across_the_first_cut_scope_in_id_order(k1):
    """45 facts with one text in distinct sessions tie, so equal scores
    straddle the first partial selection; their sessions come in fact id
    order, where "f10" sorts before "f2"."""
    facts = [
        make_fact(fact_id=f"f{i}", subject="quarterly report", value="friday",
                  session_ids=(f"s{i:02d}",))
        for i in range(45)
    ] + [make_fact(fact_id="g", subject="lunch", value="soup", session_ids=("s99",))]
    by_id = sorted(range(45), key=lambda i: f"f{i}")
    expected = [f"s{i:02d}" for i in by_id][:k1]
    assert check_stage1("quarterly report", facts, k1) == expected
    assert check_stage1("report lunch", facts, k1) == (["s99"] + expected)[: k1 or 46]


@pytest.mark.parametrize("k1", [1, 16, 17, 40, 64, 65, 100, None])
def test_stage1_scope_walks_past_each_selection_cut(k1):
    """120 facts of distinct lengths that all match, most in a session of
    their own, so a deep scope needs the walk's later selections."""
    rng = random.Random(7)
    subjects = ["report " + " ".join(rng.choices(WORDS, k=rng.randint(0, 30))) for _ in range(120)]
    facts = [
        make_fact(fact_id=f"f{i}", subject=subject, value="friday",
                  session_ids={f"s{i}", f"s{i // 3}"})
        for i, subject in enumerate(subjects)
    ]
    for query in ("report", "friday deadline report", "the blue soup"):
        check_stage1(query, facts, k1)


def test_a_long_session_ranks_as_the_reference():
    """One session of 16,000 turns over eight words, as a long-running
    agent's session is, so every word's postings span thousands of turns: a
    scoped query over it, and a fallback over the whole snapshot, rank as
    the stage-2 reference."""
    rng = random.Random(16)
    entries = [
        make_entry(entry_id=f"t{i:05d}", session_id="long", days_ago=(i % 97) / 4,
                   content=" ".join(rng.choices(WORDS, k=rng.randint(1, 8))))
        for i in range(16_000)
    ]
    entries.append(make_entry(entry_id="x", session_id="short", content="bike lunch"))
    facts = [make_fact(fact_id="f1", subject="report", value="friday", session_ids=("long",))]
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=5), entries=entries, facts=facts)
    for query in ("report friday", "the deadline friday the"):
        assert check_against_reference(pipeline, query).scoped_session_ids == ["long"]
    check_against_reference(pipeline, "nowhere soup")


@pytest.mark.parametrize("mode", MODES)
def test_ids_decide_a_tie_at_the_kth_place(mode):
    """Entries equal in composite and timestamp rank by id in string order,
    so "e10" comes before "e2"."""
    ids = ["e3", "e10", "e2", "e1", "e11", "e20"]
    entries = [make_entry(entry_id=i, content="report due friday") for i in ids]
    entries.append(make_entry(entry_id="e0", content="soup for lunch", days_ago=2))
    for k in range(1, len(entries) + 1):
        cfg = RetrievalConfig(stage1_k1=None, stage2_k=k, mode=mode)
        pipeline = RetrievalPipeline(cfg, entries=entries, facts=[], embedder=HashedBowEmbedder())
        result = check_against_reference(pipeline, "friday report")
        assert [r.entry.id for r in result.ranked] == (sorted(ids) + ["e0"])[:k]
        check_full_ranking(pipeline, "friday report")


def test_out_of_range_cognitive_weight_raises_through_retrieve():
    entries = [
        make_entry(entry_id="e1", content="report due friday"),
        make_entry(entry_id="e2", content="soup for lunch"),
    ]
    # _replace skips the entry's own range check, so only scoring can catch it.
    entries[1] = entries[1]._replace(cognitive_weight=1.5)
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=None), entries=entries, facts=[])
    for _ in range(2):  # the entry's signals are not kept after the failure
        with pytest.raises(ValidationError):
            pipeline.retrieve("report")
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("report"), entries, RetrievalConfig())


def test_explain_output_is_json_with_plain_types(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    for session, content in (("s1", "zebra xylophone quagga marimba"), ("s2", "weather chat")):
        main(["--workspace", ws, "append", "--project", "p", "--session", session,
              "--agent", "a", "--content", content])
    capsys.readouterr()
    assert main(["--workspace", ws, "retrieve", "--project", "p",
                 "--query", "zebra xylophone quagga marimba", "--explain"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    breakdowns = [r["breakdown"] for r in records if "breakdown" in r]
    assert len(breakdowns) == 2
    assert breakdowns[0]["bypass_applied"] is True
    assert all(type(b["bypass_applied"]) is bool for b in breakdowns)


def test_pool_with_a_shared_id_is_rejected():
    entries = [
        make_entry(entry_id="x", content="report due", session_id="s1"),
        make_entry(entry_id="x", content="lunch soup", session_id="s2"),
    ]
    with pytest.raises(ValidationError):
        stage2_retrieve(tokenize("report"), entries, RetrievalConfig())
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=None), entries=entries, facts=[])
    with pytest.raises(ValidationError):
        pipeline.retrieve("report")


def test_entries_sharing_an_id_score_from_their_own_content():
    entries = [
        make_entry(entry_id="x", content="the report is due friday", session_id="s1"),
        make_entry(entry_id="x", content="soup for lunch on friday", session_id="s2"),
    ]
    facts = [
        make_fact(fact_id="f1", subject="report", value="friday", session_ids=("s1",)),
        make_fact(fact_id="f2", subject="lunch", value="soup", session_ids=("s2",)),
    ]
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=1), entries=entries, facts=facts)
    for _ in range(2):
        for query, session in (("report", "s1"), ("lunch soup", "s2")):
            result = check_against_reference(pipeline, query)
            (top,) = result.ranked
            assert top.entry.session_id == session
            assert top.breakdown.phi_bm25_raw > 0.0


def test_session_counts_for_scoped_unscoped_and_fallback_queries():
    entries = [
        make_entry(entry_id=f"{sid}-{j}", content=f"note {j} about {topic}", session_id=sid)
        for sid, topic in (("s1", "report"), ("s2", "report"), ("s3", "lunch"))
        for j in range(2)
    ] + [make_entry(entry_id="sys", content="[system] report", session_id="s4")]
    facts = [
        make_fact(fact_id="f1", subject="report", value="friday", session_ids=("s1", "s4")),
        make_fact(fact_id="f2", subject="lunch", value="soup", session_ids=("s3",)),
    ]
    scoped = RetrievalPipeline(RetrievalConfig(stage1_k1=3), entries=entries, facts=facts)
    result = scoped.retrieve("report")
    # s4 holds only a system entry, which no snapshot keeps, so it is not scoped.
    assert (result.scoped_session_ids, result.total_sessions, result.sessions_searched) == (
        ["s1"], 3, 1,
    )
    fallback = scoped.retrieve("nowhere")
    assert (fallback.fallback_unscoped, fallback.total_sessions, fallback.sessions_searched) == (
        True, 3, 3,
    )
    unscoped = RetrievalPipeline(RetrievalConfig(stage1_k1=None), entries=entries, facts=facts)
    result = unscoped.retrieve("report")
    assert (result.scoping_disabled, result.total_sessions, result.sessions_searched) == (
        True, 3, 3,
    )


@pytest.fixture(scope="module")
def benchmark_stores(tmp_path_factory):
    """The benchmark's smoke-size query stores by workload, consolidated."""
    stores = {}
    for workload in ("scoped_query", "unscoped_query"):
        questions = [
            evaluation.question_from_dict(r) for r in gen.generate(workload, 3, "smoke")
        ]
        store = MemoryStore(tmp_path_factory.mktemp("bench") / "ws")
        for question in questions:
            evaluation.ingest_question(store, question)
        consolidation.run_consolidation_pass(
            store, consolidation.HeuristicExtractor(), evaluation.BENCH_PROJECT
        )
        stores[workload] = store, [q.question for q in questions]
    return stores


@pytest.fixture(scope="module")
def benchmark_shaped_store(benchmark_stores):
    return benchmark_stores["scoped_query"]


@pytest.mark.parametrize("k1", [5, None])
def test_benchmark_shaped_store_matches_reference(benchmark_shaped_store, k1):
    store, queries = benchmark_shaped_store
    for variant in Variant:
        cfg = RetrievalConfig(stage1_k1=k1, variant=variant)
        pipeline = RetrievalPipeline.from_store(store, cfg, project=evaluation.BENCH_PROJECT)
        for query in queries + queries:
            check_against_reference(pipeline, query)


@pytest.mark.parametrize("workload, k1", [("scoped_query", 5), ("unscoped_query", None)])
def test_top_k_equals_the_benchmark_reference(benchmark_stores, workload, k1):
    """The check the benchmark runs on sampled ops, on every query here."""
    store, queries = benchmark_stores[workload]
    for variant in Variant:
        cfg = RetrievalConfig(stage1_k1=k1, variant=variant)
        pipeline = RetrievalPipeline.from_store(store, cfg, project=evaluation.BENCH_PROJECT)
        for query in queries:
            result = pipeline.retrieve(query)
            got = [(r.entry.id, r.breakdown.composite) for r in result.ranked]
            assert got == workloads.reference_ranking(pipeline, query, result.scoped_session_ids)
