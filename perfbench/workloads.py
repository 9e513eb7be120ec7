"""The three workloads: store build, one operation, and output checks.

An operation is one question in ``qa_eval`` and one query in the two query
workloads. Everything here calls agentmem's public functions only.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from agentmem import consolidation, evaluation, lexical, retrieval, scoring
from agentmem.evaluation import BENCH_PROJECT, OracleReader
from agentmem.retrieval import RetrievalConfig
from agentmem.store import MemoryStore

# Ops whose stage-2 ranking is recomputed by the reference path.
REFERENCE_SAMPLE = 8


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _build(workdir: Path, questions, now=None, cfg: RetrievalConfig = RetrievalConfig()):
    """Ingest, consolidate and snapshot ``questions`` into one fresh store."""
    shutil.rmtree(workdir, ignore_errors=True)
    store = MemoryStore(workdir)
    for question in questions:
        evaluation.ingest_question(store, question)
    consolidation.run_consolidation_pass(store, consolidation.HeuristicExtractor(), BENCH_PROJECT)
    return retrieval.RetrievalPipeline.from_store(store, cfg, project=BENCH_PROJECT, now=now)


class _Capture:
    """Stands in for a store to collect the entries ``ingest_question`` makes."""

    def __init__(self):
        self.entries = []

    def append_entries(self, entries):
        self.entries.extend(entries)


def question_entries(question) -> dict:
    """The entries ``run_benchmark`` stores for ``question``, by id."""
    capture = _Capture()
    evaluation.ingest_question(capture, question)
    return {e.id: e for e in capture.entries}


def reference_ranking(pipeline, query: str, scoped: list[str]) -> list[tuple[str, float]]:
    """Stage 2 recomputed from its definition: BM25 over the same pool with
    ``build_index`` + ``bm25_score``, then ``score_pool`` and ``rank_order``."""
    cfg = pipeline.cfg
    scope = frozenset(scoped)
    pool = [e for e in pipeline.entries if not scope or e.session_id in scope]
    tokens = lexical.tokenize(query)
    index = lexical.build_index([(e.id, e.content) for e in pool])
    candidates = [
        scoring.Candidate(
            id=e.id,
            session_id=e.session_id,
            timestamp=e.timestamp,
            raw_bm25=lexical.bm25_score(index, tokens, e.id),
            age_days=max(0.0, (pipeline.now - e.timestamp).total_seconds() / 86400.0),
            cw=e.cognitive_weight,
            tier=scoring.SEMANTIC if e.promoted else scoring.EPISODIC,
        )
        for e in pool
    ]
    breakdowns = scoring.score_pool(
        candidates, cfg.weights, pipeline.tiers, pipeline.decay, scope, cfg.variant
    )
    order = scoring.rank_order(candidates, breakdowns)[: cfg.stage2_k]
    return [(candidates[i].id, breakdowns[i].composite) for i in order]


def invariant_problems(cfg, ranked_sessions, packed_ids, ranked_ids, tokens, scoped, fallback) -> list[str]:
    problems = []
    if len(ranked_ids) > cfg.stage2_k:
        problems.append(f"{len(ranked_ids)} ranked entries > stage2_k {cfg.stage2_k}")
    if tokens > cfg.token_budget:
        problems.append(f"packed {tokens} tokens > budget {cfg.token_budget}")
    if not set(packed_ids) <= set(ranked_ids):
        problems.append("packed ids are not a subset of the ranked ids")
    if scoped and not fallback and not set(ranked_sessions) <= set(scoped):
        problems.append("ranked an entry outside the scoped sessions")
    return problems


class QaEval:
    """One ``run_benchmark`` call per question, each on a fresh store."""

    cfg = RetrievalConfig()

    def __init__(self, questions, workdir: Path):
        self.questions = questions
        self.workdir = workdir
        self._entries: dict[int, dict] = {}

    def entries(self, i: int) -> dict:
        if i not in self._entries:
            self._entries[i] = question_entries(self.questions[i])
        return self._entries[i]

    def build(self, i: int):
        q = self.questions[i]
        return _build(self.workdir / "build", [q], now=q.question_date)

    def op(self, i: int):
        report = evaluation.run_benchmark(
            [self.questions[i]], self.cfg, OracleReader(), attribute_on_eval=True
        )
        return report.results[0]

    def signature(self, out):
        t = out.trace
        return t["ranked"], t["scoped_session_ids"], t["packed_context"], out.prediction

    def quality(self, i: int, out) -> tuple[int, int]:
        q = self.questions[i]
        entries = self.entries(i)
        ranked = [entries[r] for r in out.trace["ranked_ids"]]
        return evaluation.recall_at_k(ranked, q.answer_session_ids, self.cfg.stage2_k), out.em

    def problems(self, i: int, out) -> list[str]:
        t = out.trace
        entries = self.entries(i)
        ranked_ids = t["ranked_ids"]
        # Packed entries are joined by newlines in rank order; map them back.
        by_content = {entries[r].content: r for r in ranked_ids}
        context = t["packed_context"]
        packed_ids = [by_content.get(line, "?") for line in context.split("\n")] if context else []
        return invariant_problems(
            self.cfg,
            [entries[r].session_id for r in ranked_ids],
            packed_ids,
            ranked_ids,
            t["packed_token_count"],
            t["scoped_session_ids"],
            t["fallback_unscoped"],
        )

    def reference_problems(self, i: int, out) -> list[str]:
        t = out.trace
        pipeline = self.build(i)
        want = reference_ranking(pipeline, self.questions[i].question, t["scoped_session_ids"])
        got = [(r["id"], r["score"]) for r in t["ranked"]]
        return [] if got == want else [f"stage-2 ranking {got} != reference {want}"]

    def close(self) -> None:
        shutil.rmtree(self.workdir / "build", ignore_errors=True)


class QueryLoad:
    """Many queries against one shared store and one pipeline snapshot."""

    def __init__(self, questions, workdir: Path, stage1_k1: int | None):
        self.questions = questions
        self.workdir = workdir
        self.cfg = RetrievalConfig(stage1_k1=stage1_k1)
        self.pipeline = None

    def build(self, i: int = 0):
        self.pipeline = None  # let the previous snapshot go before the next build
        self.pipeline = _build(self.workdir / "build", self.questions, cfg=self.cfg)
        return self.pipeline

    def op(self, i: int):
        return self.pipeline.retrieve(self.questions[i].question)

    def signature(self, out):
        return (
            [(r.entry.id, r.breakdown.composite) for r in out.ranked],
            out.scoped_session_ids,
            out.packed_entry_ids,
        )

    def quality(self, i: int, out) -> tuple[int, int]:
        q = self.questions[i]
        hit = evaluation.recall_at_k([r.entry for r in out.ranked], q.answer_session_ids, self.cfg.stage2_k)
        prediction = OracleReader().answer(q, out.packed_context)
        return hit, evaluation.soft_em(prediction, q.answer)

    def problems(self, i: int, out) -> list[str]:
        return invariant_problems(
            self.cfg,
            [r.entry.session_id for r in out.ranked],
            out.packed_entry_ids,
            [r.entry.id for r in out.ranked],
            out.packed_token_count,
            out.scoped_session_ids,
            out.fallback_unscoped,
        )

    def reference_problems(self, i: int, out) -> list[str]:
        want = reference_ranking(self.pipeline, out.query, out.scoped_session_ids)
        got = [(r.entry.id, r.breakdown.composite) for r in out.ranked]
        return [] if got == want else [f"stage-2 ranking {got} != reference {want}"]

    def close(self) -> None:
        self.pipeline = None
        shutil.rmtree(self.workdir / "build", ignore_errors=True)


def make(name: str, questions, workdir: Path):
    if name == "qa_eval":
        return QaEval(questions, workdir)
    return QueryLoad(questions, workdir, stage1_k1=5 if name == "scoped_query" else None)
