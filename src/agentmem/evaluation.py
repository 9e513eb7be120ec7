"""Deterministic QA evaluation: metrics, dataset loading, and the benchmark
runner.

Accuracy is soft exact-match: normalised string equality extended by
bidirectional substring containment. F1 is SQuAD-style multiset token
overlap. Everything here is a pure function of its inputs -- no model is in
the loop unless the caller plugs one in behind the Reader interface.
"""

from __future__ import annotations

import json
import math
import string
import tempfile
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Protocol

from . import attribution as attribution_mod
from .consolidation import Extractor, HeuristicExtractor, run_consolidation_pass
from .errors import ValidationError
from .retrieval import (
    MODE_BM25,
    Embedder,
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    oracle_context,
    parse_stage1_k1,
)
from .scoring import DecayConfig, TierConfig, Variant
from .store import EpisodicEntry, MemoryStore, parse_timestamp

QUESTION_TYPES = (
    "single-session-user",
    "single-session-assistant",
    "knowledge-update",
    "temporal-reasoning",
    "multi-session",
    "single-session-preference",
)

MODE_NO_RETRIEVAL = "no_retrieval"
MODE_RETRIEVAL = "retrieval"
MODE_ORACLE = "oracle"
EVAL_MODES = (MODE_NO_RETRIEVAL, MODE_RETRIEVAL, MODE_ORACLE)

PROMPT_TEMPLATE = "Context:\n{context}\n\nQuestion: {question}\nAnswer:"

BENCH_PROJECT = "bench"
BENCH_AGENT = "agent"

_ARTICLES = {"a", "an", "the"}
_PUNCT = set(string.punctuation)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def normalize_answer(text: str) -> str:
    """Lowercase, strip ASCII punctuation, drop articles, collapse whitespace."""
    lowered = text.lower()
    no_punct = "".join(ch for ch in lowered if ch not in _PUNCT)
    tokens = [t for t in no_punct.split() if t not in _ARTICLES]
    return " ".join(tokens)


def soft_em(prediction: str, gold: str) -> int:
    """1 iff normalised strings are equal or one contains the other.

    Containment requires both sides nonempty, so an empty prediction never
    matches a nonempty gold.
    """
    p, g = normalize_answer(prediction), normalize_answer(gold)
    if p == g:
        return 1
    if p and g and (p in g or g in p):
        return 1
    return 0


def token_f1(prediction: str, gold: str) -> float:
    """SQuAD-style multiset token overlap F1 over normalised tokens."""
    p_tokens = normalize_answer(prediction).split()
    g_tokens = normalize_answer(gold).split()
    if not p_tokens and not g_tokens:
        return 1.0
    if not p_tokens or not g_tokens:
        return 0.0
    overlap = sum((Counter(p_tokens) & Counter(g_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(p_tokens)
    recall = overlap / len(g_tokens)
    return 2 * precision * recall / (precision + recall)


def recall_at_k(
    retrieved: Sequence[EpisodicEntry], gold_session_ids: Iterable[str], k: int
) -> int:
    """1 iff any of the top-k entries belongs to a gold evidence session."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    gold = set(gold_session_ids)
    return int(any(e.session_id in gold for e in retrieved[:k]))


def ndcg_at_k(
    retrieved: Sequence[EpisodicEntry], gold_session_ids: Iterable[str], k: int
) -> float:
    """Binary-relevance nDCG: an entry is relevant iff its session is gold."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    gold = set(gold_session_ids)
    relevance = [1 if e.session_id in gold else 0 for e in retrieved]
    dcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(relevance[:k], start=1))
    ideal = sorted(relevance, reverse=True)[:k]
    idcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def wilson_ci(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= successes <= n:
        raise ValidationError("successes must be in [0, n]")
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n))
    return max(0.0, centre - margin), min(1.0, centre + margin)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Turn:
    role: str
    content: str


@dataclass(frozen=True)
class Session:
    session_id: str
    date: datetime
    turns: tuple[Turn, ...]

    def text(self) -> str:
        return "\n".join(f"{t.role}: {t.content}" for t in self.turns)


@dataclass(frozen=True)
class BenchmarkQuestion:
    question_id: str
    question_type: str
    question: str
    answer: str
    sessions: tuple[Session, ...]
    answer_session_ids: tuple[str, ...]
    question_date: datetime | None = None

    def __post_init__(self) -> None:
        if self.question_type not in QUESTION_TYPES:
            raise ValidationError(f"unknown question_type: {self.question_type!r}")
        haystack = {s.session_id for s in self.sessions}
        missing = set(self.answer_session_ids) - haystack
        if missing:
            raise ValidationError(f"gold session ids not in haystack: {sorted(missing)}")


def _parse_session_date(raw: str) -> datetime:
    try:
        return parse_timestamp(raw)
    except ValidationError:
        pass
    try:
        return datetime.strptime(raw[:10], "%Y/%m/%d").replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise ValidationError(f"unparseable session date: {raw!r}") from exc


def question_from_dict(record: dict) -> BenchmarkQuestion:
    raw_sessions = record["haystack_sessions"]
    dates = record.get("haystack_dates") or [""] * len(raw_sessions)
    ids = record.get("haystack_session_ids") or [
        f"s{i:02d}" for i in range(len(raw_sessions))
    ]
    if not (len(raw_sessions) == len(dates) == len(ids)):
        raise ValidationError(
            f"question {record.get('question_id')!r}: haystack field lengths differ"
        )
    sessions = []
    for sid, date_raw, turns in zip(ids, dates, raw_sessions):
        parsed = _parse_session_date(date_raw) if date_raw else datetime(2000, 1, 1, tzinfo=timezone.utc)
        sessions.append(
            Session(
                session_id=str(sid),
                date=parsed,
                turns=tuple(Turn(str(t["role"]), str(t["content"])) for t in turns),
            )
        )
    question_date = record.get("question_date")
    return BenchmarkQuestion(
        question_id=str(record["question_id"]),
        question_type=str(record["question_type"]),
        question=str(record["question"]),
        answer=str(record["answer"]),
        sessions=tuple(sessions),
        answer_session_ids=tuple(str(s) for s in record.get("answer_session_ids", ())),
        question_date=parse_timestamp(question_date) if question_date else None,
    )


def load_dataset(path: str | Path) -> list[BenchmarkQuestion]:
    """Load a JSONL (one object per question) or JSON-array dataset file."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError(f"empty dataset file: {path}")
    try:
        if stripped.startswith("["):
            records = json.loads(text)
        else:
            records = [json.loads(line) for line in text.split("\n") if line.strip()]
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed dataset file {path}: {exc}") from exc
    return [question_from_dict(r) for r in records]


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

class Reader(Protocol):
    def answer(self, question: BenchmarkQuestion, context: str) -> str:
        ...


class OracleReader:
    """Returns the gold answer iff it appears verbatim in the context."""

    name = "oracle"

    def answer(self, question: BenchmarkQuestion, context: str) -> str:
        return question.answer if question.answer in context else ""


class EchoReader:
    """Returns the first packed entry (first context line)."""

    name = "echo"

    def answer(self, question: BenchmarkQuestion, context: str) -> str:
        return context.split("\n", 1)[0] if context else ""


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------

@dataclass
class QuestionResult:
    question_id: str
    question_type: str
    prediction: str
    em: int
    f1: float
    trace: dict


@dataclass
class Aggregate:
    n: int
    accuracy: float
    f1: float
    wilson: tuple[float, float]


@dataclass
class EvalReport:
    results: list[QuestionResult]
    per_type: dict[str, Aggregate]
    overall: Aggregate
    config: dict

    def to_jsonl_lines(self) -> list[str]:
        lines = [
            json.dumps({"record": "question", **asdict(r)}, ensure_ascii=False)
            for r in self.results
        ]
        for qtype, agg in sorted(self.per_type.items()):
            lines.append(
                json.dumps({"record": "type_summary", "question_type": qtype, **asdict(agg)})
            )
        lines.append(json.dumps({"record": "overall", **asdict(self.overall)}))
        lines.append(json.dumps({"record": "config", **self.config}, ensure_ascii=False))
        return lines

    def to_table(self) -> str:
        rows = [f"{'type':<28} {'n':>4} {'acc':>7} {'f1':>7} {'wilson 95%':>18}"]
        for qtype, agg in sorted(self.per_type.items()):
            lo, hi = agg.wilson
            rows.append(
                f"{qtype:<28} {agg.n:>4} {agg.accuracy:>7.3f} {agg.f1:>7.3f} "
                f"[{lo:.3f}, {hi:.3f}]"
            )
        lo, hi = self.overall.wilson
        rows.append(
            f"{'overall':<28} {self.overall.n:>4} {self.overall.accuracy:>7.3f} "
            f"{self.overall.f1:>7.3f} [{lo:.3f}, {hi:.3f}]"
        )
        return "\n".join(rows)


def ingest_question(store: MemoryStore, question: BenchmarkQuestion) -> None:
    """Materialise a question's haystack as one entry per turn."""
    entries = []
    for session in question.sessions:
        for idx, turn in enumerate(session.turns):
            entries.append(
                EpisodicEntry(
                    id=f"{session.session_id}-{idx:03d}",
                    timestamp=session.date + timedelta(minutes=idx),
                    session_id=session.session_id,
                    agent_id=BENCH_AGENT,
                    project=BENCH_PROJECT,
                    content=f"{turn.role}: {turn.content}",
                )
            )
    store.append_entries(entries)


def run_benchmark(
    dataset: Sequence[BenchmarkQuestion],
    cfg: RetrievalConfig,
    reader: Reader,
    mode: str = MODE_RETRIEVAL,
    *,
    decay: DecayConfig | None = None,
    tiers: TierConfig | None = None,
    extractor: Extractor | None = HeuristicExtractor(),
    embedder: Embedder | None = None,
    attribute_on_eval: bool = False,
    attribution_cfg: attribution_mod.AttributionConfig | None = None,
    config_echo: dict | None = None,
) -> EvalReport:
    """Evaluate every question: build its memory, retrieve (per mode), read,
    score. Each question gets a fresh store materialised from its haystack;
    with ``extractor`` set, the semantic tier is pre-populated once per corpus
    before any question text is seen.
    """
    if mode not in EVAL_MODES:
        raise ValidationError(f"mode must be one of {EVAL_MODES}")
    results: list[QuestionResult] = []
    for question in dataset:
        with tempfile.TemporaryDirectory(prefix="agentmem-eval-") as tmp:
            store = MemoryStore(tmp)
            ingest_question(store, question)
            if extractor is not None and mode != MODE_NO_RETRIEVAL:
                run_consolidation_pass(store, extractor, BENCH_PROJECT)
            results.append(
                _evaluate_question(
                    store,
                    question,
                    cfg,
                    reader,
                    mode,
                    decay=decay,
                    tiers=tiers,
                    embedder=embedder,
                    attribute_on_eval=attribute_on_eval,
                    attribution_cfg=attribution_cfg,
                )
            )
    report_config = {
        "mode": mode,
        "retrieval": cfg.to_dict(),
        "reader": getattr(reader, "name", type(reader).__name__),
        "extractor": getattr(extractor, "name", type(extractor).__name__)
        if extractor is not None
        else None,
        "prompt_template": PROMPT_TEMPLATE,
        "attribute_on_eval": attribute_on_eval,
    }
    if config_echo:
        report_config.update(config_echo)
    return _aggregate(results, report_config)


def _evaluate_question(
    store: MemoryStore,
    question: BenchmarkQuestion,
    cfg: RetrievalConfig,
    reader: Reader,
    mode: str,
    *,
    decay: DecayConfig | None,
    tiers: TierConfig | None,
    embedder: Embedder | None,
    attribute_on_eval: bool,
    attribution_cfg: attribution_mod.AttributionConfig | None,
) -> QuestionResult:
    trace: dict = {"mode": mode}
    retrieved_entries: list[EpisodicEntry] = []
    if mode == MODE_NO_RETRIEVAL:
        context = ""
    elif mode == MODE_ORACLE:
        gold_ids = list(question.answer_session_ids)
        by_id = {s.session_id: s for s in question.sessions}
        gold_sessions = [(sid, by_id[sid].text()) for sid in gold_ids]
        facts = store.load_facts().facts
        gold_set = set(gold_ids)
        gold_facts = [f for f in facts if f.session_ids & gold_set]
        context = oracle_context(gold_sessions, gold_facts)
        trace["gold_session_ids"] = gold_ids
    else:
        if embedder is None and cfg.mode != MODE_BM25:
            embedder = HashedBowEmbedder()
        pipeline = RetrievalPipeline.from_store(
            store,
            cfg,
            project=BENCH_PROJECT,
            decay=decay,
            tiers=tiers,
            embedder=embedder,
            now=question.question_date,
        )
        result = pipeline.retrieve(question.question)
        context = result.packed_context
        retrieved_entries = [r.entry for r in result.ranked]
        trace.update(
            {
                "ranked": [
                    {"id": r.entry.id, "session_id": r.entry.session_id, "score": r.score}
                    for r in result.ranked
                ],
                "ranked_ids": [r.entry.id for r in result.ranked],
                "scoped_session_ids": result.scoped_session_ids,
                "sessions_ratio": result.sessions_ratio,
                "fallback_unscoped": result.fallback_unscoped,
                "packed_context": result.packed_context,
                "packed_token_count": result.packed_token_count,
                "latency_micros": result.latency_micros,
                "retrieval_mode": result.mode,
            }
        )
    trace["gold_in_context"] = question.answer in context

    try:
        prediction = reader.answer(question, context)
    except Exception as exc:
        prediction = ""
        trace["reader_failure"] = str(exc)
    em = soft_em(prediction, question.answer)
    f1 = token_f1(prediction, question.answer)

    if attribute_on_eval and mode == MODE_RETRIEVAL and retrieved_entries:
        reward = (
            attribution_mod.QA_CORRECT_REWARD if em else attribution_mod.QA_INCORRECT_REWARD
        )
        updates = attribution_mod.apply_attribution(
            store,
            retrieved_entries,
            prediction,
            reward,
            attribution_cfg or attribution_mod.AttributionConfig(),
        )
        trace["cw_updates"] = [{"entry_id": i, "cw": w} for i, w in updates]

    return QuestionResult(
        question_id=question.question_id,
        question_type=question.question_type,
        prediction=prediction,
        em=em,
        f1=f1,
        trace=trace,
    )


def _aggregate(results: list[QuestionResult], config: dict) -> EvalReport:
    def summarise(subset: list[QuestionResult]) -> Aggregate:
        n = len(subset)
        correct = sum(r.em for r in subset)
        acc = correct / n if n else 0.0
        f1 = sum(r.f1 for r in subset) / n if n else 0.0
        wilson = wilson_ci(correct, n) if n else (0.0, 0.0)
        return Aggregate(n=n, accuracy=acc, f1=f1, wilson=wilson)

    per_type: dict[str, Aggregate] = {}
    for qtype in sorted({r.question_type for r in results}):
        per_type[qtype] = summarise([r for r in results if r.question_type == qtype])
    return EvalReport(
        results=results, per_type=per_type, overall=summarise(results), config=config
    )


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------

REMOVABLE = ("decay", "cw", "tier", "scoping")


def apply_cell(cfg: RetrievalConfig, overrides: dict) -> RetrievalConfig:
    """Produce the cell's config: signal removal zeroes a weight and
    renormalises; removing scoping disables stage 1."""
    out = cfg
    removal = overrides.get("remove")
    if removal:
        if removal == "scoping":
            out = replace(out, stage1_k1=None)
        elif removal in REMOVABLE:
            out = replace(out, weights=out.weights.without(removal))
        else:
            raise ValidationError(f"cannot remove {removal!r}")
    if "k" in overrides:
        out = replace(out, stage2_k=int(overrides["k"]))
    if "budget" in overrides:
        out = replace(out, token_budget=int(overrides["budget"]))
    if "k1" in overrides:
        out = replace(out, stage1_k1=parse_stage1_k1(overrides["k1"]))
    if "variant" in overrides:
        out = replace(out, variant=Variant(overrides["variant"]))
    if "mode" in overrides:
        out = replace(out, mode=str(overrides["mode"]))
    return out


def grid_cells(axes: dict[str, list]) -> list[dict]:
    """Cartesian product over the given axes, e.g. {k: [2,4], budget: [150]}."""
    cells: list[dict] = [{}]
    for key, values in axes.items():
        cells = [{**cell, key: value} for cell in cells for value in values]
    return cells


def default_cells() -> list[dict]:
    """One-factor-at-a-time grid: reference row, signal removals, k sweep,
    budget sweep."""
    cells: list[dict] = [{"label": "full"}]
    cells += [{"label": f"-{s}", "remove": s} for s in REMOVABLE]
    cells += [{"label": f"k={k}", "k": k} for k in (1, 2, 4, 8)]
    cells += [{"label": f"budget={b}", "budget": b} for b in (150, 300, 600)]
    return cells


def run_ablation(
    dataset: Sequence[BenchmarkQuestion],
    base_cfg: RetrievalConfig,
    reader: Reader,
    cells: Sequence[dict],
    **benchmark_kwargs,
) -> list[dict]:
    """One benchmark run per cell; returns machine-readable rows with the
    full report attached."""
    if not cells:
        raise ValidationError("ablation grid is empty")
    rows = []
    for overrides in cells:
        overrides = dict(overrides)
        label = overrides.pop("label", None) or ",".join(
            f"{k}={v}" for k, v in sorted(overrides.items())
        ) or "full"
        cell_cfg = apply_cell(base_cfg, overrides)
        report = run_benchmark(dataset, cell_cfg, reader, **benchmark_kwargs)
        rows.append(
            {
                "cell": label,
                "overrides": overrides,
                "n": report.overall.n,
                "acc": report.overall.accuracy,
                "f1": report.overall.f1,
                "wilson": report.overall.wilson,
                "report": report,
            }
        )
    return rows
