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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Protocol

from . import attribution as attribution_mod
from .config import RETRIEVAL_ALIASES, load
from .consolidation import Extractor, HeuristicExtractor, run_consolidation_pass
from .errors import ValidationError, is_count
from .retrieval import (
    Embedder,
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    oracle_context,
)
from .scoring import DecayConfig, TierConfig
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


def _require_k(k: int) -> None:
    if not is_count(k) or k < 1:
        raise ValidationError(f"k must be an int >= 1: {k!r}")


def recall_at_k(
    retrieved: Sequence[EpisodicEntry], gold_session_ids: Iterable[str], k: int
) -> int:
    """1 iff any of the top-k entries belongs to a gold evidence session."""
    _require_k(k)
    gold = set(gold_session_ids)
    return int(any(e.session_id in gold for e in retrieved[:k]))


def ndcg_at_k(
    retrieved: Sequence[EpisodicEntry], gold_session_ids: Iterable[str], k: int
) -> float:
    """Binary-relevance nDCG: an entry is relevant iff its session is gold."""
    _require_k(k)
    gold = set(gold_session_ids)
    relevance = [1 if e.session_id in gold else 0 for e in retrieved]
    dcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(relevance[:k], start=1))
    ideal = sorted(relevance, reverse=True)[:k]
    idcg = sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def wilson_ci(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if not (is_count(successes) and is_count(n)):
        raise ValidationError(f"successes and n must be ints: {successes!r}, {n!r}")
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


def _text(record: dict, key: str) -> str:
    """A text field; numbers, as real datasets carry numeric answers, are
    cast with ``str``. Anything else, null included, is a TypeError naming
    the key, so it cannot load as the text "None"."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"{key!r} must be a string or a number, got {value!r}")
    return str(value)


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
                turns=tuple(Turn(_text(t, "role"), _text(t, "content")) for t in turns),
            )
        )
    question_date = record.get("question_date")
    return BenchmarkQuestion(
        question_id=_text(record, "question_id"),
        question_type=_text(record, "question_type"),
        question=_text(record, "question"),
        answer=_text(record, "answer"),
        sessions=tuple(sessions),
        answer_session_ids=tuple(str(s) for s in record.get("answer_session_ids", ())),
        question_date=parse_timestamp(question_date) if question_date else None,
    )


def load_dataset(path: str | Path) -> list[BenchmarkQuestion]:
    """Load a JSONL (one object per question) or JSON-array dataset file. A
    record that is not an object, or lacks or mistypes a key, raises
    ValidationError naming the record's position and the key."""
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
    questions = []
    for number, record in enumerate(records, start=1):
        try:
            questions.append(question_from_dict(record))
        except KeyError as exc:
            raise ValidationError(f"{path}, record {number}: missing key {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ValidationError(f"{path}, record {number}: mistyped: {exc}") from exc
    return questions


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
        session_id, date = session.session_id, session.date
        for idx, turn in enumerate(session.turns):
            entries.append(
                EpisodicEntry(  # positional, in field order: the cheaper call
                    f"{session_id}-{idx:03d}",
                    date + timedelta(minutes=idx),
                    session_id,
                    BENCH_AGENT,
                    BENCH_PROJECT,
                    f"{turn.role}: {turn.content}",
                )
            )
    store.append_entries(entries)


def question_memories(
    dataset: Sequence[BenchmarkQuestion],
    cfg: RetrievalConfig,
    mode: str = MODE_RETRIEVAL,
    *,
    extractor: Extractor | None = HeuristicExtractor(),
    decay: DecayConfig | None = None,
    tiers: TierConfig | None = None,
    embedder: Embedder | None = None,
) -> Iterator[tuple[BenchmarkQuestion, MemoryStore, RetrievalPipeline | None]]:
    """Build each question's memory once: yield (question, store, pipeline).
    The store is fresh, from the question's haystack, and with ``extractor``
    set, outside no_retrieval mode, its semantic tier is filled before any
    question text is seen; it lives until the next question is drawn. In
    retrieval mode the pipeline snapshots it with ``cfg`` as its default
    config, ranking dense and hybrid configs with ``embedder`` or a
    ``HashedBowEmbedder``; in other modes it is None."""
    for question in dataset:
        with tempfile.TemporaryDirectory(prefix="agentmem-eval-") as tmp:
            store = MemoryStore(tmp)
            ingest_question(store, question)
            if extractor is not None and mode != MODE_NO_RETRIEVAL:
                run_consolidation_pass(store, extractor, BENCH_PROJECT)
            pipeline = None
            if mode == MODE_RETRIEVAL:
                pipeline = RetrievalPipeline.from_store(
                    store,
                    cfg,
                    project=BENCH_PROJECT,
                    decay=decay,
                    tiers=tiers,
                    embedder=embedder or HashedBowEmbedder(),
                    now=question.question_date,
                )
            yield question, store, pipeline


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
    """Evaluate every question on its own memory (``question_memories``):
    retrieve (per mode), read, score. With ``attribute_on_eval`` a retrieval
    answer's reward is credited to the retrieved entries' cognitive weights
    in the question's store, after its pipeline has snapshotted them.
    """
    if mode not in EVAL_MODES:
        raise ValidationError(f"mode must be one of {EVAL_MODES}")
    memories = question_memories(
        dataset, cfg, mode, extractor=extractor, decay=decay, tiers=tiers, embedder=embedder
    )
    results = [
        _evaluate_question(
            store, pipeline, question, cfg, reader, mode, attribute_on_eval, attribution_cfg
        )
        for question, store, pipeline in memories
    ]
    return _report(results, cfg, reader, mode, extractor, attribute_on_eval, config_echo)


def _evaluate_question(
    store: MemoryStore,
    pipeline: RetrievalPipeline | None,
    question: BenchmarkQuestion,
    cfg: RetrievalConfig,
    reader: Reader,
    mode: str,
    attribute_on_eval: bool = False,
    attribution_cfg: attribution_mod.AttributionConfig | None = None,
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
        result = pipeline.retrieve(question.question, cfg)
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


def _report(
    results: list[QuestionResult],
    cfg: RetrievalConfig,
    reader: Reader,
    mode: str,
    extractor: Extractor | None,
    attribute_on_eval: bool = False,
    config_echo: dict | None = None,
) -> EvalReport:
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
    config = {
        "mode": mode,
        "retrieval": cfg.to_dict(),
        "reader": getattr(reader, "name", type(reader).__name__),
        "extractor": getattr(extractor, "name", type(extractor).__name__)
        if extractor is not None
        else None,
        "prompt_template": PROMPT_TEMPLATE,
        "attribute_on_eval": attribute_on_eval,
        **(config_echo or {}),
    }
    return EvalReport(
        results=results, per_type=per_type, overall=summarise(results), config=config
    )


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------

REMOVABLE = ("decay", "cw", "tier", "scoping")


def apply_cell(cfg: RetrievalConfig, overrides: dict) -> RetrievalConfig:
    """Produce the cell's config: signal removal zeroes a weight and
    renormalises; removing scoping disables stage 1. Every other key is a
    RetrievalConfig field or its short name (``k``, ``k1``, ``budget``), read
    by ``config.load``."""
    out = cfg
    removal = overrides.get("remove")
    if removal:
        if removal == "scoping":
            out = replace(out, stage1_k1=None)
        elif removal in REMOVABLE:
            out = replace(out, weights=out.weights.without(removal))
        else:
            raise ValidationError(f"cannot remove {removal!r}")
    values = {RETRIEVAL_ALIASES.get(k, k): v for k, v in overrides.items() if k != "remove"}
    return load(RetrievalConfig, values, out)


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
    *,
    extractor: Extractor | None = HeuristicExtractor(),
    decay: DecayConfig | None = None,
    tiers: TierConfig | None = None,
    embedder: Embedder | None = None,
) -> list[dict]:
    """Each cell re-ranks one memory per question (``question_memories``) in
    retrieval mode, and no cell attributes. Returns one machine-readable row
    per cell with its full report attached, whose results equal
    ``run_benchmark`` under the cell's config apart from latencies."""
    if not cells:
        raise ValidationError("ablation grid is empty")
    overrides = [{k: v for k, v in cell.items() if k != "label"} for cell in cells]
    configs = [apply_cell(base_cfg, cell) for cell in overrides]
    per_cell: list[list[QuestionResult]] = [[] for _ in cells]
    memories = question_memories(
        dataset, base_cfg, extractor=extractor, decay=decay, tiers=tiers, embedder=embedder
    )
    for question, store, pipeline in memories:
        for results, cfg in zip(per_cell, configs):
            results.append(
                _evaluate_question(store, pipeline, question, cfg, reader, MODE_RETRIEVAL)
            )
    rows = []
    for cell, changed, cfg, results in zip(cells, overrides, configs, per_cell):
        label = cell.get("label") or ",".join(f"{k}={v}" for k, v in sorted(changed.items()))
        report = _report(results, cfg, reader, MODE_RETRIEVAL, extractor)
        rows.append(
            {
                "cell": label or "full",
                "overrides": changed,
                "n": report.overall.n,
                "acc": report.overall.accuracy,
                "f1": report.overall.f1,
                "wilson": report.overall.wilson,
                "report": report,
            }
        )
    return rows
