"""Two-stage scoped retrieval with lexical, dense and hybrid ranking.

Stage 1 ranks semantic facts lexically and gathers the top distinct session
ids. Stage 2 scores episodic entries inside those sessions with the
composite formula and returns the top k, greedily packed into a token budget.

BM25 has one layout for both tiers, ``lexical.Postings`` groups built by
``lexical.build_postings``, and every text is tokenised once per snapshot.
The facts are one group in id order, which stage 1 ranks through a cached
``lexical.Bm25Columns``. Stage 2 has two pools, picked by what stage 1
returned. A scoped query ranks the entries of its sessions; a query with no
scope (``k1`` None, or a query whose facts name no session the snapshot
holds) ranks the whole snapshot. Each session is one group keyed by
snapshot position, built the first time the session enters a pool, with the
term strings interned once per snapshot and every document length in one
per-snapshot column. A scoped pool's raw BM25 is ``lexical.pool_scores``
over its sessions' groups; the whole pool is a ``lexical.Bm25Columns`` over
every session's group, so a fallback reuses the sessions already built, and
its float64 column is in snapshot order, with nothing sorted. The facts and
the whole pool never change within a snapshot, so their columns keep every
query term's per-document BM25 contributions from the first query that uses
the term on; a scoped pool's N and document frequencies change with its
sessions, so it keeps none.
Stage 2 scores a pool as columns (``scoring.pool_signals``). The inputs no
query changes, exp(-lambda * age), phi_cw, the tier multiplier and the
timestamp, are kept per snapshot position, and a pool takes them by its
positions; so are the entry ids, whose uniqueness is settled once per
snapshot. Scope membership follows from the pool's kind: a scoped pool is
exactly the entries of its scoped sessions, so all of it is in scope, and
the whole-snapshot pool has an empty scope. Only raw BM25 and dense
similarity are computed per query. ``ScoreBreakdown`` and ``RankedEntry``
are built only for the entries returned.

Every mode ranks through the same composite. In dense and hybrid modes each
candidate's embedding cosine to the query fills the phi_sem slot; dense mode
ranks under the weight vector (1, 0, 0, 0, 0), so its score is the cosine,
and hybrid mode fuses the order under the configured weights with the dense
order by reciprocal rank.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from collections.abc import Container, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, pairwise
from operator import attrgetter
from typing import Protocol

import numpy as np

from . import lexical, scoring
from .errors import ValidationError, is_count
from .scoring import (
    DecayConfig,
    ScoreBreakdown,
    TierConfig,
    Variant,
    WeightVector,
)
from .store import EpisodicEntry, SemanticFact

MODE_BM25 = "bm25"
MODE_DENSE = "dense"
MODE_HYBRID = "hybrid_rrf"
MODES = (MODE_BM25, MODE_DENSE, MODE_HYBRID)
# Dense mode's ranking: the composite reduces exactly to phi_sem.
DENSE_WEIGHTS = WeightVector(1.0, 0.0, 0.0, 0.0, 0.0)
_UNBOUNDED_K1 = ("inf", "none", "unbounded")


def parse_stage1_k1(value) -> int | None:
    """Read a stage-1 session cap from a flag, config file or grid cell.

    None or one of "inf", "none", "unbounded" (any case) means no cap; an
    integer or integer string is the cap. Anything else is a ValidationError.
    """
    text = str(value).strip().lower()  # None reads as "none"
    if text in _UNBOUNDED_K1:
        return None
    if type(value) is int or (isinstance(value, str) and text.isdecimal()):
        return int(text)
    raise ValidationError(
        f"stage1_k1 must be an integer or one of {_UNBOUNDED_K1}, got {value!r}"
    )


@dataclass(frozen=True)
class RetrievalConfig:
    """Pipeline knobs; k=2 with a 600-token budget is the recommended
    operating point for small readers, the defaults below are the baseline."""

    stage1_k1: int | None = 5  # None disables scoping entirely
    stage2_k: int = 4
    token_budget: int = 300
    weights: WeightVector = field(default_factory=WeightVector.default)
    variant: Variant = Variant.RAW
    mode: str = MODE_BM25
    rrf_k: int = 60
    include_timestamps: bool = False

    def __post_init__(self) -> None:
        if not (self.stage1_k1 is None or is_count(self.stage1_k1) and self.stage1_k1 >= 1):
            raise ValidationError(f"stage1_k1 must be an integer >= 1 or None: {self.stage1_k1!r}")
        for name in ("stage2_k", "token_budget", "rrf_k"):
            value = getattr(self, name)
            if not (is_count(value) and value >= 1):
                raise ValidationError(f"{name} must be an integer >= 1: {value!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.variant is Variant.ZSCORE_EQUAL_FUSION:  # this variant fixes its weights
            object.__setattr__(self, "weights", WeightVector.equal_fusion())

    def to_dict(self) -> dict:
        """JSON-safe echo of every field, as recorded with runs and results."""
        return {
            "stage1_k1": self.stage1_k1,
            "stage2_k": self.stage2_k,
            "token_budget": self.token_budget,
            "weights": self.weights.as_list(),
            "variant": self.variant.value,
            "mode": self.mode,
            "rrf_k": self.rrf_k,
            "include_timestamps": self.include_timestamps,
        }


class Embedder(Protocol):
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        ...


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words embedder for offline dense ranking.

    Each token hashes to a signed coordinate; vectors are L2-normalised.
    Empty texts map to a fixed unit basis vector.
    """

    def __init__(self, dimension: int = 64):
        self.dimension = dimension

    def _token_slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        sign = 1.0 if value & 1 == 0 else -1.0
        return (value >> 1) % self.dimension, sign

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        vectors = []
        for text in texts:
            vec = np.zeros(self.dimension)
            for token in lexical.tokenize(text):
                idx, sign = self._token_slot(token)
                vec[idx] += sign
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                vec[0] = 1.0
                norm = 1.0
            vectors.append((vec / norm).tolist())
        return vectors


@dataclass
class RankedEntry:
    entry: EpisodicEntry
    breakdown: ScoreBreakdown
    fused_score: float | None = None

    @property
    def score(self) -> float:
        if self.fused_score is not None:
            return self.fused_score
        return self.breakdown.composite


@dataclass
class RetrievalResult:
    query: str
    mode: str
    variant: Variant
    ranked: list[RankedEntry]
    scoped_session_ids: list[str]
    total_sessions: int
    sessions_searched: int
    scoping_disabled: bool
    fallback_unscoped: bool
    packed_context: str
    packed_entry_ids: list[str]
    packed_token_count: int
    latency_micros: dict[str, int]

    @property
    def sessions_ratio(self) -> float:
        if self.total_sessions == 0:
            return 0.0
        return self.sessions_searched / self.total_sessions


@dataclass(frozen=True)
class FactIndex:
    """Stage 1's view of a fact set: the facts in id order and BM25 columns
    over them by that position, so score ties go to the smaller id. The
    columns keep each query term's per-fact BM25 contributions from the
    first query that uses the term on, so a snapshot's later queries only
    add them."""

    bm25: lexical.Bm25Columns
    by_id: list[SemanticFact]


def build_fact_index(facts: Sequence[SemanticFact]) -> FactIndex:
    """Facts are searchable by the subject+relation+value concatenation, one
    postings group in id order. Two facts with one id raise ValidationError."""
    by_id = sorted(facts, key=attrgetter("id"))
    for fact, after in pairwise(by_id):
        if fact.id == after.id:
            raise ValidationError(f"duplicate doc_id: {fact.id!r}")
    doc_len = [0] * len(by_id)
    group = lexical.build_postings(enumerate(f.search_text() for f in by_id), {}, doc_len)
    return FactIndex(lexical.Bm25Columns([group], doc_len), by_id)


def stage1_scope(
    query_tokens: Sequence[str],
    facts: Sequence[SemanticFact],
    k1: int | None,
    index: FactIndex | None = None,
    sessions: Container[str] | None = None,
) -> list[str]:
    """Walk facts in lexical-rank order, (score desc, id asc), gathering
    distinct session ids.

    A multi-session fact contributes all its sessions at its rank. Only
    positive-scoring facts count as relevant; with k1=None every session
    backed by one is returned. When ``sessions`` is given, only the sessions
    in it are gathered and count towards k1: facts are shared by a project,
    while a snapshot may hold the entries of only some of its sessions. The
    facts come from ``Bm25Columns.ranked``, which sorts only as many top
    facts as the walk reaches.
    """
    if not facts:
        return []
    if index is None:
        index = build_fact_index(facts)
    scoped: list[str] = []
    seen: set[str] = set()
    for position, _ in index.bm25.ranked(query_tokens):
        for session_id in sorted(index.by_id[position].session_ids):
            if session_id in seen or (sessions is not None and session_id not in sessions):
                continue
            seen.add(session_id)
            scoped.append(session_id)
            if k1 is not None and len(scoped) >= k1:
                return scoped
    return scoped


def _entry_signals(
    entry: EpisodicEntry, now: datetime, decay: DecayConfig, tiers: TierConfig
) -> tuple[float, float, float, float]:
    """An entry's stage-2 inputs that no query changes: exp(-lambda * age),
    phi_cw, the tier multiplier and the timestamp in POSIX seconds, which is
    the tie key of ``scoring.rank_order``. A cognitive weight outside
    [-1, 1] raises ValidationError."""
    age = max(0.0, (now - entry.timestamp).total_seconds() / 86400.0)
    return (
        scoring.decay_signal(age, False, decay),
        scoring.cw_signal(entry.cognitive_weight),
        tiers.multiplier(scoring.SEMANTIC if entry.promoted else scoring.EPISODIC),
        entry.timestamp.timestamp(),
    )


def stage2_retrieve(
    query_tokens: Sequence[str],
    entries: Sequence[EpisodicEntry],
    cfg: RetrievalConfig,
    *,
    decay: DecayConfig | None = None,
    tiers: TierConfig | None = None,
    semantic_scope: frozenset[str] | set[str] = frozenset(),
    now: datetime | None = None,
    k: int | None = 0,
    similarities: Sequence[float] | None = None,
    raw_bm25: np.ndarray | Sequence[float] | None = None,
    signals: np.ndarray | None = None,
    ids: Sequence[str] | None = None,
    in_scope: np.ndarray | None = None,
) -> list[RankedEntry]:
    """Rank the scoped entries best-first in ``cfg.mode``.

    bm25 ranks by the composite under ``cfg.weights``, dense by the composite
    under ``DENSE_WEIGHTS``, and hybrid_rrf fuses those two orders. Dense and
    hybrid need ``similarities``, one per entry. ``raw_bm25`` holds one value
    per entry too, the pool's BM25, best as a float64 array, which is used
    without a copy; without it the pool is indexed here. A caller that keeps
    per-snapshot inputs may pass each entry's ``_entry_signals`` row as
    ``signals`` (taken with the same now, decay and tiers), the entries' ids
    as ``ids`` once it knows that they are distinct, and ``in_scope``, one
    bool per entry, when it knows which entries are in the semantic scope;
    without them the ids are taken and checked here, and each entry's
    session is looked up in ``semantic_scope``. Callers must have excluded
    system entries already, and entry ids must be unique within the pool.
    ``k=0`` means "use cfg.stage2_k"; ``k=None`` returns the full ranking;
    any other k that is not an int >= 0 (a bool included) raises
    ValidationError.
    """
    if k is not None and not (is_count(k) and k >= 0):
        raise ValidationError(f"k must be None or an int >= 0, got {k!r}")
    if cfg.mode != MODE_BM25 and similarities is None:
        raise ValidationError(f"mode {cfg.mode!r} requires dense similarities")
    columns = (("similarities", similarities), ("raw_bm25", raw_bm25), ("in_scope", in_scope))
    for name, column in columns:
        if column is not None and len(column) != len(entries):
            raise ValidationError(f"{name} must hold one value per entry")
    if ids is None:
        ids = [e.id for e in entries]
        if len(set(ids)) < len(ids):
            duplicate = next(i for i, n in Counter(ids).items() if n > 1)
            raise ValidationError(f"duplicate doc_id: {duplicate!r}")
    if not entries:
        return []
    decay = decay or DecayConfig()
    tiers = tiers or TierConfig()
    if now is None:
        now = max(e.timestamp for e in entries)
    if raw_bm25 is None:
        doc_len = [0] * len(entries)
        group = lexical.build_postings(enumerate(e.content for e in entries), {}, doc_len)
        scores = lexical.pool_scores(query_tokens, [group], doc_len)
        raw_bm25 = [scores.get(i, 0.0) for i in range(len(entries))]
    if signals is None:
        signals = np.array([_entry_signals(e, now, decay, tiers) for e in entries])
    exp_age, phi_cw, multiplier, timestamp = signals.T
    if in_scope is None:
        if semantic_scope:
            in_scope = np.array([e.session_id in semantic_scope for e in entries])
        else:
            in_scope = np.zeros(len(entries), dtype=bool)
    pool = scoring.pool_signals(
        raw_bm25,
        np.zeros(len(entries)) if similarities is None else np.array(similarities, dtype=float),
        in_scope,
        exp_age,
        phi_cw,
        multiplier,
        decay,
        cfg.variant,
    )
    if k == 0:
        k = cfg.stage2_k
    weights = DENSE_WEIGHTS if cfg.mode == MODE_DENSE else cfg.weights
    composite = pool.composite(weights)
    if cfg.mode != MODE_HYBRID:
        order = scoring.rank_columns(composite, timestamp, ids, k)
        return [RankedEntry(entries[i], pool.breakdown(i, weights, composite)) for i in order]
    orders = [
        [ids[i] for i in scoring.rank_columns(c, timestamp, ids)]
        for c in (composite, pool.composite(DENSE_WEIGHTS))
    ]
    at = {entry_id: i for i, entry_id in enumerate(ids)}
    return [
        RankedEntry(entries[at[cid]], pool.breakdown(at[cid], weights, composite), fused_score=score)
        for cid, score in rrf_fuse(*orders, cfg.rrf_k)[:k]
    ]


def rrf_fuse(
    ranking_a: Sequence[str], ranking_b: Sequence[str], rrf_k: int = 60
) -> list[tuple[str, float]]:
    """Reciprocal-rank fusion: each item scores sum(1 / (k + rank)) over the
    rankings that contain it, rank starting at 1. Ties break by item id."""
    fused: dict[str, float] = {}
    for ranking in (ranking_a, ranking_b):
        for position, item in enumerate(ranking, start=1):
            fused[item] = fused.get(item, 0.0) + 1.0 / (rrf_k + position)
    return sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))


def pack_context(
    entries: Sequence[EpisodicEntry],
    token_budget: int,
    include_timestamps: bool = False,
) -> tuple[str, list[EpisodicEntry]]:
    """Greedily pack entries in rank order under the token budget.

    An entry that would overflow the remaining budget is skipped and the next
    one is tried; budget accounting uses each entry's stored token count.
    """
    if token_budget < 1:
        raise ValidationError("token_budget must be >= 1")
    used: list[EpisodicEntry] = []
    total = 0
    for entry in entries:
        if total + entry.tokens > token_budget:
            continue
        used.append(entry)
        total += entry.tokens
    if include_timestamps:
        lines = [f"[{e.timestamp.date().isoformat()}] {e.content}" for e in used]
    else:
        lines = [e.content for e in used]
    return "\n".join(lines), used


def oracle_context(
    gold_sessions: Sequence[tuple[str, str]],
    gold_facts: Sequence[SemanticFact],
    session_limit: int = 3,
) -> str:
    """Gold-supporting context assembled without any retrieval: up to
    ``session_limit`` gold sessions' text plus the gold facts."""
    if not gold_sessions and not gold_facts:
        raise ValidationError("no gold sessions or facts available")
    parts = [text for _, text in gold_sessions[:session_limit]]
    parts.extend(f.search_text() for f in gold_facts)
    return "\n".join(parts)


class RetrievalPipeline:
    """Immutable snapshot of one project's memory plus a default config.

    Construction snapshots the entry and fact sets, so retrieval concurrent
    with a consolidation pass sees either the pre-pass or post-pass tier,
    never a torn state. ``retrieve`` ranks under the config it is given, or
    ``self.cfg``; no cache depends on the config, only on the snapshot, now,
    decay and tiers. The facts are indexed when ``self.cfg`` scopes, else
    when a query's config first does. Stage 2 ranks the entries of the
    scoped sessions, or the whole snapshot when stage 1 scopes none (``k1``
    None, or a query whose facts name no session the snapshot holds). A
    session is indexed the first time it enters a pool, which the whole
    snapshot's pool does with every session it does not hold yet. A scoped
    pool is scored by ``lexical.pool_scores`` over its sessions' postings,
    as its N and average length change with the sessions in it; the whole
    snapshot's are fixed, so it is scored by one ``lexical.Bm25Columns``
    over every session's postings, which keeps each term's contributions
    for the snapshot's later queries.
    Every entry of a scoped pool is in scope and none of the whole pool is,
    so neither looks up a session per entry; the entry ids and whether they
    are distinct are taken once, at construction, and a pool passes its ids
    on only when they are, so ``stage2_retrieve`` checks the pool itself
    otherwise.
    ``skipped_lines`` counts the entry and fact lines that ``from_store``'s
    loads skipped.
    """

    def __init__(
        self,
        cfg: RetrievalConfig,
        *,
        entries: Sequence[EpisodicEntry],
        facts: Sequence[SemanticFact],
        decay: DecayConfig | None = None,
        tiers: TierConfig | None = None,
        embedder: Embedder | None = None,
        now: datetime | None = None,
    ):
        self.cfg = cfg
        self.decay = decay or DecayConfig()
        self.tiers = tiers or TierConfig()
        self.embedder = embedder
        self.entries = [e for e in entries if not e.system]
        self.facts = list(facts)
        self._ids = [e.id for e in self.entries]
        self._ids_distinct = len(set(self._ids)) == len(self._ids)
        self.skipped_lines = {"entries": 0, "facts": 0}
        self.now = now or max(
            (e.timestamp for e in self.entries), default=datetime.now(timezone.utc)
        )
        self._fact_index = (
            build_fact_index(self.facts) if self.facts and cfg.stage1_k1 is not None else None
        )
        # Session id -> positions of its entries in self.entries, ascending.
        self._session_positions: dict[str, list[int]] = {}
        for i, entry in enumerate(self.entries):
            self._session_positions.setdefault(entry.session_id, []).append(i)
        # Filled the first time a session enters a pool: its entries' BM25
        # postings, keyed by position as two entries may share an id, their
        # token lengths in _doc_len, and their rows of _entry_signals, which
        # now, decay and tiers fix. _terms interns the term strings of every
        # session's postings.
        self._session_postings: dict[str, lexical.Postings] = {}
        self._terms: dict[str, str] = {}
        self._doc_len = [0] * len(self.entries)
        self._signals = np.empty((len(self.entries), 4))
        # The whole snapshot's BM25 scorer, over every session's postings,
        # once a query needs it.
        self._snapshot_bm25: lexical.Bm25Columns | None = None

    @classmethod
    def from_store(
        cls,
        store,
        cfg: RetrievalConfig,
        *,
        project: str,
        agent_view: str | None = None,
        **kwargs,
    ) -> "RetrievalPipeline":
        loaded = store.load_entries(project, agent_view=agent_view)
        facts = store.load_facts()
        pipeline = cls(cfg, entries=loaded.entries, facts=facts.facts, **kwargs)
        pipeline.skipped_lines = {"entries": loaded.skipped, "facts": facts.skipped}
        return pipeline

    def retrieve(self, query: str, cfg: RetrievalConfig | None = None) -> RetrievalResult:
        cfg = cfg or self.cfg
        query_tokens = lexical.tokenize(query)
        total_sessions = len(self._session_positions)
        latency: dict[str, int] = {}

        t0 = time.perf_counter_ns()
        scoping_disabled = cfg.stage1_k1 is None
        scoped: list[str] = []
        if not scoping_disabled and self.facts:
            index = self._fact_index
            if index is None:  # two threads may build it; both store equal values
                index = self._fact_index = build_fact_index(self.facts)
            scoped = stage1_scope(
                query_tokens, self.facts, cfg.stage1_k1, index, self._session_positions
            )
        fallback_unscoped = not scoping_disabled and not scoped
        if scoped:
            # Pool-relative variants sum in pool order: snapshot order.
            by_session = map(self._session_positions.__getitem__, scoped)
            positions = sorted(chain.from_iterable(by_session))
            pool = [self.entries[i] for i in positions]
        else:
            positions, pool = range(len(self.entries)), self.entries
        latency["stage1"] = (time.perf_counter_ns() - t0) // 1000

        t1 = time.perf_counter_ns()
        similarities = None if cfg.mode == MODE_BM25 else self._similarities(query, pool, cfg.mode)
        if scoped:
            sessions = self._scoped_postings(scoped)
            scores = lexical.pool_scores(query_tokens, sessions, self._doc_len)
            raw_bm25 = [scores.get(i, 0.0) for i in positions]
            signals = self._signals[positions]
            ids = [self._ids[i] for i in positions] if self._ids_distinct else None
            in_scope = np.ones(len(pool), dtype=bool)
        else:
            raw_bm25 = self._whole_snapshot_bm25().scores(query_tokens)
            signals = self._signals
            ids = self._ids if self._ids_distinct else None
            in_scope = np.zeros(len(pool), dtype=bool)
        ranked = stage2_retrieve(
            query_tokens,
            pool,
            cfg,
            decay=self.decay,
            tiers=self.tiers,
            now=self.now,
            similarities=similarities,
            raw_bm25=raw_bm25,
            signals=signals,
            ids=ids,
            in_scope=in_scope,
        )
        latency["stage2"] = (time.perf_counter_ns() - t1) // 1000

        t2 = time.perf_counter_ns()
        context, used = pack_context(
            [r.entry for r in ranked], cfg.token_budget, cfg.include_timestamps
        )
        latency["pack"] = (time.perf_counter_ns() - t2) // 1000

        return RetrievalResult(
            query=query,
            mode=cfg.mode,
            variant=cfg.variant,
            ranked=ranked,
            scoped_session_ids=scoped,
            total_sessions=total_sessions,
            sessions_searched=len(scoped) if scoped else total_sessions,
            scoping_disabled=scoping_disabled,
            fallback_unscoped=fallback_unscoped,
            packed_context=context,
            packed_entry_ids=[e.id for e in used],
            packed_token_count=sum(e.tokens for e in used),
            latency_micros=latency,
        )

    def _scoped_postings(self, sessions: Sequence[str]) -> list[lexical.Postings]:
        """The BM25 postings of each session, built once per snapshot
        together with its entries' signal rows. The sessions not built yet
        get their signal rows first, in one assignment, then their postings;
        a session is published only once both are complete, so when a signal
        raises none of them is stored, and the next pool raises again. Two
        threads may build one session at once; both write equal lengths and
        signal rows and store equal postings, over the same interned terms."""
        built = self._session_postings
        missing = [session for session in sessions if session not in built]
        if missing:
            at = self._session_positions
            positions = [i for session in missing for i in at[session]]
            self._signals[positions] = [
                _entry_signals(self.entries[i], self.now, self.decay, self.tiers)
                for i in positions
            ]
            for session in missing:
                docs = ((i, self.entries[i].content) for i in at[session])
                built[session] = lexical.build_postings(docs, self._terms, self._doc_len)
        return [built[session] for session in sessions]

    def _whole_snapshot_bm25(self) -> lexical.Bm25Columns:
        """``lexical.Bm25Columns`` over every session's postings, whose
        positions are 0..N-1, so its column is in snapshot order. Built once
        per snapshot through ``_scoped_postings``, which builds only the
        sessions that no pool has built yet, with their signal rows; a
        session whose signals raise is not stored, so the next query raises
        again. Two threads may build at once; both store equal values."""
        built = self._snapshot_bm25
        if built is None:
            sessions = self._scoped_postings(list(self._session_positions))
            built = self._snapshot_bm25 = lexical.Bm25Columns(sessions, self._doc_len)
        return built

    def _similarities(self, query: str, pool: Sequence[EpisodicEntry], mode: str) -> list[float]:
        """Cosine of each pool entry to the query, from one embed call.

        Each is its own dot product, as a matrix product may sum in another
        order. Embedder failures propagate; there is no lexical fallback.
        """
        if self.embedder is None:
            raise ValidationError(f"mode {mode!r} requires an embedder")
        if not pool:
            return []
        vectors = self.embedder.embed([query] + [e.content for e in pool])
        query_vec = np.asarray(vectors[0])
        return [float(np.dot(query_vec, np.asarray(v))) for v in vectors[1:]]
