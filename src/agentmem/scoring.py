"""Five-signal relevance scoring.

A candidate's composite score is a weighted sum of four signal values (dense
similarity, lexical BM25, recency decay, cognitive weight) plus an additive
tier bonus that acts as a tiebreaker:

    S = w_sem*phi_sem + w_bm25*phi_bm25 + w_decay*phi_decay + w_cw*phi_cw
        + w_tier*(mu - 1)

phi_sem is the candidate's embedding cosine to the query, supplied by the
caller (0 when no embedder is in use). The recency signal is bypassed (forced
to 1) for strong lexical matches and for candidates whose session was selected
by semantic scoping. The BM25 signal may optionally be normalised over the
candidate pool; the bypass threshold always applies to the raw score.

``composite_score``, ``score_pool`` and ``rank_order`` are the reference
definitions: one ``Candidate`` and one ``ScoreBreakdown`` per entry, and a
sort of the whole pool. Retrieval scores a pool as columns instead:
``pool_signals`` holds each signal as one array over the pool,
``PoolSignals.composite`` adds the weighted arrays element-wise in the
reference's order (so every value is the same float), and ``rank_columns``
orders only the entries that can reach the top k. Breakdowns are built only
for the entries returned.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

import numpy as np

from .errors import ValidationError, is_finite_number

_SUM_TOL = 1e-9

EPISODIC = "episodic"
SEMANTIC = "semantic"


@dataclass(frozen=True)
class WeightVector:
    """Scoring weights; nonnegative, summing to 1. The semantic (dense
    similarity) weight defaults to 0, so the default ranking is lexical."""

    w_sem: float = 0.0
    w_bm25: float = 0.35
    w_decay: float = 0.25
    w_cw: float = 0.25
    w_tier: float = 0.15

    def __post_init__(self) -> None:
        values = self.as_list()
        if not all(is_finite_number(v) and v >= 0 for v in values):
            raise ValidationError(f"weights must be finite and nonnegative: {values}")
        total = sum(values)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"weights must sum to 1, got {total!r}")

    @classmethod
    def default(cls) -> "WeightVector":
        return cls()

    @classmethod
    def equal_fusion(cls) -> "WeightVector":
        """Equal weight on the four non-semantic signals; w_sem stays 0."""
        return cls(0.0, 0.25, 0.25, 0.25, 0.25)

    def as_list(self) -> list[float]:
        return [self.w_sem, self.w_bm25, self.w_decay, self.w_cw, self.w_tier]

    def without(self, signal: str) -> "WeightVector":
        """Zero one signal's weight and renormalise the rest to sum 1."""
        names = ("sem", "bm25", "decay", "cw", "tier")
        if signal not in names:
            raise ValidationError(f"unknown signal: {signal!r}")
        values = self.as_list()
        idx = names.index(signal)
        values[idx] = 0.0
        total = sum(values)
        if total <= 0:
            raise ValidationError("cannot remove the only nonzero weight")
        return WeightVector(*(v / total for v in values))


class Variant(str, Enum):
    """BM25-signal normalisation variants."""

    RAW = "raw"
    LOG1P = "log1p"
    MINMAX = "minmax"
    ZSCORE = "zscore"
    ZSCORE_EQUAL_FUSION = "zscore_equal_fusion"


# Variants computed element-wise; the rest need the whole candidate pool.
_ELEMENTWISE = {Variant.RAW, Variant.LOG1P}


class BypassReason(str, Enum):
    NONE = "none"
    BM25_THRESHOLD = "bm25_threshold"
    SEMANTIC_SCOPE = "semantic_scope"


@dataclass(frozen=True)
class DecayConfig:
    lambda_per_day: float = 0.05
    bypass_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not (is_finite_number(self.lambda_per_day) and self.lambda_per_day > 0):
            raise ValidationError(f"lambda_per_day must be finite and > 0: {self.lambda_per_day!r}")
        if not is_finite_number(self.bypass_threshold):
            raise ValidationError(f"bypass_threshold must be finite: {self.bypass_threshold!r}")


@dataclass(frozen=True)
class TierConfig:
    """The multiplier of each tier an entry can be in: episodic, or semantic
    once a consolidation pass has promoted it."""

    episodic: float = 1.0
    semantic: float = 1.2

    def __post_init__(self) -> None:
        multipliers = (self.episodic, self.semantic)
        if not all(is_finite_number(m) and m >= 1.0 for m in multipliers):
            raise ValidationError(f"tier multipliers must be finite and >= 1: {multipliers}")

    def multiplier(self, tier: str) -> float:
        if tier == EPISODIC:
            return self.episodic
        if tier == SEMANTIC:
            return self.semantic
        raise ValidationError(f"unknown tier: {tier!r}")


@dataclass(frozen=True)
class Candidate:
    """One scoring candidate with its precomputed signal inputs."""

    id: str
    session_id: str
    timestamp: datetime
    raw_bm25: float
    age_days: float
    cw: float
    tier: str = EPISODIC
    similarity: float = 0.0


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-candidate signal values and the composite they produced."""

    phi_sem: float
    phi_bm25_raw: float
    phi_bm25: float
    phi_decay: float
    phi_cw: float
    tier_bonus: float
    composite: float
    bypass_applied: bool
    bypass_reason: BypassReason

    def as_dict(self) -> dict:
        return {
            "phi_sem": self.phi_sem,
            "phi_bm25_raw": self.phi_bm25_raw,
            "phi_bm25": self.phi_bm25,
            "phi_decay": self.phi_decay,
            "phi_cw": self.phi_cw,
            "tier_bonus": self.tier_bonus,
            "composite": self.composite,
            "bypass_applied": self.bypass_applied,
            "bypass_reason": self.bypass_reason.value,
        }


def decay_signal(age_days: float, bypass: bool, cfg: DecayConfig) -> float:
    """exp(-lambda * age), forced to 1 when the bypass rule fired."""
    if age_days < 0:
        raise ValidationError(f"age_days must be nonnegative, got {age_days}")
    if bypass:
        return 1.0
    return math.exp(-cfg.lambda_per_day * age_days)


def evaluate_bypass(
    raw_bm25: float,
    session_id: str,
    semantic_scope: frozenset[str] | set[str],
    cfg: DecayConfig,
) -> tuple[bool, BypassReason]:
    """Strong lexical match (strict threshold) or scoped session bypasses decay."""
    if raw_bm25 > cfg.bypass_threshold:
        return True, BypassReason.BM25_THRESHOLD
    if session_id in semantic_scope:
        return True, BypassReason.SEMANTIC_SCOPE
    return False, BypassReason.NONE


def cw_signal(cw: float) -> float:
    """Map cognitive weight from [-1, 1] onto [0, 1]."""
    if not -1.0 <= cw <= 1.0:
        raise ValidationError(f"cognitive weight out of range: {cw}")
    return (cw + 1.0) / 2.0


def normalise_scores(raw_scores: Sequence[float], variant: Variant) -> list[float]:
    """Transform BM25 scores over one candidate pool.

    minmax maps min->0, max->1 (constant pool -> all 0.5); zscore uses the
    population standard deviation (constant pool -> all 0).
    """
    variant = Variant(variant)
    if variant is Variant.RAW:
        return list(raw_scores)
    if variant is Variant.LOG1P:
        return [math.log1p(s) for s in raw_scores]
    if len(raw_scores) == 0:  # a numpy column has no truth value
        raise ValidationError("pool normalisation requires a nonempty pool")
    lo, hi = min(raw_scores), max(raw_scores)
    if variant is Variant.MINMAX:
        if hi == lo:
            return [0.5] * len(raw_scores)
        return [(s - lo) / (hi - lo) for s in raw_scores]
    # zscore and its equal-weight fusion twin share the transform; the fusion
    # variant additionally swaps in equal weights at pipeline level. A
    # constant pool is tested by its range: its rounded mean can differ from
    # its value, which leaves a nonzero deviation.
    if hi == lo:
        return [0.0] * len(raw_scores)
    mean = sum(raw_scores) / len(raw_scores)
    var = sum((s - mean) ** 2 for s in raw_scores) / len(raw_scores)
    std = math.sqrt(var)
    if std == 0.0:
        return [0.0] * len(raw_scores)
    return [(s - mean) / std for s in raw_scores]


def composite_score(
    candidate: Candidate,
    weights: WeightVector,
    tier_cfg: TierConfig,
    decay_cfg: DecayConfig,
    semantic_scope: frozenset[str] | set[str],
    variant: Variant = Variant.RAW,
    bm25_signal: float | None = None,
) -> ScoreBreakdown:
    """Assemble the signal vector for one candidate and combine it.

    For pool-relative variants (minmax/zscore) the caller must pass the
    pool-normalised value as ``bm25_signal``; element-wise variants are
    applied here. Bypass evaluation always uses the raw score.
    """
    variant = Variant(variant)
    if bm25_signal is None:
        if variant not in _ELEMENTWISE:
            raise ValidationError(f"variant {variant.value} needs a pool-normalised bm25_signal")
        bm25_signal = normalise_scores([candidate.raw_bm25], variant)[0]
    multiplier = tier_cfg.multiplier(candidate.tier)
    return _combine(candidate, weights, multiplier, decay_cfg, semantic_scope, bm25_signal)


def _combine(
    candidate: Candidate,
    weights: WeightVector,
    multiplier: float,
    decay_cfg: DecayConfig,
    semantic_scope: frozenset[str] | set[str],
    bm25_signal: float,
) -> ScoreBreakdown:
    """The breakdown of one candidate with its tier multiplier and BM25
    signal already resolved."""
    bypassed, reason = evaluate_bypass(
        candidate.raw_bm25, candidate.session_id, semantic_scope, decay_cfg
    )
    phi_decay = decay_signal(candidate.age_days, bypassed, decay_cfg)
    phi_cw = cw_signal(candidate.cw)
    tier_bonus = weights.w_tier * (multiplier - 1.0)
    composite = (
        weights.w_sem * candidate.similarity
        + weights.w_bm25 * bm25_signal
        + weights.w_decay * phi_decay
        + weights.w_cw * phi_cw
        + tier_bonus
    )
    return ScoreBreakdown(
        phi_sem=candidate.similarity,
        phi_bm25_raw=candidate.raw_bm25,
        phi_bm25=bm25_signal,
        phi_decay=phi_decay,
        phi_cw=phi_cw,
        tier_bonus=tier_bonus,
        composite=composite,
        bypass_applied=bypassed,
        bypass_reason=reason,
    )


def score_pool(
    candidates: Sequence[Candidate],
    weights: WeightVector,
    tier_cfg: TierConfig,
    decay_cfg: DecayConfig,
    semantic_scope: frozenset[str] | set[str],
    variant: Variant = Variant.RAW,
) -> list[ScoreBreakdown]:
    """Score a whole candidate pool, normalising BM25 over the pool.

    Equal to ``composite_score`` per candidate with its pool-normalised
    signal; the variant and each tier's multiplier are resolved once.
    """
    if not candidates:
        return []
    signals = normalise_scores([c.raw_bm25 for c in candidates], variant)
    multipliers = {tier: tier_cfg.multiplier(tier) for tier in {c.tier for c in candidates}}
    return [
        _combine(c, weights, multipliers[c.tier], decay_cfg, semantic_scope, s)
        for c, s in zip(candidates, signals)
    ]


def rank_order(
    candidates: Sequence[Candidate], breakdowns: Sequence[ScoreBreakdown]
) -> list[int]:
    """Indices sorted by composite desc; ties break by newer timestamp, then id."""
    return sorted(
        range(len(candidates)),
        key=lambda i: (
            -breakdowns[i].composite,
            -candidates[i].timestamp.timestamp(),
            candidates[i].id,
        ),
    )


@dataclass(frozen=True)
class PoolSignals:
    """One pool's signals for one query as columns, one value per entry.

    The column form of ``score_pool``: ``composite`` of entry i equals
    ``composite_score`` of that entry, and ``breakdown(i, ...)`` its
    ``ScoreBreakdown``, field for field.
    """

    phi_sem: np.ndarray
    phi_bm25_raw: np.ndarray
    phi_bm25: np.ndarray
    phi_decay: np.ndarray
    phi_cw: np.ndarray
    multiplier: np.ndarray
    bm25_bypass: np.ndarray
    scope_bypass: np.ndarray

    def composite(self, weights: WeightVector) -> np.ndarray:
        # Element-wise in _combine's order, each step rounded as in Python;
        # a matrix product would sum in another order.
        return (
            weights.w_sem * self.phi_sem
            + weights.w_bm25 * self.phi_bm25
            + weights.w_decay * self.phi_decay
            + weights.w_cw * self.phi_cw
            + weights.w_tier * (self.multiplier - 1.0)
        )

    def breakdown(self, i: int, weights: WeightVector, composite: np.ndarray) -> ScoreBreakdown:
        """Entry i's breakdown under ``weights``, whose composite column is
        ``composite``; every field is a Python float or bool."""
        if self.bm25_bypass[i]:
            reason = BypassReason.BM25_THRESHOLD
        elif self.scope_bypass[i]:
            reason = BypassReason.SEMANTIC_SCOPE
        else:
            reason = BypassReason.NONE
        return ScoreBreakdown(
            phi_sem=float(self.phi_sem[i]),
            phi_bm25_raw=float(self.phi_bm25_raw[i]),
            phi_bm25=float(self.phi_bm25[i]),
            phi_decay=float(self.phi_decay[i]),
            phi_cw=float(self.phi_cw[i]),
            tier_bonus=weights.w_tier * (float(self.multiplier[i]) - 1.0),
            composite=float(composite[i]),
            bypass_applied=reason is not BypassReason.NONE,
            bypass_reason=reason,
        )


def pool_signals(
    raw_bm25: np.ndarray | Sequence[float],
    similarity: np.ndarray,
    in_scope: np.ndarray,
    decay: np.ndarray,
    phi_cw: np.ndarray,
    multiplier: np.ndarray,
    decay_cfg: DecayConfig,
    variant: Variant = Variant.RAW,
) -> PoolSignals:
    """Signal columns of a pool: ``decay`` holds each entry's
    exp(-lambda * age) before any bypass, ``phi_cw`` its ``cw_signal`` and
    ``multiplier`` its tier multiplier; ``in_scope`` marks entries of the
    semantic scope. A float64 ``raw_bm25`` column is taken as it is, not
    copied. BM25 is normalised over the pool by ``normalise_scores`` on the
    column's Python floats, so pool-relative variants sum the same floats
    in the same order whether the caller passed a list or an array.
    """
    raw = np.asarray(raw_bm25, dtype=float)
    bm25_bypass = raw > decay_cfg.bypass_threshold
    return PoolSignals(
        phi_sem=similarity,
        phi_bm25_raw=raw,
        phi_bm25=(
            raw if variant is Variant.RAW else np.array(normalise_scores(raw.tolist(), variant))
        ),
        phi_decay=np.where(bm25_bypass | in_scope, 1.0, decay),
        phi_cw=phi_cw,
        multiplier=multiplier,
        bm25_bypass=bm25_bypass,
        scope_bypass=in_scope & ~bm25_bypass,
    )


def rank_columns(
    composite: np.ndarray, timestamp: np.ndarray, ids: Sequence[str], k: int | None = None
) -> list[int]:
    """The first ``k`` indices of ``rank_order`` (all when k is None), from
    a composite column, a timestamp column in POSIX seconds and the ids.

    Only entries scoring at least the k-th best composite can place, so only
    they are ordered: by id in string order, then by a stable sort on
    (composite desc, timestamp desc).
    """
    n = len(composite)
    if k is not None and k < n:
        kth = np.partition(composite, n - k)[n - k]
        idx = np.flatnonzero(composite >= kth).tolist()
    else:
        idx = range(n)
    by_id = np.array(sorted(idx, key=ids.__getitem__), dtype=np.intp)
    order = by_id[np.lexsort((-timestamp[by_id], -composite[by_id]))]
    return order[:k].tolist()
