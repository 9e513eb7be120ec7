"""Outcome credit assignment over retrieved entries.

After an answer or tool outcome, each retrieved entry receives a share of
the reward proportional to its normalised token overlap with the outcome
text, and its cognitive weight moves by

    delta_i = alpha * reward * a_hat_i      (then clipped into [-1, 1])

so the total applied credit always equals alpha * reward.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ValidationError
from .lexical import tokenize
from .store import EpisodicEntry, MemoryStore

QA_CORRECT_REWARD = 1.0
QA_INCORRECT_REWARD = 0.0

OUTCOME_REWARDS = {"success": 1.0, "neutral": 0.0, "failure": -0.5}
REWARD_VALUES = frozenset({QA_CORRECT_REWARD, QA_INCORRECT_REWARD, *OUTCOME_REWARDS.values()})


@dataclass(frozen=True)
class AttributionConfig:
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValidationError("alpha must be > 0")


@dataclass(frozen=True)
class AttributionOutcome:
    entry_ids: tuple[str, ...]
    raw: tuple[float, ...]
    normalised: tuple[float, ...]
    deltas: tuple[float, ...]


def jaccard_attribution(answer_text: str, entry_text: str) -> float:
    """Jaccard overlap of deduplicated token sets; both empty -> 0."""
    a = set(tokenize(answer_text))
    b = set(tokenize(entry_text))
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def compute_attribution(
    answer_text: str,
    entries: Sequence[tuple[str, str]],
    reward: float,
    cfg: AttributionConfig = AttributionConfig(),
) -> AttributionOutcome:
    """Pure attribution over (entry_id, entry_text) pairs.

    With no token overlap anywhere, credit is distributed uniformly so the
    conservation law (sum of deltas = alpha * reward) still holds.
    """
    if reward not in REWARD_VALUES:
        raise ValidationError(f"reward {reward} not in {sorted(REWARD_VALUES)}")
    ids = tuple(entry_id for entry_id, _ in entries)
    raw = tuple(jaccard_attribution(answer_text, text) for _, text in entries)
    total = sum(raw)
    if total > 0:
        normalised = tuple(a / total for a in raw)
    elif entries:
        normalised = tuple(1.0 / len(entries) for _ in entries)
    else:
        normalised = ()
    deltas = tuple(cfg.alpha * reward * a_hat for a_hat in normalised)
    return AttributionOutcome(entry_ids=ids, raw=raw, normalised=normalised, deltas=deltas)


def apply_attribution(
    store: MemoryStore,
    entries: Sequence[EpisodicEntry],
    answer_text: str,
    reward: float,
    cfg: AttributionConfig = AttributionConfig(),
) -> list[tuple[str, float]]:
    """Apply the clipped update to every retrieved entry; empty list is a no-op.

    Returns (entry_id, new cognitive weight) pairs in input order.
    """
    if not entries:
        return []
    outcome = compute_attribution(
        answer_text, [(e.id, e.content) for e in entries], reward, cfg
    )
    return [
        (entry_id, store.apply_cw_delta(entry_id, delta, reward))
        for entry_id, delta in zip(outcome.entry_ids, outcome.deltas)
    ]
