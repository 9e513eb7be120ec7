"""Gaussian-policy training of the retrieval weights.

The policy is a diagonal Gaussian over the four free weight components (the
semantic slot is pinned at 0); sampled vectors are clamped nonnegative and
renormalised onto the simplex. Updates use a clipped surrogate objective with
advantages centred on the batch mean reward, so a batch with constant rewards
has zero advantage everywhere and leaves the policy mean bit-identical --
the zero-variance failure mode this module exists to make observable.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ValidationError
from .evaluation import BenchmarkQuestion, Reader, soft_em
from .scoring import WeightVector

DEFAULT_SIGMA = 0.15


@dataclass
class WeightPolicy:
    mean: WeightVector = field(default_factory=WeightVector.default)
    sigma: tuple[float, float, float, float] = (DEFAULT_SIGMA,) * 4

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.sigma):
            raise ValidationError("sigma must be nonnegative")

    def free_mean(self) -> np.ndarray:
        return _free(self.mean)


@dataclass
class TrainingEpisode:
    weights: WeightVector
    question_id: str
    reward: float
    logp_old: float
    advantage: float = 0.0


def _free(weights: WeightVector) -> np.ndarray:
    return np.array([weights.w_bm25, weights.w_decay, weights.w_cw, weights.w_tier])


def _project_free(free: np.ndarray) -> np.ndarray:
    clamped = np.maximum(free, 0.0)
    total = clamped.sum()
    if total <= 0.0:
        # All components clamped away; fall back to the uniform point.
        return np.full(4, 0.25)
    return clamped / total


def _weights_from_free(free: np.ndarray) -> WeightVector:
    return WeightVector(0.0, float(free[0]), float(free[1]), float(free[2]), float(free[3]))


def sample_weights(
    policy: WeightPolicy, rng: np.random.Generator | int
) -> WeightVector:
    """Draw mean + sigma*gaussian per free component, clamp at 0, renormalise.

    The semantic component stays pinned at 0; a fixed seed yields the same
    sample. With sigma all zero the mean is returned exactly.
    """
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    sigma = np.asarray(policy.sigma)
    if not sigma.any():
        return policy.mean
    draw = policy.free_mean() + sigma * rng.standard_normal(4)
    return _weights_from_free(_project_free(draw))


def log_density(mean_free: np.ndarray, sigma: np.ndarray, w_free: np.ndarray) -> float:
    """Diagonal Gaussian log-density over the free components (closed form)."""
    z = (w_free - mean_free) / sigma
    return float(-0.5 * np.sum(z * z) - np.sum(np.log(sigma * math.sqrt(2 * math.pi))))


def task_reward(prediction: str, gold: str) -> float:
    """+1 for a soft exact match, -1 otherwise."""
    return 1.0 if soft_em(prediction, gold) == 1 else -1.0


def ppo_update(
    policy: WeightPolicy, episodes: Sequence[TrainingEpisode], cfg: TrainConfig
) -> WeightPolicy:
    """One clipped-surrogate ascent step on the mean; sigma is held fixed.

    Advantages are rewards minus the batch mean. If every advantage is zero
    (constant rewards, or a batch of one) the policy object is returned
    unchanged, keeping the mean bit-identical across any number of epochs.
    """
    if not episodes:
        raise ValidationError("batch must be nonempty")
    rewards = np.array([e.reward for e in episodes])
    advantages = rewards - rewards.mean()
    for episode, adv in zip(episodes, advantages):
        episode.advantage = float(adv)
    if not advantages.any():
        return policy

    mean_free = policy.free_mean()
    sigma = np.asarray(policy.sigma)
    if not sigma.all():
        raise ValidationError("ppo_update requires strictly positive sigma")
    grad = np.zeros(4)
    for episode, adv in zip(episodes, advantages):
        w_free = _free(episode.weights)
        ratio = math.exp(log_density(mean_free, sigma, w_free) - episode.logp_old)
        if (adv > 0 and ratio > 1.0 + cfg.clip_epsilon) or (
            adv < 0 and ratio < 1.0 - cfg.clip_epsilon
        ):
            continue  # clipped: no gradient from this episode
        grad += adv * ratio * (w_free - mean_free) / (sigma * sigma)
    grad /= len(episodes)
    new_free = _project_free(mean_free + cfg.step_size * grad)
    return WeightPolicy(mean=_weights_from_free(new_free), sigma=policy.sigma)


def stratified_sample(
    questions: Sequence[BenchmarkQuestion], count: int, rng: np.random.Generator
) -> list[BenchmarkQuestion]:
    """Sample by question_type proportionally to each type's share."""
    if count >= len(questions):
        return list(questions)
    by_type: dict[str, list[int]] = {}
    for idx, question in enumerate(questions):
        by_type.setdefault(question.question_type, []).append(idx)
    total = len(questions)
    # Largest-remainder allocation keeps the shares proportional and exact.
    quotas = {t: count * len(idxs) / total for t, idxs in by_type.items()}
    alloc = {t: int(q) for t, q in quotas.items()}
    leftover = count - sum(alloc.values())
    for t in sorted(quotas, key=lambda t: (-(quotas[t] - alloc[t]), t)):
        if leftover <= 0:
            break
        alloc[t] += 1
        leftover -= 1
    chosen: list[int] = []
    for t in sorted(by_type):
        idxs = by_type[t]
        take = min(alloc.get(t, 0), len(idxs))
        if take:
            chosen.extend(rng.choice(idxs, size=take, replace=False).tolist())
    chosen.sort()
    return [questions[i] for i in chosen]


def train(
    questions: Sequence[BenchmarkQuestion],
    pipeline_factory: Callable[[WeightVector], Callable[[BenchmarkQuestion], str]],
    reader: Reader,
    cfg: TrainConfig = TrainConfig(),
    seed: int = 0,
    policy: WeightPolicy | None = None,
) -> tuple[WeightVector, list[dict]]:
    """Sample weights per episode, roll out retrieval + reader, update per batch.

    A reader or pipeline failure scores that episode -1 and is counted in the
    batch log. Returns the final mean and one log record per batch.
    """
    if not questions:
        raise ValidationError("no training questions")
    rng = np.random.default_rng(seed)
    pool = stratified_sample(questions, cfg.question_count, rng)
    policy = policy or WeightPolicy()
    log: list[dict] = []
    batch_index = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pool))
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            episodes: list[TrainingEpisode] = []
            failures = 0
            for question_idx in chunk:
                question = pool[int(question_idx)]
                weights = sample_weights(policy, rng)
                logp = log_density(
                    policy.free_mean(), np.asarray(policy.sigma), _free(weights)
                )
                try:
                    context = pipeline_factory(weights)(question)
                    prediction = reader.answer(question, context)
                    reward = task_reward(prediction, question.answer)
                except Exception:
                    reward = -1.0
                    failures += 1
                episodes.append(
                    TrainingEpisode(
                        weights=weights,
                        question_id=question.question_id,
                        reward=reward,
                        logp_old=logp,
                    )
                )
            policy = ppo_update(policy, episodes, cfg)
            log.append(
                {
                    "batch": batch_index,
                    "epoch": epoch,
                    "mean_reward": float(np.mean([e.reward for e in episodes])),
                    "weights": policy.mean.as_list(),
                    "failures": failures,
                }
            )
            batch_index += 1
    return policy.mean, log
