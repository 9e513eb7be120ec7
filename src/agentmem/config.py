"""Declarative engine configuration.

A single YAML file configures every component; CLI flags override file
values. Every default matches the engine's baseline hyperparameters, so an
empty file (or none at all) yields the stock configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .attribution import AttributionConfig
from .errors import ValidationError
from .learning import TrainConfig
from .retrieval import RetrievalConfig, parse_stage1_k1
from .scoring import DecayConfig, TierConfig, Variant, WeightVector


@dataclass(frozen=True)
class Endpoint:
    url: str | None = None
    timeout: float = 10.0


@dataclass
class EngineConfig:
    workspace: Path = Path("workspace")
    seed: int = 0
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    decay: DecayConfig = field(default_factory=DecayConfig)
    tiers: TierConfig = field(default_factory=TierConfig)
    attribution: AttributionConfig = field(default_factory=AttributionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    consolidation_interval_seconds: float = 300.0
    reader: Endpoint = field(default_factory=Endpoint)
    embedder: Endpoint = field(default_factory=Endpoint)
    embedder_dimension: int = 384
    extractor: Endpoint = field(default_factory=Endpoint)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ValidationError(f"malformed YAML in {path}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValidationError(f"config root must be a mapping: {path}")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineConfig":
        known = {
            "workspace",
            "seed",
            "weights",
            "decay",
            "tiers",
            "retrieval",
            "attribution",
            "train",
            "consolidation",
            "reader",
            "embedder",
            "extractor",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")

        try:  # every bad value or non-mapping section below becomes a ValidationError
            weights = _weights(raw.get("weights"))
            retrieval_raw = dict(raw.get("retrieval") or {})
            if weights is not None:
                retrieval_raw.setdefault("weights", weights)
            retrieval = _retrieval(retrieval_raw)
            decay_raw = raw.get("decay") or {}
            tiers_raw = raw.get("tiers") or {}
            consolidation_raw = raw.get("consolidation") or {}
            return cls(
                workspace=Path(raw.get("workspace", "workspace")),
                seed=int(raw.get("seed", 0)),
                retrieval=retrieval,
                decay=DecayConfig(
                    lambda_per_day=float(decay_raw.get("lambda_per_day", 0.05)),
                    bypass_threshold=float(decay_raw.get("bypass_threshold", 2.0)),
                ),
                tiers=TierConfig(
                    episodic=float(tiers_raw.get("episodic", 1.0)),
                    semantic=float(tiers_raw.get("semantic", 1.2)),
                    procedural=float(tiers_raw.get("procedural", 1.4)),
                ),
                attribution=AttributionConfig(
                    alpha=float((raw.get("attribution") or {}).get("alpha", 0.1))
                ),
                train=_train(raw.get("train") or {}),
                consolidation_interval_seconds=float(
                    consolidation_raw.get("interval_seconds", 300.0)
                ),
                reader=_endpoint(raw.get("reader")),
                embedder=_endpoint(raw.get("embedder")),
                embedder_dimension=int((raw.get("embedder") or {}).get("dimension", 384)),
                extractor=_endpoint(raw.get("extractor")),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid config value: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "workspace": str(self.workspace),
            "seed": self.seed,
            "retrieval": self.retrieval.to_dict(),
            "decay": {
                "lambda_per_day": self.decay.lambda_per_day,
                "bypass_threshold": self.decay.bypass_threshold,
            },
            "tiers": {
                "episodic": self.tiers.episodic,
                "semantic": self.tiers.semantic,
                "procedural": self.tiers.procedural,
            },
            "attribution": {"alpha": self.attribution.alpha},
            "train": {
                "epochs": self.train.epochs,
                "batch_size": self.train.batch_size,
                "clip_epsilon": self.train.clip_epsilon,
                "step_size": self.train.step_size,
                "question_count": self.train.question_count,
            },
            "consolidation": {"interval_seconds": self.consolidation_interval_seconds},
            "reader": {"url": self.reader.url, "timeout": self.reader.timeout},
            "embedder": {
                "url": self.embedder.url,
                "timeout": self.embedder.timeout,
                "dimension": self.embedder_dimension,
            },
            "extractor": {"url": self.extractor.url, "timeout": self.extractor.timeout},
        }


def _weights(raw) -> WeightVector | None:
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        if len(raw) != 5:
            raise ValidationError("weights list must have 5 components")
        return WeightVector(*(float(v) for v in raw))
    if isinstance(raw, dict):
        return WeightVector(
            w_sem=float(raw.get("sem", 0.0)),
            w_bm25=float(raw.get("bm25", 0.35)),
            w_decay=float(raw.get("decay", 0.25)),
            w_cw=float(raw.get("cw", 0.25)),
            w_tier=float(raw.get("tier", 0.15)),
        )
    raise ValidationError(f"unsupported weights value: {raw!r}")


def _retrieval(raw: dict) -> RetrievalConfig:
    weights = raw.get("weights")
    if weights is not None and not isinstance(weights, WeightVector):
        weights = _weights(weights)
    return RetrievalConfig(
        stage1_k1=parse_stage1_k1(raw.get("stage1_k1", 5)),
        stage2_k=int(raw.get("stage2_k", 4)),
        token_budget=int(raw.get("token_budget", 300)),
        weights=weights or WeightVector.default(),
        variant=Variant(raw.get("variant", "raw")),
        mode=str(raw.get("mode", "bm25")),
        rrf_k=int(raw.get("rrf_k", 60)),
        include_timestamps=bool(raw.get("include_timestamps", False)),
    )


def _train(raw: dict) -> TrainConfig:
    return TrainConfig(
        epochs=int(raw.get("epochs", 4)),
        batch_size=int(raw.get("batch_size", 16)),
        clip_epsilon=float(raw.get("clip_epsilon", 0.2)),
        step_size=float(raw.get("step_size", 0.01)),
        question_count=int(raw.get("question_count", 100)),
    )


def _endpoint(raw) -> Endpoint:
    if raw is None:
        return Endpoint()
    return Endpoint(url=raw.get("url"), timeout=float(raw.get("timeout", 10.0)))
