"""Declarative engine configuration.

A single YAML file configures every component; CLI flags and ablation cells
override its values. Each section is read by ``load`` onto the dataclass that
owns it, so the defaults are defined only on those dataclasses and an empty
file (or none at all) yields the stock configuration. ``EngineConfig.to_dict``
walks the same fields.

``load`` rejects, with a ValidationError (CLI exit 3), a key that is not a
field and a value of the wrong YAML type: an int field takes an int, a float
field an int or a float (stored as a float), a bool field a bool and a str
field a str (``str | None`` also null); no bool counts as a number.
``variant`` is read by its value and ``stage1_k1`` by ``parse_stage1_k1``.
``weights`` is a 5-element list or a ``{sem, bm25, decay, cw, tier}``
mapping, given either at the top level or under ``retrieval:``, not both. A
null section or ``weights`` reads as an empty one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import yaml

from .attribution import AttributionConfig
from .errors import ValidationError, is_count, is_finite_number
from .retrieval import RetrievalConfig, parse_stage1_k1
from .scoring import DecayConfig, TierConfig, Variant, WeightVector

# Short names of RetrievalConfig fields, as CLI flags and ablation cells spell them.
RETRIEVAL_ALIASES = {
    "k": "stage2_k", "k1": "stage1_k1", "budget": "token_budget", "ranking": "mode"
}
_WEIGHT_KEYS = ("sem", "bm25", "decay", "cw", "tier")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 16
    clip_epsilon: float = 0.2
    step_size: float = 0.01
    question_count: int = 100

    def __post_init__(self) -> None:
        counts = (self.epochs, self.batch_size, self.question_count)
        if not all(is_count(n) and n >= 1 for n in counts):
            raise ValidationError(f"epochs, batch_size, question_count must be integers >= 1: {counts}")
        sizes = (self.clip_epsilon, self.step_size)
        if not all(is_finite_number(x) and x > 0 for x in sizes):
            raise ValidationError(f"clip_epsilon and step_size must be finite and > 0: {sizes}")


@dataclass(frozen=True)
class Endpoint:
    url: str | None = None
    timeout: float = 10.0

    def __post_init__(self) -> None:
        if not (is_finite_number(self.timeout) and self.timeout > 0):
            raise ValidationError(f"timeout must be finite and > 0: {self.timeout!r}")


@dataclass(frozen=True)
class EmbedderEndpoint(Endpoint):
    dimension: int = 384

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (is_count(self.dimension) and self.dimension >= 1):
            raise ValidationError(f"dimension must be an integer >= 1: {self.dimension!r}")


@dataclass
class EngineConfig:
    workspace: Path = Path("workspace")
    seed: int = 0
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    decay: DecayConfig = field(default_factory=DecayConfig)
    tiers: TierConfig = field(default_factory=TierConfig)
    attribution: AttributionConfig = field(default_factory=AttributionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    reader: Endpoint = field(default_factory=Endpoint)
    embedder: EmbedderEndpoint = field(default_factory=EmbedderEndpoint)
    extractor: Endpoint = field(default_factory=Endpoint)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ValidationError(f"malformed YAML in {path}: {exc}") from exc
        if not isinstance(raw, (dict, type(None))):
            raise ValidationError(f"config root must be a mapping: {path}")
        return cls.from_dict(raw or {})

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineConfig":
        raw = dict(raw)
        weights = raw.pop("weights", None)
        if weights is not None:
            retrieval = raw.get("retrieval")
            retrieval = {} if retrieval is None else retrieval
            if not isinstance(retrieval, dict):
                raise ValidationError(f"retrieval must be a mapping, got {retrieval!r}")
            if retrieval.get("weights") is not None:
                raise ValidationError("weights given both at the top level and under retrieval")
            raw["retrieval"] = {**retrieval, "weights": weights}
        return load(cls, raw)

    def to_dict(self) -> dict:
        return _dump(self)


def load(cls, raw: dict | None, base=None):
    """Read the mapping ``raw`` onto the dataclass ``cls`` under the rules in
    the module docstring; the fields it does not name keep their value in
    ``base`` (by default ``cls()``)."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError(f"{cls.__name__} must be a mapping, got {raw!r}")
    base = cls() if base is None else base
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - names, key=str)
    if unknown:
        raise ValidationError(f"unknown {cls.__name__} keys: {unknown}")
    hints = get_type_hints(cls)
    values = {}
    for name, value in raw.items():
        kind = hints[name]
        if is_dataclass(kind) and kind is not WeightVector:  # a nested section
            values[name] = load(kind, value, getattr(base, name))
            continue
        try:
            values[name] = _READERS[kind](value)
        except (ValidationError, ValueError) as exc:  # Variant raises ValueError
            raise ValidationError(f"{cls.__name__}.{name}: {exc}") from exc
    return replace(base, **values)


def _typed(*kinds):
    def read(value):
        if type(value) not in kinds:
            expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ValidationError(f"expected {expected}, got {value!r}")
        return value

    return read


_number = _typed(int, float)


def _float(value) -> float:
    try:
        return float(_number(value))
    except OverflowError:  # an int beyond the float range
        raise ValidationError("number beyond the float range") from None


def _weights(value) -> WeightVector:
    if value is None:
        value = {}
    elif isinstance(value, list):
        if len(value) != len(_WEIGHT_KEYS):
            raise ValidationError("weights list must have 5 components")
        value = dict(zip(_WEIGHT_KEYS, value))
    elif not isinstance(value, dict):
        raise ValidationError(f"expected a list or mapping, got {value!r}")
    unknown = sorted(set(value) - set(_WEIGHT_KEYS), key=str)
    if unknown:
        raise ValidationError(f"unknown weight keys: {unknown}")
    return WeightVector(**{f"w_{key}": _float(v) for key, v in value.items()})


_READERS = {
    int: _typed(int),
    float: _float,
    bool: _typed(bool),
    str: _typed(str),
    str | None: _typed(str, type(None)),
    int | None: parse_stage1_k1,  # stage1_k1, the only such field
    Path: lambda value: Path(_typed(str)(value)),
    Variant: Variant,
    WeightVector: _weights,
}


def _dump(value):
    if isinstance(value, WeightVector):
        return value.as_list()
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    return value
