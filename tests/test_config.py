from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from agentmem.attribution import AttributionConfig
from agentmem.cli import _retrieval_cfg, build_parser
from agentmem.config import EmbedderEndpoint, Endpoint, EngineConfig, TrainConfig
from agentmem.errors import ValidationError
from agentmem.evaluation import apply_cell
from agentmem.retrieval import RetrievalConfig
from agentmem.scoring import DecayConfig, TierConfig, Variant, WeightVector


def test_defaults_match_baseline():
    cfg = EngineConfig()
    assert cfg.retrieval.weights.as_list() == [0.0, 0.35, 0.25, 0.25, 0.15]
    assert cfg.retrieval.stage1_k1 == 5
    assert cfg.retrieval.stage2_k == 4
    assert cfg.retrieval.token_budget == 300
    assert cfg.retrieval.rrf_k == 60
    assert cfg.decay.lambda_per_day == 0.05
    assert cfg.decay.bypass_threshold == 2.0
    assert (cfg.tiers.episodic, cfg.tiers.semantic) == (1.0, 1.2)
    assert cfg.attribution.alpha == 0.1
    assert (cfg.train.epochs, cfg.train.batch_size) == (4, 16)
    assert (cfg.train.clip_epsilon, cfg.train.step_size) == (0.2, 0.01)
    assert cfg.train.question_count == 100


def test_file_round_trip(tmp_path):
    path = tmp_path / "engine.yaml"
    path.write_text(
        """
workspace: /data/mem
seed: 9
weights: {sem: 0.0, bm25: 0.5, decay: 0.2, cw: 0.2, tier: 0.1}
decay: {lambda_per_day: 0.1, bypass_threshold: 3.0}
retrieval: {stage1_k1: inf, stage2_k: 2, token_budget: 600, variant: zscore, mode: dense}
reader: {url: http://reader.local, timeout: 3}
"""
    )
    cfg = EngineConfig.from_file(path)
    assert str(cfg.workspace) == "/data/mem"
    assert cfg.seed == 9
    assert cfg.retrieval.weights.w_bm25 == 0.5
    assert cfg.retrieval.stage1_k1 is None
    assert cfg.retrieval.stage2_k == 2
    assert cfg.retrieval.variant is Variant.ZSCORE
    assert cfg.retrieval.mode == "dense"
    assert cfg.decay.lambda_per_day == 0.1
    assert cfg.reader.url == "http://reader.local"
    assert cfg.embedder.url is None


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert EngineConfig.from_file(path).retrieval.stage2_k == 4


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("retreival: {stage2_k: 2}\n")
    with pytest.raises(ValidationError):
        EngineConfig.from_file(path)


def test_the_removed_procedural_tier_is_an_unknown_key(tmp_path):
    """No entry could reach a third tier, so its multiplier is gone: a config
    that still sets it is rejected, naming the key."""
    path = tmp_path / "tiers.yaml"
    path.write_text("tiers: {episodic: 1.0, semantic: 1.2, procedural: 1.4}\n")
    with pytest.raises(ValidationError, match="procedural"):
        EngineConfig.from_file(path)
    with pytest.raises(TypeError):
        TierConfig(1.0, 1.2, 1.4)


def test_malformed_stage1_k1_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("retrieval: {stage1_k1: abc}\n")
    with pytest.raises(ValidationError):
        EngineConfig.from_file(path)


@pytest.mark.parametrize("text", [
    "retrieval: {stage2_k: abc}\n",
    "retrieval: {variant: bogus}\n",
    "retrieval: [1, 2]\n",
    "train: {epochs: many}\n",
    "seed: abc\n",
    "decay: {lambda_per_day: [1]}\n",
    "tiers: [1]\n",
    "weights: [a, b, c, d, e]\n",
    "retrieval: {stage2_k: [\n",
    "retrieval: {stage2k: 8}\n",
    "decay: {lambda: 0.5}\n",
    "reader: {URL: http://reader.local}\n",
    "weights: {semantic: 0.0, bm25: 0.35, decay: 0.25, cw: 0.25, tier: 0.15}\n",
    "retrieval: {stage2_k: 2.9}\n",
    "retrieval: {include_timestamps: 'false'}\n",
    "seed: true\n",
    "tiers: {semantic: true}\n",
    "embedder: {dimension: 2.5}\n",
    "consolidation: {interval_seconds: 300}\n",
    "weights: [0, 0.35, 0.25, 0.25, 0.15]\nretrieval: {weights: [0, 0.35, 0.25, 0.25, 0.15]}\n",
    "weights: {sem: 0.0, bm25: 0.35, decay: 0.25, cw: 0.25, tier: 0.15, extra: 0}\n",
    "reader: {url: 5}\n",
    "reader: {timeout: '3'}\n",
    "attribution: {alpha: true}\n",
    "train: {epochs: 2.0}\n",
    # An int beyond the float range.
    pytest.param("tiers: {semantic: 1" + "0" * 400 + "}\n", id="tiers-huge-int"),
    pytest.param("weights: [0, 0.35, 0.25, 0.25, 1" + "0" * 400 + "]\n", id="weights-huge-int"),
])
def test_malformed_values_rejected(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError):
        EngineConfig.from_file(path)


def test_retrieval_echo_records_every_field():
    cfg = EngineConfig.from_dict({"retrieval": {"include_timestamps": True}})
    echo = cfg.to_dict()["retrieval"]
    assert echo == cfg.retrieval.to_dict()
    assert echo["include_timestamps"] is True
    assert set(echo) == set(RetrievalConfig.__dataclass_fields__)


def test_config_echo_is_json_safe():
    import json

    echo = EngineConfig().to_dict()
    parsed = json.loads(json.dumps(echo))
    assert parsed["retrieval"]["weights"] == [0.0, 0.35, 0.25, 0.25, 0.15]


def test_to_dict_round_trips_default_config():
    cfg = EngineConfig()
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_to_dict_round_trips_config_with_every_section_changed():
    cfg = EngineConfig(
        workspace=Path("/data/mem"),
        seed=9,
        retrieval=RetrievalConfig(
            stage1_k1=None,
            stage2_k=2,
            token_budget=600,
            weights=WeightVector(0.1, 0.3, 0.2, 0.2, 0.2),
            variant=Variant.MINMAX,
            mode="hybrid_rrf",
            rrf_k=30,
            include_timestamps=True,
        ),
        decay=DecayConfig(lambda_per_day=0.1, bypass_threshold=3.0),
        tiers=TierConfig(episodic=1.1, semantic=1.3),
        attribution=AttributionConfig(alpha=0.2),
        train=TrainConfig(epochs=2, batch_size=8, clip_epsilon=0.3, step_size=0.02,
                          question_count=50),
        reader=Endpoint(url="http://reader.local", timeout=3.0),
        embedder=EmbedderEndpoint(url="http://embed.local", timeout=4.0, dimension=64),
        extractor=Endpoint(url="http://extract.local", timeout=5.0),
    )
    default = EngineConfig()
    for f in fields(EngineConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert EngineConfig.from_dict(echo) == cfg


def test_float_fields_take_ints_and_store_floats():
    cfg = EngineConfig.from_dict({"reader": {"timeout": 3}, "weights": [0, 0, 0, 1, 0]})
    assert cfg.reader.timeout == 3.0 and type(cfg.reader.timeout) is float
    assert cfg.to_dict()["reader"]["timeout"] == 3.0
    assert cfg.retrieval.weights == WeightVector(0.0, 0.0, 0.0, 1.0, 0.0)


def test_one_override_set_gives_one_retrieval_config(tmp_path):
    path = tmp_path / "engine.yaml"
    path.write_text(
        "retrieval: {stage2_k: 2, stage1_k1: inf, token_budget: 600, variant: zscore,"
        " mode: dense}\n"
    )
    from_yaml = EngineConfig.from_file(path).retrieval

    args = build_parser().parse_args([
        "retrieve", "--project", "p", "--query", "q", "--k", "2", "--k1", "inf",
        "--budget", "600", "--variant", "zscore", "--mode", "dense",
    ])
    cfg = EngineConfig()
    _retrieval_cfg(cfg, args)

    from_cell = apply_cell(
        RetrievalConfig(),
        {"k": 2, "k1": "inf", "budget": 600, "variant": "zscore", "mode": "dense"},
    )
    assert from_yaml == cfg.retrieval == from_cell
    assert from_yaml != RetrievalConfig()


def test_readme_config_block_loads_to_the_defaults():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    cfg = EngineConfig.from_dict(yaml.safe_load(block))
    assert replace(cfg, seed=0, workspace=Path("workspace")) == EngineConfig()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("raw", [
    {"weights": [NAN, 0.35, 0.25, 0.25, 0.15]},
    {"weights": [0.0, INF, 0.25, 0.25, 0.15]},
])
def test_weight_vector_takes_only_finite_weights(raw):
    with pytest.raises(ValidationError):
        EngineConfig.from_dict(raw)
    with pytest.raises(ValidationError):
        WeightVector(*raw["weights"])


@pytest.mark.parametrize("raw", [
    {"lambda_per_day": NAN}, {"lambda_per_day": INF}, {"bypass_threshold": NAN},
    {"bypass_threshold": -INF},
])
def test_decay_config_takes_only_finite_numbers(raw):
    with pytest.raises(ValidationError):
        EngineConfig.from_dict({"decay": raw})
    with pytest.raises(ValidationError):
        DecayConfig(**raw)


@pytest.mark.parametrize("raw", [
    {"semantic": INF}, {"semantic": NAN}, {"episodic": True}, {"episodic": 10**400},
])
def test_tier_config_takes_only_finite_numbers(raw):
    with pytest.raises(ValidationError):
        TierConfig(**raw)


@pytest.mark.parametrize("alpha", [NAN, INF, True])
def test_attribution_config_takes_only_a_finite_alpha(alpha):
    with pytest.raises(ValidationError):
        AttributionConfig(alpha=alpha)


@pytest.mark.parametrize("raw", [
    {"clip_epsilon": NAN}, {"step_size": INF}, {"epochs": True}, {"question_count": 2.0},
])
def test_train_config_takes_finite_sizes_and_integer_counts(raw):
    with pytest.raises(ValidationError):
        TrainConfig(**raw)


@pytest.mark.parametrize("raw", [
    {"stage2_k": 2.5}, {"stage1_k1": True}, {"stage1_k1": 2.0}, {"token_budget": INF},
    {"rrf_k": False},
])
def test_retrieval_config_takes_only_integer_counts(raw):
    with pytest.raises(ValidationError):
        RetrievalConfig(**raw)


@pytest.mark.parametrize("timeout", [NAN, INF, -INF, 0, 0.0, -1.0, True])
def test_endpoint_takes_only_a_finite_positive_timeout(timeout):
    with pytest.raises(ValidationError):
        Endpoint(timeout=timeout)
    for section in ("reader", "extractor"):
        with pytest.raises(ValidationError):
            EngineConfig.from_dict({section: {"timeout": timeout}})
    assert Endpoint(timeout=3).timeout == 3


@pytest.mark.parametrize("raw", [
    {"dimension": -3}, {"dimension": 0}, {"dimension": 2.0}, {"dimension": True},
    {"timeout": -INF}, {"timeout": NAN}, {"timeout": 0},
])
def test_embedder_endpoint_takes_a_positive_integer_dimension_and_timeout(raw):
    with pytest.raises(ValidationError):
        EmbedderEndpoint(**raw)
    with pytest.raises(ValidationError):
        EngineConfig.from_dict({"embedder": raw})


def test_yaml_nan_and_inf_are_rejected(tmp_path):
    path = tmp_path / "engine.yaml"
    for text in ("decay: {lambda_per_day: .nan}\n", "tiers: {semantic: .inf}\n",
                 "attribution: {alpha: .nan}\n", "train: {clip_epsilon: .nan}\n",
                 "weights: [.nan, 0.35, 0.25, 0.25, 0.15]\n", "reader: {timeout: .nan}\n",
                 "embedder: {timeout: -.inf}\n", "extractor: {timeout: .nan}\n"):
        path.write_text(text)
        with pytest.raises(ValidationError):
            EngineConfig.from_file(path)
