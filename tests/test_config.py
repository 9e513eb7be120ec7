from __future__ import annotations

import pytest

from agentmem.config import EngineConfig
from agentmem.errors import ValidationError
from agentmem.retrieval import RetrievalConfig
from agentmem.scoring import Variant


def test_defaults_match_baseline():
    cfg = EngineConfig()
    assert cfg.retrieval.weights.as_list() == [0.0, 0.35, 0.25, 0.25, 0.15]
    assert cfg.retrieval.stage1_k1 == 5
    assert cfg.retrieval.stage2_k == 4
    assert cfg.retrieval.token_budget == 300
    assert cfg.retrieval.rrf_k == 60
    assert cfg.decay.lambda_per_day == 0.05
    assert cfg.decay.bypass_threshold == 2.0
    assert (cfg.tiers.episodic, cfg.tiers.semantic, cfg.tiers.procedural) == (1.0, 1.2, 1.4)
    assert cfg.attribution.alpha == 0.1
    assert (cfg.train.epochs, cfg.train.batch_size) == (4, 16)
    assert (cfg.train.clip_epsilon, cfg.train.step_size) == (0.2, 0.01)
    assert cfg.train.question_count == 100
    assert cfg.consolidation_interval_seconds == 300.0


def test_file_round_trip(tmp_path):
    path = tmp_path / "engine.yaml"
    path.write_text(
        """
workspace: /data/mem
seed: 9
weights: {sem: 0.0, bm25: 0.5, decay: 0.2, cw: 0.2, tier: 0.1}
decay: {lambda_per_day: 0.1, bypass_threshold: 3.0}
retrieval: {stage1_k1: inf, stage2_k: 2, token_budget: 600, variant: zscore, mode: dense}
consolidation: {interval_seconds: 60}
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
    assert cfg.consolidation_interval_seconds == 60.0
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
    assert parsed["consolidation"]["interval_seconds"] == 300.0
