from __future__ import annotations

import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmem.errors import ValidationError
from agentmem.scoring import (
    BypassReason,
    Candidate,
    DecayConfig,
    TierConfig,
    Variant,
    WeightVector,
    composite_score,
    cw_signal,
    decay_signal,
    evaluate_bypass,
    normalise_scores,
    pool_signals,
    rank_columns,
    rank_order,
    score_pool,
)
from conftest import BASE_TS

DECAY = DecayConfig()
TIERS = TierConfig()
NO_SCOPE: frozenset[str] = frozenset()


def make_candidate(
    cid="c1", session="s1", raw=1.0, age=0.0, cw=0.0, tier="episodic", ts_offset=0
) -> Candidate:
    return Candidate(
        id=cid,
        session_id=session,
        timestamp=BASE_TS + timedelta(seconds=ts_offset),
        raw_bm25=raw,
        age_days=age,
        cw=cw,
        tier=tier,
    )


# -- weights ----------------------------------------------------------------

def test_default_weights():
    assert WeightVector.default().as_list() == [0.0, 0.35, 0.25, 0.25, 0.15]


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        WeightVector(0.0, 0.5, 0.5, 0.5, 0.5)


def test_weights_must_be_nonnegative():
    with pytest.raises(ValidationError):
        WeightVector(0.0, 1.2, -0.2, 0.0, 0.0)


def test_removing_decay_renormalises():
    w = WeightVector.default().without("decay")
    assert w.as_list() == pytest.approx([0.0, 0.4667, 0.0, 0.3333, 0.2], abs=1e-4)


# -- decay ------------------------------------------------------------------

def test_decay_age_zero():
    assert decay_signal(0.0, False, DECAY) == 1.0


def test_decay_two_weeks():
    assert decay_signal(14.0, False, DECAY) == pytest.approx(0.4966, abs=1e-4)


def test_decay_bypass_ignores_age():
    assert decay_signal(90.0, True, DECAY) == 1.0


def test_decay_negative_age_rejected():
    with pytest.raises(ValidationError):
        decay_signal(-1.0, False, DECAY)


def test_half_life_is_about_fourteen_days():
    # exp(-0.05 t) crosses 1/2 between 13.8 and 13.9 days.
    assert decay_signal(13.8, False, DECAY) > 0.5 > decay_signal(13.9, False, DECAY)


# -- bypass -----------------------------------------------------------------

def test_bypass_threshold_strict():
    assert evaluate_bypass(2.5, "s1", NO_SCOPE, DECAY) == (True, BypassReason.BM25_THRESHOLD)
    assert evaluate_bypass(2.0, "s1", NO_SCOPE, DECAY) == (False, BypassReason.NONE)


def test_bypass_semantic_scope():
    assert evaluate_bypass(0.1, "s1", frozenset({"s1"}), DECAY) == (
        True,
        BypassReason.SEMANTIC_SCOPE,
    )


def test_bypass_threshold_takes_precedence():
    bypassed, reason = evaluate_bypass(3.0, "s1", frozenset({"s1"}), DECAY)
    assert bypassed and reason is BypassReason.BM25_THRESHOLD


# -- cw ----------------------------------------------------------------------

@pytest.mark.parametrize("cw,expected", [(-1.0, 0.0), (0.0, 0.5), (1.0, 1.0)])
def test_cw_signal_maps_to_unit_interval(cw, expected):
    assert cw_signal(cw) == expected


def test_cw_signal_range_checked():
    with pytest.raises(ValidationError):
        cw_signal(1.5)


# -- composite ---------------------------------------------------------------

def test_composite_episodic_default_weights():
    candidate = make_candidate(raw=0.6931, age=0.0)
    breakdown = composite_score(candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE)
    assert breakdown.composite == pytest.approx(0.6176, abs=1e-4)
    assert breakdown.phi_sem == 0.0
    assert not breakdown.bypass_applied


def test_composite_semantic_tier_bonus():
    candidate = make_candidate(raw=0.6931, age=0.0, tier="semantic")
    breakdown = composite_score(candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE)
    assert breakdown.composite == pytest.approx(0.6476, abs=1e-4)
    assert breakdown.tier_bonus == pytest.approx(0.15 * 0.2)


def test_composite_projection_onto_bm25():
    candidate = make_candidate(raw=1.234, age=40.0, cw=0.7)
    weights = WeightVector(0.0, 1.0, 0.0, 0.0, 0.0)
    breakdown = composite_score(candidate, weights, TIERS, DECAY, NO_SCOPE)
    assert breakdown.composite == pytest.approx(1.234)


def test_bypassed_stale_match_beats_fresh_weak_match():
    stale_strong = make_candidate(cid="a", raw=2.5, age=90.0)
    fresh_weak = make_candidate(cid="b", raw=1.9, age=0.0)
    weights = WeightVector.default()
    strong = composite_score(stale_strong, weights, TIERS, DECAY, NO_SCOPE)
    weak = composite_score(fresh_weak, weights, TIERS, DECAY, NO_SCOPE)
    assert strong.bypass_applied and strong.phi_decay == 1.0
    assert not weak.bypass_applied
    assert strong.composite == pytest.approx(1.25, abs=1e-9)
    assert weak.composite == pytest.approx(1.04, abs=1e-9)


def test_composite_is_pure():
    candidate = make_candidate(raw=0.9, age=3.5, cw=-0.4)
    first = composite_score(candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE)
    second = composite_score(candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE)
    assert first == second


def test_pool_variant_requires_pool_signal():
    candidate = make_candidate()
    with pytest.raises(ValidationError):
        composite_score(
            candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE, Variant.ZSCORE
        )


# -- normalisation -----------------------------------------------------------

def test_minmax():
    assert normalise_scores([0.0, 1.0, 3.0], Variant.MINMAX) == pytest.approx([0, 1 / 3, 1])


def test_zscore_constant_pool():
    assert normalise_scores([2.0, 2.0, 2.0], Variant.ZSCORE) == [0.0, 0.0, 0.0]
    # The rounded mean of these pools is not 0.1 itself.
    for n in (3, 7, 10):
        for variant in (Variant.ZSCORE, Variant.ZSCORE_EQUAL_FUSION):
            assert normalise_scores([0.1] * n, variant) == [0.0] * n


def test_minmax_constant_pool():
    assert normalise_scores([2.0, 2.0], Variant.MINMAX) == [0.5, 0.5]


def test_log1p():
    assert normalise_scores([0.0, math.e - 1], Variant.LOG1P) == pytest.approx([0.0, 1.0])


def test_empty_pool_rejected():
    for empty in ([], np.array([])):
        with pytest.raises(ValidationError):
            normalise_scores(empty, Variant.MINMAX)


def test_raw_passthrough():
    assert normalise_scores([0.5, 4.2], Variant.RAW) == [0.5, 4.2]


# -- ranking invariance -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    # Scores on a 0.01 grid in [0, 50]: the shape of real lexical scores,
    # without pathological sub-normal values that underflow the variance.
    raws=st.lists(st.integers(0, 5000).map(lambda n: n / 100.0), min_size=1, max_size=20)
)
def test_monotone_variants_preserve_bm25_only_ranking(raws):
    candidates = [make_candidate(cid=f"c{i:02d}", raw=r, ts_offset=i) for i, r in enumerate(raws)]
    weights = WeightVector(0.0, 1.0, 0.0, 0.0, 0.0)
    orders = []
    for variant in (Variant.RAW, Variant.LOG1P, Variant.MINMAX, Variant.ZSCORE):
        breakdowns = score_pool(candidates, weights, TIERS, DECAY, NO_SCOPE, variant)
        orders.append(rank_order(candidates, breakdowns))
    assert all(order == orders[0] for order in orders[1:])


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            st.integers(0, 500).map(lambda n: n / 100.0),
            st.integers(0, 60),
            st.sampled_from([-1.0, -0.3, 0.0, 0.7]),
            st.sampled_from(["episodic", "semantic"]),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=12,
    ),
    variant=st.sampled_from(list(Variant)),
)
def test_score_pool_equals_composite_score_per_candidate(pool, variant):
    candidates = [
        make_candidate(cid=f"c{i}", session=sid, raw=raw, age=age, cw=cw, tier=tier)
        for i, (raw, age, cw, tier, sid) in enumerate(pool)
    ]
    tiers, scope = TierConfig(1.0, 1.3), frozenset({"s2"})
    signals = normalise_scores([c.raw_bm25 for c in candidates], variant)
    expected = [
        composite_score(c, WeightVector.default(), tiers, DECAY, scope, variant, bm25_signal=s)
        for c, s in zip(candidates, signals)
    ]
    assert score_pool(candidates, WeightVector.default(), tiers, DECAY, scope, variant) == expected


@settings(max_examples=80, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            # Few distinct values, so composites tie; 2.0 is the bypass threshold.
            st.sampled_from([0.0, 0.5, 1.99, 2.0, 2.01, 3.5]),
            st.integers(0, 60),
            st.sampled_from([-1.0, -0.3, 0.0, 0.7]),
            st.sampled_from(["episodic", "semantic"]),
            st.sampled_from(["s1", "s2"]),
            st.sampled_from([0, 1]),
        ),
        min_size=1,
        max_size=12,
    ),
    variant=st.sampled_from(list(Variant)),
    k=st.sampled_from([1, 3, None]),
    weights=st.sampled_from([WeightVector.default(), WeightVector(1.0, 0.0, 0.0, 0.0, 0.0)]),
)
def test_pool_columns_equal_score_pool_and_rank_order(pool, variant, k, weights):
    """The column form against the reference: every breakdown field, and the
    first k of the order, ids c10 and c11 sorting before c2 on a full tie."""
    candidates = [
        make_candidate(cid=f"c{i}", session=sid, raw=raw, age=age, cw=cw, tier=tier, ts_offset=ts)
        for i, (raw, age, cw, tier, sid, ts) in enumerate(pool)
    ]
    tiers, scope = TierConfig(1.0, 1.3), frozenset({"s2"})
    columns = pool_signals(
        [c.raw_bm25 for c in candidates],
        np.array([0.1 * (i % 3) for i in range(len(candidates))]),
        np.array([c.session_id in scope for c in candidates]),
        np.array([decay_signal(c.age_days, False, DECAY) for c in candidates]),
        np.array([cw_signal(c.cw) for c in candidates]),
        np.array([tiers.multiplier(c.tier) for c in candidates]),
        DECAY,
        variant,
    )
    candidates = [replace(c, similarity=0.1 * (i % 3)) for i, c in enumerate(candidates)]
    expected = score_pool(candidates, weights, tiers, DECAY, scope, variant)
    composite = columns.composite(weights)
    assert [columns.breakdown(i, weights, composite) for i in range(len(pool))] == expected
    order = rank_order(candidates, expected)
    timestamps = np.array([c.timestamp.timestamp() for c in candidates])
    ids = [c.id for c in candidates]
    assert rank_columns(composite, timestamps, ids, k) == (order if k is None else order[:k])


def test_score_pool_rejects_an_unknown_tier():
    candidates = [make_candidate(cid="c1"), make_candidate(cid="c2", tier="archival")]
    with pytest.raises(ValidationError):
        score_pool(candidates, WeightVector.default(), TIERS, DECAY, NO_SCOPE)


def test_bypass_dominance_over_any_age():
    for age in (0.0, 30.0, 365.0):
        candidate = make_candidate(raw=5.0, age=age)
        breakdown = composite_score(candidate, WeightVector.default(), TIERS, DECAY, NO_SCOPE)
        assert breakdown.phi_decay == 1.0
        assert breakdown.bypass_reason is BypassReason.BM25_THRESHOLD


def _perturbed(base: WeightVector, d_decay: float, d_cw: float, d_tier: float) -> WeightVector:
    values = base.as_list()
    values[2] += d_decay
    values[3] += d_cw
    values[4] += d_tier
    total = sum(values)
    return WeightVector(*(v / total for v in values))


def test_weight_perturbations_cannot_reorder_dominant_bm25_pool():
    # Gaps of 10 raw-BM25 points dwarf anything the bounded signals can add.
    candidates = [
        make_candidate(cid=f"c{i}", raw=40.0 - 10.0 * i, age=5.0 * i, cw=(-1) ** i * 0.9, ts_offset=i)
        for i in range(5)
    ]
    base = WeightVector.default()
    reference = None
    for d_decay in (-0.03, 0.0, 0.03):
        for d_cw in (-0.03, 0.0, 0.03):
            for d_tier in (-0.03, 0.0, 0.03):
                weights = _perturbed(base, d_decay, d_cw, d_tier)
                breakdowns = score_pool(candidates, weights, TIERS, DECAY, NO_SCOPE)
                top = {candidates[i].id for i in rank_order(candidates, breakdowns)[:3]}
                if reference is None:
                    reference = top
                assert top == reference
