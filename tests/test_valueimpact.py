"""Probe-set construction, remediation value, and value-impact estimation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from negotia.backends import remediation_quality, scripted_remediation_text
from negotia.remediate import SILVER_SCRIPTED_QUALITY, RemediationPolicy
from negotia.simulation import SimulationConfig
from negotia.valueimpact import (
    build_probe_set,
    estimate_value_impact,
    rank_individuals,
    value_of_remediation,
)

from conftest import make_exemplar


def test_build_probe_set_shape(probe):
    assert len(probe) == 8
    for p in probe:
        assert p.prefix
        assert "unreasonable" in p.violation_text
        assert remediation_quality(p.silver_y) == SILVER_SCRIPTED_QUALITY
        assert p.silver_reward is None or isinstance(p.silver_reward, float)


def test_build_probe_set_distinct_seeds(probe):
    assert len({p.seed for p in probe}) == len(probe)


def test_build_probe_set_rejects_bad_args(world, scripted_session):
    silver = RemediationPolicy(exemplars=(), backend=scripted_session)
    with pytest.raises(ValueError):
        build_probe_set(world, SimulationConfig(p_c=0.6, seed=1), 0, silver)
    loaded = RemediationPolicy(exemplars=(make_exemplar("a", 0.5),), backend=scripted_session)
    with pytest.raises(ValueError, match="zero-shot"):
        build_probe_set(world, SimulationConfig(p_c=0.6, seed=1), 2, loaded)


def test_build_probe_set_exhausts_retry_budget(world, scripted_session):
    silver = RemediationPolicy(exemplars=(), backend=scripted_session)
    # p_c=0 can never produce a violation, so regeneration must give up.
    with pytest.raises(RuntimeError, match="regenerations"):
        build_probe_set(world, SimulationConfig(p_c=0.0, seed=1), 1, silver)


def test_value_identity_and_caching(probe, rollout_fn):
    # Fresh copy: the session-scoped probe may already carry a cached reward.
    point = replace(probe[0], silver_reward=None)
    assert point.silver_reward is None
    assert value_of_remediation(point, point.silver_y, rollout_fn) == 0.0
    cached = point.silver_reward
    assert cached is not None
    # A second call reuses the cached silver reward.
    value_of_remediation(point, scripted_remediation_text(0.9), rollout_fn)
    assert point.silver_reward == cached


def test_value_sign_tracks_quality(probe, rollout_fn):
    point = probe[1]
    high = value_of_remediation(point, scripted_remediation_text(0.95), rollout_fn)
    low = value_of_remediation(point, scripted_remediation_text(0.05), rollout_fn)
    assert high > 0 > low


def test_estimate_value_impact_mean(quality_pool, scripted_session, probe, rollout_fn):
    policy = RemediationPolicy(exemplars=(quality_pool[0],), backend=scripted_session)
    est = estimate_value_impact(policy, probe, rollout_fn)
    assert est.n_points == len(probe)
    assert est.mean == pytest.approx(sum(est.per_point) / len(est.per_point))


def test_estimate_value_impact_empty_probe(scripted_session, rollout_fn):
    policy = RemediationPolicy(exemplars=(), backend=scripted_session)
    with pytest.raises(ValueError):
        estimate_value_impact(policy, [], rollout_fn)


@pytest.mark.parametrize(
    "failing_call",
    [pytest.param(1, id="first-silver-rollout"), pytest.param(6, id="third-candidate-rollout")],
)
def test_estimate_value_impact_propagates_point_errors(
    quality_pool, scripted_session, probe, rollout_fn, failing_call
):
    # A failing point fails the whole estimate instead of dropping out of the
    # mean, so two sets scored on one probe set are always paired.
    calls = {"n": 0}

    def flaky(point, rewrite):
        calls["n"] += 1
        if calls["n"] == failing_call:
            raise RuntimeError("bad point")
        return rollout_fn(point, rewrite)

    fresh = [replace(p, silver_reward=None) for p in probe]
    policy = RemediationPolicy(exemplars=(quality_pool[0],), backend=scripted_session)
    with pytest.raises(RuntimeError, match="bad point"):
        estimate_value_impact(policy, fresh, flaky)
    assert calls["n"] == failing_call


def test_estimate_value_impact_all_failed(scripted_session, probe):
    # With every point failing, the first error itself reaches the caller;
    # there is no separate "all points failed" result.
    def dead(point, rewrite):
        raise RuntimeError("nope")

    policy = RemediationPolicy(exemplars=(), backend=scripted_session)
    with pytest.raises(RuntimeError, match="nope"):
        estimate_value_impact(policy, probe, dead)


def test_rank_individuals_orders_by_impact(quality_pool, scripted_session, probe, rollout_fn):
    ranked = rank_individuals(
        quality_pool, len(quality_pool), probe, scripted_session, rollout_fn, sample_seed=0
    )
    assert [eid for eid, _v in ranked] == [f"ex-{q}" for q in (0.9, 0.8, 0.7, 0.3, 0.2, 0.1)]
    impacts = [v for _eid, v in ranked]
    assert impacts == sorted(impacts, reverse=True)


def test_rank_individuals_sampling_is_seeded(quality_pool, scripted_session, probe, rollout_fn):
    a = rank_individuals(quality_pool, 3, probe, scripted_session, rollout_fn, sample_seed=5)
    b = rank_individuals(quality_pool, 3, probe, scripted_session, rollout_fn, sample_seed=5)
    assert a == b
    with pytest.raises(ValueError):
        rank_individuals(quality_pool, 99, probe, scripted_session, rollout_fn)
    with pytest.raises(ValueError):
        rank_individuals([], 1, probe, scripted_session, rollout_fn)
