"""Probe-set construction, remediation value, and value-impact estimation."""

from __future__ import annotations

import random
import sys
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
from conftest import make_exemplar

from negotia import cli, simulation, valueimpact
from negotia.backends import remediation_quality, scripted_remediation_text
from negotia.core import dump_exemplars
from negotia.remediate import SILVER_SCRIPTED_QUALITY, RemediationPolicy
from negotia.simulation import SimulationConfig, continue_rollout, rollout_to_first_violation
from negotia.valueimpact import (
    build_probe_set,
    estimate_value_impact,
    make_impact_fn,
    rank_individuals,
    value_of_remediation,
)


def test_build_probe_set_shape(probe):
    assert len(probe) == 8
    for p in probe:
        assert p.prefix
        assert "unreasonable" in p.violation_text
        assert remediation_quality(p.silver_y) == SILVER_SCRIPTED_QUALITY
        assert isinstance(p.silver_reward, float)


def test_build_probe_set_distinct_seeds(probe):
    assert len({p.seed for p in probe}) == len(probe)


def test_build_probe_set_rejects_bad_args(world, scripted_session, rollout_fn):
    with pytest.raises(ValueError):
        build_probe_set(world, SimulationConfig(p_c=0.6, seed=1), 0, scripted_session, rollout_fn)


def test_build_probe_set_exhausts_retry_budget(world, scripted_session, rollout_fn):
    # p_c=0 can never produce a violation, so regeneration must give up.
    with pytest.raises(RuntimeError, match="regenerations"):
        build_probe_set(world, SimulationConfig(p_c=0.0, seed=1), 1, scripted_session, rollout_fn)


def test_build_probe_set_propagates_silver_rollout_errors(world, scripted_session):
    def dead(point, rewrite):
        raise RuntimeError("bad point")

    with pytest.raises(RuntimeError, match="bad point"):
        build_probe_set(world, SimulationConfig(p_c=0.6, seed=1), 2, scripted_session, dead)


def test_value_identity_and_caching(probe, rollout_fn):
    point = probe[0]
    # The silver reward is the silver rewrite's own rollout, fixed in the point.
    assert point.silver_reward == rollout_fn(point, point.silver_y)
    assert value_of_remediation(point, point.silver_y, rollout_fn) == 0.0
    with pytest.raises(FrozenInstanceError):
        point.silver_reward = 0.0


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
    [pytest.param(1, id="first-candidate-rollout"), pytest.param(3, id="third-candidate-rollout")],
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

    policy = RemediationPolicy(exemplars=(quality_pool[0],), backend=scripted_session)
    with pytest.raises(RuntimeError, match="bad point"):
        estimate_value_impact(policy, probe, flaky)
    assert calls["n"] == failing_call


def test_estimate_value_impact_all_failed(scripted_session, probe):
    # With every point failing, the first error itself reaches the caller;
    # there is no separate "all points failed" result.
    def dead(point, rewrite):
        raise RuntimeError("nope")

    policy = RemediationPolicy(exemplars=(), backend=scripted_session)
    with pytest.raises(RuntimeError, match="nope"):
        estimate_value_impact(policy, probe, dead)


@pytest.fixture
def impact_fn(quality_pool, scripted_session, probe, rollout_fn):
    return make_impact_fn(quality_pool, probe, scripted_session, rollout_fn)


def test_rank_individuals_orders_by_impact(quality_pool, impact_fn):
    ranked = rank_individuals(quality_pool, len(quality_pool), impact_fn, sample_seed=0)
    assert [eid for eid, _v in ranked] == [f"ex-{q}" for q in (0.9, 0.8, 0.7, 0.3, 0.2, 0.1)]
    impacts = [v for _eid, v in ranked]
    assert impacts == sorted(impacts, reverse=True)


def test_rank_individuals_sampling_is_seeded(quality_pool, impact_fn):
    a = rank_individuals(quality_pool, 3, impact_fn, sample_seed=5)
    b = rank_individuals(quality_pool, 3, impact_fn, sample_seed=5)
    assert a == b
    with pytest.raises(ValueError):
        rank_individuals(quality_pool, 99, impact_fn)
    with pytest.raises(ValueError):
        rank_individuals([], 1, impact_fn)


def test_only_probe_attempts_draw_coins(tmp_path, monkeypatch):
    # A rewrite is scored from the bargain its point recorded, so no value
    # rollout builds a coin generator: only each probe attempt's rollout to
    # its first head does, from that attempt's seed.
    built, attempts = [], []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in ("continue_rollout", "rollout_to_first_violation"):
                frame = frame.f_back
            built.append((frame and frame.f_code.co_name, seed))
            super().__init__(seed)

    def counted(world, config):
        attempts.append(config.seed)
        return rollout_to_first_violation(world, config)

    monkeypatch.setattr(simulation, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(valueimpact, "rollout_to_first_violation", counted)
    continued = []
    monkeypatch.setattr(valueimpact, "continue_rollout", lambda *a: continued.append(a) or continue_rollout(*a))
    sample, probe = 5, 3
    pool = tmp_path / "pool.jsonl"
    dump_exemplars([make_exemplar(f"ex-{i}", i / sample) for i in range(sample)], pool)
    assert cli.run([
        "filter", "--pool", str(pool), "--sample", str(sample), "--probe-size", str(probe),
        "--out", str(tmp_path / "ranked.json"),
    ]) == 0
    assert len(continued) == probe * (sample + 1)
    assert len(attempts) >= probe
    assert built == [("rollout_to_first_violation", seed) for seed in attempts]
