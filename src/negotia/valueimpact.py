"""Value of a remediation, value impact of an exemplar set, and individual
exemplar filtering.

The value of a candidate rewrite is the paired difference in final-dialogue
reward between its rollout and the silver (zero-shot) rewrite's rollout; both
completions are sampled once and continue from the same bargain recorded at
the violation point, so the difference isolates the rewrite and the identity
case is exactly zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .backends import BackendSession, ScriptedWorld, derive_seed
from .core import Exemplar
from .outcome import reward
from .remediate import RemediationPolicy, remediate
from .search import ImpactFn
from .simulation import (
    SimulationConfig,
    ViolationPoint,
    continue_rollout,
    rollout_to_first_violation,
)

__all__ = [
    "ProbeError",
    "RemediationPoint",
    "ValueEstimate",
    "RolloutFn",
    "make_scripted_rollout_fn",
    "build_probe_set",
    "value_of_remediation",
    "estimate_value_impact",
    "make_impact_fn",
    "rank_individuals",
]

# A rollout function completes a dialogue from a violation point with the
# given rewrite and returns the final reward.
RolloutFn = Callable[[ViolationPoint, str], float]

# Rollouts build_probe_set tries per probe point before it gives up.
PROBE_RETRY_BUDGET = 20


class ProbeError(RuntimeError):
    """A probe point that no rollout within the retry budget reached."""


@dataclass(frozen=True)
class RemediationPoint(ViolationPoint):
    """A probe point: a violation point, its silver rewrite, and the reward of
    the silver rewrite's rollout, fixed when the probe set is built."""

    silver_y: str
    silver_reward: float


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    n_points: int
    per_point: tuple[float, ...]


def make_scripted_rollout_fn(world: ScriptedWorld, config: SimulationConfig) -> RolloutFn:
    def run(point: ViolationPoint, rewrite: str) -> float:
        return reward(continue_rollout(world, config, point, rewrite), world.bounds)

    return run


def build_probe_set(
    world: ScriptedWorld,
    config: SimulationConfig,
    n_points: int,
    backend: BackendSession,
    rollout_fn: RolloutFn,
) -> tuple[RemediationPoint, ...]:
    """Synthesize probe points by rolling out to a first violation.

    Rollouts that finish without a violation are discarded and regenerated
    with a fresh derived seed, up to PROBE_RETRY_BUDGET attempts per point.
    Each point's silver (zero-shot) rewrite and its rollout run here, once.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    silver_policy = RemediationPolicy(exemplars=(), backend=backend)

    points: list[RemediationPoint] = []
    for i in range(n_points):
        point = None
        for attempt in range(PROBE_RETRY_BUDGET):
            seed = derive_seed(config.seed, "probe", i, attempt)
            point = rollout_to_first_violation(world, replace(config, seed=seed))
            if point is not None:
                break
        if point is None:
            raise ProbeError(f"probe point {i}: no violation within {PROBE_RETRY_BUDGET} regenerations")
        silver_y = remediate(silver_policy, point.prefix, point.violation_text)
        points.append(
            RemediationPoint(
                prefix=point.prefix,
                violation_text=point.violation_text,
                seed=point.seed,
                head=point.head,
                silver_y=silver_y,
                silver_reward=rollout_fn(point, silver_y),
            )
        )
    return tuple(points)


def value_of_remediation(
    point: RemediationPoint, y_prime: str, rollout_fn: RolloutFn
) -> float:
    """Paired reward difference of a candidate rewrite vs the silver one."""
    return rollout_fn(point, y_prime) - point.silver_reward


def estimate_value_impact(
    policy: RemediationPolicy,
    probe: tuple[RemediationPoint, ...],
    rollout_fn: RolloutFn,
) -> ValueEstimate:
    """Mean value over the probe set when the policy produces the rewrites.

    Every point is scored, so estimates on one probe set are always paired.
    """
    if not probe:
        raise ValueError("probe set must be non-empty")
    per_point: list[float] = []
    for point in probe:
        y_prime = remediate(policy, point.prefix, point.violation_text)
        per_point.append(value_of_remediation(point, y_prime, rollout_fn))
    return ValueEstimate(
        mean=sum(per_point) / len(per_point),
        n_points=len(per_point),
        per_point=tuple(per_point),
    )


def make_impact_fn(
    pool: list[Exemplar],
    probe: tuple[RemediationPoint, ...],
    backend: BackendSession,
    rollout_fn: RolloutFn,
) -> ImpactFn:
    """The mean value impact over ``probe`` of a set of pool exemplar ids."""
    by_id = {e.id: e for e in pool}

    def impact(members: tuple[str, ...]) -> float:
        policy = RemediationPolicy(exemplars=tuple(by_id[m] for m in members), backend=backend)
        return estimate_value_impact(policy, probe, rollout_fn).mean

    return impact


def rank_individuals(
    pool: list[Exemplar],
    sample_size: int,
    impact_fn: ImpactFn,
    sample_seed: int = 0,
) -> list[tuple[str, float]]:
    """Rank a uniform sample of singleton exemplar sets by value impact.

    Returns (exemplar id, impact) pairs in descending impact order, ties
    broken by id ascending.
    """
    if not pool:
        raise ValueError("empty exemplar pool")
    if sample_size > len(pool):
        raise ValueError("sample_size exceeds pool size")
    rng = random.Random(sample_seed)
    scored = [(e.id, impact_fn((e.id,))) for e in rng.sample(pool, sample_size)]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored
