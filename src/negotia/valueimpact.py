"""Value of a remediation, value impact of an exemplar set, and individual
exemplar filtering.

The value of a candidate rewrite is the paired difference in final-dialogue
reward between its rollout and the silver (zero-shot) rewrite's rollout; both
completions are sampled once and share the same continuation seed, so the
difference isolates the rewrite and the identity case is exactly zero.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .backends import BackendSession, ScriptedWorld, derive_seed
from .core import Exemplar, Turn
from .outcome import RewardWeights, reward
from .prompts import TemplateStore
from .remediate import RemediationPolicy, remediate
from .simulation import (
    SimulationConfig,
    ViolationPoint,
    continue_rollout,
    rollout_to_first_violation,
)

__all__ = [
    "RemediationPoint",
    "ValueEstimate",
    "RolloutFn",
    "make_scripted_rollout_fn",
    "build_probe_set",
    "value_of_remediation",
    "estimate_value_impact",
    "rank_individuals",
]

log = logging.getLogger(__name__)

# A rollout function completes a dialogue from a violation point with the
# given rewrite and returns the final reward.
RolloutFn = Callable[[ViolationPoint, str], float]


@dataclass
class RemediationPoint:
    """A probe point: prefix, violating utterance, and its silver rewrite.

    The silver rollout reward is computed once and cached; it does not depend
    on the candidate exemplar set.
    """

    prefix: tuple[Turn, ...]
    violation_text: str
    silver_y: str
    seed: int
    silver_reward: Optional[float] = field(default=None, compare=False)

    def as_violation_point(self) -> ViolationPoint:
        return ViolationPoint(
            prefix=self.prefix, violation_text=self.violation_text, seed=self.seed
        )


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    n_points: int
    per_point: tuple[float, ...]


def make_scripted_rollout_fn(
    world: ScriptedWorld, config: SimulationConfig, weights: RewardWeights
) -> RolloutFn:
    def run(point: ViolationPoint, rewrite: str) -> float:
        d = continue_rollout(world, config, point, rewrite)
        assert d.outcome is not None
        return reward(d.outcome, world.bounds, weights)

    return run


def build_probe_set(
    world: ScriptedWorld,
    config: SimulationConfig,
    n_points: int,
    silver_policy: RemediationPolicy,
    templates: Optional[TemplateStore] = None,
    retry_budget: int = 20,
) -> list[RemediationPoint]:
    """Synthesize probe points by rolling out to a first violation.

    Rollouts that finish without a violation are discarded and regenerated
    with a fresh derived seed, up to the retry budget per point.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if silver_policy.exemplars:
        raise ValueError("the silver policy must be zero-shot (no exemplars)")

    points: list[RemediationPoint] = []
    for i in range(n_points):
        point = None
        for attempt in range(retry_budget):
            seed = derive_seed(config.seed, "probe", i, attempt)
            cfg = SimulationConfig(
                p_c=config.p_c,
                remediation_enabled=False,
                max_turns=config.max_turns,
                seed=seed,
            )
            point = rollout_to_first_violation(world, cfg)
            if point is not None:
                break
        if point is None:
            raise RuntimeError(
                f"probe point {i}: no violation within {retry_budget} regenerations"
            )
        silver_y = remediate(silver_policy, point.prefix, point.violation_text, templates)
        points.append(
            RemediationPoint(
                prefix=point.prefix,
                violation_text=point.violation_text,
                silver_y=silver_y,
                seed=point.seed,
            )
        )
    return points


def value_of_remediation(
    point: RemediationPoint, y_prime: str, rollout_fn: RolloutFn
) -> float:
    """Paired-seed reward difference of a candidate rewrite vs the silver one."""
    vp = point.as_violation_point()
    if point.silver_reward is None:
        point.silver_reward = rollout_fn(vp, point.silver_y)
    return rollout_fn(vp, y_prime) - point.silver_reward


def estimate_value_impact(
    policy: RemediationPolicy,
    probe: list[RemediationPoint],
    rollout_fn: RolloutFn,
    templates: Optional[TemplateStore] = None,
) -> ValueEstimate:
    """Mean value over the probe set when the policy produces the rewrites."""
    if not probe:
        raise ValueError("probe set must be non-empty")
    per_point: list[float] = []
    for point in probe:
        try:
            y_prime = remediate(policy, point.prefix, point.violation_text, templates)
            per_point.append(value_of_remediation(point, y_prime, rollout_fn))
        except Exception as exc:  # noqa: BLE001 - invalid points drop out of the mean
            log.warning("probe point invalid, excluded from the mean: %s", exc)
    if not per_point:
        raise RuntimeError("all probe points failed")
    return ValueEstimate(
        mean=sum(per_point) / len(per_point),
        n_points=len(per_point),
        per_point=tuple(per_point),
    )


def rank_individuals(
    pool: list[Exemplar],
    sample_size: int,
    probe: list[RemediationPoint],
    backend: BackendSession,
    rollout_fn: RolloutFn,
    sample_seed: int = 0,
    templates: Optional[TemplateStore] = None,
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
    sample = rng.sample(pool, sample_size)
    scored: list[tuple[str, float]] = []
    for exemplar in sample:
        policy = RemediationPolicy(exemplars=(exemplar,), backend=backend)
        estimate = estimate_value_impact(policy, probe, rollout_fn, templates)
        scored.append((exemplar.id, estimate.mean))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored
