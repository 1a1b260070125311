"""Shared fixtures: a default bargaining world, a scripted backend, the
latent-quality exemplar pool, and a seeded probe set."""

from __future__ import annotations

import pytest

from negotia.backends import BackendSession, ScriptedWorld
from negotia.core import Exemplar, PriceBounds, Speaker, Turn
from negotia.prompts import TemplateStore
from negotia.simulation import SimulationConfig
from negotia.valueimpact import build_probe_set, make_scripted_rollout_fn

QUALITIES = (0.9, 0.8, 0.7, 0.3, 0.2, 0.1)


@pytest.fixture(scope="session")
def bounds() -> PriceBounds:
    return PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)


@pytest.fixture(scope="session")
def world(bounds) -> ScriptedWorld:
    return ScriptedWorld(bounds=bounds)


@pytest.fixture(scope="session")
def scripted_session() -> BackendSession:
    return BackendSession(kind="scripted")


@pytest.fixture(scope="session")
def templates() -> TemplateStore:
    return TemplateStore()


def make_exemplar(eid: str, quality: float | None = None) -> Exemplar:
    history = (
        Turn(speaker=Speaker.BUYER, text=f"Could you reconsider the price for {eid}?"),
    )
    return Exemplar(
        id=eid,
        history=history,
        violation_text="Take it or leave it, we will not budge!",
        remediation_text="Let us find a figure that respects both of our needs.",
        latent_quality=quality,
    )


@pytest.fixture(scope="session")
def quality_pool() -> list[Exemplar]:
    return [make_exemplar(f"ex-{q}", q) for q in QUALITIES]


@pytest.fixture(scope="session")
def rollout_fn(world):
    config = SimulationConfig(p_c=0.6, seed=42)
    return make_scripted_rollout_fn(world, config)


@pytest.fixture(scope="session")
def probe(world, scripted_session, rollout_fn):
    config = SimulationConfig(p_c=0.6, seed=42)
    return build_probe_set(world, config, 8, scripted_session, rollout_fn)
