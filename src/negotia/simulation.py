"""Negotiation rollout engine.

Runs the bilateral negotiation loop with controlled violation injection,
optional remediation interception, and moderator termination. The loop is
written once and runs over one of two lanes: a deterministic scripted lane
driven by the bargaining world, and a remote lane driven by chat completions.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .backends import (
    BackendError,
    BackendSession,
    BargainState,
    ContentFilterError,
    ScriptedWorld,
    chat,
    check_round_boundary,
    scripted_outcome,
    scripted_step,
    scripted_violation_text,
)
from .core import Dialogue, PriceBounds, Speaker, Topic, Turn, format_money
from .outcome import assess_outcome
from .prompts import TemplateStore, render, render_conversation

__all__ = [
    "SimulationConfig",
    "ViolationPoint",
    "Remediator",
    "simulate",
    "moderator_end",
    "rollout_to_first_violation",
    "continue_rollout",
    "Speak",
    "play",
    "BUYER_OPENER",
    "seller_opener",
]

log = logging.getLogger(__name__)

# The two hard-coded opening turns: a buyer question, then the seller's
# answer stating the initial price.
BUYER_OPENER = "Hello, does your esteemed company have a special industrial product?"

# Enum member lookups cost a few hundred ns each; the rollout loop uses these.
_BUYER, _SELLER = Speaker.BUYER, Speaker.SELLER

# Every simulated negotiation is a product sale.
_TOPIC = Topic.PRODUCT_SALE

# Seller line recorded when the provider's content filter refuses the turn.
WITHHELD = "[withheld by provider content filter]"

# A remediator is any callable from (history, violating text) to a rewrite.
Remediator = Callable[[tuple[Turn, ...], str], str]

# A player: from the turns so far to the player's next turn, or None to leave.
Speak = Callable[[tuple[Turn, ...]], Optional[Turn]]


def seller_opener(bounds: PriceBounds) -> str:
    return (
        "Hello, our company has abundant production capacity and can offer to sell "
        "the required industrial product to your company in a one-time deal. "
        f"The unit price for this industrial product is {format_money(bounds.seller_init)}."
    )


@dataclass(frozen=True)
class SimulationConfig:
    p_c: float = 0.4
    remediation_enabled: bool = False
    max_turns: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError("p_c must be a probability")
        if self.max_turns < 2:
            raise ValueError("max_turns must leave room for the two opening turns")


@dataclass(frozen=True)
class ViolationPoint:
    """Prefix and first violating utterance of a rollout, pre-remediation."""

    prefix: tuple[Turn, ...]
    violation_text: str
    seed: int


def _opening_turns(bounds: PriceBounds) -> list[Turn]:
    return [
        Turn(speaker=_BUYER, text=BUYER_OPENER),
        Turn(speaker=_SELLER, text=seller_opener(bounds)),
    ]


# ---------------------------------------------------------------------------
# Lanes: who speaks and who decides the end


class _Halt(Exception):
    """Raised by a lane to end the rollout where it stands."""


class _ScriptedLane:
    """The bargaining world speaks for both agents and decides the end."""

    def __init__(self, world: ScriptedWorld, max_turns: int):
        self.world = world
        self.bounds = world.bounds
        self.state = BargainState.initial(world)
        self.max_turns = max_turns

    def buyer(self, turns: list[Turn]) -> str:
        return scripted_step(self.world, self.state, "buyer")

    def seller(self, turns: list[Turn], violate: bool) -> Optional[str]:
        if violate:  # the state is charged by violated() once the rewrite is known
            return scripted_violation_text(self.state.pending_ask)
        return scripted_step(self.world, self.state, "seller")

    def violated(self, rewrite: Optional[str]) -> None:
        scripted_step(self.world, self.state, "seller", violation=True, remediation=rewrite)

    def done(self, turns: list[Turn]) -> bool:
        if turns[-1].speaker is _SELLER:
            check_round_boundary(self.world, self.state)
        return self.state.terminal or len(turns) >= self.max_turns

    def dialogue(self, turns: list[Turn], dialogue_id: str) -> Dialogue:
        # A bargain still open at the turn cap, or left by a player, ends without a deal.
        self.state.terminal = True
        outcome = scripted_outcome(self.world, self.state)
        return Dialogue(id=dialogue_id, topic=_TOPIC, bounds=self.bounds, turns=tuple(turns), outcome=outcome)


class _RemoteLane:
    """Chat sessions speak; the moderator judges every new utterance.

    A seller turn refused by the content filter is recorded as withheld and
    not judged; any other backend failure ends the dialogue with an error.
    """

    def __init__(
        self,
        seller: BackendSession,
        buyer: BackendSession,
        moderator: BackendSession,
        evaluator: BackendSession,
        templates: TemplateStore,
        bounds: PriceBounds,
        max_turns: int,
    ):
        self.sessions = {"seller": seller, "buyer": buyer}
        self.moderator = moderator
        self.evaluator = evaluator
        self.templates = templates
        self.bounds = bounds
        self.max_turns = max_turns
        self.prices = {
            "SELLER_INIT_PRICE": format_money(bounds.seller_init),
            "COST_PRICE": format_money(bounds.cost_price),
            "BUYER_INIT_PRICE": format_money(bounds.buyer_init),
        }
        self.error: Optional[str] = None
        self.unjudged = False

    def _say(self, role: str, template_id: str, turns: list[Turn]) -> Optional[str]:
        conv = render_conversation(turns)
        msgs = render(self.templates.get(template_id), {**self.prices, "$CONVERSATION": conv})
        try:
            text = chat(self.sessions[role], msgs)
        except ContentFilterError:
            if role == "seller":  # withheld; a refused buyer turn ends the dialogue
                return None
            self.error = "content_filter"
            raise _Halt
        except BackendError as exc:
            self.error = f"backend: {exc}"
            raise _Halt
        self.unjudged = True
        return text

    def buyer(self, turns: list[Turn]) -> Optional[str]:
        return self._say("buyer", "buyer", turns)

    def seller(self, turns: list[Turn], violate: bool) -> Optional[str]:
        return self._say("seller", "seller_violate" if violate else "seller_normal", turns)

    def violated(self, rewrite: Optional[str]) -> None:
        pass

    def done(self, turns: list[Turn]) -> bool:
        if not self.unjudged:  # the openers, or a withheld seller line
            return len(turns) >= self.max_turns
        self.unjudged = False
        return moderator_end(tuple(turns), self.moderator, templates=self.templates, max_turns=self.max_turns)

    def dialogue(self, turns: list[Turn], dialogue_id: str) -> Dialogue:
        d = Dialogue(id=dialogue_id, topic=_TOPIC, bounds=self.bounds, turns=tuple(turns), error=self.error)
        if self.error is not None:
            return d
        return d.with_outcome(assess_outcome(d, self.evaluator, self.templates))


def _rollout(
    lane: _ScriptedLane | _RemoteLane,
    config: SimulationConfig,
    remediator: Optional[Remediator],
    *,
    stop_at_violation: bool = False,
    forced_remediation: Optional[str] = None,
) -> tuple[list[Turn], Optional[str]]:
    """Run the negotiation loop from the opening turns over a lane.

    Each round the buyer speaks, then the seller, each followed by
    ``lane.done``; every unsuppressed seller turn flips one Bernoulli(p_c)
    coin, and heads ask ``lane.seller`` for a violating utterance, which the
    remediator may rewrite before ``lane.violated`` lands it. Returns the
    turns and None, except that with ``stop_at_violation`` the loop returns
    at the first head with the raw violating text (lane state not yet
    charged). ``forced_remediation`` applies the given rewrite at the first
    head instead of consulting a remediator and suppresses later heads, which
    enforces the single-point rule for value-estimation rollouts.
    """
    turns = _opening_turns(lane.bounds)
    rng = random.Random(config.seed)
    flip = True
    try:
        while not lane.done(turns):
            turns.append(Turn(speaker=_BUYER, text=lane.buyer(turns)))
            if lane.done(turns):
                break
            violate = flip and rng.random() < config.p_c
            text = lane.seller(turns, violate)
            if text is None:
                turns.append(Turn(speaker=_SELLER, text=WITHHELD))
            elif not violate:
                turns.append(Turn(speaker=_SELLER, text=text))
            elif stop_at_violation:
                return turns, text
            else:
                if forced_remediation is not None:
                    rewrite: Optional[str] = forced_remediation
                    flip = False  # later heads are suppressed
                elif config.remediation_enabled and remediator is not None:
                    rewrite = remediator(tuple(turns), text)
                else:
                    rewrite = None
                lane.violated(rewrite)
                if rewrite is None:
                    turns.append(Turn(speaker=_SELLER, text=text, violation=True))
                else:
                    turns.append(
                        Turn(speaker=_SELLER, text=rewrite, violation=True, original_text=text)
                    )
    except _Halt:
        pass
    return turns, None


# ---------------------------------------------------------------------------
# Public operations


def moderator_end(
    trajectory: tuple[Turn, ...],
    backend: BackendSession,
    *,
    templates: Optional[TemplateStore] = None,
    max_turns: int = 20,
) -> bool:
    """Decide whether a remote negotiation has concluded.

    Asks a yes/no judgment prompt unless the turn cap is reached. A failing
    moderator counts as "continue", bounded by the turn cap.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    if len(trajectory) >= max_turns:
        return True
    if templates is None:
        raise ValueError("remote moderator requires templates")
    conv = render_conversation(trajectory)
    msgs = render(templates.get("moderator"), {"$CONVERSATION": conv})
    try:
        reply = chat(backend, msgs)
    except BackendError as exc:
        log.warning("moderator backend failed, treating as continue: %s", exc)
        return False
    return reply.strip().lower().startswith("yes")


def simulate(
    seller: BackendSession,
    buyer: BackendSession,
    moderator: BackendSession,
    config: SimulationConfig,
    templates: Optional[TemplateStore] = None,
    *,
    remediator: Optional[Remediator] = None,
    evaluator: Optional[BackendSession] = None,
    world: Optional[ScriptedWorld] = None,
    bounds: Optional[PriceBounds] = None,
    dialogue_id: str = "sim-0",
) -> Dialogue:
    """Run one full negotiation rollout and attach its assessed outcome.

    The scripted lane needs ``world``; the remote lane needs ``bounds``,
    ``templates``, and an ``evaluator`` session.
    """
    lane: _ScriptedLane | _RemoteLane
    if seller.kind == "scripted":
        if world is None:
            raise ValueError("scripted simulation requires a world")
        lane = _ScriptedLane(world, config.max_turns)
    else:
        if bounds is None or templates is None or evaluator is None:
            raise ValueError("remote simulation requires bounds, templates, and an evaluator")
        lane = _RemoteLane(seller, buyer, moderator, evaluator, templates, bounds, config.max_turns)
    turns, _ = _rollout(lane, config, remediator)
    return lane.dialogue(turns, dialogue_id)


def rollout_to_first_violation(
    world: ScriptedWorld,
    config: SimulationConfig,
) -> Optional[ViolationPoint]:
    """Run a scripted rollout until the first coin head.

    Returns the prefix and the raw (unremediated) violating utterance, or
    None when the dialogue ends without a violation.
    """
    if config.p_c <= 0.0:
        return None
    turns, raw = _rollout(_ScriptedLane(world, config.max_turns), config, None, stop_at_violation=True)
    if raw is None:
        return None
    return ViolationPoint(prefix=tuple(turns), violation_text=raw, seed=config.seed)


def continue_rollout(
    world: ScriptedWorld,
    config: SimulationConfig,
    point: ViolationPoint,
    remediation: str,
) -> Dialogue:
    """Complete a rollout from a violation point with the given remediation.

    The rollout is replayed deterministically from the point's seed, the
    rewrite replaces the violating utterance, and further violations are
    suppressed (the single-point rule). The same seed is used for every
    remediation candidate, so paired differences isolate the rewrite.
    """
    if not remediation:
        raise ValueError("remediation text must be non-empty")
    replay = SimulationConfig(p_c=config.p_c, max_turns=config.max_turns, seed=point.seed)
    lane = _ScriptedLane(world, replay.max_turns)
    turns, _ = _rollout(lane, replay, None, forced_remediation=remediation)
    return lane.dialogue(turns, "probe-0")


def play(world: ScriptedWorld, role: Speaker, speak: Speak, max_turns: int = 20) -> Dialogue:
    """Play one scripted negotiation with a person speaking for ``role``.

    Runs from the fixed opening turns on the scripted lane, so both sides'
    numbers move as in a rollout: the player's words replace the scripted
    text of their turns, and the scripted counterpart never violates. A
    seller turn marked ``violation`` charges goodwill through the lane; when
    it carries ``original_text`` its text is the accepted rewrite, whose
    quality the world reads back. The dialogue ends at a deal, a walk-away,
    the turn cap, or when ``speak`` returns None; it always has an outcome.
    """
    lane = _ScriptedLane(world, max_turns)
    turns = _opening_turns(world.bounds)
    speaker = _BUYER
    while not lane.done(turns):
        turn = speak(tuple(turns)) if speaker is role else None
        if turn is None and speaker is role:  # the player left
            break
        if turn is not None and turn.violation:
            if speaker is not _SELLER:
                raise ValueError("only seller turns can be flagged as violations")
            lane.seller(turns, True)
            lane.violated(turn.text if turn.original_text is not None else None)
        else:
            # The scripted step moves this side's number; its text is kept
            # only for the counterpart.
            text = lane.buyer(turns) if speaker is _BUYER else lane.seller(turns, False)
            turn = turn or Turn(speaker=speaker, text=text)
        turns.append(turn)
        speaker = _SELLER if speaker is _BUYER else _BUYER
    return lane.dialogue(turns, "interactive-0")
