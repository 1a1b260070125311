"""Negotiation rollout engine.

Runs the bilateral negotiation loop with controlled violation injection,
optional remediation interception, and moderator termination. The loop is
written once and runs over one of two lanes: a deterministic scripted lane
driven by the bargaining world, and a remote lane driven by chat completions.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .backends import (
    BackendError,
    BackendSession,
    BargainState,
    ContentFilterError,
    ScriptedWorld,
    bargain_move,
    chat,
    remediation_quality,
    scripted_outcome,
    scripted_step,
    scripted_violation_text,
)
from .core import Dialogue, NegotiationOutcome, PriceBounds, Speaker, Topic, Turn, format_money
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
    "replay_outcome",
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

    def __init__(self, world: ScriptedWorld):
        self.world = world
        self.bounds = world.bounds
        self.state = BargainState.initial(world)

    def buyer(self, turns: list[Turn]) -> str:
        return scripted_step(self.world, self.state, "buyer")

    def seller(self, turns: list[Turn], violate: bool) -> Optional[str]:
        if violate:  # the state is charged by violated() once the rewrite is known
            return scripted_violation_text(self.state.pending_ask)
        return scripted_step(self.world, self.state, "seller")

    def violated(self, rewrite: Optional[str]) -> None:
        quality = None if rewrite is None else remediation_quality(rewrite)
        bargain_move(self.world, self.state, "seller", True, quality)

    def done(self, turns: list[Turn]) -> bool:
        return self.state.terminal

    def dialogue(self, turns: list[Turn], dialogue_id: str) -> Dialogue:
        # A bargain still open at the turn cap, or left by a player, ends without a deal.
        outcome = scripted_outcome(self.world, self.state)
        return Dialogue(id=dialogue_id, topic=_TOPIC, bounds=self.bounds, turns=tuple(turns), outcome=outcome)


class _RemoteLane:
    """Chat sessions speak; the moderator judges each new utterance under the cap.

    A seller turn refused by the content filter is recorded as withheld and
    not judged; any other backend failure, the evaluator's too, or an empty
    buyer or seller completion ends the dialogue with an error.
    """

    def __init__(
        self,
        seller: BackendSession,
        buyer: BackendSession,
        moderator: BackendSession,
        evaluator: BackendSession,
        templates: TemplateStore,
        bounds: PriceBounds,
    ):
        self.sessions = {"seller": seller, "buyer": buyer}
        self.moderator = moderator
        self.evaluator = evaluator
        self.templates = templates
        self.bounds = bounds
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
            if not text:
                raise BackendError(f"empty {role} completion")
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
            return False
        self.unjudged = False
        return moderator_end(tuple(turns), self.moderator, templates=self.templates)

    def dialogue(self, turns: list[Turn], dialogue_id: str) -> Dialogue:
        d = Dialogue(id=dialogue_id, topic=_TOPIC, bounds=self.bounds, turns=tuple(turns), error=self.error)
        if self.error is not None:
            return d
        try:
            return d.with_outcome(assess_outcome(d, self.evaluator, self.templates))
        except BackendError as exc:
            return replace(d, error=f"evaluator: {exc}")


def _rollout(
    lane: _ScriptedLane | _RemoteLane,
    config: SimulationConfig,
    remediator: Optional[Remediator],
    *,
    forced_remediation: Optional[str] = None,
) -> list[Turn]:
    """Run the negotiation loop from the opening turns over a lane.

    Each round the buyer speaks, then the seller. After each turn the loop
    stops at the turn cap before it asks ``lane.done``. Every unsuppressed
    seller turn flips one Bernoulli(p_c) coin, and heads ask ``lane.seller``
    for a violating utterance, which the remediator may rewrite before
    ``lane.violated`` lands it. Returns the turns. ``forced_remediation``
    applies the given rewrite at the first head instead of consulting a
    remediator and suppresses later heads, which enforces the single-point
    rule for value-estimation rollouts.
    """
    turns = _opening_turns(lane.bounds)
    rng = random.Random(config.seed)
    flip = True
    try:
        while len(turns) < config.max_turns and not lane.done(turns):
            turns.append(Turn(speaker=_BUYER, text=lane.buyer(turns)))
            if len(turns) >= config.max_turns or lane.done(turns):
                break
            violate = flip and rng.random() < config.p_c
            text = lane.seller(turns, violate)
            if text is None:
                turns.append(Turn(speaker=_SELLER, text=WITHHELD))
            elif not violate:
                turns.append(Turn(speaker=_SELLER, text=text))
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
    return turns


# ---------------------------------------------------------------------------
# Public operations


def moderator_end(
    trajectory: tuple[Turn, ...],
    backend: BackendSession,
    *,
    templates: TemplateStore,
) -> bool:
    """Decide whether a remote negotiation has concluded.

    Asks a yes/no judgment prompt. A failing moderator counts as "continue";
    the rollout loop's turn cap still ends the dialogue.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
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
        lane = _ScriptedLane(world)
    else:
        if bounds is None or templates is None or evaluator is None:
            raise ValueError("remote simulation requires bounds, templates, and an evaluator")
        lane = _RemoteLane(seller, buyer, moderator, evaluator, templates, bounds)
    turns = _rollout(lane, config, remediator)
    return lane.dialogue(turns, dialogue_id)


def rollout_to_first_violation(
    world: ScriptedWorld,
    config: SimulationConfig,
) -> Optional[ViolationPoint]:
    """Read the first violation point off an unremediated scripted rollout.

    Returns the turns before its first violation turn and that turn's raw
    text, or None when the dialogue ends without a violation.
    """
    turns = _rollout(_ScriptedLane(world), config, None)
    for i, turn in enumerate(turns):
        if turn.violation:
            return ViolationPoint(prefix=tuple(turns[:i]), violation_text=turn.text, seed=config.seed)
    return None


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
    replay = replace(config, seed=point.seed)
    lane = _ScriptedLane(world)
    turns = _rollout(lane, replay, None, forced_remediation=remediation)
    return lane.dialogue(turns, "probe-0")


def replay_outcome(
    world: ScriptedWorld,
    config: SimulationConfig,
    point: ViolationPoint,
    remediation: str,
) -> NegotiationOutcome:
    """``continue_rollout(world, config, point, remediation).outcome``, from
    ``_rollout``'s turn cap and coin rule run over ``bargain_move`` alone,
    with no turn or text built: value estimation keeps only the outcome.
    """
    if not remediation:
        raise ValueError("remediation text must be non-empty")
    state = BargainState.initial(world)
    rng = random.Random(point.seed)
    flip = True
    n = 2  # the opening turns
    while n < config.max_turns and not state.terminal:
        bargain_move(world, state, "buyer")
        if n + 1 >= config.max_turns:  # a buyer move never ends the bargain
            break
        head = flip and rng.random() < config.p_c
        flip = flip and not head  # the first head lands the rewrite; later ones are suppressed
        bargain_move(world, state, "seller", head, remediation_quality(remediation) if head else None)
        n += 2
    return scripted_outcome(world, state)


def play(world: ScriptedWorld, role: Speaker, speak: Speak, max_turns: int = 20) -> Dialogue:
    """Play one scripted negotiation with a person speaking for ``role``.

    Runs from the fixed opening turns on the scripted lane, so both sides'
    numbers move as in a rollout: the player's words are their side's turns,
    for which no scripted text is rendered, and the scripted counterpart
    never violates. A seller turn marked ``violation`` charges goodwill
    through the lane; when it carries ``original_text`` its text is the
    accepted rewrite, whose quality the world reads back. The dialogue ends
    at a deal, a walk-away, the turn cap, or when ``speak`` returns None; it
    always has an outcome.
    """
    lane = _ScriptedLane(world)
    turns = _opening_turns(world.bounds)
    speaker = _BUYER
    while len(turns) < max_turns and not lane.done(turns):
        turn = speak(tuple(turns)) if speaker is role else None
        if turn is None and speaker is role:  # the player left
            break
        if turn is None:  # the scripted counterpart
            text = lane.buyer(turns) if speaker is _BUYER else lane.seller(turns, False)
            turn = Turn(speaker=speaker, text=text)
        elif turn.violation:
            if speaker is not _SELLER:
                raise ValueError("only seller turns can be flagged as violations")
            lane.violated(turn.text if turn.original_text is not None else None)
        else:  # the player's words stand; the bargain moves their side's number
            bargain_move(world, lane.state, speaker.value)
        turns.append(turn)
        speaker = _SELLER if speaker is _BUYER else _BUYER
    return lane.dialogue(turns, "interactive-0")
