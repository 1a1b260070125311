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
from functools import lru_cache
from typing import Callable, NoReturn, Optional

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

# The openers and the scripted lane's turns are built through this memo, so
# that equal turns are one object, as in a loaded corpus. Call it
# positionally: keyword calls key apart. Its bound is that of core's tables.
_turn = lru_cache(maxsize=1024)(Turn)

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
    """Prefix and first violating utterance of a rollout, pre-remediation,
    with the scripted bargain at that head: bid, ask, goodwill and pending
    ask, just before the violating seller move."""

    prefix: tuple[Turn, ...]
    violation_text: str
    seed: int
    head: tuple[float, float, float, float]


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

    def buyer(self, turns: list[Turn]) -> Turn:
        return _turn(_BUYER, scripted_step(self.world, self.state, "buyer"))

    def seller(self, turns: list[Turn], violate: bool) -> Turn:
        if violate:  # the state is charged by violated() once the rewrite is known
            return _turn(_SELLER, scripted_violation_text(self.state.pending_ask), True)
        return _turn(_SELLER, scripted_step(self.world, self.state, "seller"))

    def violated(self, rewrite: Optional[str]) -> None:
        quality = None if rewrite is None else remediation_quality(rewrite)
        bargain_move(self.world, self.state, "seller", True, quality)

    def done(self, turns: list[Turn]) -> bool:
        return self.state.terminal

    def dialogue(self, turns: list[Turn], dialogue_id: str) -> Dialogue:
        # A bargain still open at the turn cap, or left by a player, ends without a deal.
        outcome = scripted_outcome(self.world, self.state)
        return Dialogue(id=dialogue_id, topic=_TOPIC, bounds=self.bounds, turns=tuple(turns), outcome=outcome)


class _PlayerLane(_ScriptedLane):
    """The scripted lane with ``role``'s turns taken from ``speak``."""

    def __init__(self, world: ScriptedWorld, role: Speaker, speak: Speak):
        super().__init__(world)
        self.role, self.speak = role, speak

    def buyer(self, turns: list[Turn]) -> Turn:
        return self._play(turns) if self.role is _BUYER else super().buyer(turns)

    def seller(self, turns: list[Turn], violate: bool) -> Turn:
        return self._play(turns) if self.role is _SELLER else super().seller(turns, violate)

    def _play(self, turns: list[Turn]) -> Turn:
        turn = self.speak(tuple(turns))
        if turn is None:  # the player left
            raise _Halt
        if turn.speaker is not self.role:
            raise ValueError(f"the player speaks for the {self.role.value}, not the {turn.speaker.value}")
        if not turn.violation:
            bargain_move(self.world, self.state, self.role.value)
        elif self.role is not _SELLER:
            raise ValueError("only seller turns can be flagged as violations")
        else:
            self.violated(turn.text if turn.original_text is not None else None)
        return turn


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
        self.sessions = {_SELLER: seller, _BUYER: buyer}
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

    def _say(self, speaker: Speaker, template_id: str, turns: list[Turn], violate: bool = False) -> Optional[Turn]:
        conv = render_conversation(turns)
        msgs = render(self.templates.get(template_id), {**self.prices, "$CONVERSATION": conv})
        try:
            text = chat(self.sessions[speaker], msgs)
            if not text:
                raise BackendError(f"empty {speaker.value} completion")
        except ContentFilterError:
            if speaker is _SELLER:  # withheld; a refused buyer turn ends the dialogue
                return None
            self.error = "content_filter"
            raise _Halt
        except BackendError as exc:
            self.error = f"backend: {exc}"
            raise _Halt
        self.unjudged = True
        return Turn(speaker=speaker, text=text, violation=violate)

    def buyer(self, turns: list[Turn]) -> Turn:  # a refused buyer turn halts; only a seller's is withheld
        return self._say(_BUYER, "buyer", turns)

    def seller(self, turns: list[Turn], violate: bool) -> Optional[Turn]:
        return self._say(_SELLER, "seller_violate" if violate else "seller_normal", turns, violate)

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
) -> list[Turn]:
    """Run the negotiation loop from the opening turns over a lane.

    Each round the buyer speaks, then the seller, and the loop appends the
    turn each returns. After each turn the loop stops at the turn cap before
    it asks ``lane.done``. Every seller turn draws one Bernoulli(p_c) coin,
    and heads ask ``lane.seller`` for a violating turn, whose text the
    remediator may rewrite before ``lane.violated`` lands it. Returns the turns.
    """
    turns = [_turn(_BUYER, BUYER_OPENER), _turn(_SELLER, seller_opener(lane.bounds))]
    rng = random.Random(config.seed)
    try:
        while len(turns) < config.max_turns and not lane.done(turns):
            turns.append(lane.buyer(turns))
            if len(turns) >= config.max_turns or lane.done(turns):
                break
            violate = rng.random() < config.p_c
            turn = lane.seller(turns, violate)
            if turn is None:
                turn = Turn(speaker=_SELLER, text=WITHHELD)
            elif violate:
                rewrite: Optional[str] = None
                if config.remediation_enabled and remediator is not None:
                    rewrite = remediator(tuple(turns), turn.text)
                lane.violated(rewrite)
                if rewrite is not None:
                    turn = Turn(speaker=_SELLER, text=rewrite, violation=True, original_text=turn.text)
            turns.append(turn)
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
    """Run an unremediated scripted rollout up to its first coin head.

    Returns the turns before that head, the raw violating text and the
    bargain as it stands there, or None when the dialogue ends without a
    violation.
    """
    lane = _ScriptedLane(world)
    found: list[ViolationPoint] = []

    def stop(prefix: tuple[Turn, ...], text: str) -> NoReturn:
        s = lane.state
        found.append(ViolationPoint(prefix, text, config.seed, (s.bid, s.ask, s.goodwill, s.pending_ask)))
        raise _Halt

    _rollout(lane, replace(config, remediation_enabled=True), stop)
    return found[0] if found else None


def continue_rollout(
    world: ScriptedWorld,
    config: SimulationConfig,
    point: ViolationPoint,
    remediation: str,
) -> NegotiationOutcome:
    """Complete a scripted rollout from a violation point with the given
    remediation and return its outcome.

    The rewrite lands on the bargain the point recorded at its head; the
    bargain then moves on under ``_rollout``'s turn cap over ``bargain_move``
    alone, with no turn or text built. No later seller turn draws a coin, so
    later heads are suppressed (the single-point rule), and every rewrite
    scored on one point starts from the same state, which isolates it. The
    point must come from ``rollout_to_first_violation`` under the same world
    and config.
    """
    if not remediation:
        raise ValueError("remediation text must be non-empty")
    # An open bargain with no violation yet holds nothing but these numbers.
    bid, ask, goodwill, pending_ask = point.head
    state = BargainState(bid=bid, ask=ask, goodwill=goodwill, pending_ask=pending_ask)
    bargain_move(world, state, "seller", True, remediation_quality(remediation))
    n = len(point.prefix) + 1
    while n < config.max_turns and not state.terminal:  # the buyer speaks at even counts, as in _rollout
        bargain_move(world, state, "buyer" if n % 2 == 0 else "seller")
        n += 1
    return scripted_outcome(world, state)


def play(world: ScriptedWorld, role: Speaker, speak: Speak, max_turns: int = 20) -> Dialogue:
    """Play one scripted negotiation with a person speaking for ``role``.

    Runs the rollout loop over the scripted lane with ``role``'s turns taken
    from ``speak``: the player's words move their side's number, no scripted
    text is rendered for them, and the scripted counterpart never violates.
    A seller turn marked ``violation`` charges goodwill; when it carries
    ``original_text`` its text is the accepted rewrite, whose quality the
    world reads back. A turn for the other role, or a flagged buyer turn,
    raises ValueError. The dialogue ends at a deal, a walk-away, the turn
    cap, or when ``speak`` returns None; it always has an outcome.
    """
    lane = _PlayerLane(world, role, speak)
    turns = _rollout(lane, SimulationConfig(p_c=0.0, max_turns=max_turns), None)
    return lane.dialogue(turns, "interactive-0")
