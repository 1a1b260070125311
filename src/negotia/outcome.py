"""Outcome assessment, the composite reward, and corpus-level metrics."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .backends import BackendSession, chat
from .core import Dialogue, NegotiationOutcome, PriceBounds
from .prompts import TemplateStore, render, render_conversation

__all__ = [
    "MetricsReport",
    "normalize_price",
    "reward",
    "assess_outcome",
    "evaluate_corpus",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricsReport:
    success_rate: float
    mean_deal_value: float | None
    trust_improvement_rate: float
    relation_enhancement_rate: float
    n: int


def normalize_price(price: int, bounds: PriceBounds) -> float:
    """Map a price onto [0, 1] over the negotiation's live interval."""
    v = (price - bounds.buyer_init) / (bounds.seller_init - bounds.buyer_init)
    return min(max(v, 0.0), 1.0)


def reward(outcome: NegotiationOutcome, bounds: PriceBounds) -> float:
    """Composite task+social reward.

    R = 0.7 * v_price + 0.1 * b_deal + 0.1 * trust + 0.1 * business, with
    b_deal in {+1, -1}. v_price is 0 by convention when there is no deal, so
    the deal bonus/penalty is carried solely by the b_deal term.
    """
    if outcome.deal:
        if outcome.price is None:
            raise ValueError("deal outcome must carry a price")
        v_price = normalize_price(outcome.price, bounds)
        b_deal = 1.0
    else:
        v_price = 0.0
        b_deal = -1.0
    return 0.7 * v_price + 0.1 * b_deal + 0.1 * outcome.trust_delta + 0.1 * outcome.business_delta


# ---------------------------------------------------------------------------
# Remote assessment

_TRUST_LABELS = {
    "trust deepening": 1,
    "trust weakening": -1,
    "no change": 0,
    "this conversation does not involve building trust": 0,
}

_BUSINESS_LABELS = {
    "business relationship deepening": 1,
    "business relationship weakening": -1,
    "no change": 0,
    "this conversation does not involve deepening business relationships": 0,
}


def _judge(evaluator: BackendSession, msgs: list[dict], labels: dict[str, int]) -> int:
    """Map a four-way judgment reply to a delta; an unparseable one is neutral.

    The request is sent once: a re-ask would be answered from the cache.
    """
    reply = chat(evaluator, msgs)
    text = reply.strip().strip('".').lower()
    for label, value in labels.items():
        if label in text:
            return value
    log.warning("unparseable evaluator reply %r, treating as not-applicable", reply)
    return 0


def _parse_deal(reply: str) -> tuple[bool, int | None]:
    lines = [ln.strip() for ln in reply.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty evaluator reply")
    head = lines[0].lower()
    if head.startswith("no deal"):
        return False, None
    if head.startswith("deal"):
        if len(lines) < 2:
            raise ValueError("deal reply missing price line")
        m = re.search(r"-?\d+(?:\.\d+)?", lines[1])
        if not m:
            raise ValueError(f"no price in reply line {lines[1]!r}")
        return True, round(float(m.group(0)))
    raise ValueError(f"unrecognised deal reply: {lines[0]!r}")


def assess_outcome(
    d: Dialogue, evaluator: BackendSession, templates: TemplateStore
) -> NegotiationOutcome:
    """Assess a terminal dialogue with three evaluator judgments.

    Scripted evaluation happens inside the rollout engine; this path covers
    remote evaluators (``chat`` refuses any other with ``BackendError``):
    deal/price extraction plus the trust and business four-way labels, each
    mapped to {-1, 0, +1} with "not applicable" neutral.
    """
    conv = render_conversation(d.turns)

    deal_reply = chat(evaluator, render(templates.get("deal_eval"), {"$CONVERSATION": conv}))
    try:
        deal, price = _parse_deal(deal_reply)
    except ValueError:
        log.warning("unparseable deal reply %r, treating as no deal", deal_reply)
        deal, price = False, None

    trust = _judge(evaluator, render(templates.get("trust_eval"), {"$CONVERSATION": conv}), _TRUST_LABELS)
    business = _judge(
        evaluator, render(templates.get("business_eval"), {"$CONVERSATION": conv}), _BUSINESS_LABELS
    )
    return NegotiationOutcome(deal=deal, price=price, trust_delta=trust, business_delta=business)


def evaluate_corpus(dialogues: list[Dialogue]) -> MetricsReport:
    """Corpus-level metrics; mean deal value averages over successful deals only."""
    if not dialogues:
        raise ValueError("empty corpus")
    missing = [d.id for d in dialogues if d.outcome is None]
    if missing:
        raise ValueError(f"dialogues without outcomes: {', '.join(missing[:5])}")
    n = len(dialogues)
    deals = [d for d in dialogues if d.outcome.deal]
    prices = [d.outcome.price for d in deals if d.outcome.price is not None]
    return MetricsReport(
        success_rate=len(deals) / n,
        mean_deal_value=(sum(prices) / len(prices)) if prices else None,
        trust_improvement_rate=sum(1 for d in dialogues if d.outcome.trust_delta == 1) / n,
        relation_enhancement_rate=sum(1 for d in dialogues if d.outcome.business_delta == 1) / n,
        n=n,
    )
