"""Reward computation, remote outcome assessment, and corpus metrics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negotia.backends import BackendError, BackendSession
from negotia.core import Dialogue, NegotiationOutcome, PriceBounds, Speaker, Topic, Turn
from negotia.outcome import (
    MetricsReport,
    assess_outcome,
    evaluate_corpus,
    normalize_price,
    reward,
)


def test_normalize_price_boundaries():
    b = PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000)
    assert normalize_price(3000, b) == 0.0
    assert normalize_price(5000, b) == 1.0
    assert normalize_price(3700, b) == pytest.approx(0.35)


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_normalize_price_clamps(price):
    b = PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000)
    assert 0.0 <= normalize_price(price, b) <= 1.0


def test_reward_cases(bounds):
    deal = NegotiationOutcome(deal=True, price=4000, trust_delta=1, business_delta=0)
    assert reward(deal, bounds) == pytest.approx(0.55)
    walk = NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)
    assert reward(walk, bounds) == pytest.approx(-0.3)
    top = NegotiationOutcome(deal=True, price=5000, trust_delta=1, business_delta=1)
    assert reward(top, bounds) == pytest.approx(1.0)


def test_reward_requires_price_for_deal(bounds):
    with pytest.raises(ValueError):
        reward(NegotiationOutcome(deal=True), bounds)


def test_reward_range(bounds):
    lows = reward(NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1), bounds)
    highs = reward(
        NegotiationOutcome(deal=True, price=10**7, trust_delta=1, business_delta=1), bounds
    )
    assert lows == pytest.approx(-0.3)
    assert highs == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Remote assessment


def make_evaluator(replies):
    """replies: callable(prompt) -> content, or list consumed in order."""

    def transport(body):
        prompt = "\n".join(m["content"] for m in body["messages"])
        content = replies(prompt) if callable(replies) else replies.pop(0)
        return {"choices": [{"finish_reason": "stop", "message": {"content": content}}]}

    return BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        backoff_base=0.0, transport=transport,
    )


def sample_dialogue(bounds):
    return Dialogue(
        id="d",
        topic=Topic.PRODUCT_SALE,
        bounds=bounds,
        turns=(
            Turn(speaker=Speaker.BUYER, text="hello"),
            Turn(speaker=Speaker.SELLER, text="the price is $50"),
        ),
    )


def standard_replies(prompt):
    if "whether a deal was reached" in prompt:
        return "Deal\nThe agreed price was $42."
    if "build trust" in prompt:
        return "Trust Weakening"
    return "This conversation does not involve deepening business relationships."


def test_assess_outcome_parses_three_judgments(bounds, templates):
    out = assess_outcome(sample_dialogue(bounds), make_evaluator(standard_replies), templates)
    assert out == NegotiationOutcome(deal=True, price=42, trust_delta=-1, business_delta=0)


def test_assess_outcome_no_deal(bounds, templates):
    def replies(prompt):
        if "whether a deal was reached" in prompt:
            return "No deal"
        return "No Change"

    out = assess_outcome(sample_dialogue(bounds), make_evaluator(replies), templates)
    assert out == NegotiationOutcome(deal=False, price=None, trust_delta=0, business_delta=0)


def test_assess_outcome_asks_once_then_neutral(bounds, templates):
    calls = {"trust": 0}

    def replies(prompt):
        if "whether a deal was reached" in prompt:
            return "No deal"
        if "build trust" in prompt:
            calls["trust"] += 1
            return "mumble mumble"
        return "No Change"

    out = assess_outcome(sample_dialogue(bounds), make_evaluator(replies), templates)
    assert calls["trust"] == 1
    assert out.trust_delta == 0


def test_assess_outcome_unparseable_deal_treated_as_no_deal(bounds, templates):
    calls = {"deal": 0}

    def replies(prompt):
        if "whether a deal was reached" in prompt:
            calls["deal"] += 1
            return "perhaps?"
        return "No Change"

    out = assess_outcome(sample_dialogue(bounds), make_evaluator(replies), templates)
    assert not out.deal and out.price is None
    assert calls["deal"] == 1


def test_assess_outcome_rejects_scripted_evaluator(bounds, templates, scripted_session):
    with pytest.raises(BackendError):
        assess_outcome(sample_dialogue(bounds), scripted_session, templates)


# ---------------------------------------------------------------------------
# Corpus metrics


def test_evaluate_corpus(bounds):
    def with_outcome(did, outcome):
        return sample_dialogue(bounds).with_outcome(outcome)

    corpus = [
        with_outcome("a", NegotiationOutcome(deal=True, price=4000, trust_delta=1, business_delta=1)),
        with_outcome("b", NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)),
    ]
    report = evaluate_corpus(corpus)
    assert report == MetricsReport(
        success_rate=0.5,
        mean_deal_value=4000.0,
        trust_improvement_rate=0.5,
        relation_enhancement_rate=0.5,
        n=2,
    )


def test_evaluate_corpus_no_deals(bounds):
    corpus = [
        sample_dialogue(bounds).with_outcome(
            NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)
        )
    ]
    assert evaluate_corpus(corpus).mean_deal_value is None


def test_evaluate_corpus_errors(bounds):
    with pytest.raises(ValueError, match="empty"):
        evaluate_corpus([])
    with pytest.raises(ValueError, match="without outcomes"):
        evaluate_corpus([sample_dialogue(bounds)])


@pytest.mark.parametrize(
    "deal_reply",
    ["", "Deal", "Deal\nThe price is still open.", "Deal\n$" + "9" * 400, "Deal\n-" + "9" * 400 + ".5"],
    ids=["empty", "deal-without-price-line", "price-line-without-number", "price-too-large-for-a-float",
         "negative-price-too-large-for-a-float"],
)
def test_assess_outcome_reads_an_incomplete_deal_reply_as_no_deal(bounds, templates, deal_reply):
    def replies(prompt):
        return deal_reply if "whether a deal was reached" in prompt else "No Change"

    out = assess_outcome(sample_dialogue(bounds), make_evaluator(replies), templates)
    assert out == NegotiationOutcome(deal=False, price=None, trust_delta=0, business_delta=0)
