"""Remediation policy behaviour and silver pool annotation."""

from __future__ import annotations

import pytest

from negotia.backends import (
    BackendSession,
    NetworkError,
    remediation_quality,
)
from negotia.core import Dialogue, Exemplar, Speaker, Topic, Turn
from negotia.remediate import (
    SILVER_SCRIPTED_QUALITY,
    RemediationPolicy,
    remediate,
    silver_annotate,
)

from conftest import make_exemplar


def remote(transport, **kwargs):
    return BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        backoff_base=0.0, transport=transport, **kwargs,
    )


def test_scripted_quality_aggregation(scripted_session):
    zero_shot = RemediationPolicy(exemplars=(), backend=scripted_session)
    assert zero_shot.scripted_quality() == SILVER_SCRIPTED_QUALITY

    pair = RemediationPolicy(
        exemplars=(make_exemplar("a", 0.9), make_exemplar("b", 0.3)),
        backend=scripted_session,
    )
    assert pair.scripted_quality() == pytest.approx(0.6)

    unlabeled = RemediationPolicy(
        exemplars=(make_exemplar("a"), make_exemplar("b", 0.9)),
        backend=scripted_session,
    )
    assert unlabeled.scripted_quality() == pytest.approx((SILVER_SCRIPTED_QUALITY + 0.9) / 2)


def test_scripted_remediation_carries_quality(scripted_session):
    policy = RemediationPolicy(exemplars=(make_exemplar("a", 0.8),), backend=scripted_session)
    text = remediate(policy, (), "Take it or leave it!")
    assert remediation_quality(text) == pytest.approx(0.8)


def test_remediate_rejects_empty_violation(scripted_session):
    policy = RemediationPolicy(exemplars=(), backend=scripted_session)
    with pytest.raises(ValueError):
        remediate(policy, (), "")


def test_remote_remediation_renders_prompt(templates):
    prompts = []

    def transport(body):
        prompts.append("\n".join(m["content"] for m in body["messages"]))
        return {"choices": [{"finish_reason": "stop", "message": {"content": "Softer words."}}]}

    policy = RemediationPolicy(exemplars=(make_exemplar("a", 0.9),), backend=remote(transport))
    history = (Turn(speaker=Speaker.BUYER, text="could you go lower?"),)
    out = remediate(policy, history, "Take it or leave it!", templates)
    assert out == "Softer words."
    assert "# Dialogue:" in prompts[0]
    assert "could you go lower?" in prompts[0]
    assert "Take it or leave it!" in prompts[0]


def test_remote_remediation_requires_templates():
    policy = RemediationPolicy(exemplars=(), backend=remote(lambda body: None))
    with pytest.raises(ValueError, match="templates"):
        remediate(policy, (), "rude")


def test_remote_fallback_keeps_original(templates):
    def dead(body):
        raise NetworkError("down")

    policy = RemediationPolicy(exemplars=(), backend=remote(dead, retries=0))
    assert remediate(policy, (), "rude text", templates) == "rude text"


def test_remote_empty_completion_keeps_original(templates):
    replies = ["", "A second request would get this."]

    def transport(body):
        return {"choices": [{"finish_reason": "stop", "message": {"content": replies.pop(0)}}]}

    policy = RemediationPolicy(exemplars=(), backend=remote(transport))
    assert remediate(policy, (), "rude", templates) == "rude"
    assert len(replies) == 1


@pytest.mark.parametrize(
    "error, calls",
    [
        # chat retries a NetworkError itself; remediate adds no round of its own.
        (NetworkError("down"), 4),
        # A content-filter refusal is deterministic, so it is asked once.
        (None, 1),
    ],
    ids=["network-error", "content-filter"],
)
def test_remote_failure_is_requested_once(templates, error, calls):
    requests = []

    def transport(body):
        requests.append(body)
        if error is not None:
            raise error
        return {"choices": [{"finish_reason": "content_filter", "message": {"content": ""}}]}

    policy = RemediationPolicy(exemplars=(), backend=remote(transport, retries=3))
    assert remediate(policy, (), "rude", templates) == "rude"
    assert len(requests) == calls


def test_silver_annotate_mixed_corpus(bounds, scripted_session):
    turns = (
        Turn(speaker=Speaker.BUYER, text="hello"),
        Turn(speaker=Speaker.SELLER, text="polite rewrite", violation=True, original_text="rude one"),
        Turn(speaker=Speaker.BUYER, text="ok"),
        Turn(speaker=Speaker.SELLER, text="rude two", violation=True),
        Turn(speaker=Speaker.BUYER, text="hmm"),
        Turn(speaker=Speaker.SELLER, text="calm close"),
    )
    d = Dialogue(id="d-1", topic=Topic.PRODUCT_SALE, bounds=bounds, turns=turns)
    pool = silver_annotate([d], scripted_session)
    assert [e.id for e in pool] == ["d-1#1", "d-1#3"]
    recorded, generated = pool
    # A turn already remediated in the corpus keeps its recorded rewrite.
    assert recorded.violation_text == "rude one"
    assert recorded.remediation_text == "polite rewrite"
    assert recorded.history == turns[:1]
    # An unremediated turn gets the zero-shot rewrite.
    assert generated.violation_text == "rude two"
    assert remediation_quality(generated.remediation_text) == SILVER_SCRIPTED_QUALITY
    assert generated.history == turns[:3]
    # The corpus itself is untouched.
    assert d.turns == turns


def test_silver_annotate_skips_failing_turns(bounds, templates):
    def dead(body):
        raise NetworkError("down")

    turns = (
        Turn(speaker=Speaker.BUYER, text="hello"),
        Turn(speaker=Speaker.SELLER, text="rude", violation=True),
    )
    d = Dialogue(id="d-2", topic=Topic.PRODUCT_SALE, bounds=bounds, turns=turns)
    # The remote path's own fallback returns the original text rather than
    # failing, so the exemplar survives with an identity rewrite.
    pool = silver_annotate([d], remote(dead, retries=0), templates)
    assert len(pool) == 1
    assert pool[0].remediation_text == "rude"


def test_silver_annotate_empty_corpus(scripted_session):
    assert silver_annotate([], scripted_session) == []
