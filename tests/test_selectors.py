"""Hashed-ngram embedder, random/retrieval selection, and critic augmentation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from negotia.backends import BackendSession, NetworkError
from negotia.core import Dialogue, Speaker, Topic, Turn
from negotia.selectors import (
    HashedNgramEmbedder,
    exemplar_text,
    rlnl_augment,
    select_random,
    select_retrieval,
)

from conftest import make_exemplar


def test_embedder_deterministic_and_normalized():
    emb = HashedNgramEmbedder()
    a = emb.embed("a reasonable price for both sides")
    b = emb.embed("a reasonable price for both sides")
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert a.shape == (256,)


def test_embedder_short_text_is_zero_vector():
    emb = HashedNgramEmbedder()
    assert np.linalg.norm(emb.embed("ab")) == 0.0


def loop_embed(text: str, dim: int, ngram: int) -> np.ndarray:
    """Reference: the per-character loop the array version replaced."""
    vec = np.zeros(dim, dtype=np.float64)
    padded = text.lower()
    for i in range(max(len(padded) - ngram + 1, 0)):
        gram = padded[i : i + ngram]
        h = 0
        for ch in gram:
            h = (h * 131 + ord(ch)) % (2**31)
        vec[h % dim] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


# Default st.text() never draws category Cs, so lone surrogates (which
# json.loads('"\\ud800x"') yields) are added explicitly.
any_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=60,
)


@given(any_text, st.integers(1, 5), st.sampled_from([1, 7, 256, 1000]))
@example("", 3, 256)
@example("ab", 3, 256)
@example("\ud800x", 1, 7)
@example("\U0001f91d\udfff\u0130", 2, 1000)
def test_embed_equals_per_character_loop(text, ngram, dim):
    new = HashedNgramEmbedder(dim=dim, ngram=ngram).embed(text)
    assert new.dtype == np.float64 and new.shape == (dim,)
    assert np.array_equal(new, loop_embed(text, dim, ngram))


def test_embed_bucket_ids_are_pinned():
    # Pinned digest of one embedding: a change to the hash or the bucketing
    # would silently change every retrieval ranking.
    text = "Négociez poliment: 我们的价格是 $48 per unit 🤝 Take it or leave it! ΣΊΣΥΦΟΣ"
    digest = hashlib.sha256(HashedNgramEmbedder().embed(text).tobytes()).hexdigest()
    assert digest == "f19935a8652fffe245b52ff458d42288ed1b4942b7ca44572a5ccd84d7193f29"


@given(st.text(min_size=3, max_size=40))
def test_embedder_norm_is_unit_or_zero(text):
    emb = HashedNgramEmbedder(dim=64)
    norm = float(np.linalg.norm(emb.embed(text)))
    assert norm == 0.0 or norm == pytest.approx(1.0)


def test_exemplar_text_includes_history_and_violation():
    e = make_exemplar("x", 0.5)
    text = exemplar_text(e)
    assert text.startswith("buyer: ")
    assert text.endswith(f"seller: {e.violation_text}")


def test_select_random_seeded(quality_pool):
    a = select_random(quality_pool, 3, seed=1)
    b = select_random(quality_pool, 3, seed=1)
    c = select_random(quality_pool, 3, seed=2)
    assert a == b
    assert len(a.members) == 3
    assert a != c or a.members == c.members  # different seeds may rarely agree
    with pytest.raises(ValueError):
        select_random(quality_pool, 99, seed=1)


def test_select_retrieval_prefers_similar():
    pool = [
        make_exemplar("close-a", 0.5),
        make_exemplar("close-b", 0.5),
    ]
    # Make one exemplar share the query's wording.
    from dataclasses import replace

    pool[0] = replace(pool[0], history=(), violation_text="the shipment deadline is absurd")
    pool[1] = replace(pool[1], history=(), violation_text="zzz qqq xxx unrelated noise")
    chosen = select_retrieval(pool, "that shipment deadline seems absurd to me", 1, HashedNgramEmbedder())
    assert chosen.members == ("close-a",)


def test_select_retrieval_tie_break_by_id():
    from dataclasses import replace

    base = make_exemplar("b", 0.5)
    twin = replace(make_exemplar("a", 0.5), history=base.history, violation_text=base.violation_text)
    chosen = select_retrieval([base, twin], "anything at all", 1, HashedNgramEmbedder())
    assert chosen.members == ("a",)


def test_select_retrieval_pool_too_small(quality_pool):
    with pytest.raises(ValueError):
        select_retrieval(quality_pool, "q", 99, HashedNgramEmbedder())


# ---------------------------------------------------------------------------
# Critic augmentation


def finished_dialogue(bounds, exemplar):
    return Dialogue(
        id="f",
        topic=Topic.PRODUCT_SALE,
        bounds=bounds,
        turns=(
            Turn(speaker=Speaker.BUYER, text="hello"),
            Turn(
                speaker=Speaker.SELLER,
                text=exemplar.remediation_text,
                violation=True,
                original_text=exemplar.violation_text,
            ),
        ),
    )


def critic_session(transport):
    return BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        backoff_base=0.0, transport=transport,
    )


def test_rlnl_augment_sets_rationale(bounds, templates):
    e = make_exemplar("a", 0.5)

    def transport(body):
        return {"choices": [{"finish_reason": "stop", "message": {"content": "It stays polite."}}]}

    out = rlnl_augment(finished_dialogue(bounds, e), e, critic_session(transport), templates)
    assert out.rationale == "It stays polite."
    assert e.rationale is None  # input untouched

    # A second augmentation overwrites the rationale.
    def transport2(body):
        return {"choices": [{"finish_reason": "stop", "message": {"content": "Fresh summary."}}]}

    again = rlnl_augment(finished_dialogue(bounds, e), out, critic_session(transport2), templates)
    assert again.rationale == "Fresh summary."


def test_rlnl_augment_requires_matching_dialogue(bounds, templates):
    e = make_exemplar("a", 0.5)
    mismatch = Dialogue(
        id="f", topic=Topic.PRODUCT_SALE, bounds=bounds,
        turns=(Turn(speaker=Speaker.BUYER, text="hello"),),
    )
    with pytest.raises(ValueError, match="does not contain"):
        rlnl_augment(mismatch, e, critic_session(lambda b: None), templates)


def test_rlnl_augment_failure_leaves_exemplar(bounds, templates):
    e = make_exemplar("a", 0.5)

    def dead(body):
        raise NetworkError("down")

    session = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        retries=0, backoff_base=0.0, transport=dead,
    )
    out = rlnl_augment(finished_dialogue(bounds, e), e, session, templates)
    assert out == e
