"""Hashed-ngram embedder and random/retrieval selection."""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from negotia import selectors
from negotia.core import Exemplar, dump_exemplars, load_exemplars
from negotia.prompts import exemplar_text, render_conversation
from negotia.selectors import (
    HashedNgramEmbedder,
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


# Texts shorter than the largest ngram drawn, empty ones among them, mixed
# with any_text; "ΟΔΟΣ" lowers to "οδος" alone but to "οδοσ…" before a letter.
some_texts = st.lists(
    st.one_of(any_text, st.text(max_size=4), st.just(""), st.just("ΟΔΟΣ")),
    max_size=150,
)


@given(some_texts, st.integers(1, 5), st.sampled_from([1, 7, 256, 1000]))
@example([], 3, 256)
@example(["", "ab", "", "abc", "a"], 3, 256)
@example(["x\ud83e", "\udd1dy"], 2, 1000)
@example(["ΟΔΟΣ", "x", "ΟΔΟΣ"], 1, 1000)
@example([f"text {i} of a long list" if i % 3 else "ab" for i in range(150)], 3, 256)
def test_embed_many_rows_equal_embed(texts, ngram, dim):
    emb = HashedNgramEmbedder(dim=dim, ngram=ngram)
    many = emb.embed_many(texts)
    assert many.dtype == np.float64 and many.shape == (len(texts), dim)
    for row, text in zip(many, texts):
        assert np.array_equal(row, emb.embed(text))
        assert np.array_equal(row, loop_embed(text, dim, ngram))


@pytest.mark.parametrize("dim, ngram", [
    (256, 0), (256, -2), (0, 3), (-3, 3), (2**31 + 1, 3),
    # Not ints: floats and bools are refused at construction, not on the first embed.
    (64.0, 3), (256, 2.0), (256, True), (True, 3),
])
def test_embedder_refuses_nonsense_shapes(dim, ngram):
    with pytest.raises(ValueError):
        HashedNgramEmbedder(dim=dim, ngram=ngram)


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


def loop_ranking(pool: list[Exemplar], query: str, k: int, embedder: HashedNgramEmbedder) -> tuple[str, ...]:
    """Reference: acceptance criterion 7's loop, one embed per exemplar."""
    qv = embedder.embed(query)
    scored = []
    for e in pool:
        ev = embedder.embed(exemplar_text(e))
        if np.linalg.norm(qv) == 0.0 or np.linalg.norm(ev) == 0.0:
            sim = float("-inf")
        else:
            sim = float(np.dot(qv, ev))
        scored.append((sim, e.id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return tuple(eid for _s, eid in scored[:k])


@pytest.mark.parametrize("n", [63, 64, 65, 200])
def test_select_retrieval_across_blocks_equals_per_exemplar_loop(n):
    rng = random.Random(n)
    # With ngram 12, "seller: " plus a violation text under 4 characters and
    # no history embeds to the zero vector.
    embedder = HashedNgramEmbedder(dim=64, ngram=12)

    def words() -> str:
        return " ".join("".join(rng.choices(string.ascii_lowercase[:6], k=rng.randint(2, 6)))
                        for _ in range(rng.randint(1, 5)))

    ids = [f"p{i:03d}" for i in range(n)]
    rng.shuffle(ids)  # pool order is not id order, so ties must break by id
    pool = []
    for eid in ids:
        kind = rng.random()
        if kind < 0.15:
            e = Exemplar(id=eid, history=(), violation_text=rng.choice(["", "ab", "xyz"]), remediation_text="r")
        elif kind < 0.35 and pool:
            e = replace(rng.choice(pool), id=eid)  # a duplicate text
        else:
            e = replace(make_exemplar(eid), violation_text=words())
        pool.append(e)
    assert any(not embedder.embed(exemplar_text(e)).any() for e in pool)
    for query in [words(), words(), "ab"]:
        for k in (1, 5, n):
            got = select_retrieval(pool, query, k, embedder).members
            assert got == loop_ranking(pool, query, k, embedder)


def spy_embed_many(monkeypatch) -> list[list[str]]:
    """Record the texts of every embed_many call, embed's one-text calls included."""
    calls: list[list[str]] = []
    real = HashedNgramEmbedder.embed_many

    def spy(self, texts):
        calls.append(list(texts))
        return real(self, texts)

    monkeypatch.setattr(HashedNgramEmbedder, "embed_many", spy)
    return calls


def pool_calls(calls: list[list[str]], query: str) -> list[list[str]]:
    """The calls that embedded pool texts: all but embed's one call for the query."""
    pooled = list(calls)
    pooled.remove([query])
    return pooled


def repeating_pool(n: int, distinct: int, seed: int) -> list[Exemplar]:
    """n exemplars over `distinct` texts, as scripted prefixes repeat, with ids
    shuffled and a copy on each side of every block edge."""
    rng = random.Random(seed)
    texts = [replace(make_exemplar(f"t{j}"), violation_text=f"We will not budge on offer {j}, take it.")
             for j in range(distinct)]
    ids = [f"p{i:04d}" for i in range(n)]
    rng.shuffle(ids)
    picks = [rng.randrange(distinct) for _ in range(n)]
    for edge in range(64, n, 64):
        picks[edge] = picks[edge - 1]
    return [replace(texts[j], id=eid) for eid, j in zip(ids, picks)]


def test_select_retrieval_embeds_each_distinct_pool_text_once(monkeypatch):
    pool = repeating_pool(1000, 17, seed=3)
    query = "buyer: Could you reconsider the price?\nseller: Take it or leave it."
    calls = spy_embed_many(monkeypatch)
    select_retrieval(pool, query, 8, HashedNgramEmbedder())
    pooled = pool_calls(calls, query)
    distinct = list(dict.fromkeys(exemplar_text(e) for e in pool))
    assert len(distinct) == 17
    assert [t for call in pooled for t in call] == distinct
    assert all(1 <= len(call) <= 64 for call in pooled)


def test_select_retrieval_sends_an_all_distinct_pool_once(monkeypatch):
    pool = [replace(make_exemplar(f"d{i:03d}"), violation_text=f"offer {i} is final") for i in range(200)]
    calls = spy_embed_many(monkeypatch)
    select_retrieval(pool, "seller: offer 7 is final", 5, HashedNgramEmbedder())
    pooled = pool_calls(calls, "seller: offer 7 is final")
    assert [t for call in pooled for t in call] == [exemplar_text(e) for e in pool]
    assert [len(call) for call in pooled] == [64, 64, 64, 8]


@pytest.mark.parametrize("k", [1, 8, 1000])
def test_select_retrieval_on_a_repeating_pool_equals_per_exemplar_loop(k):
    pool = repeating_pool(1000, 17, seed=k)
    embedder = HashedNgramEmbedder()
    for query in ["buyer: Could you reconsider the price for t3?\nseller: We will not budge on offer 3",
                  "ab"]:
        assert select_retrieval(pool, query, k, embedder).members == loop_ranking(pool, query, k, embedder)


def test_select_retrieval_renders_each_distinct_history_once(tmp_path, monkeypatch):
    # A loaded pool's equal histories are one tuple, so each is rendered once.
    path = tmp_path / "pool.jsonl"
    dump_exemplars(repeating_pool(300, 17, seed=5), path)
    pool = load_exemplars(path)
    rendered = []
    monkeypatch.setattr(selectors, "render_conversation",
                        lambda turns: rendered.append(turns) or render_conversation(turns))
    query = "buyer: Could you reconsider the price for t3?\nseller: We will not budge on offer 3"
    got = select_retrieval(pool, query, 8, HashedNgramEmbedder()).members
    assert len(rendered) == len({id(e.history) for e in pool}) == 17
    assert got == loop_ranking(pool, query, 8, HashedNgramEmbedder())
    empty = Exemplar(id="e", history=(), violation_text="v", remediation_text="r")
    assert all(exemplar_text(e, render_conversation(e.history)) == exemplar_text(e) for e in [*pool, empty])
