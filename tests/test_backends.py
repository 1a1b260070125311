"""Remote chat client behaviour and the scripted bargaining world."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from negotia.backends import (
    BackendError,
    BackendSession,
    BargainState,
    ContentFilterError,
    NetworkError,
    ScriptedWorld,
    bargain_move,
    chat,
    derive_seed,
    remediation_quality,
    scripted_outcome,
    scripted_remediation_text,
    scripted_step,
)
from negotia.core import NegotiationOutcome, PriceBounds


def ok_response(content: str) -> dict:
    return {"choices": [{"finish_reason": "stop", "message": {"content": content}}]}


def remote_session(transport, **kwargs) -> BackendSession:
    return BackendSession(
        kind="remote",
        endpoint="http://example.invalid/v1",
        model_name="test-model",
        backoff_base=0.0,
        transport=transport,
        **kwargs,
    )


def test_session_validation():
    with pytest.raises(ValueError):
        BackendSession(kind="other")
    with pytest.raises(ValueError):
        BackendSession(kind="remote")


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(7, "rollout", 3) == derive_seed(7, "rollout", 3)
    assert derive_seed(7, "rollout", 3) != derive_seed(7, "rollout", 4)
    assert derive_seed(7, "rollout", 3) != derive_seed(8, "rollout", 3)
    assert 0 <= derive_seed(0) < 2**64


def test_chat_requires_remote_and_messages():
    with pytest.raises(BackendError):
        chat(BackendSession(kind="scripted"), [{"role": "user", "content": "x"}])
    with pytest.raises(BackendError):
        chat(remote_session(lambda body: ok_response("y")), [])


def test_chat_retries_then_succeeds():
    calls = []

    def flaky(body):
        calls.append(body)
        if len(calls) < 3:
            raise NetworkError("transient")
        return ok_response("done")

    assert chat(remote_session(flaky), [{"role": "user", "content": "hi"}]) == "done"
    assert len(calls) == 3


def test_chat_exhausts_retries():
    def dead(body):
        raise NetworkError("down")

    with pytest.raises(NetworkError, match="4 attempts"):
        chat(remote_session(dead, retries=3), [{"role": "user", "content": "hi"}])


def test_chat_retries_only_network_errors():
    calls = []

    def broken(body):
        calls.append(body)
        raise TypeError("transport bug")

    with pytest.raises(TypeError, match="transport bug"):
        chat(remote_session(broken, retries=3), [{"role": "user", "content": "hi"}])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "response",
    [
        {},
        None,
        {"choices": []},
        {"choices": ["stop"]},
        {"choices": [{"finish_reason": "stop"}]},
        {"choices": [{"finish_reason": "stop", "message": None}]},
        {"choices": [{"finish_reason": "stop", "message": {"content": None}}]},
    ],
    ids=["empty", "null", "no-choice", "choice-not-object", "no-message", "null-message",
         "null-content"],
)
def test_chat_malformed_response_is_backend_error(tmp_path, response):
    calls = []

    def transport(body):
        calls.append(body)
        return response

    with pytest.raises(BackendError, match="malformed provider response") as info:
        chat(remote_session(transport, cache_dir=tmp_path), [{"role": "user", "content": "hi"}])
    assert not isinstance(info.value, NetworkError)
    assert len(calls) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "entry",
    ['{"content": "cut sh', '{"text": "x"}', "[1, 2]",
     '{"content": null}', '{"content": 5}', '{"content": ["a"]}'],
)
def test_chat_unreadable_cache_entry_is_backend_error(tmp_path, entry):
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "answer"
    [cached] = tmp_path.iterdir()
    cached.write_text(entry, encoding="utf-8")
    with pytest.raises(BackendError, match="unreadable cache entry"):
        chat(session, msgs)


@pytest.mark.parametrize("cached", [True, False], ids=["cache-dir", "no-cache"])
def test_chat_refuses_a_reply_that_holds_a_lone_surrogate(tmp_path, cached):
    # JSON's "\ud83d" decodes to a lone surrogate, which UTF-8 cannot encode:
    # neither a cache entry nor a later request that quotes the reply could hold it.
    session = remote_session(lambda body: ok_response("ok \ud83d"), cache_dir=tmp_path if cached else None)
    with pytest.raises(BackendError, match="malformed provider response: content holds a lone surrogate"):
        chat(session, [{"role": "user", "content": "hi"}])
    assert list(tmp_path.iterdir()) == []  # no entry, and no temp file left behind


def test_chat_refuses_a_cache_entry_that_holds_a_lone_surrogate(tmp_path):
    session = remote_session(lambda body: ok_response("café"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "café"
    [cached] = tmp_path.iterdir()
    cached.write_text('{"content": "caf\\ud83d"}', encoding="utf-8")
    with pytest.raises(BackendError, match="unreadable cache entry"):
        chat(session, msgs)


@pytest.mark.parametrize(
    "entry",
    ['{"content": "café"}'.encode("utf-16"), b'\xef\xbb\xbf{"content": "caf\xc3\xa9"}',
     b'{"content": "caf\xff"}', b'{"content": "caf\xed\xa0\xbd"}'],
    ids=["utf-16-bom", "utf-8-bom", "stray-ff", "encoded-surrogate"],
)
def test_chat_cache_entry_must_be_strict_utf8(tmp_path, entry):
    # json.loads of these bytes would detect UTF-16 and skip a UTF-8 BOM; an
    # entry is read as UTF-8 text, as it is written, and nothing else.
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "answer"
    [cached] = tmp_path.iterdir()
    cached.write_bytes(entry)
    with pytest.raises(BackendError, match="unreadable cache entry"):
        chat(session, msgs)


def test_chat_cache_entry_that_cannot_be_opened_is_backend_error(tmp_path):
    # Only a missing entry is a miss; one that is there but cannot be read
    # fails its call as any other unreadable entry does.
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "answer"
    [cached] = tmp_path.iterdir()
    cached.unlink()
    cached.mkdir()
    with pytest.raises(BackendError, match="unreadable cache entry .*IsADirectoryError"):
        chat(session, msgs)


@pytest.mark.parametrize("module, name", [(json, "dumps"), (os, "replace")], ids=["write", "rename"])
def test_chat_cache_write_that_fails_leaves_no_temp_file(tmp_path, monkeypatch, module, name):
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(module, name, no_space)
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    with pytest.raises(OSError) as info:
        chat(session, [{"role": "user", "content": "hi"}])
    assert info.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == []


def test_chat_reads_a_cache_entry_from_another_writer(tmp_path):
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "answer"
    [cached] = tmp_path.iterdir()
    cached.write_bytes('\n{ "content" : "café" }\n'.encode("utf-8"))
    assert chat(session, msgs) == "café"


def test_http_transport_retries_unreadable_body(monkeypatch):
    import requests

    class Garbled:
        status_code = 200
        text = "<html>"

        def json(self):
            raise ValueError("Expecting value")

    posts = []

    def post(url, **kwargs):
        posts.append(url)
        return Garbled()

    monkeypatch.setattr(requests, "post", post)
    session = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        retries=1, backoff_base=0.0,
    )
    with pytest.raises(NetworkError, match="unreadable response body"):
        chat(session, [{"role": "user", "content": "hi"}])
    assert posts == ["http://example.invalid/v1/chat/completions"] * 2


@pytest.mark.parametrize(
    "status, error, posts",
    [
        (400, BackendError, 1),
        (401, BackendError, 1),
        (404, BackendError, 1),
        (408, NetworkError, 4),
        (429, NetworkError, 4),
        (503, NetworkError, 4),
    ],
)
def test_http_transport_retries_only_transient_statuses(monkeypatch, status, error, posts):
    import requests

    class Refused:
        status_code = status
        text = "refused"

    urls, sleeps = [], []

    def post(url, **kwargs):
        urls.append(url)
        return Refused()

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr("negotia.backends.time.sleep", sleeps.append)
    session = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m", retries=3,
    )
    with pytest.raises(error, match=f"HTTP {status}") as excinfo:
        chat(session, [{"role": "user", "content": "hi"}])
    assert type(excinfo.value) is error
    assert len(urls) == posts
    assert sleeps == [1.0, 2.0, 4.0][: posts - 1]


def test_chat_content_filter_not_retried():
    calls = []

    def filtered(body):
        calls.append(body)
        return {"choices": [{"finish_reason": "content_filter", "message": {"content": ""}}]}

    with pytest.raises(ContentFilterError):
        chat(remote_session(filtered), [{"role": "user", "content": "hi"}])
    assert len(calls) == 1


def test_chat_disk_cache(tmp_path):
    calls = []

    def transport(body):
        calls.append(body)
        return ok_response("cached answer")

    session = remote_session(transport, cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "cached answer"
    assert chat(session, msgs) == "cached answer"
    assert len(calls) == 1
    assert chat(session, [{"role": "user", "content": "other"}]) == "cached answer"
    assert len(calls) == 2


def test_chat_cache_key_is_stable(tmp_path):
    # Pinned digest of one request: a change to the key would orphan every
    # existing cache directory.
    session = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m-1",
        temperature=0.7, max_tokens=64, cache_dir=tmp_path,
        transport=lambda body: ok_response("answer"),
    )
    msgs = [
        {"role": "system", "content": "Négociez poliment."},
        {"role": "user", "content": "$50 per unit?"},
    ]
    assert chat(session, msgs) == "answer"
    assert [p.name for p in tmp_path.iterdir()] == [
        "3d2d2548403c071dd111e16b654572d5811b1b05e319bb5df242c7dfbf05d470.json"
    ]


@given(
    model=st.text(max_size=8),
    messages=st.lists(
        st.fixed_dictionaries({"role": st.sampled_from(["system", "user"]), "content": st.text()}),
        min_size=1, max_size=3,
    ),
)
@example(model="m-1", messages=[{"role": "user", "content": "N\u00e9gociez \U0001f91d \U00020000"}])
def test_chat_cache_file_is_named_by_the_request_digest(model, messages):
    # The oracle is the key's original formula; st.text() draws non-BMP
    # characters too, which ensure_ascii=False writes as themselves.
    body = {"model": model, "temperature": 1.0, "max_tokens": 256, "messages": messages}
    expected = hashlib.sha256(
        json.dumps(body, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    with tempfile.TemporaryDirectory() as cache_dir:
        session = BackendSession(
            kind="remote", endpoint="http://example.invalid/v1", model_name=model,
            cache_dir=cache_dir, transport=lambda body: ok_response("answer"),
        )
        assert chat(session, messages) == "answer"
        assert os.listdir(cache_dir) == [f"{expected}.json"]


@pytest.mark.parametrize("as_type", [str, Path], ids=["str", "Path"])
def test_chat_cache_hit_makes_no_transport_call(tmp_path, as_type):
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path), msgs) == "answer"

    def unreachable(body):
        raise AssertionError("a cache hit reached the transport")

    assert chat(remote_session(unreachable, cache_dir=as_type(tmp_path)), msgs) == "answer"
    assert chat(remote_session(lambda body: ok_response("other"), cache_dir=as_type(tmp_path)),
                [{"role": "user", "content": "other"}]) == "other"
    assert len(list(tmp_path.iterdir())) == 2


@pytest.mark.parametrize("reply", ["café", "价格 ¥300", "😀", 'say "no"\\\nthen go'],
                         ids=["accent", "cjk", "astral", "quote-backslash-newline"])
def test_chat_warm_hit_returns_a_non_ascii_reply(tmp_path, reply):
    # A rerun in a fresh process reads the entry through a new session.
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(remote_session(lambda body: ok_response(reply), cache_dir=tmp_path), msgs) == reply

    def unreachable(body):
        raise AssertionError("a cache hit reached the transport")

    assert chat(remote_session(unreachable, cache_dir=tmp_path), msgs) == reply


def test_chat_cache_concurrent_writers(tmp_path):
    threads = 8
    for trial in range(10):
        # Every thread misses the cache before any of them writes it.
        barrier = threading.Barrier(threads)

        def transport(body):
            barrier.wait(timeout=10)
            return ok_response("same answer")

        session = remote_session(transport, cache_dir=tmp_path / str(trial))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(chat, session, [{"role": "user", "content": "hi"}])
                for _ in range(threads)
            ]
            assert [f.result() for f in futures] == ["same answer"] * threads
        assert [p.suffix for p in (tmp_path / str(trial)).iterdir()] == [".json"]


def test_remediation_quality_parsing():
    assert remediation_quality("no tag here") == 0.0
    assert remediation_quality("text [q=0.7] more") == 0.7
    assert remediation_quality("[q=3.5]") == 1.0
    assert remediation_quality(scripted_remediation_text(0.42)) == pytest.approx(0.42)


@pytest.mark.parametrize("tag", ["[q=.]", "[q=1.2.3]", "[q=..5]", "[q=]"])
def test_remediation_quality_reads_a_malformed_tag_as_absent(tag):
    # Only a decimal number is a quality; anything else in the brackets is text.
    assert remediation_quality(f"x {tag}") == 0.0
    assert remediation_quality(f"x {tag} then [q=0.25]") == 0.25


@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(1.0)
def test_every_six_decimal_tag_reads_as_its_value(q):
    assert remediation_quality(scripted_remediation_text(q)) == float(f"{q:.6f}")
    assert remediation_quality(f"[q={q:.6f}]".replace("[q=0.", "[q=.")) == float(f"{q:.6f}")


def reference_move(world, state, role, violation=False, quality=None):
    """``bargain_move`` as it read before it was tuned for speed, verbatim,
    on a plain namespace."""
    if state.terminal:
        raise BackendError("scripted world stepped after terminal state")

    if role == "buyer":
        gap = state.ask - state.bid
        factor = max(state.goodwill, 0.0) / 2.0
        state.bid += world.concession_buyer * gap * factor
        state.pending_ask = state.ask - world.concession_seller * gap
        return

    if role != "seller":
        raise BackendError(f"unknown scripted role: {role}")

    if state.pending_ask is not None:
        state.ask = state.pending_ask
        state.pending_ask = None
    if violation:
        state.goodwill -= 1.0
        if quality is not None:
            state.goodwill += quality
            state.remediation_qualities.append(quality)
        else:
            state.unremediated_violations += 1

    state.deal = state.ask - state.bid <= world.close_tolerance or state.bid >= state.ask
    state.terminal = state.deal or state.goodwill <= 0.0


def reference_outcome(state) -> NegotiationOutcome:
    """``scripted_outcome`` as it read before it was tuned for speed, verbatim."""
    qualities = list(state.remediation_qualities) + [0.0] * state.unremediated_violations
    mean_q = sum(qualities) / len(qualities) if qualities else 1.0

    if not state.deal:
        return NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)

    price = round((state.bid + state.ask) / 2.0)
    if state.unremediated_violations > 0:
        trust = -1
    elif mean_q >= 1.0:
        trust = 1
    else:
        trust = 0
    business = 1 if mean_q >= 0.5 else 0
    return NegotiationOutcome(deal=True, price=price, trust_delta=trust, business_delta=business)


def bargain_fields(state) -> tuple:
    """A state's fields, each float as its exact bits: -0.0 is not 0.0 here."""
    def bits(x):
        return None if x is None else float.hex(x)

    return (bits(state.bid), bits(state.ask), bits(state.goodwill), bits(state.pending_ask), state.deal,
            state.terminal, [bits(q) for q in state.remediation_qualities], state.unremediated_violations)


# Around zero and past it, where max(goodwill, 0.0) keeps its first argument.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, math.nan, -1.0, 5e-324])


@st.composite
def bargains(draw):
    """A world, a starting bargain (a world's own, or any one, its goodwill
    spent or not) and a run of moves."""
    buyer_init = draw(st.integers(0, 9_000))
    seller_init = draw(st.integers(buyer_init + 1, 10_000))
    world = ScriptedWorld(
        bounds=PriceBounds(draw(st.integers(0, seller_init)), seller_init, buyer_init),
        concession_buyer=draw(st.floats(0.01, 0.99)), concession_seller=draw(st.floats(0.01, 0.99)),
        goodwill=draw(st.floats(0.25, 4.0)), close_tolerance=draw(st.integers(0, 500)),
    )
    if draw(st.booleans()):
        start = BargainState.initial(world)
        head = (start.bid, start.ask, start.goodwill, start.pending_ask)
    else:
        prices = st.one_of(st.floats(0.0, 10_000.0), st.sampled_from([-0.0, 0.0]))
        head = (draw(prices), draw(prices), draw(st.one_of(st.floats(-3.0, 3.0), EDGE_FLOATS)),
                draw(st.one_of(st.none(), prices)))
    moves = st.tuples(st.sampled_from(["buyer", "seller"]), st.booleans(),
                      st.one_of(st.none(), st.floats(0.0, 1.0)))
    return world, head, draw(st.lists(moves, max_size=24))


@given(bargains())
@example((ScriptedWorld(PriceBounds(3500, 5000, 3000)), (-0.0, 5000.0, -0.0, None), [("buyer", False, None)]))
@example((ScriptedWorld(PriceBounds(3500, 5000, 3000)), (3000.0, 5000.0, math.nan, None), [("buyer", False, None)]))
@example((ScriptedWorld(PriceBounds(3500, 5000, 3000), goodwill=1.5),
          (3000.0, 5000.0, 1.5, None), [("buyer", False, None), ("seller", True, None), ("buyer", False, None),
                                        ("seller", True, 0.25), ("buyer", False, None), ("seller", True, None)]))
def test_bargain_moves_match_the_reference_bit_for_bit(case):
    # Both sides of the continue_rollout property call bargain_move, so only
    # a copy of the rules can see a move that drifts, such as a max() that
    # no longer returns -0.0 or NaN for a spent goodwill.
    world, (bid, ask, goodwill, pending_ask), moves = case
    state = BargainState(bid, ask, goodwill, pending_ask=pending_ask)
    ref = SimpleNamespace(bid=bid, ask=ask, goodwill=goodwill, terminal=False, deal=False,
                          pending_ask=pending_ask, remediation_qualities=[], unremediated_violations=0)
    for role, violation, quality in moves:
        if ref.terminal:
            with pytest.raises(BackendError, match="after terminal state"):
                bargain_move(world, state, role, violation, quality)
            break
        bargain_move(world, state, role, violation, quality)
        reference_move(world, ref, role, violation, quality)
        assert bargain_fields(state) == bargain_fields(ref)
        assert type(state.deal) is type(state.terminal) is bool
        assert scripted_outcome(world, state) == reference_outcome(ref)


def test_scripted_closing_trace():
    # Opening $30 vs $50 with rate 0.5 each: round one lands both at $40.
    world = ScriptedWorld(
        bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000),
        concession_buyer=0.5,
        concession_seller=0.5,
        close_tolerance=0,
    )
    state = BargainState.initial(world)
    scripted_step(world, state, "buyer")
    assert state.bid == 4000.0
    scripted_step(world, state, "seller")
    assert state.ask == 4000.0
    assert state.terminal and state.deal
    outcome = scripted_outcome(world, state)
    assert outcome.deal and outcome.price == 4000
    assert outcome.trust_delta == 1 and outcome.business_delta == 1


def test_scripted_walk_away_after_unremediated_violations():
    world = ScriptedWorld(
        bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000),
        concession_buyer=0.2,
        concession_seller=0.2,
    )
    state = BargainState.initial(world)
    scripted_step(world, state, "buyer")
    bargain_move(world, state, "seller", True)
    assert not state.terminal
    scripted_step(world, state, "buyer")
    # The seller step that spends the last goodwill ends the bargain itself.
    bargain_move(world, state, "seller", True)
    assert state.terminal and not state.deal
    with pytest.raises(BackendError):
        scripted_step(world, state, "buyer")
    outcome = scripted_outcome(world, state)
    assert outcome == scripted_outcome(world, state)
    assert not outcome.deal
    assert outcome.trust_delta == -1 and outcome.business_delta == -1


def test_perfect_remediation_cancels_goodwill_loss():
    world = ScriptedWorld(bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000))
    state = BargainState.initial(world)
    scripted_step(world, state, "buyer")
    bargain_move(world, state, "seller", True, remediation_quality(scripted_remediation_text(1.0)))
    assert state.goodwill == pytest.approx(world.goodwill)
    assert state.remediation_qualities == [1.0]
    assert state.unremediated_violations == 0


def test_step_after_terminal_raises():
    world = ScriptedWorld(bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000))
    state = BargainState.initial(world)
    state.terminal = True
    with pytest.raises(BackendError):
        scripted_step(world, state, "buyer")


def test_open_bargain_has_no_deal():
    world = ScriptedWorld(bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000))
    state = BargainState.initial(world)
    scripted_step(world, state, "buyer")
    scripted_step(world, state, "seller")
    assert not state.terminal
    assert scripted_outcome(world, state) == NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)


def test_world_parameter_validation(bounds):
    with pytest.raises(ValueError):
        ScriptedWorld(bounds=bounds, concession_buyer=1.5)
    with pytest.raises(ValueError):
        ScriptedWorld(bounds=bounds, concession_seller=0.0)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"goodwill": float("nan")}, "goodwill must be finite and above 0"),
        ({"goodwill": float("inf")}, "goodwill must be finite and above 0"),
        ({"goodwill": 0.0}, "goodwill must be finite and above 0"),
        ({"goodwill": -5.0}, "goodwill must be finite and above 0"),
        ({"close_tolerance": -1}, "close_tolerance must be at least 0"),
    ],
    ids=["goodwill-nan", "goodwill-inf", "goodwill-zero", "goodwill-negative", "tolerance-negative"],
)
def test_world_refuses_goodwill_and_tolerance_out_of_range(bounds, params, message):
    with pytest.raises(ValueError, match=message):
        ScriptedWorld(bounds=bounds, **params)
