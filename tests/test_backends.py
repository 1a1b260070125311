"""Remote chat client behaviour and the scripted bargaining world."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
