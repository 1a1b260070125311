"""Remote chat client behaviour and the scripted bargaining world."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from negotia.backends import (
    BackendError,
    BackendSession,
    BargainState,
    ContentFilterError,
    NetworkError,
    ScriptedWorld,
    chat,
    check_round_boundary,
    derive_seed,
    remediation_quality,
    scripted_outcome,
    scripted_remediation_text,
    scripted_step,
)
from negotia.core import PriceBounds


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


@pytest.mark.parametrize("entry", ['{"content": "cut sh', '{"text": "x"}', "[1, 2]"])
def test_chat_unreadable_cache_entry_is_backend_error(tmp_path, entry):
    session = remote_session(lambda body: ok_response("answer"), cache_dir=tmp_path)
    msgs = [{"role": "user", "content": "hi"}]
    assert chat(session, msgs) == "answer"
    [cached] = tmp_path.iterdir()
    cached.write_text(entry, encoding="utf-8")
    with pytest.raises(BackendError, match="unreadable cache entry"):
        chat(session, msgs)


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
    for _round in range(2):
        check_round_boundary(world, state)
        assert not state.terminal
        scripted_step(world, state, "buyer")
        scripted_step(world, state, "seller", violation=True)
    check_round_boundary(world, state)
    assert state.terminal and state.walk_away and not state.deal
    outcome = scripted_outcome(world, state)
    assert outcome == scripted_outcome(world, state)
    assert not outcome.deal
    assert outcome.trust_delta == -1 and outcome.business_delta == -1


def test_perfect_remediation_cancels_goodwill_loss():
    world = ScriptedWorld(bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000))
    state = BargainState.initial(world)
    scripted_step(world, state, "buyer")
    scripted_step(world, state, "seller", violation=True, remediation=scripted_remediation_text(1.0))
    assert state.goodwill == pytest.approx(world.goodwill)
    assert state.remediation_qualities == [1.0]
    assert state.unremediated_violations == 0


def test_step_after_terminal_raises():
    world = ScriptedWorld(bounds=PriceBounds(cost_price=3000, seller_init=5000, buyer_init=3000))
    state = BargainState.initial(world)
    state.terminal = True
    with pytest.raises(BackendError):
        scripted_step(world, state, "buyer")
    with pytest.raises(BackendError):
        scripted_outcome(world, BargainState.initial(world))


def test_world_parameter_validation(bounds):
    with pytest.raises(ValueError):
        ScriptedWorld(bounds=bounds, concession_buyer=1.5)
    with pytest.raises(ValueError):
        ScriptedWorld(bounds=bounds, max_rounds=0)
