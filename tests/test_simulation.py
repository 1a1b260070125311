"""Rollout engine: scripted lane determinism, violation points, replay, and
the remote lane against a stubbed transport."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negotia.backends import BackendSession, NetworkError, ScriptedWorld, scripted_remediation_text
from negotia.core import Speaker, Turn, dump_dialogues, load_dialogues, validate_dialogue
from negotia.outcome import reward
from negotia.simulation import (
    BUYER_OPENER,
    SimulationConfig,
    ViolationPoint,
    continue_rollout,
    moderator_end,
    play,
    replay_outcome,
    rollout_to_first_violation,
    seller_opener,
    simulate,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(p_c=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(max_turns=0)
    # Both lanes always emit the two opening turns.
    with pytest.raises(ValueError):
        SimulationConfig(max_turns=1)


def test_openers(bounds, world, scripted_session):
    d = simulate(
        scripted_session, scripted_session, scripted_session,
        SimulationConfig(p_c=0.0, seed=1), world=world,
    )
    assert d.turns[0].speaker is Speaker.BUYER
    assert d.turns[0].text == BUYER_OPENER
    assert d.turns[1].speaker is Speaker.SELLER
    assert d.turns[1].text == seller_opener(bounds)
    assert "$50" in d.turns[1].text


def test_scripted_determinism(world, scripted_session):
    config = SimulationConfig(p_c=0.4, seed=123)
    a = simulate(scripted_session, scripted_session, scripted_session, config, world=world)
    b = simulate(scripted_session, scripted_session, scripted_session, config, world=world)
    assert a == b
    c = simulate(
        scripted_session, scripted_session, scripted_session,
        SimulationConfig(p_c=0.4, seed=124), world=world,
    )
    assert a != c


def test_scripted_requires_world(scripted_session):
    with pytest.raises(ValueError, match="world"):
        simulate(scripted_session, scripted_session, scripted_session, SimulationConfig())


def test_no_violations_when_p_c_zero(world, scripted_session):
    d = simulate(
        scripted_session, scripted_session, scripted_session,
        SimulationConfig(p_c=0.0, seed=5), world=world,
    )
    assert not any(t.violation for t in d.turns)
    assert d.outcome is not None and d.outcome.deal


def test_max_turns_cap(world, scripted_session):
    d = simulate(
        scripted_session, scripted_session, scripted_session,
        SimulationConfig(p_c=0.0, seed=5, max_turns=4), world=world,
    )
    assert len(d.turns) <= 4


def test_max_turns_is_the_only_turn_cap(bounds, scripted_session):
    # Slow concessions leave the bargain open well past twelve rounds.
    slow = ScriptedWorld(bounds=bounds, concession_buyer=0.01, concession_seller=0.01, close_tolerance=0)
    d = simulate(
        scripted_session, scripted_session, scripted_session,
        SimulationConfig(p_c=0.0, seed=5, max_turns=40), world=slow,
    )
    assert len(d.turns) == 40
    assert not d.outcome.deal


def test_rollout_to_first_violation(world):
    config = SimulationConfig(p_c=1.0, seed=9)
    point = rollout_to_first_violation(world, config)
    assert point is not None
    assert point.seed == 9
    # The prefix ends on the buyer turn preceding the violating seller turn.
    assert point.prefix[-1].speaker is Speaker.BUYER
    assert "unreasonable" in point.violation_text
    assert rollout_to_first_violation(world, SimulationConfig(p_c=0.0, seed=9)) is None


def test_continue_rollout_single_point_and_replay(world):
    config = SimulationConfig(p_c=1.0, seed=9)
    point = rollout_to_first_violation(world, config)
    d = continue_rollout(world, config, point, "We hear you; could we meet part way? [q=0.5]")
    # Exactly one violation turn: the forced one; later coin heads are suppressed.
    violating = [t for t in d.turns if t.violation]
    assert len(violating) == 1
    assert violating[0].original_text == point.violation_text
    assert d.turns[: len(point.prefix)] == point.prefix
    # Replays of the same rewrite are bit-identical.
    assert d == continue_rollout(world, config, point, "We hear you; could we meet part way? [q=0.5]")
    with pytest.raises(ValueError):
        continue_rollout(world, config, point, "")


def test_remediator_is_consulted(world, scripted_session):
    seen = []

    def remediator(history, text):
        seen.append((history, text))
        return "Let us keep this courteous. [q=1.0]"

    config = SimulationConfig(p_c=1.0, seed=9, remediation_enabled=True)
    d = simulate(
        scripted_session, scripted_session, scripted_session, config,
        remediator=remediator, world=world,
    )
    assert seen
    assert any(t.violation and t.original_text is not None for t in d.turns)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    p_c=st.floats(min_value=0.05, max_value=1.0),
    max_turns=st.integers(min_value=2, max_value=30),
)
def test_scripted_rollouts_share_one_loop(world, scripted_session, seed, p_c, max_turns):
    config = SimulationConfig(p_c=p_c, seed=seed, max_turns=max_turns)
    d = simulate(scripted_session, scripted_session, scripted_session, config, world=world)
    assert validate_dialogue(d) == []
    assert len(d.turns) <= max_turns
    point = rollout_to_first_violation(world, config)
    if point is None:
        assert not any(t.violation for t in d.turns)
        return
    n = len(point.prefix)
    assert d.turns[:n] == point.prefix
    assert d.turns[n].violation and d.turns[n].text == point.violation_text
    c = continue_rollout(world, config, point, "Let us find a fair price together. [q=0.7]")
    assert validate_dialogue(c) == []
    assert len(c.turns) <= max_turns
    assert c.turns[:n] == point.prefix
    assert sum(t.violation for t in c.turns) == 1


_RATE = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)

# Worlds, configs and rewrites drawn by both oracles over the violation point.
_DRAWS = dict(
    concession_buyer=_RATE,
    concession_seller=_RATE,
    goodwill=st.floats(min_value=0.05, max_value=6.0),
    close_tolerance=st.sampled_from([0, 1, 50, 400]) | st.integers(min_value=0, max_value=2000),
    p_c=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    max_turns=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    rewrite=st.sampled_from([0.0, 1.0]).map(scripted_remediation_text)
    | st.floats(min_value=0.0, max_value=1.0).map(scripted_remediation_text)
    | st.text(min_size=1),
)


@settings(max_examples=300, deadline=None)
@given(**_DRAWS)
def test_violation_point_is_read_off_the_unremediated_dialogue(
    bounds, scripted_session, concession_buyer, concession_seller, goodwill, close_tolerance, p_c, max_turns,
    seed, rewrite,
):
    world = ScriptedWorld(
        bounds=bounds, concession_buyer=concession_buyer, concession_seller=concession_seller,
        goodwill=goodwill, close_tolerance=close_tolerance,
    )
    config = SimulationConfig(p_c=p_c, max_turns=max_turns, seed=seed)
    point = rollout_to_first_violation(world, config)
    d = simulate(scripted_session, scripted_session, scripted_session, config, world=world)
    first = next((i for i, t in enumerate(d.turns) if t.violation), None)
    if first is None:
        assert point is None
        return
    assert point == ViolationPoint(prefix=d.turns[:first], violation_text=d.turns[first].text, seed=seed)
    c = continue_rollout(world, config, point, rewrite)
    assert c.turns[:first] == point.prefix
    assert c.turns[first].violation and c.turns[first].original_text == point.violation_text


@settings(max_examples=300, deadline=None)
@given(**_DRAWS)
def test_replay_outcome_is_continue_rollouts_outcome(
    bounds, concession_buyer, concession_seller, goodwill, close_tolerance, p_c, max_turns, seed, rewrite
):
    # replay_outcome holds a second copy of the rollout loop's turn cap and
    # coin rule; this pins it to the loop that builds the dialogue.
    world = ScriptedWorld(
        bounds=bounds, concession_buyer=concession_buyer, concession_seller=concession_seller,
        goodwill=goodwill, close_tolerance=close_tolerance,
    )
    config = SimulationConfig(p_c=p_c, max_turns=max_turns, seed=seed)
    # A seed whose rollout never violates still makes a probe point to replay.
    point = rollout_to_first_violation(world, config) or ViolationPoint(prefix=(), violation_text="", seed=seed)
    # Both read the point's seed, not the config's.
    other = replace(config, seed=seed + 1)
    expected = continue_rollout(world, other, point, rewrite).outcome
    replayed = replay_outcome(world, other, point, rewrite)
    assert replayed == expected
    assert reward(replayed, bounds).hex() == reward(expected, bounds).hex()


def test_replay_and_continue_rollout_refuse_an_empty_rewrite(world):
    config = SimulationConfig(p_c=1.0, seed=9)
    point = rollout_to_first_violation(world, config)
    with pytest.raises(ValueError, match="non-empty"):
        continue_rollout(world, config, point, "")
    with pytest.raises(ValueError, match="non-empty"):
        replay_outcome(world, config, point, "")


# ---------------------------------------------------------------------------
# Remote lane against a stubbed transport


def scripted_transport(script):
    """Return canned completions keyed by role-discriminating prompt text."""

    def ok(content):
        return {"choices": [{"finish_reason": "stop", "message": {"content": content}}]}

    def post(body):
        prompt = "\n".join(m["content"] for m in body["messages"])
        for marker, reply in script:
            if marker in prompt:
                return reply() if callable(reply) else ok(reply)
        raise AssertionError(f"unexpected prompt: {prompt[:120]}")

    return post


def remote(transport):
    return BackendSession(
        kind="remote",
        endpoint="http://example.invalid/v1",
        model_name="test-model",
        backoff_base=0.0,
        transport=transport,
    )


REMOTE_SCRIPT = [
    ("You are the moderator", "No"),
    ("You are a buyer", "Could you go lower, perhaps $36?"),
    ("You are a seller", "We could consider $45 for a long-term partner."),
    ("whether a deal was reached", "Deal\nPrice: $45"),
    ("build trust", "Trust Deepening"),
    ("deepen business relat", "Business Relationship Deepening"),
]


def test_remote_lane_end_to_end(bounds, templates):
    post = scripted_transport(REMOTE_SCRIPT)
    judged = []  # the turns each moderator request shows

    def transport(body):
        prompt = "\n".join(m["content"] for m in body["messages"])
        if "You are the moderator" in prompt:
            judged.append(sum(line.startswith(("buyer: ", "seller: ")) for line in prompt.splitlines()))
        return post(body)

    session = remote(transport)
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=6),
        templates, evaluator=session, bounds=bounds,
    )
    assert d.error is None
    assert d.outcome is not None
    assert d.outcome.deal and d.outcome.price == 45
    assert d.outcome.trust_delta == 1 and d.outcome.business_delta == 1
    assert len(d.turns) == 6
    # The loop stops at the cap before the moderator is asked about turn 6.
    assert judged == [3, 4, 5]


def test_moderator_end_remote(templates):
    calls = []

    def transport(body):
        calls.append(body)
        return {"choices": [{"finish_reason": "stop", "message": {"content": "Yes, concluded."}}]}

    turns = (Turn(speaker=Speaker.BUYER, text=BUYER_OPENER),)
    session = remote(transport)
    assert moderator_end(turns, session, templates=templates) is True
    assert len(calls) == 1

    def dead(body):
        raise NetworkError("boom")

    failing = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        retries=0, backoff_base=0.0, transport=dead,
    )
    assert moderator_end(turns, failing, templates=templates) is False
    with pytest.raises(ValueError):
        moderator_end((), session, templates=templates)


def test_remote_lane_remediates_violations(bounds, templates):
    raw = "Take it or leave it, $49 is final!"
    seen = []

    def remediator(history, text):
        seen.append(text)
        return "We hear you; let us find a fair price together."

    # The seller_violate template is the only seller prompt with this phrase.
    session = remote(scripted_transport([("violates social etiquette", raw), *REMOTE_SCRIPT]))
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=1.0, seed=1, max_turns=6, remediation_enabled=True),
        templates, remediator=remediator, evaluator=session, bounds=bounds,
    )
    assert d.error is None and d.outcome is not None
    violating = [t for t in d.turns if t.violation]
    assert len(violating) == 2 and seen == [raw, raw]
    assert all(t.original_text == raw and t.text != raw for t in violating)


def test_remote_lane_content_filter_marks_turn(bounds, templates):
    def filtered():
        return {"choices": [{"finish_reason": "content_filter", "message": {"content": ""}}]}

    script = [
        ("You are the moderator", "No"),
        ("You are a buyer", "Could you go lower?"),
        ("You are a seller", filtered),
    ]
    session = remote(scripted_transport(script))
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=5),
        templates,
        evaluator=remote(scripted_transport(REMOTE_SCRIPT)),
        bounds=bounds,
    )
    assert d.error is None
    assert any("content filter" in t.text for t in d.turns)


def test_remote_lane_content_filtered_buyer_turn_ends_the_dialogue(bounds, templates):
    def filtered():
        return {"choices": [{"finish_reason": "content_filter", "message": {"content": ""}}]}

    session = remote(scripted_transport([("You are a buyer", filtered), *REMOTE_SCRIPT]))
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=6),
        templates, evaluator=session, bounds=bounds,
    )
    assert d.error == "content_filter"
    assert d.outcome is None
    assert len(d.turns) == 2  # the two openers


def test_remote_lane_surfaces_backend_failure(bounds, templates):
    def dead(body):
        raise NetworkError("boom")

    session = BackendSession(
        kind="remote", endpoint="http://example.invalid/v1", model_name="m",
        retries=0, backoff_base=0.0, transport=dead,
    )
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=5),
        templates, evaluator=session, bounds=bounds,
    )
    assert d.error is not None
    assert d.outcome is None


@pytest.mark.parametrize("role", ["buyer", "seller"])
def test_remote_lane_empty_completion_ends_the_dialogue(tmp_path, bounds, templates, role):
    # An empty turn would make the written corpus unreadable; an empty
    # completion fails its turn as a backend error does.
    script = [(f"You are a {role}", ""), *REMOTE_SCRIPT]
    session = remote(scripted_transport(script))
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=6),
        templates, evaluator=session, bounds=bounds,
    )
    path = tmp_path / "corpus.jsonl"
    dump_dialogues([d], path)
    [loaded] = load_dialogues(path)
    assert loaded.error == f"backend: empty {role} completion"
    assert loaded.outcome is None
    assert len(loaded.turns) == (2 if role == "buyer" else 3)


@pytest.mark.parametrize("role", ["buyer", "seller"])
def test_remote_lane_reply_with_a_lone_surrogate_ends_only_its_dialogue(tmp_path, bounds, templates, role):
    # A reply UTF-8 cannot encode would break the next request that quotes it
    # and the corpus write; chat refuses it as a backend error, like an empty one.
    script = [(f"You are a {role}", "ok \ud83d"), *REMOTE_SCRIPT]
    session = remote(scripted_transport(script))
    d = simulate(
        session, session, session,
        SimulationConfig(p_c=0.0, seed=1, max_turns=6),
        templates, evaluator=session, bounds=bounds,
    )
    path = tmp_path / "corpus.jsonl"
    dump_dialogues([d], path)
    [loaded] = load_dialogues(path)
    assert loaded.error == "backend: malformed provider response: content holds a lone surrogate"
    assert loaded.outcome is None
    assert len(loaded.turns) == (2 if role == "buyer" else 3)


def test_remote_lane_requires_bounds_templates_evaluator(templates, bounds):
    session = remote(scripted_transport(REMOTE_SCRIPT))
    with pytest.raises(ValueError):
        simulate(session, session, session, SimulationConfig(), templates, bounds=bounds)


def test_play_charges_flagged_seller_turns(world):
    def speak(turns):
        return Turn(speaker=Speaker.SELLER, text="Take it or leave it!", violation=True)

    d = play(world, Speaker.SELLER, speak)
    assert validate_dialogue(d) == []
    # Two unremediated violations use up the goodwill: the buyer walks away.
    assert [t.violation for t in d.turns[2:]] == [False, True, False, True]
    assert d.outcome is not None and not d.outcome.deal


@pytest.mark.parametrize("role", [Speaker.BUYER, Speaker.SELLER])
@pytest.mark.parametrize("max_turns", [7, 8])
def test_play_stops_at_the_turn_cap(bounds, role, max_turns):
    # Slow concessions keep the bargain open, and the player never leaves.
    slow = ScriptedWorld(bounds=bounds, concession_buyer=0.01, concession_seller=0.01, close_tolerance=0)

    def speak(turns):
        return Turn(speaker=role, text="Let us keep talking.")

    d = play(slow, role, speak, max_turns)
    assert len(d.turns) == max_turns
    assert d.outcome is not None and not d.outcome.deal


def test_play_rejects_flagged_buyer_turns(world):
    def speak(turns):
        return Turn(speaker=Speaker.BUYER, text="You are wasting my time!", violation=True)

    with pytest.raises(ValueError, match="only seller turns"):
        play(world, Speaker.BUYER, speak)
