"""Rollout engine: scripted lane determinism, violation points, replay, and
the remote lane against a stubbed transport."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negotia import core, simulation
from negotia.backends import (
    BackendSession,
    BargainState,
    NetworkError,
    ScriptedWorld,
    bargain_move,
    derive_seed,
    scripted_remediation_text,
)
from negotia.core import Dialogue, Speaker, Turn, dump_dialogues, load_dialogues, validate_dialogue
from negotia.outcome import reward
from negotia.simulation import (
    BUYER_OPENER,
    SimulationConfig,
    ViolationPoint,
    _rollout,
    _ScriptedLane,
    continue_rollout,
    moderator_end,
    play,
    rollout_to_first_violation,
    seller_opener,
    simulate,
)


class _SinglePointLane(_ScriptedLane):
    """The scripted lane under the single-point rule: the first violation
    lands the rewrite, and every later one moves the bargain as a plain
    seller turn."""

    landed = False

    def violated(self, rewrite):
        if self.landed:
            bargain_move(self.world, self.state, "seller")
        else:
            super().violated(rewrite)
            self.landed = True


def single_point_dialogue(world, config, point, rewrite) -> Dialogue:
    """The whole dialogue that ``continue_rollout`` replays only the state of,
    built by the rollout loop: the reference it is checked against. Later
    heads are still flagged, with the rewrite as their text, but do not
    charge the bargain."""
    lane = _SinglePointLane(world)
    replay = replace(config, seed=point.seed, remediation_enabled=True)
    turns = _rollout(lane, replay, lambda history, text: rewrite)
    return lane.dialogue(turns, "probe-0")


def first_head(world, config):
    """The bargain at a rollout's first coin head, as the point records it,
    and the turn count there, or None when no head comes: the rollout loop's
    turn cap and coin rule replayed over ``bargain_move`` alone, the
    reference the recorded head is checked against."""
    state, n, rng = BargainState.initial(world), 2, random.Random(config.seed)
    while n < config.max_turns and not state.terminal:
        bargain_move(world, state, "buyer")
        n += 1
        if n >= config.max_turns:  # a buyer move never ends the bargain
            break
        if rng.random() < config.p_c:
            return (state.bid, state.ask, state.goodwill, state.pending_ask), n
        bargain_move(world, state, "seller")
        n += 1
    return None


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


def test_continue_rollout_single_point_and_replay(world, scripted_session):
    config = SimulationConfig(p_c=1.0, seed=9)
    point = rollout_to_first_violation(world, config)
    rewrite = "We hear you; could we meet part way? [q=0.5]"
    d = single_point_dialogue(world, config, point, rewrite)
    # The rewrite stands in for the point's violating utterance.
    n = len(point.prefix)
    assert d.turns[:n] == point.prefix
    assert d.turns[n].violation and d.turns[n].text == rewrite
    assert d.turns[n].original_text == point.violation_text
    outcome = continue_rollout(world, config, point, rewrite)
    assert outcome == d.outcome
    # Later heads are suppressed: charging each of them ends differently.
    every_head = simulate(
        scripted_session, scripted_session, scripted_session, replace(config, remediation_enabled=True),
        remediator=lambda history, text: rewrite, world=world,
    )
    assert sum(t.violation for t in every_head.turns) > 1
    assert every_head.outcome != outcome
    # Replays of the same rewrite are bit-identical.
    assert outcome == continue_rollout(world, config, point, rewrite)
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
    rewrite = "Let us find a fair price together. [q=0.7]"
    c = single_point_dialogue(world, config, point, rewrite)
    assert validate_dialogue(c) == []
    assert len(c.turns) <= max_turns
    assert c.turns[:n] == point.prefix
    assert c.turns[n].violation and c.turns[n].original_text == point.violation_text
    assert continue_rollout(world, config, point, rewrite) == c.outcome


def _scripted_turns(scripted_session, worlds) -> list[Turn]:
    return [
        t
        for i, w in enumerate(worlds)
        for t in simulate(scripted_session, scripted_session, scripted_session,
                          SimulationConfig(seed=derive_seed(0, "rollout", i)), world=w).turns
    ]


def test_scripted_corpus_shares_one_turn_per_distinct_turn(world, scripted_session):
    # As a loaded corpus does: a scripted corpus repeats a few dozen turns,
    # and a copy of each per dialogue would hold it thousands of times.
    turns = _scripted_turns(scripted_session, [world] * 200)
    assert len({id(t) for t in turns}) == len(set(turns)) < len(turns) / 10


def test_shared_turn_memo_keeps_its_bound(bounds, scripted_session):
    # Dialogues whose worlds differ share few turns; the memo keeps at most
    # as many as core's per-file tables.
    rng = random.Random(3)
    worlds = [
        ScriptedWorld(bounds=bounds, concession_buyer=rng.uniform(0.2, 0.4), concession_seller=rng.uniform(0.2, 0.4))
        for _ in range(400)
    ]
    turns = _scripted_turns(scripted_session, worlds)
    info = simulation._turn.cache_info()
    assert len(set(turns)) > info.maxsize == core._INTERN_LIMIT
    assert info.currsize <= info.maxsize


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
        assert point is None and first_head(world, config) is None
        return
    head, n = first_head(world, config)
    assert n == first
    assert point == ViolationPoint(prefix=d.turns[:first], violation_text=d.turns[first].text, seed=seed, head=head)
    c = single_point_dialogue(world, config, point, rewrite)
    assert c.turns[:first] == point.prefix
    assert c.turns[first].violation and c.turns[first].original_text == point.violation_text


@settings(max_examples=300, deadline=None)
@given(**_DRAWS, second=_DRAWS["rewrite"])
# In the default world this seed's first head comes on turn 9 of 12, and both
# rewrites close the deal on turn 12, the last one the cap allows.
@example(
    concession_buyer=0.3, concession_seller=0.3, goodwill=2.0, close_tolerance=50,
    p_c=0.4, max_turns=12, seed=0, rewrite=scripted_remediation_text(1.0), second=scripted_remediation_text(0.0),
)
def test_continue_rollout_is_the_single_point_dialogues_outcome(
    bounds, concession_buyer, concession_seller, goodwill, close_tolerance, p_c, max_turns, seed, rewrite, second
):
    # continue_rollout moves the recorded bargain on under the rollout loop's
    # turn cap; this pins it to the loop that builds the dialogue.
    world = ScriptedWorld(
        bounds=bounds, concession_buyer=concession_buyer, concession_seller=concession_seller,
        goodwill=goodwill, close_tolerance=close_tolerance,
    )
    config = SimulationConfig(p_c=p_c, max_turns=max_turns, seed=seed)
    point = rollout_to_first_violation(world, config)
    assume(point is not None)
    # Both read the point, not the config's seed.
    other = replace(config, seed=seed + 1)
    for r in (rewrite, second):
        expected = single_point_dialogue(world, other, point, r).outcome
        replayed = continue_rollout(world, other, point, r)
        assert replayed == expected
        assert reward(replayed, bounds).hex() == reward(expected, bounds).hex()


def test_replay_and_continue_rollout_refuse_an_empty_rewrite(world):
    config = SimulationConfig(p_c=1.0, seed=9)
    point = rollout_to_first_violation(world, config)
    with pytest.raises(ValueError, match="non-empty"):
        continue_rollout(world, config, point, "")


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


@pytest.mark.parametrize("role, other", [(Speaker.SELLER, Speaker.BUYER), (Speaker.BUYER, Speaker.SELLER)])
def test_play_refuses_a_turn_for_the_other_role(world, role, other):
    # Appended, it would make a dialogue whose speakers do not alternate.
    def speak(turns):
        return Turn(speaker=other, text="Let us keep talking.")

    with pytest.raises(ValueError, match=f"the player speaks for the {role.value}, not the {other.value}"):
        play(world, role, speak)


@pytest.mark.parametrize("max_turns", [1, 0, -3])
def test_play_refuses_a_cap_below_the_opening_turns(world, max_turns):
    # The two opening turns are always played, so a smaller cap could not hold.
    def speak(turns):
        raise AssertionError("the player is never asked")

    with pytest.raises(ValueError, match="room for the two opening turns"):
        play(world, Speaker.SELLER, speak, max_turns)
