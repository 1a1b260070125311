"""Domain types, validation, and corpus IO."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from negotia import core
from negotia.backends import BackendSession, derive_seed
from negotia.core import (
    CorpusError,
    Dialogue,
    Exemplar,
    ExemplarSet,
    NegotiationOutcome,
    PriceBounds,
    Speaker,
    Topic,
    Turn,
    dump_dialogues,
    dump_exemplars,
    format_money,
    load_dialogues,
    load_exemplars,
    turns_from_objs,
    validate_dialogue,
)
from negotia.simulation import SimulationConfig, simulate


def make_dialogue(turns, bounds, did="d-0"):
    return Dialogue(id=did, topic=Topic.PRODUCT_SALE, bounds=bounds, turns=tuple(turns))


def test_price_bounds_rejects_inverted_interval():
    with pytest.raises(ValueError):
        PriceBounds(cost_price=100, seller_init=100, buyer_init=100)
    with pytest.raises(ValueError):
        PriceBounds(cost_price=600, seller_init=500, buyer_init=300)


def test_outcome_rejects_out_of_range_deltas():
    with pytest.raises(ValueError):
        NegotiationOutcome(deal=True, price=40, trust_delta=2)


def test_exemplar_set_members_distinct():
    with pytest.raises(ValueError):
        ExemplarSet(members=("a", "a"))


def test_format_money():
    assert format_money(5000) == "$50"
    assert format_money(5037) == "$50.37"
    assert format_money(0) == "$0"


@given(st.integers(min_value=0, max_value=10**9))
def test_format_money_always_dollar_prefixed(cents):
    s = format_money(cents)
    assert s.startswith("$")
    if cents % 100:
        assert s.endswith(f"{cents % 100:02d}")


def test_validate_dialogue_happy_path(bounds):
    turns = [
        Turn(speaker=Speaker.BUYER, text="hello"),
        Turn(speaker=Speaker.SELLER, text="hi, price is $50"),
        Turn(speaker=Speaker.BUYER, text="too high"),
        Turn(speaker=Speaker.SELLER, text="ok $45", violation=True),
    ]
    assert validate_dialogue(make_dialogue(turns, bounds)) == []


def test_validate_dialogue_catches_problems(bounds):
    turns = [
        Turn(speaker=Speaker.SELLER, text="hi"),
        Turn(speaker=Speaker.SELLER, text=""),
        Turn(speaker=Speaker.BUYER, text="x", violation=True),
        Turn(speaker=Speaker.BUYER, text="y", original_text="z"),
    ]
    problems = validate_dialogue(make_dialogue(turns, bounds))
    joined = "; ".join(problems)
    assert "open with the buyer" in joined
    assert "empty text" in joined
    assert "non-seller" in joined
    assert "violation=false" in joined
    assert "alternate" in joined


def test_dialogue_roundtrip(tmp_path, bounds):
    d = make_dialogue(
        [
            Turn(speaker=Speaker.BUYER, text="hello"),
            Turn(speaker=Speaker.SELLER, text="hi", violation=True, original_text="HI!"),
        ],
        bounds,
    ).with_outcome(NegotiationOutcome(deal=True, price=4200, trust_delta=1, business_delta=0))
    path = tmp_path / "corpus.jsonl"
    dump_dialogues([d], path)
    assert load_dialogues(path) == [d]


def test_load_dialogues_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"nope": 1}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=":1:"):
        load_dialogues(path)


def test_load_dialogues_missing_file(tmp_path):
    with pytest.raises(CorpusError, match="no such file"):
        load_dialogues(tmp_path / "absent.jsonl")


def test_exemplar_roundtrip_and_duplicate_ids(tmp_path):
    e = Exemplar(
        id="a#1",
        history=(Turn(speaker=Speaker.BUYER, text="hello"),),
        violation_text="rude",
        remediation_text="polite",
        rationale="stays respectful",
        latent_quality=0.7,
    )
    path = tmp_path / "pool.jsonl"
    dump_exemplars([e], path)
    assert load_exemplars(path) == [e]

    with path.open("a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "a#1", "history": [], "violation_text": "v", "remediation_text": "r"}))
        f.write("\n")
    with pytest.raises(CorpusError, match="duplicate"):
        load_exemplars(path)


def test_load_exemplars_rejects_empty_texts(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text(
        json.dumps({"id": "x", "history": [], "violation_text": "", "remediation_text": "r"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match="empty text"):
        load_exemplars(path)


def test_load_dialogues_rejects_duplicate_ids(tmp_path, bounds):
    d = make_dialogue([Turn(speaker=Speaker.BUYER, text="hello")], bounds, did="sim-2")
    path = tmp_path / "corpus.jsonl"
    dump_dialogues([d, d], path)
    with pytest.raises(CorpusError, match=r":2: duplicate id 'sim-2'"):
        load_dialogues(path)


BROKEN_HISTORIES = {
    "empty text": [{"speaker": "buyer", "text": ""}],
    "non-seller": [{"speaker": "buyer", "text": "cheaper!", "violation": True}],
    "violation=false": [
        {"speaker": "buyer", "text": "hi"},
        {"speaker": "seller", "text": "ok", "original_text": "OK!"},
    ],
    "alternate": [{"speaker": "buyer", "text": "hi"}, {"speaker": "buyer", "text": "hello?"}],
}


@pytest.mark.parametrize("reason", sorted(BROKEN_HISTORIES))
def test_exemplar_history_obeys_the_turn_rules(tmp_path, reason):
    history = BROKEN_HISTORIES[reason]
    with pytest.raises(CorpusError, match=reason):
        turns_from_objs(history)
    path = tmp_path / "pool.jsonl"
    row = {"id": "x", "history": history, "violation_text": "v", "remediation_text": "r"}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f":1: .*{reason}"):
        load_exemplars(path)


def test_turns_from_objs_decodes_a_valid_history():
    objs = [
        {"speaker": "buyer", "text": "hi"},
        {"speaker": "seller", "text": "ok", "violation": True, "original_text": "OK!"},
    ]
    assert turns_from_objs(objs) == (
        Turn(speaker=Speaker.BUYER, text="hi"),
        Turn(speaker=Speaker.SELLER, text="ok", violation=True, original_text="OK!"),
    )


def oracle_turns_from_objs(objs):
    """The two-pass decoder the interning one replaced: build every turn,
    then check the turn rules over the whole run."""
    if not all(isinstance(obj, dict) for obj in objs):
        raise CorpusError("every turn must be a JSON object")
    turns = tuple(
        Turn(
            speaker=Speaker(obj["speaker"]),
            text=obj["text"],
            violation=bool(obj.get("violation", False)),
            original_text=obj.get("original_text"),
        )
        for obj in objs
    )
    problems = []
    prev = None
    for i, t in enumerate(turns):
        if not t.text:
            problems.append(f"turn {i}: empty text")
        if t.original_text is not None and not t.violation:
            problems.append(f"turn {i}: original_text present but violation=false")
        if t.violation and t.speaker is not Speaker.SELLER:
            problems.append(f"turn {i}: violation flagged on non-seller turn")
        if t.speaker is prev:
            problems.append(f"turn {i}: speakers must strictly alternate")
        prev = t.speaker
    if problems:
        raise CorpusError("; ".join(problems))
    return turns


TURN_OBJS = st.one_of(
    st.fixed_dictionaries(
        # 1, 1.0 and true are equal as dict keys but decode to distinct texts.
        {
            "speaker": st.sampled_from(["buyer", "seller", "moderator"]),
            "text": st.sampled_from(["", "hi", "ok", 0, 1, 1.0, True, False]),
        },
        optional={
            "violation": st.sampled_from([True, False, 0, 1]),
            "original_text": st.sampled_from([None, "", "OK!", 1, 1.0, True]),
        },
    ),
    st.sampled_from([None, 3, "buyer", ["seller"], {"speaker": "buyer"}]),
)


def outcome(decode, objs):
    """What a decoder returns for a run (its repr, which shows each field's
    type), or the type and message it raises."""
    try:
        return repr(decode(objs))
    except (CorpusError, KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.lists(TURN_OBJS, max_size=6))
@example([{"speaker": "buyer", "text": 1}, {"speaker": "seller", "text": "ok"}, {"speaker": "buyer", "text": True}])
@example([{"speaker": "buyer", "text": "hi", "violation": 0}, {"speaker": "seller", "text": "ok", "violation": 1}])
def test_turn_decoder_matches_the_oracle(objs):
    assert outcome(turns_from_objs, objs) == outcome(oracle_turns_from_objs, objs)


@given(st.lists(st.lists(TURN_OBJS, max_size=4), max_size=5))
@example([[{"speaker": "buyer", "text": 1.0}], [{"speaker": "buyer", "text": True}]])
def test_one_intern_table_decodes_each_run_as_the_oracle(runs):
    # A file's runs share one table: a turn's problems must not leak into
    # another position or run.
    decode = core._turn_decoder()
    for objs in runs:
        assert outcome(lambda o: core._decode_turns(o, decode), objs) == outcome(oracle_turns_from_objs, objs)


def test_intern_table_is_bounded(monkeypatch):
    monkeypatch.setattr(core, "_INTERN_LIMIT", 2)
    objs = [{"speaker": ("buyer", "seller")[i % 2], "text": f"t{i}"} for i in range(5)]
    decode = core._turn_decoder()
    first, again = core._decode_turns(objs, decode), core._decode_turns(objs, decode)
    assert first == again == oracle_turns_from_objs(objs)
    assert [a is b for a, b in zip(first, again)] == [True, True, False, False, False]


def test_loaded_corpus_shares_one_turn_per_distinct_turn(tmp_path, world):
    session = BackendSession(kind="scripted")
    dialogues = [
        simulate(session, session, session, SimulationConfig(seed=derive_seed(0, "rollout", i)),
                 world=world, dialogue_id=f"sim-{i}")
        for i in range(200)
    ]
    path = tmp_path / "corpus.jsonl"
    dump_dialogues(dialogues, path)
    corpus = load_dialogues(path)
    assert corpus == dialogues
    turns = [t for d in corpus for t in d.turns]
    assert len({id(t) for t in turns}) == len(set(turns)) < len(turns) / 10
