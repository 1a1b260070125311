"""Domain types, validation, and corpus IO."""

from __future__ import annotations

import json
import os
import stat
from dataclasses import replace
from unittest import mock

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
    dialogue_to_obj,
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
            violation=obj.get("violation", False),
            original_text=obj.get("original_text"),
        )
        for obj in objs
    )
    problems = []
    prev = None
    for i, t in enumerate(turns):
        if type(t.text) is not str:
            problems.append(f"turn {i}: text must be a string")
        elif not t.text:
            problems.append(f"turn {i}: empty text")
        if type(t.violation) is not bool:
            problems.append(f"turn {i}: violation must be true or false")
        if t.original_text is not None and type(t.original_text) is not str:
            problems.append(f"turn {i}: original_text must be a string or null")
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


def test_loaded_corpus_shares_bounds_and_outcomes(tmp_path, bounds):
    turns = (Turn(speaker=Speaker.BUYER, text="hello"),)
    deal = NegotiationOutcome(deal=True, price=4200, trust_delta=1, business_delta=0)
    walk = NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)
    dialogues = [
        make_dialogue(turns, bounds, did=f"d-{i}").with_outcome((deal, walk)[i % 2]) for i in range(6)
    ]
    path = tmp_path / "corpus.jsonl"
    dump_dialogues(dialogues, path)
    corpus = load_dialogues(path)
    assert corpus == dialogues
    assert len({id(d.bounds) for d in corpus}) == 1
    assert len({id(d.outcome) for d in corpus}) == 2


def corpus_line(**changes):
    """One valid corpus record, with the given top-level, "bounds." and
    "outcome." fields replaced or, given as ``...``, removed."""
    obj = {
        "id": "d-0", "topic": "product_sale", "language": "en",
        "bounds": {"cost_price": 3500, "seller_init": 5000, "buyer_init": 3000},
        "outcome": {"deal": True, "price": 4000, "trust_delta": 1, "business_delta": 0},
        "turns": [{"speaker": "buyer", "text": "hi"}, {"speaker": "seller", "text": "hello"}],
    }
    for name, value in changes.items():
        part, _, field = name.rpartition("__")
        where = obj[part] if part else obj
        if value is ...:
            del where[field]
        else:
            where[field] = value
    return json.dumps(obj) + "\n"


BROKEN_RECORDS = {
    "deal as a string": (dict(outcome__deal="false", outcome__price=...), "deal must be true or false"),
    "price as a string": (dict(outcome__price="4000"), "price must be an integer"),
    "price as a float": (dict(outcome__price=4000.0), "price must be an integer"),
    "price as a bool": (dict(outcome__price=True), "price must be an integer"),
    "price beyond a float": (dict(outcome__price=10**400), "price must be an integer that a float can hold"),
    "deal without a price": (dict(outcome__price=...), "price must be an integer"),
    "price without a deal": (dict(outcome__deal=False), "without a deal has no price"),
    "trust_delta as a fraction": (dict(outcome__trust_delta=0.9), "must be integers"),
    "trust_delta as a bool": (dict(outcome__trust_delta=True), "must be integers"),
    "business_delta as a bool": (dict(outcome__business_delta=False), "must be integers"),
    "seller_init as a fraction": (dict(bounds__seller_init=5000.7), "bounds must be integers"),
    "seller_init as a string": (dict(bounds__seller_init="5000"), "bounds must be integers"),
    "cost_price as a bool": (dict(bounds__cost_price=True), "bounds must be integers"),
    "id as a number": (dict(id=7), "id must be a string"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_RECORDS))
def test_dialogue_fields_are_decoded_under_exact_rules(tmp_path, case):
    changes, message = BROKEN_RECORDS[case]
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_line(**changes), encoding="utf-8")
    with pytest.raises(CorpusError, match=f":1: .*{message}"):
        load_dialogues(path)


def test_valid_outcomes_and_bounds_still_load(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        corpus_line()
        + corpus_line(id="d-1", outcome__deal=False, outcome__price=..., outcome__trust_delta=-1)
        + corpus_line(id="d-2", outcome__trust_delta=..., outcome__business_delta=...)
        + corpus_line(id="d-3", outcome=None),
        encoding="utf-8",
    )
    assert [d.outcome for d in load_dialogues(path)] == [
        NegotiationOutcome(deal=True, price=4000, trust_delta=1, business_delta=0),
        NegotiationOutcome(deal=False, trust_delta=-1, business_delta=0),
        NegotiationOutcome(deal=True, price=4000),
        None,
    ]


def pool_line(**changes):
    obj = {"id": "x", "history": [{"speaker": "buyer", "text": "hi"}],
           "violation_text": "v", "remediation_text": "r", "latent_quality": 0.5}
    obj.update(changes)
    return json.dumps(obj) + "\n"


@pytest.mark.parametrize("changes, message", [
    (dict(latent_quality="0.9"), "latent_quality must be a number"),
    (dict(latent_quality=True), "latent_quality must be a number"),
    (dict(id=["x"]), "id must be a string"),
    (dict(latent_quality=float("nan")), "latent_quality must be a finite number"),
    (dict(latent_quality=float("inf")), "latent_quality must be a finite number"),
    (dict(latent_quality=-float("inf")), "latent_quality must be a finite number"),
    (dict(latent_quality=10**400), "latent_quality must be a finite number"),
])
def test_exemplar_fields_are_decoded_under_exact_rules(tmp_path, changes, message):
    path = tmp_path / "pool.jsonl"
    path.write_text(pool_line(**changes), encoding="utf-8")
    with pytest.raises(CorpusError, match=f":1: {message}"):
        load_exemplars(path)


def seller_turns(**fields):
    """A buyer turn, then a seller turn with the given fields replaced."""
    return [{"speaker": "buyer", "text": "hi"}, {"speaker": "seller", "text": "hello", **fields}]


TURN_FIELD_BREACHES = {
    "violation as a string": (dict(violation="false"), "turn 1: violation must be true or false"),
    "violation as a list": (dict(violation=[0]), "turn 1: violation must be true or false"),
    "violation as a number": (dict(violation=1), "turn 1: violation must be true or false"),
    "text as a number": (dict(text=5), "turn 1: text must be a string"),
    "original_text as a number": (dict(violation=True, original_text=5),
                                  "turn 1: original_text must be a string or null"),
}


@pytest.mark.parametrize("case", sorted(TURN_FIELD_BREACHES))
def test_turn_fields_are_decoded_under_exact_rules(tmp_path, case):
    fields, message = TURN_FIELD_BREACHES[case]
    corpus, pool = tmp_path / "corpus.jsonl", tmp_path / "pool.jsonl"
    corpus.write_text(corpus_line(turns=seller_turns(**fields)), encoding="utf-8")
    pool.write_text(pool_line(history=seller_turns(**fields)), encoding="utf-8")
    for load, path in ((load_dialogues, corpus), (load_exemplars, pool)):
        with pytest.raises(CorpusError, match=f":1: {message}"):
            load(path)


def test_violation_type_is_checked_on_every_record(tmp_path):
    # 1 and true are one table key: a turn already in the table must not
    # let a later `"violation": 1` through.
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_line(turns=seller_turns(violation=True))
                    + corpus_line(id="d-1", turns=seller_turns(violation=1)), encoding="utf-8")
    with pytest.raises(CorpusError, match=":2: turn 1: violation must be true or false"):
        load_dialogues(path)


@pytest.mark.parametrize("load, line, message", [
    (load_dialogues, corpus_line(language=5), "language must be a string"),
    (load_dialogues, corpus_line(error=["x"]), "error a string or null"),
    (load_exemplars, pool_line(violation_text=5), "violation_text, remediation_text and rationale must be strings"),
    (load_exemplars, pool_line(remediation_text=["r"]), "and rationale must be strings"),
    (load_exemplars, pool_line(rationale=5), "and rationale must be strings"),
], ids=["language", "error", "violation_text", "remediation_text", "rationale"])
def test_record_text_fields_are_decoded_under_exact_rules(tmp_path, load, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text(line, encoding="utf-8")
    with pytest.raises(CorpusError, match=f":1: .*{message}"):
        load(path)


def test_dialogue_that_opens_with_the_seller_is_refused(tmp_path):
    path = tmp_path / "corpus.jsonl"
    turns = [{"speaker": "seller", "text": "hello"}, {"speaker": "buyer", "text": "hi"}]
    path.write_text(corpus_line() + corpus_line(id="d-1", turns=turns), encoding="utf-8")
    with pytest.raises(CorpusError, match=":2: turn 0: dialogue must open with the buyer"):
        load_dialogues(path)


def test_blank_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n" + corpus_line() + "   \n" + corpus_line(id="d-1") + "\n", encoding="utf-8")
    assert [d.id for d in load_dialogues(path)] == ["d-0", "d-1"]
    path.write_text("\n" + corpus_line() + "  \n" + corpus_line(), encoding="utf-8")
    with pytest.raises(CorpusError, match=":4: duplicate id 'd-0'"):
        load_dialogues(path)


# Half of a surrogate pair: json.loads reads its escape "\\ud83d" alone, but
# UTF-8 cannot encode it, so a file that held it could never be written again.
SURROGATE = "caf\u00e9 \ud83d"


@pytest.mark.parametrize("turns, message", [
    ([{"speaker": "buyer", "text": SURROGATE}], "turn 0: text holds a lone surrogate"),
    ([{"speaker": "buyer", "text": "hi"},
      {"speaker": "seller", "text": "ok", "violation": True, "original_text": SURROGATE}],
     "turn 1: original_text holds a lone surrogate"),
])
def test_turn_text_with_a_lone_surrogate_is_refused(tmp_path, turns, message):
    corpus, pool = tmp_path / "corpus.jsonl", tmp_path / "pool.jsonl"
    corpus.write_text(corpus_line(turns=turns), encoding="utf-8")
    pool.write_text(pool_line(history=turns), encoding="utf-8")
    for load, path in ((load_dialogues, corpus), (load_exemplars, pool)):
        with pytest.raises(CorpusError, match=f":1: {message}"):
            load(path)


@pytest.mark.parametrize("field", ["id", "violation_text", "remediation_text", "rationale"])
def test_exemplar_text_with_a_lone_surrogate_is_refused(tmp_path, field):
    path = tmp_path / "pool.jsonl"
    path.write_text(pool_line(**{field: SURROGATE}), encoding="utf-8")
    with pytest.raises(CorpusError, match=":1: .*lone surrogate"):
        load_exemplars(path)


# Texts that exercise the string encoder: non-ASCII, quotes, backslashes,
# control characters and characters beyond the BMP; never a surrogate, which
# no file can hold.
TEXTS = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "tab\there\nnewline\x00\x1f\x7f", " ", "é€😀"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
)
# Turn admits any text and violation value; these are the ones a loaded file
# can hold that compare equal to one another as keys.
TURN_TEXTS = st.one_of(TEXTS, st.sampled_from([1, 1.0, True]))
# Head fields admit any number too; each of these draws values that are equal
# as keys but written differently (1, 1.0 and true; 0, 0.0 and false).
PRICES = st.one_of(st.integers(0, 10**6), st.sampled_from([1, 1.0, True]))
BUYER_INITS = st.one_of(st.integers(0, 3000), st.sampled_from([0, 0.0, False]))
# -0.0 and 0.0 are equal keys too, and a loaded file can hold both.
QUALITIES = st.sampled_from([-0.0, 0.0, 1e-300, 1e16, 0.25, 1])


@st.composite
def dialogues_and_pools(draw, texts=TURN_TEXTS, flags=(False, True, 1), prices=PRICES, buyer_inits=BUYER_INITS):
    def run(n, flag_last=False):
        turns = []
        for i in range(n):
            speaker = (Speaker.BUYER, Speaker.SELLER)[i % 2]
            violation = speaker is Speaker.SELLER and draw(st.sampled_from(flags))
            original = draw(st.one_of(st.none(), TEXTS)) if violation else None
            turns.append(Turn(speaker, draw(texts), violation, original))
        return tuple(turns)

    optional = lambda strategy: draw(st.one_of(st.none(), strategy))  # noqa: E731
    # A record may repeat an earlier one's head (or tail) under another id,
    # with the same fields or with one swapped for a value equal to it as a key.
    dialogues = []
    for i in range(draw(st.integers(0, 6))):
        if dialogues and draw(st.booleans()):
            d = replace(draw(st.sampled_from(dialogues)), id=f"d-{i}", turns=run(draw(st.integers(0, 5))))
            if d.outcome is not None and d.outcome.deal and draw(st.booleans()):
                d = replace(d, outcome=replace(d.outcome, price=draw(prices)))
            if draw(st.booleans()):
                d = replace(d, bounds=replace(d.bounds, buyer_init=draw(buyer_inits)))
            dialogues.append(d)
            continue
        deal = draw(st.booleans())
        outcome = optional(st.builds(
            NegotiationOutcome, st.just(deal), prices if deal else st.none(),
            st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
        ))
        dialogues.append(Dialogue(
            id=f"d-{i}-{draw(TEXTS)}", topic=Topic.PRODUCT_SALE,
            bounds=PriceBounds(cost_price=3500, seller_init=5000, buyer_init=draw(buyer_inits)),
            turns=run(draw(st.integers(0, 5))), outcome=outcome, language=draw(TEXTS),
            error=optional(TEXTS),
        ))
    pool = []
    for i in range(draw(st.integers(0, 6))):
        if pool and draw(st.booleans()):
            e = replace(draw(st.sampled_from(pool)), id=f"x-{i}", history=run(draw(st.integers(0, 5))))
            if draw(st.booleans()):
                e = replace(e, latent_quality=draw(QUALITIES))
            pool.append(e)
            continue
        pool.append(Exemplar(
            id=f"x-{i}", history=run(draw(st.integers(0, 5))),
            violation_text=draw(TEXTS), remediation_text=draw(TEXTS), rationale=optional(TEXTS),
            latent_quality=optional(QUALITIES),
        ))
    return dialogues, pool


def written_lines(path):
    return path.read_bytes().decode("utf-8").split("\n")[:-1]


@given(dialogues_and_pools(), dialogues_and_pools(TEXTS, (False, True), st.integers(0, 10**6), st.integers(0, 3000)))
@example(([], []), ([], []))
def test_writer_matches_json_dumps_and_round_trips(tmp_path_factory, records, declared):
    # The writer is checked on any Turn; only turns of the declared types
    # load back, since a load refuses the others.
    tmp_path = tmp_path_factory.mktemp("io")
    corpus_path, pool_path = tmp_path / "corpus.jsonl", tmp_path / "pool.jsonl"
    for (dialogues, pool), loads in ((records, False), (declared, True)):
        dump_dialogues(dialogues, corpus_path)
        dump_exemplars(pool, pool_path)
        assert written_lines(corpus_path) == [
            json.dumps(dialogue_to_obj(d), ensure_ascii=False, sort_keys=True) for d in dialogues
        ]
        assert written_lines(pool_path) == [
            json.dumps(core._exemplar_obj(e, [core._turn_to_obj(t) for t in e.history]),
                       ensure_ascii=False, sort_keys=True)
            for e in pool
        ]
        if loads:
            assert load_dialogues(corpus_path) == dialogues
            assert load_exemplars(pool_path) == pool


def test_writer_key_order_premise(bounds):
    # The writer splices the turns into the encoded record: "turns" must sort
    # last in a dialogue record and "history" first in an exemplar record,
    # with every optional field present.
    d = make_dialogue([Turn(speaker=Speaker.BUYER, text="hi")], bounds).with_outcome(
        NegotiationOutcome(deal=True, price=4000)
    )
    d = replace(d, error="x")
    assert sorted(dialogue_to_obj(d))[-1] == "turns"
    assert set(dialogue_to_obj(d)) == {"id", "topic", "bounds", "language", "turns", "outcome", "error"}
    e = Exemplar(id="x", history=d.turns, violation_text="v", remediation_text="r",
                 rationale="why", latent_quality=0.5)
    obj = core._exemplar_obj(e, [])
    assert sorted(obj)[0] == "history"
    assert set(obj) == {"id", "history", "violation_text", "remediation_text", "rationale", "latent_quality"}


def test_turn_encoder_table_is_bounded(monkeypatch):
    monkeypatch.setattr(core, "_INTERN_LIMIT", 2)
    turns = [Turn(speaker=(Speaker.BUYER, Speaker.SELLER)[i % 2], text=f"t{i}") for i in range(5)]
    encode = core._turn_encoder()
    first, again = [encode(t) for t in turns], [encode(t) for t in turns]
    assert first == again == [json.dumps(core._turn_to_obj(t), ensure_ascii=False, sort_keys=True) for t in turns]
    assert [a is b for a, b in zip(first, again)] == [True, True, False, False, False]


def test_turn_encoder_keys_only_declared_types():
    # 1, 1.0 and True are equal keys; each must still be written as itself.
    encode = core._turn_encoder()
    turns = [Turn(Speaker.SELLER, text, violation) for text in ("1", 1, 1.0, True) for violation in (True, 1)]
    for t in turns + turns:
        assert encode(t) == json.dumps(core._turn_to_obj(t), ensure_ascii=False, sort_keys=True)


def spliced_encodes(records, encode, at, key):
    """The ids of the records that ``_id_spliced`` encodes whole, and its texts."""
    encoded = []

    def spy(r):
        encoded.append(r.id)
        return encode(r)

    return encoded, [text for _, text in core._id_spliced(records, spy, at, key)]


def heads_and_tails(n, repeats):
    """``repeats`` rounds of ``n`` distinct dialogue heads and exemplar tails,
    each record under its own id."""
    bounds = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)
    dialogues = [
        make_dialogue([], bounds, did=f"d{r}-{i}").with_outcome(NegotiationOutcome(deal=True, price=4000 + i))
        for r in range(repeats) for i in range(n)
    ]
    pool = [Exemplar(f"x{r}-{i}", (), f"v{i}", "r") for r in range(repeats) for i in range(n)]
    return dialogues, pool


def dialogue_head(d):
    return json.dumps(dialogue_to_obj(d), ensure_ascii=False, sort_keys=True)[: -len(core._TURNS_HEAD) - 2]


def exemplar_tail(e):
    return json.dumps(core._exemplar_obj(e, []), ensure_ascii=False, sort_keys=True)[len(core._HISTORY_HEAD) :]


WRITERS = [
    (0, dialogue_head, core._ID_KEY, core._dialogue_head_key),
    (1, exemplar_tail, core._HISTORY_END, core._exemplar_tail_key),
]


@pytest.mark.parametrize("kind, encode, at, key", WRITERS, ids=["dialogue heads", "exemplar tails"])
def test_spliced_record_tables_are_bounded(monkeypatch, tmp_path, kind, encode, at, key):
    # With room for two keys, only the first two are cut; the other three are
    # encoded whole each time, and every line is still exact.
    monkeypatch.setattr(core, "_INTERN_LIMIT", 2)
    records = heads_and_tails(5, 2)[kind]
    encoded, texts = spliced_encodes(records, encode, at, key)
    assert encoded == [r.id for r in records[:5] + records[7:]]
    assert texts == [encode(r) for r in records]
    dialogues, pool = heads_and_tails(5, 2)
    dump_dialogues(dialogues, tmp_path / "corpus.jsonl")
    dump_exemplars(pool, tmp_path / "pool.jsonl")
    assert written_lines(tmp_path / "corpus.jsonl") == [
        json.dumps(dialogue_to_obj(d), ensure_ascii=False, sort_keys=True) for d in dialogues
    ]
    assert written_lines(tmp_path / "pool.jsonl") == [
        json.dumps(core._exemplar_obj(e, []), ensure_ascii=False, sort_keys=True) for e in pool
    ]


def test_spliced_records_key_only_declared_types():
    # Equal keys of other types are written as themselves, and so is an id
    # that is not a string.
    bounds = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=0)
    dialogues = [
        replace(make_dialogue([], replace(bounds, buyer_init=b), did=f"d-{b!r}-{p!r}"),
                outcome=NegotiationOutcome(deal=True, price=p))
        for b in (0, 0.0, False) for p in (1, 1.0, True)
    ]
    dialogues += [replace(dialogues[0], id=7)]
    pool = [Exemplar(f"x-{q!r}", (), "v", "r", latent_quality=q) for q in (0, 0.0, -0.0, False, 0, -0.0)]
    pool += [replace(pool[0], id=7)]
    for records, encode, at, key in ((dialogues, dialogue_head, core._ID_KEY, core._dialogue_head_key),
                                     (pool, exemplar_tail, core._HISTORY_END, core._exemplar_tail_key)):
        assert spliced_encodes(records, encode, at, key)[1] == [encode(r) for r in records]


@pytest.mark.parametrize("dump", [dump_dialogues, dump_exemplars])
def test_a_failed_dump_leaves_the_old_file(tmp_path, bounds, dump):
    d = make_dialogue([Turn(Speaker.BUYER, "hi")], bounds)
    records = [d, replace(d, id=SURROGATE)] if dump is dump_dialogues else [
        Exemplar("x", d.turns, "v", "r"), Exemplar(SURROGATE, d.turns, "v", "r")
    ]
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        dump(records, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_a_dump_keeps_the_mode_of_the_file_it_replaces(tmp_path, bounds):
    d = make_dialogue([Turn(Speaker.BUYER, "hi")], bounds)
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    for mode in (0o600, 0o640):  # a new file gets 0644 under a 022 umask, 0600 under 077
        path.chmod(mode)
        dump_dialogues([d], path)
        assert stat.S_IMODE(path.stat().st_mode) == mode
    assert written_lines(path) == [json.dumps(dialogue_to_obj(d), ensure_ascii=False, sort_keys=True)]


def test_a_dump_into_a_missing_directory_names_the_path(tmp_path):
    path = tmp_path / "no" / "corpus.jsonl"
    with pytest.raises(FileNotFoundError) as info:
        dump_dialogues([], path)
    assert info.value.filename == str(path)


def test_a_dump_writes_through_a_symlink_and_into_a_fifo(tmp_path, bounds):
    d = make_dialogue([Turn(Speaker.BUYER, "hi")], bounds)
    line = json.dumps(dialogue_to_obj(d), ensure_ascii=False, sort_keys=True) + "\n"
    (tmp_path / "real.jsonl").write_text("old\n", encoding="utf-8")
    (tmp_path / "link.jsonl").symlink_to("real.jsonl")
    dump_dialogues([d], tmp_path / "link.jsonl")
    assert (tmp_path / "link.jsonl").is_symlink()
    assert (tmp_path / "real.jsonl").read_text(encoding="utf-8") == line
    # A pipe is written in place, not replaced by a file (as /dev/null must be).
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        dump_dialogues([d], fifo)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.read(reader, 1 << 16) == line.encode("utf-8")
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.jsonl", "real.jsonl"]


def test_every_dumped_pool_line_opens_with_the_history_head(tmp_path):
    # The loader finds a line's history text between these two markers.
    history = (Turn(Speaker.BUYER, "Ça coûte combien ? 😀"),
               Turn(Speaker.SELLER, "Prix fixé", True, "C'est à prendre ou à laisser"))
    pool = [
        Exemplar("a", history, "v", "r"),
        Exemplar("b", history, "v", "r", rationale="why", latent_quality=0.5),
        Exemplar("c", (), "vé", "r", latent_quality=1),
        Exemplar("d", history[:1], "v", "r", rationale="dès que possible"),
    ]
    path = tmp_path / "pool.jsonl"
    dump_exemplars(pool, path)
    encode = core._turn_encoder()
    for e, line in zip(pool, written_lines(path), strict=True):
        assert line.startswith(core._HISTORY_HEAD + ", ".join(map(encode, e.history)) + core._HISTORY_END)


@pytest.mark.parametrize("before, record, after", [
    ("\x0c", True, "\x1f"),
    ("", True, " "),
    ("\x0c", False, ""),
    ("\xa0", False, ""),
], ids=["form feed around a record", "line separator after a record", "form feed alone", "nbsp alone"])
def test_only_json_whitespace_is_stripped_or_blank(tmp_path, before, record, after):
    # str.strip() would skip these lines or read the record inside; json.loads refuses both.
    path = tmp_path / "records.jsonl"
    for load, line in ((load_dialogues, corpus_line()), (load_exemplars, pool_line())):
        path.write_text(line + before + (line.strip() if record else "") + after + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":2: malformed record"):
            load(path)
        path.write_text(" \t" + line.strip() + "\t \n", encoding="utf-8")
        assert len(load(path)) == 1


def reference_load(path, load=load_exemplars):
    """``load`` with every line through json.loads, as before the loaders
    looked for repeated runs: its repr, or its error message."""
    with mock.patch.object(core, "_PROBE_LINES", 0):
        return loaded(path, load)


def loaded(path, load=load_exemplars):
    try:
        return repr(load(path))  # a repr tells 1 from 1.0
    except CorpusError as exc:
        return str(exc)


def hand_built(e: Exemplar, kind: str, other: tuple[Turn, ...]) -> str:
    """One pool line for ``e``: as dump_exemplars writes it, or one of the
    variants the loader's fast path must read as json.loads does."""
    head, end = core._HISTORY_HEAD, core._HISTORY_END
    turns = [core._turn_encoder()(t) for t in e.history]
    history = ", ".join(turns)
    obj = core._exemplar_obj(e, [core._turn_to_obj(t) for t in e.history])
    line = json.dumps(obj, ensure_ascii=False, sort_keys=True)
    rest = json.dumps({k: v for k, v in obj.items() if k != "history"}, ensure_ascii=False, sort_keys=True)
    if kind == "reordered":
        return json.dumps(dict(reversed(obj.items())), ensure_ascii=False)
    if kind == "spaced":  # the dumped history, then the other keys spaced out
        spaced = json.dumps(json.loads(rest), ensure_ascii=False, sort_keys=True, separators=(" ,  ", ": "))
        return "  " + head + history + "], " + spaced[1:] + " \t"
    if kind == "second history":  # JSON's last key wins
        return line[:-1] + ', "history": ' + json.dumps([core._turn_to_obj(t) for t in other]) + "}"
    if kind == "turn with an id" and turns:
        turns[0] = turns[0][:-1] + ', "id": 7}'
    if kind == "array key, then id" and turns:
        turns[0] = '{"tags": [' + turns[0] + '], "id": 7, ' + turns[0][1:]
    if kind == "key inside the history":  # the history text holds a key the rest lacks
        return (head + history + '], "rationale": "planted", "history": ['
                + ", ".join(core._turn_encoder()(t) for t in other) + "], " + rest[1:])
    if kind == "malformed rest":
        rest = rest[:-1] + ",}"
    if kind == "empty violation":
        rest = rest.replace('"violation_text": ' + json.dumps(e.violation_text, ensure_ascii=False),
                            '"violation_text": ""')
    if kind == "trailing value":  # the other keys parse up to the value, which json.loads refuses
        rest += " 7"
    return head + ", ".join(turns) + "], " + rest[1:]


LINE_KINDS = ("dumped", "reordered", "spaced", "second history", "turn with an id",
              "array key, then id", "malformed rest", "empty violation", "trailing value")

def turn_runs(texts):
    """Alternating runs of turns that open with the buyer."""
    return st.lists(st.tuples(texts, st.one_of(st.none(), st.just(""), texts)), max_size=4).map(
        lambda run: tuple(
            # An odd position is a seller's; original "" marks a violation without an original.
            Turn((Speaker.BUYER, Speaker.SELLER)[i % 2], text, i % 2 == 1 and original is not None, original or None)
            for i, (text, original) in enumerate(run)
        )
    )


HISTORIES = turn_runs(TEXTS)


@st.composite
def mixed_pools(draw):
    """Rows (exemplar, line kind, another history) over a few histories, so
    that lines repeat histories; most lines are dumped ones."""
    histories = draw(st.lists(HISTORIES, min_size=1, max_size=3))
    kinds = st.one_of(st.just("dumped"), st.sampled_from(LINE_KINDS))
    return [
        (
            Exemplar(
                id=f"x-{i}", history=draw(st.sampled_from(histories)),
                violation_text=draw(st.sampled_from(["v", "é €"])), remediation_text="r",
                rationale=draw(st.one_of(st.none(), st.just("why"))),
                latent_quality=draw(st.one_of(st.none(), st.sampled_from([0.25, 1]))),
            ),
            draw(kinds),
            draw(st.sampled_from(histories)),
        )
        for i in range(draw(st.integers(1, 12)))
    ]


def write_rows(path, rows):
    path.write_text("".join(hand_built(e, kind, other) + "\n" for e, kind, other in rows), encoding="utf-8")


@given(mixed_pools())
def test_pool_fast_path_reads_as_json_loads(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
    write_rows(path, rows)
    got = loaded(path)
    assert got == reference_load(path)
    if not got.startswith(str(path)):  # it loaded: dumped lines share one tuple per distinct history
        dumped = [e for e, (_, kind, _) in zip(load_exemplars(path), rows) if kind in ("dumped", "spaced")]
        assert len({id(e.history) for e in dumped}) == len({e.history for e in dumped})


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_each_line_kind_after_a_repeat_reads_as_json_loads(tmp_path, kind):
    history = (Turn(Speaker.BUYER, "hi"), Turn(Speaker.SELLER, "no", True, "NO!"))
    rows = [(Exemplar(f"x-{i}", history, "v", "r", latent_quality=0.5), k, (Turn(Speaker.BUYER, "other"),))
            for i, k in enumerate(["dumped", kind, "dumped"])]
    path = tmp_path / "pool.jsonl"
    write_rows(path, rows)
    assert loaded(path) == reference_load(path)


def test_a_repeated_history_text_holding_other_keys_reads_as_json_loads(tmp_path):
    # Its history text holds other keys, so it does not parse on its own:
    # each of its lines, the repeat too, is read whole.
    history = (Turn(Speaker.BUYER, "hi"), Turn(Speaker.SELLER, "no", True, "NO!"))
    rows = [(Exemplar(f"x-{i}", history, "v", "r"), kind, history[:1])
            for i, kind in enumerate(["dumped", "key inside the history", "key inside the history", "dumped"])]
    path = tmp_path / "pool.jsonl"
    write_rows(path, rows)
    assert loaded(path) == reference_load(path)
    assert [e.rationale for e in load_exemplars(path)] == [None, "planted", "planted", None]


def test_pool_history_table_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_INTERN_LIMIT", 2)
    histories = [(Turn(Speaker.BUYER, f"offer {j}"),) for j in range(3)]
    pool = [Exemplar(f"x-{i}", histories[i % 3], "v", "r") for i in range(9)]
    path = tmp_path / "pool.jsonl"
    dump_exemplars(pool, path)
    loaded_pool = load_exemplars(path)
    assert loaded_pool == pool
    assert [len({id(e.history) for e in loaded_pool[j::3]}) for j in range(3)] == [1, 1, 3]


def test_an_all_distinct_pool_stops_looking_after_its_first_lines(tmp_path, monkeypatch):
    base = (Turn(Speaker.BUYER, "Could you do better?"), Turn(Speaker.SELLER, "This is my price."),
            Turn(Speaker.BUYER, "Meet me halfway?"))
    pool = [Exemplar(f"x-{i}", tuple(replace(t, text=f"{t.text} {i}") for t in base), "v", "r")
            for i in range(3 * core._PROBE_LINES)]
    path = tmp_path / "pool.jsonl"
    dump_exemplars(pool, path)
    split, split_exemplar = [], core._split_exemplar
    monkeypatch.setattr(core, "_split_exemplar", lambda line: split.append(line) or split_exemplar(line))
    assert load_exemplars(path) == pool
    assert len(split) == core._PROBE_LINES
    assert loaded(path) == reference_load(path)


def test_every_dumped_corpus_line_ends_with_its_run(tmp_path, bounds):
    # The loader finds a line's run text between the first marker and the closing "]}".
    turns = (Turn(Speaker.BUYER, 'Ça coûte combien ? 😀 , "turns": ['),
             Turn(Speaker.SELLER, "Prix fixé", True, "C'est à prendre ou à laisser"))
    corpus = [
        Dialogue("a", Topic.PRODUCT_SALE, bounds, turns, NegotiationOutcome(True, 4000, 1, 0)),
        Dialogue("b", Topic.PRODUCT_SALE, bounds, turns, language="fr"),
        Dialogue("c", Topic.PRODUCT_SALE, bounds, turns[:1], error="délai dépassé"),
        Dialogue('d, "turns": [', Topic.PRODUCT_SALE, bounds, (), NegotiationOutcome(False)),
    ]
    path = tmp_path / "corpus.jsonl"
    dump_dialogues(corpus, path)
    encode = core._turn_encoder()
    for d, line in zip(corpus, written_lines(path), strict=True):
        run = ", ".join(map(encode, d.turns))
        assert line.index(core._TURNS_HEAD) == len(line) - len(core._TURNS_HEAD + run + "]}")
        assert core._split_dialogue(line)[0] == run
    assert path.read_bytes().decode("utf-8").count("]}\n") == len(corpus)


def corpus_row(d: Dialogue, kind: str, other: tuple[Turn, ...], first_id: str) -> str:
    """One corpus line for ``d``: as dump_dialogues writes it, or one of the
    variants the loader's fast path must read as json.loads does."""
    if kind == "no outcome, an error":
        d = replace(d, outcome=None, error="timed out")
    elif kind == "empty run":
        d = replace(d, turns=())
    elif kind == "seller opens":
        d = replace(d, turns=(Turn(Speaker.SELLER, "The price is fixed."),) + d.turns)
    elif kind == "duplicate id":
        d = replace(d, id=first_id)
    turns = list(map(core._turn_encoder(), d.turns))
    obj = dialogue_to_obj(d)
    head = json.dumps({k: v for k, v in obj.items() if k != "turns"}, ensure_ascii=False, sort_keys=True)
    if kind == "reordered":
        return json.dumps(dict(reversed(obj.items())), ensure_ascii=False)
    if kind == "spaced":  # the head spaced out, then the dumped run
        spaced = json.dumps(json.loads(head), ensure_ascii=False, sort_keys=True, separators=(" ,  ", " : "))
        return "  " + spaced[:-1] + " " + core._TURNS_HEAD + ", ".join(turns) + "]} \t"
    if kind == "second turns":  # JSON's last key wins
        return (head[:-1] + core._TURNS_HEAD + ", ".join(turns) + '], "turns": '
                + json.dumps([core._turn_to_obj(t) for t in other]) + "}")
    if kind == "key inside the run":  # the run text holds a key the head also has
        return (head[:-1] + core._TURNS_HEAD + ", ".join(turns) + '], "language": "planted", "turns": ['
                + ", ".join(map(core._turn_encoder(), other)) + "]}")
    if kind == "turn with turns" and turns:
        turns[0] = turns[0][:-1] + ', "turns": [1, 2]}'
    if kind == "extra key":
        head = json.dumps({**json.loads(head), "interactive_choices": [{"accepted": True}]},
                          ensure_ascii=False, sort_keys=True)
    if kind == "malformed head":
        head = head[:-1] + ",}"
    if kind == "empty head":
        head = "{}"
    if kind == "trailing value":  # the head parses up to the value, which json.loads refuses
        return head + " 7" + core._TURNS_HEAD + ", ".join(turns) + "]}"
    return head[:-1] + core._TURNS_HEAD + ", ".join(turns) + "]}"


CORPUS_LINE_KINDS = ("dumped", "reordered", "spaced", "second turns", "key inside the run", "turn with turns",
                     "malformed head",
                     "empty head", "no outcome, an error", "extra key", "seller opens", "duplicate id",
                     "empty run", "trailing value")
# Kinds whose line holds the run as dump_dialogues writes it and loads.
CANONICAL_RUN_KINDS = ("dumped", "spaced", "no outcome, an error", "extra key", "empty run")
# Marker-like texts, which the writer escapes.
RUNS = turn_runs(st.one_of(TEXTS, st.sampled_from([core._TURNS_HEAD, "]}", '"}, {"'])))


@st.composite
def mixed_corpora(draw):
    """Rows (dialogue, line kind, another run) over a few runs, so that
    lines repeat runs; most lines are dumped ones."""
    runs = draw(st.lists(RUNS, min_size=1, max_size=3))
    kinds = st.one_of(st.just("dumped"), st.sampled_from(CORPUS_LINE_KINDS))
    outcomes = st.sampled_from([None, NegotiationOutcome(True, 4000, 1, 0), NegotiationOutcome(False)])
    return [
        (
            Dialogue(
                id=f"d-{i}" + draw(st.sampled_from(["", core._TURNS_HEAD, "é"])), topic=Topic.PRODUCT_SALE,
                bounds=PriceBounds(3500, 5000, draw(st.sampled_from([2000, 3000]))),
                turns=draw(st.sampled_from(runs)), outcome=draw(outcomes),
                language=draw(st.sampled_from(["en", "fr"])),
            ),
            draw(kinds),
            draw(st.sampled_from(runs)),
        )
        for i in range(draw(st.integers(1, 12)))
    ]


def write_corpus_rows(path, rows):
    first_id = rows[0][0].id
    path.write_text("".join(corpus_row(d, kind, other, first_id) + "\n" for d, kind, other in rows),
                    encoding="utf-8")


@given(mixed_corpora())
def test_corpus_fast_path_reads_as_json_loads(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_corpus_rows(path, rows)
    got = loaded(path, load_dialogues)
    assert got == reference_load(path, load_dialogues)
    if not got.startswith(str(path)):  # it loaded: dumped runs share one tuple per distinct run
        dumped = [d for d, (_, kind, _) in zip(load_dialogues(path), rows) if kind in CANONICAL_RUN_KINDS]
        assert len({id(d.turns) for d in dumped}) == len({d.turns for d in dumped})


@pytest.mark.parametrize("repeats", [1, 2], ids=["first repeat", "later repeat"])
@pytest.mark.parametrize("kind", CORPUS_LINE_KINDS)
def test_each_corpus_line_kind_after_a_repeat_reads_as_json_loads(tmp_path, kind, repeats, bounds):
    run = (Turn(Speaker.BUYER, "hi"), Turn(Speaker.SELLER, "no", True, "NO!"))
    kinds = ["dumped"] * repeats + [kind, kind, "dumped"]  # the kind's own run text repeats too
    rows = [(Dialogue(f"d-{i}", Topic.PRODUCT_SALE, bounds, run, NegotiationOutcome(True, 4000)), k,
             (Turn(Speaker.BUYER, "other"),))
            for i, k in enumerate(kinds)]
    path = tmp_path / "corpus.jsonl"
    write_corpus_rows(path, rows)
    assert loaded(path, load_dialogues) == reference_load(path, load_dialogues)


@pytest.mark.parametrize("dumped", [0, 1], ids=["first line", "after its run"])
def test_a_corpus_line_whose_run_is_not_closed_is_malformed(tmp_path, bounds, dumped):
    # Cut between its marker and its last two characters, the line's run
    # text parses alone; only the "]}" end tells it from a whole record.
    d = Dialogue("d-0", Topic.PRODUCT_SALE, bounds, (Turn(Speaker.BUYER, "hi"), Turn(Speaker.SELLER, "no")))
    path = tmp_path / "corpus.jsonl"
    dump_dialogues([replace(d, id=f"d-{i}") for i in range(dumped + 1)], path)
    lines = written_lines(path)
    path.write_text("\n".join(lines[:-1] + [lines[-1][:-2] + "}}"]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f":{dumped + 1}: malformed record"):
        load_dialogues(path)
    assert loaded(path, load_dialogues) == reference_load(path, load_dialogues)


def test_corpus_run_table_is_bounded(tmp_path, monkeypatch, bounds):
    monkeypatch.setattr(core, "_INTERN_LIMIT", 2)
    runs = [(Turn(Speaker.BUYER, f"offer {j}"),) for j in range(3)]
    corpus = [Dialogue(f"d-{i}", Topic.PRODUCT_SALE, bounds, runs[i % 3]) for i in range(9)]
    path = tmp_path / "corpus.jsonl"
    dump_dialogues(corpus, path)
    loaded_corpus = load_dialogues(path)
    assert loaded_corpus == corpus
    assert [len({id(d.turns) for d in loaded_corpus[j::3]}) for j in range(3)] == [1, 1, 3]


def test_an_all_distinct_corpus_stops_looking_after_its_first_lines(tmp_path, monkeypatch, bounds):
    base = (Turn(Speaker.BUYER, "Could you do better?"), Turn(Speaker.SELLER, "This is my price."),
            Turn(Speaker.BUYER, "Meet me halfway?"))
    corpus = [Dialogue(f"d-{i}", Topic.PRODUCT_SALE, bounds, tuple(replace(t, text=f"{t.text} {i}") for t in base))
              for i in range(3 * core._PROBE_LINES)]
    path = tmp_path / "corpus.jsonl"
    dump_dialogues(corpus, path)
    split, split_dialogue = [], core._split_dialogue
    monkeypatch.setattr(core, "_split_dialogue", lambda line: split.append(line) or split_dialogue(line))
    assert load_dialogues(path) == corpus
    # No run repeats, so only the first lines are split.
    assert len(split) == core._PROBE_LINES
    assert loaded(path, load_dialogues) == reference_load(path, load_dialogues)


@pytest.mark.parametrize("load", [load_dialogues, load_exemplars], ids=["corpus", "pool"])
def test_a_file_from_another_json_writer_shares_its_runs(tmp_path, monkeypatch, bounds, load):
    # json.dumps's defaults write "€" as "\u20ac", which dump_dialogues and
    # dump_exemplars do not; the parts of each line parse on their own all the
    # same, so the file's repeated runs are shared and no turn is encoded.
    runs = [(Turn(Speaker.BUYER, "Combien ? 20 €"), Turn(Speaker.SELLER, "Prix fixé", True, "C'est 30 €")),
            (Turn(Speaker.BUYER, "Hi"), Turn(Speaker.SELLER, "Hello"))]
    if load is load_dialogues:
        records = [Dialogue(f"d-{i}", Topic.PRODUCT_SALE, bounds, runs[i % 2], NegotiationOutcome(True, 4000))
                   for i in range(8)]
        objs = map(dialogue_to_obj, records)
    else:
        records = [Exemplar(f"x-{i}", runs[i % 2], "v €", "r") for i in range(8)]
        objs = (core._exemplar_obj(e, [core._turn_to_obj(t) for t in e.history]) for e in records)
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs), encoding="utf-8")
    assert "\\u20ac" in path.read_text(encoding="utf-8")
    encoders, turn_encoder = [], core._turn_encoder
    monkeypatch.setattr(core, "_turn_encoder", lambda: encoders.append(1) or turn_encoder())
    assert loaded(path, load) == reference_load(path, load)
    got = load(path)
    assert got == records
    assert len({id(r.turns if load is load_dialogues else r.history) for r in got}) == 2
    assert encoders == []
