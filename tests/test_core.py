"""Domain types, validation, and corpus IO."""

from __future__ import annotations

import json
from dataclasses import replace

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


@st.composite
def dialogues_and_pools(draw, texts=TURN_TEXTS, flags=(False, True, 1)):
    def run(n, flag_last=False):
        turns = []
        for i in range(n):
            speaker = (Speaker.BUYER, Speaker.SELLER)[i % 2]
            violation = speaker is Speaker.SELLER and draw(st.sampled_from(flags))
            original = draw(st.one_of(st.none(), TEXTS)) if violation else None
            turns.append(Turn(speaker, draw(texts), violation, original))
        return tuple(turns)

    optional = lambda strategy: draw(st.one_of(st.none(), strategy))  # noqa: E731
    dialogues = []
    for i in range(draw(st.integers(0, 4))):
        deal = draw(st.booleans())
        outcome = optional(st.builds(
            NegotiationOutcome, st.just(deal), st.integers(0, 10**6) if deal else st.none(),
            st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
        ))
        dialogues.append(Dialogue(
            id=f"d-{i}-{draw(TEXTS)}", topic=Topic.PRODUCT_SALE,
            bounds=PriceBounds(cost_price=3500, seller_init=5000, buyer_init=draw(st.integers(0, 3000))),
            turns=run(draw(st.integers(0, 5))), outcome=outcome, language=draw(TEXTS),
            error=optional(TEXTS),
        ))
    pool = [
        Exemplar(
            id=f"x-{i}", history=run(draw(st.integers(0, 5))),
            violation_text=draw(TEXTS), remediation_text=draw(TEXTS), rationale=optional(TEXTS),
            latent_quality=optional(st.sampled_from([-0.0, 1e-300, 1e16, 0.25, 1])),
        )
        for i in range(draw(st.integers(0, 4)))
    ]
    return dialogues, pool


def written_lines(path):
    return path.read_bytes().decode("utf-8").split("\n")[:-1]


@given(dialogues_and_pools(), dialogues_and_pools(TEXTS, (False, True)))
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
