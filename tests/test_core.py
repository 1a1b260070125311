"""Domain types, validation, and corpus IO."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    validate_dialogue,
)


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
