"""Domain types, validation, and dataset IO for dialogues and exemplar pools.

Money is stored as integer minor units (cents) throughout, so price
comparisons never suffer float drift. All types are frozen dataclasses and
safe to share between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

__all__ = [
    "Speaker",
    "Topic",
    "Turn",
    "PriceBounds",
    "NegotiationOutcome",
    "Dialogue",
    "Exemplar",
    "ExemplarSet",
    "CorpusError",
    "validate_dialogue",
    "turns_from_objs",
    "dialogue_to_obj",
    "load_dialogues",
    "dump_dialogues",
    "load_exemplars",
    "dump_exemplars",
    "format_money",
]


class Speaker(str, Enum):
    BUYER = "buyer"
    SELLER = "seller"


class Topic(str, Enum):
    PRODUCT_SALE = "product_sale"


class CorpusError(Exception):
    """Raised for malformed corpus files or invariant violations on load."""


@dataclass(frozen=True)
class Turn:
    """One utterance in a negotiation trajectory.

    ``original_text`` holds the pre-remediation utterance when a remediation
    replaced it; its presence implies ``violation`` is set.
    """

    speaker: Speaker
    text: str
    violation: bool = False
    original_text: Optional[str] = None


@dataclass(frozen=True)
class PriceBounds:
    """Price anchors of one negotiation, in integer minor units."""

    cost_price: int
    seller_init: int
    buyer_init: int

    def __post_init__(self) -> None:
        if self.buyer_init >= self.seller_init:
            raise ValueError("buyer_init must be below seller_init")
        if self.cost_price > self.seller_init:
            raise ValueError("cost_price must not exceed seller_init")


@dataclass(frozen=True)
class NegotiationOutcome:
    """Terminal assessment of a dialogue.

    ``deal`` encodes b_deal (+1 when true, -1 when false in the reward);
    the two deltas are in {-1, 0, +1}.
    """

    deal: bool
    price: Optional[int] = None
    trust_delta: int = 0
    business_delta: int = 0

    def __post_init__(self) -> None:
        if self.trust_delta not in (-1, 0, 1):
            raise ValueError("trust_delta must be in {-1, 0, 1}")
        if self.business_delta not in (-1, 0, 1):
            raise ValueError("business_delta must be in {-1, 0, 1}")


@dataclass(frozen=True)
class Dialogue:
    """A negotiation trajectory with optional terminal outcome."""

    id: str
    topic: Topic
    bounds: PriceBounds
    turns: tuple[Turn, ...]
    outcome: Optional[NegotiationOutcome] = None
    language: str = "en"
    error: Optional[str] = None

    def with_outcome(self, outcome: NegotiationOutcome) -> "Dialogue":
        return replace(self, outcome=outcome)


@dataclass(frozen=True)
class Exemplar:
    """A candidate ICL demonstration: (history, violating utterance, rewrite).

    ``latent_quality`` is a test-fixture field that drives the scripted
    bargaining oracle; production code paths never read it.
    """

    id: str
    history: tuple[Turn, ...]
    violation_text: str
    remediation_text: str
    rationale: Optional[str] = None
    latent_quality: Optional[float] = None


@dataclass(frozen=True)
class ExemplarSet:
    """An ordered set of exemplar ids with its estimated value impact."""

    members: tuple[str, ...]
    value_impact: Optional[float] = None

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError("exemplar set members must be distinct")


def format_money(minor_units: int) -> str:
    """Render minor units as a dollar string; whole amounts drop the cents."""
    if minor_units % 100 == 0:
        return f"${minor_units // 100}"
    return f"${minor_units / 100:.2f}"


# ---------------------------------------------------------------------------
# Validation


# A turn with the rules it breaks on its own, wherever it stands.
Checked = tuple[Turn, tuple[str, ...]]


def _check_turn(t: Turn) -> Checked:
    problems: list[str] = []
    if not t.text:
        problems.append("empty text")
    if t.original_text is not None and not t.violation:
        problems.append("original_text present but violation=false")
    if t.violation and t.speaker is not Speaker.SELLER:
        problems.append("violation flagged on non-seller turn")
    return t, tuple(problems)


def _check_run(items: Iterable, check: Callable[..., Checked]) -> tuple[tuple[Turn, ...], list[str]]:
    """The rules every stored run of turns obeys, dialogues and histories
    alike: each turn's own (``check`` maps an item to its turn and those),
    then strict alternation. Returns the turns and every broken rule."""
    turns: list[Turn] = []
    problems: list[str] = []
    prev = None
    for i, item in enumerate(items):
        t, own = check(item)
        if own:
            problems.extend(f"turn {i}: {p}" for p in own)
        if t.speaker is prev:
            problems.append(f"turn {i}: speakers must strictly alternate")
        prev = t.speaker
        turns.append(t)
    return tuple(turns), problems


def _opener_problems(turns: tuple[Turn, ...]) -> list[str]:
    problems: list[str] = []
    if turns and turns[0].speaker is not Speaker.BUYER:
        problems.append("turn 0: dialogue must open with the buyer")
    if len(turns) >= 2 and turns[1].speaker is not Speaker.SELLER:
        problems.append("turn 1: second turn must be the seller opener")
    return problems


def validate_dialogue(d: Dialogue) -> list[str]:
    """Return a list of invariant violations; empty means the dialogue is ok."""
    return _check_run(d.turns, _check_turn)[1] + _opener_problems(d.turns)


# ---------------------------------------------------------------------------
# JSONL IO


def _turn_to_obj(t: Turn) -> dict:
    obj: dict = {"speaker": t.speaker.value, "text": t.text, "violation": t.violation}
    if t.original_text is not None:
        obj["original_text"] = t.original_text
    return obj


_SPEAKERS = {s.value: s for s in Speaker}

# The most turns one file's intern table holds. A scripted corpus has a few
# dozen distinct turns; a remote one repeats almost none, and an unbounded
# table would keep a key and an entry alive for each of its turns.
_INTERN_LIMIT = 1024


def _turn_decoder() -> Callable[[dict], Checked]:
    """Decode turn records to checked turns, building and checking each
    distinct record once: equal records share one frozen ``Turn``, up to
    ``_INTERN_LIMIT`` of them. Only string texts are interned, since 1, 1.0
    and true are equal keys."""
    table: dict[tuple, Checked] = {}

    def decode(obj: dict) -> Checked:
        raw = obj["speaker"]
        try:
            speaker = _SPEAKERS[raw]
        except (KeyError, TypeError):
            speaker = Speaker(raw)  # raises the enum's own error
        key = (speaker, obj["text"], bool(obj.get("violation", False)), obj.get("original_text"))
        if type(key[1]) is not str or not (key[3] is None or type(key[3]) is str):
            return _check_turn(Turn(*key))
        checked = table.get(key)
        if checked is None:
            checked = _check_turn(Turn(*key))
            if len(table) < _INTERN_LIMIT:
                table[key] = checked
        return checked

    return decode


def _decode_turns(objs: list[dict], decode: Callable[[dict], Checked]) -> tuple[Turn, ...]:
    if not all(isinstance(obj, dict) for obj in objs):
        raise CorpusError("every turn must be a JSON object")
    turns, problems = _check_run(objs, decode)
    if problems:
        raise CorpusError("; ".join(problems))
    return turns


def turns_from_objs(objs: list[dict]) -> tuple[Turn, ...]:
    """Decode a run of turn records, refusing it (``CorpusError``) unless it
    is a list of objects that obeys the turn rules: no empty text,
    ``original_text`` only on a violation, violations only on seller turns,
    alternating speakers."""
    return _decode_turns(objs, _turn_decoder())


def dialogue_to_obj(d: Dialogue) -> dict:
    """The JSON record of a dialogue, as one line of a corpus file holds it."""
    obj: dict = {
        "id": d.id,
        "topic": d.topic.value,
        "bounds": {
            "cost_price": d.bounds.cost_price,
            "seller_init": d.bounds.seller_init,
            "buyer_init": d.bounds.buyer_init,
        },
        "language": d.language,
        "turns": [_turn_to_obj(t) for t in d.turns],
    }
    if d.outcome is not None:
        out: dict = {
            "deal": d.outcome.deal,
            "trust_delta": d.outcome.trust_delta,
            "business_delta": d.outcome.business_delta,
        }
        if d.outcome.price is not None:
            out["price"] = d.outcome.price
        obj["outcome"] = out
    if d.error is not None:
        obj["error"] = d.error
    return obj


def _dialogue_from_obj(obj: dict, decode: Callable[[dict], Checked]) -> Dialogue:
    outcome = None
    if "outcome" in obj and obj["outcome"] is not None:
        o = obj["outcome"]
        outcome = NegotiationOutcome(
            deal=bool(o["deal"]),
            price=o.get("price"),
            trust_delta=int(o.get("trust_delta", 0)),
            business_delta=int(o.get("business_delta", 0)),
        )
    b = obj["bounds"]
    turns = _decode_turns(obj["turns"], decode)
    if problems := _opener_problems(turns):
        raise CorpusError("; ".join(problems))
    return Dialogue(
        id=obj["id"],
        topic=Topic(obj["topic"]),
        bounds=PriceBounds(
            cost_price=int(b["cost_price"]),
            seller_init=int(b["seller_init"]),
            buyer_init=int(b["buyer_init"]),
        ),
        turns=turns,
        outcome=outcome,
        language=obj.get("language", "en"),
        error=obj.get("error"),
    )


def _exemplar_to_obj(e: Exemplar) -> dict:
    obj: dict = {
        "id": e.id,
        "history": [_turn_to_obj(t) for t in e.history],
        "violation_text": e.violation_text,
        "remediation_text": e.remediation_text,
    }
    if e.rationale is not None:
        obj["rationale"] = e.rationale
    if e.latent_quality is not None:
        obj["latent_quality"] = e.latent_quality
    return obj


def _exemplar_from_obj(obj: dict, decode: Callable[[dict], Checked]) -> Exemplar:
    if not obj["violation_text"] or not obj["remediation_text"]:
        raise CorpusError("empty text in violation_text or remediation_text")
    return Exemplar(
        id=obj["id"],
        history=_decode_turns(obj["history"], decode),
        violation_text=obj["violation_text"],
        remediation_text=obj["remediation_text"],
        rationale=obj.get("rationale"),
        latent_quality=obj.get("latent_quality"),
    )


Record = TypeVar("Record", Dialogue, Exemplar)


def _load_jsonl(path: str | Path, from_obj: Callable[[dict, Callable], Record]) -> list[Record]:
    """Decode every non-blank line of a JSON-lines file; ids must be unique.
    Equal turns across the file share one ``Turn``."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    records: list[Record] = []
    seen: set[str] = set()
    decode = _turn_decoder()
    with path.open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = from_obj(json.loads(line), decode)
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if record.id in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate id {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def _dump_jsonl(objs: Iterable[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            f.write("\n")


def load_dialogues(path: str | Path) -> list[Dialogue]:
    """Load a JSON-lines dialogue corpus, validating every record."""
    return _load_jsonl(path, _dialogue_from_obj)


def dump_dialogues(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    _dump_jsonl(map(dialogue_to_obj, dialogues), path)


def load_exemplars(path: str | Path) -> list[Exemplar]:
    """Load a JSON-lines exemplar pool, validating every record."""
    return _load_jsonl(path, _exemplar_from_obj)


def dump_exemplars(pool: Iterable[Exemplar], path: str | Path) -> None:
    _dump_jsonl(map(_exemplar_to_obj, pool), path)
