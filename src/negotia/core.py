"""Domain types, validation, and dataset IO for dialogues and exemplar pools.

Money is stored as integer minor units (cents) throughout, so price
comparisons never suffer float drift. All types are frozen dataclasses and
safe to share between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

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


def _speakers_alternate(turns: Iterable[Turn]) -> bool:
    prev = None
    for t in turns:
        if prev is not None and t.speaker == prev:
            return False
        prev = t.speaker
    return True


def validate_dialogue(d: Dialogue) -> list[str]:
    """Return a list of invariant violations; empty means the dialogue is ok."""
    problems: list[str] = []
    for i, t in enumerate(d.turns):
        if not t.text:
            problems.append(f"turn {i}: empty text")
        if t.original_text is not None and not t.violation:
            problems.append(f"turn {i}: original_text present but violation=false")
        if t.violation and t.speaker is not Speaker.SELLER:
            problems.append(f"turn {i}: violation flagged on non-seller turn")
    if d.turns:
        if d.turns[0].speaker is not Speaker.BUYER:
            problems.append("turn 0: dialogue must open with the buyer")
        if len(d.turns) >= 2 and d.turns[1].speaker is not Speaker.SELLER:
            problems.append("turn 1: second turn must be the seller opener")
        if not _speakers_alternate(d.turns):
            problems.append("speakers must strictly alternate")
    return problems


# ---------------------------------------------------------------------------
# JSONL IO


def _turn_to_obj(t: Turn) -> dict:
    obj: dict = {"speaker": t.speaker.value, "text": t.text, "violation": t.violation}
    if t.original_text is not None:
        obj["original_text"] = t.original_text
    return obj


def _turn_from_obj(obj: dict) -> Turn:
    return Turn(
        speaker=Speaker(obj["speaker"]),
        text=obj["text"],
        violation=bool(obj.get("violation", False)),
        original_text=obj.get("original_text"),
    )


def _dialogue_to_obj(d: Dialogue) -> dict:
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


def _dialogue_from_obj(obj: dict) -> Dialogue:
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
    return Dialogue(
        id=obj["id"],
        topic=Topic(obj["topic"]),
        bounds=PriceBounds(
            cost_price=int(b["cost_price"]),
            seller_init=int(b["seller_init"]),
            buyer_init=int(b["buyer_init"]),
        ),
        turns=tuple(_turn_from_obj(t) for t in obj["turns"]),
        outcome=outcome,
        language=obj.get("language", "en"),
        error=obj.get("error"),
    )


def load_dialogues(path: str | Path) -> list[Dialogue]:
    """Load a JSON-lines dialogue corpus, validating every record."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    dialogues: list[Dialogue] = []
    with path.open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                d = _dialogue_from_obj(obj)
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
            problems = validate_dialogue(d)
            if problems:
                raise CorpusError(f"{path}:{lineno}: dialogue {d.id!r}: " + "; ".join(problems))
            dialogues.append(d)
    return dialogues


def dump_dialogues(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        for d in dialogues:
            f.write(json.dumps(_dialogue_to_obj(d), ensure_ascii=False, sort_keys=True))
            f.write("\n")


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


def _exemplar_from_obj(obj: dict) -> Exemplar:
    return Exemplar(
        id=obj["id"],
        history=tuple(_turn_from_obj(t) for t in obj["history"]),
        violation_text=obj["violation_text"],
        remediation_text=obj["remediation_text"],
        rationale=obj.get("rationale"),
        latent_quality=obj.get("latent_quality"),
    )


def load_exemplars(path: str | Path) -> list[Exemplar]:
    """Load a JSON-lines exemplar pool; ids must be unique within the file."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    pool: list[Exemplar] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                e = _exemplar_from_obj(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed exemplar: {exc}") from exc
            if not e.violation_text or not e.remediation_text:
                raise CorpusError(f"{path}:{lineno}: exemplar {e.id!r} has empty text fields")
            if not _speakers_alternate(e.history):
                raise CorpusError(f"{path}:{lineno}: exemplar {e.id!r} history does not alternate")
            if e.id in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate exemplar id {e.id!r}")
            seen.add(e.id)
            pool.append(e)
    return pool


def dump_exemplars(pool: Iterable[Exemplar], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        for e in pool:
            f.write(json.dumps(_exemplar_to_obj(e), ensure_ascii=False, sort_keys=True))
            f.write("\n")
