"""Domain types, validation, and dataset IO for dialogues and exemplar pools.

Money is stored as integer minor units (cents) throughout, so price
comparisons never suffer float drift. All types are frozen dataclasses and
safe to share between workers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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
    "encodable",
    "validate_dialogue",
    "turns_from_objs",
    "dialogue_to_obj",
    "load_dialogues",
    "dump_dialogues",
    "load_exemplars",
    "dump_exemplars",
    "write_whole",
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

    ``latent_quality`` drives the scripted oracle: ``filter`` and ``search``
    read it in ``RemediationPolicy.scripted_quality`` on every estimate.
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
    if type(t.text) is not str:
        problems.append("text must be a string")
    elif not t.text:
        problems.append("empty text")
    elif not encodable(t.text):
        problems.append("text holds a lone surrogate")
    if type(t.violation) is not bool:
        problems.append("violation must be true or false")
    if t.original_text is not None:
        if type(t.original_text) is not str:
            problems.append("original_text must be a string or null")
        if not t.violation:
            problems.append("original_text present but violation=false")
        if not encodable(t.original_text):
            problems.append("original_text holds a lone surrogate")
    if t.violation and t.speaker is not Speaker.SELLER:
        problems.append("violation flagged on non-seller turn")
    return t, tuple(problems)


def encodable(text: object) -> bool:
    """Whether UTF-8 can encode ``text``, when it is a str. A str can hold a
    lone surrogate, which JSON's "\\ud83d" decodes to, and UTF-8 cannot."""
    if type(text) is not str or text.isascii():
        return True
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


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


# Each record line is what json.dumps(obj, ensure_ascii=False, sort_keys=True)
# writes for the record's object, and one encoder writes every line.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_encode_str = json.encoder.encode_basestring  # how _ENCODER writes a string

_SPEAKERS = {s.value: s for s in Speaker}
_TOPICS = {t.value: t for t in Topic}

# json.loads reads a text that neither starts nor ends with whitespace as the
# value _scan(text, 0) returns when that scan ends at len(text), and refuses
# it otherwise; it only adds those checks around the same scanner.
_scan = json.JSONDecoder().scan_once

# The most entries one file's intern table holds. A scripted corpus has a few
# dozen distinct turns; a remote one repeats almost none, and an unbounded
# table would keep a key and an entry alive for each of its turns.
_INTERN_LIMIT = 1024


def _interner(build: Callable) -> Callable:
    """``share(*fields)``: ``build(*fields)``, where equal fields share one
    result, up to ``_INTERN_LIMIT`` of them. Callers check the fields' exact
    types first, since 1, 1.0 and true are equal keys."""
    table: dict[tuple, object] = {}

    def share(*fields):
        obj = table.get(fields)
        if obj is None:
            obj = build(*fields)
            if len(table) < _INTERN_LIMIT:
                table[fields] = obj
        return obj

    return share


def _turn_to_obj(t: Turn) -> dict:
    obj: dict = {"speaker": t.speaker.value, "text": t.text, "violation": t.violation}
    if t.original_text is not None:
        obj["original_text"] = t.original_text
    return obj


def _turn_encoder() -> Callable[[Turn], str]:
    """Encode turns as ``_ENCODER`` encodes their records, building each
    distinct turn's text once: equal turns share one string, up to
    ``_INTERN_LIMIT`` of them. Only turns whose fields have their declared
    types are keyed, since 1, 1.0 and true are equal keys; the encoder
    writes any other turn."""
    table: dict[tuple, str] = {}

    def encode(t: Turn) -> str:
        key = speaker, text, violation, original = t.speaker, t.text, t.violation, t.original_text
        if (type(speaker) is not Speaker or type(text) is not str or type(violation) is not bool
                or not (original is None or type(original) is str)):
            return _ENCODER.encode(_turn_to_obj(t))
        line = table.get(key)
        if line is None:
            # The record's keys in sorted order, each string written as
            # _ENCODER writes it.
            line = (
                ("{" if original is None else '{"original_text": ' + _encode_str(original) + ", ")
                + '"speaker": ' + _encode_str(speaker)
                + ', "text": ' + _encode_str(text)
                + (', "violation": true}' if violation else ', "violation": false}')
            )
            if len(table) < _INTERN_LIMIT:
                table[key] = line
        return line

    return encode


def _turn_decoder() -> Callable[[dict], Checked]:
    """Decode turn records to checked turns, building and checking each
    distinct record once: equal records share one frozen ``Turn``, up to
    ``_INTERN_LIMIT`` of them. Only records whose fields have their declared
    types are interned, since 1, 1.0 and true are equal keys; any other is
    returned with its type problems."""
    table: dict[tuple, Checked] = {}

    def decode(obj: dict) -> Checked:
        raw = obj["speaker"]
        try:
            speaker = _SPEAKERS[raw]
        except (KeyError, TypeError):
            speaker = Speaker(raw)  # raises the enum's own error
        key = (speaker, obj["text"], obj.get("violation", False), obj.get("original_text"))
        if type(key[1]) is not str or type(key[2]) is not bool or not (key[3] is None or type(key[3]) is str):
            return _check_turn(Turn(*key))
        checked = table.get(key)
        if checked is None:
            checked = _check_turn(Turn(*key))
            if len(table) < _INTERN_LIMIT:
                table[key] = checked
        return checked

    return decode


def _decode_turns(objs: list[dict], decode: Callable[[dict], Checked]) -> tuple[Turn, ...]:
    try:
        turns, problems = _check_run(objs, decode)
    except (KeyError, TypeError, ValueError):
        # A record that is not an object fails to decode; name that first.
        if not all(isinstance(obj, dict) for obj in objs):
            raise CorpusError("every turn must be a JSON object") from None
        raise
    if problems:
        raise CorpusError("; ".join(problems))
    return turns


def turns_from_objs(objs: list[dict]) -> tuple[Turn, ...]:
    """Decode a run of turn records, refusing it (``CorpusError``) unless it
    is a list of objects that obeys the turn rules: no empty text,
    ``original_text`` only on a violation, violations only on seller turns,
    alternating speakers."""
    return _decode_turns(objs, _turn_decoder())


def _record_id(obj: dict) -> str:
    rid = obj["id"]
    if type(rid) is not str:
        raise CorpusError("id must be a string")
    if not encodable(rid):
        raise CorpusError("id holds a lone surrogate")
    return rid


def _dialogue_obj(d: Dialogue, turns: list) -> dict:
    obj: dict = {
        "id": d.id,
        "topic": d.topic.value,
        "bounds": {
            "cost_price": d.bounds.cost_price,
            "seller_init": d.bounds.seller_init,
            "buyer_init": d.bounds.buyer_init,
        },
        "language": d.language,
        "turns": turns,
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


def dialogue_to_obj(d: Dialogue) -> dict:
    """The JSON record of a dialogue, as one line of a corpus file holds it."""
    return _dialogue_obj(d, [_turn_to_obj(t) for t in d.turns])


def _outcome_fields(o: dict) -> tuple:
    deal, price = o["deal"], o.get("price")
    trust, business = o.get("trust_delta", 0), o.get("business_delta", 0)
    if type(deal) is not bool:
        raise CorpusError("outcome deal must be true or false")
    if deal and (type(price) is not int or not abs(price) <= sys.float_info.max):
        raise CorpusError("a deal's price must be an integer that a float can hold")
    if not deal and price is not None:
        raise CorpusError("an outcome without a deal has no price")
    if not (type(trust) is type(business) is int):
        raise CorpusError("trust_delta and business_delta must be integers")
    return deal, price, trust, business


# A line that dump_dialogues or dump_exemplars writes holds the record's run
# of turns at a fixed place. A dialogue line is its other keys, _TURNS_HEAD,
# the run, then "]}": "turns" sorts last among a dialogue record's keys. An
# exemplar line is _HISTORY_HEAD, the run, then _HISTORY_END: "history" sorts
# first among an exemplar record's keys and "id", always present, second.
# So a line the splitters cut is exactly the object of its other keys with
# the run spliced in as one more member, and when both parts parse on their
# own, JSON's object grammar makes the line their union: the loaders need not
# know how a writer encodes a turn.
_TURNS_HEAD = ', "turns": ['
_HISTORY_HEAD = '{"history": ['
_HISTORY_END = '], "id": '
# dump_dialogues finds a record's id right after the first _ID_KEY in its
# encoding: "id" is never a dialogue record's first key, since "bounds" sorts
# before it, and an encoded string escapes every quote it holds.
_ID_KEY = ', "id": '

# The lines a file's loader reads without finding a repeated run before it
# stops looking. Where runs do not repeat past the openers, each look costs a
# split, a second parse and a stored run for nothing: with every turn after
# the openers made distinct, the benchmark's seed-1 corpus loaded in 116-117
# ms with the stop against 134-137 ms without it, and its pool in 117-118
# against 134-137 ms (best of 15, 2-core VM), the corpus with a traced peak of
# 9.3 against 10.8 MB.
_PROBE_LINES = 64

Record = TypeVar("Record", Dialogue, Exemplar)


def _split_dialogue(line: str) -> Optional[tuple[str, str]]:
    """A dialogue line's run text and the JSON text of its other keys, when
    the line has the shape dump_dialogues writes."""
    start = line.find(_TURNS_HEAD)
    if start < 0 or not line.endswith("]}"):
        return None
    return line[start + len(_TURNS_HEAD) : -2], line[:start] + "}"


def _split_exemplar(line: str) -> Optional[tuple[str, str]]:
    """An exemplar line's history text and the JSON text of its other keys,
    when the line has the shape dump_exemplars writes."""
    end = line.find(_HISTORY_END) if line.startswith(_HISTORY_HEAD) else -1
    if end < 0:
        return None
    return line[len(_HISTORY_HEAD) : end], "{" + line[end + 3 :]  # past "], "


def _run_reader(
    key: str, split: Callable[[str], Optional[tuple[str, str]]], fields: Callable[..., Record]
) -> Callable[[str], Record]:
    """``decode(line)``: ``fields(json.loads(line))``, except that the lines
    ``split`` cuts into a run text (the record's ``key``) and the text of
    their other keys share one tuple per distinct run text, decoded and
    checked once, up to ``_INTERN_LIMIT`` of them: a repeat parses only its
    other keys and passes the run as ``fields(obj, run)``. By the JSON
    grammar, when the other keys parse alone to a non-empty object without
    ``key`` and ``"[" + text + "]"`` parses alone, the line is that object
    with the run under ``key``, whatever writer wrote it; a line whose parts
    do not is read whole. A file whose first ``_PROBE_LINES`` lines repeat
    no run is read without looking."""
    runs: dict[str, tuple[Turn, ...]] = {}
    read, hit = 0, False

    def decode(line: str) -> Record:
        nonlocal read, hit
        read += 1
        cut = split(line) if hit or read <= _PROBE_LINES else None
        if cut is None:
            return fields(json.loads(line))
        text, rest = cut
        try:
            obj, end = _scan(rest, 0)
        except (StopIteration, ValueError):
            obj, end = None, 0
        if end != len(rest) or type(obj) is not dict or not obj or key in obj:
            # not one object to splice the run into, or one with a second run key
            return fields(json.loads(line))
        run = runs.get(text)
        if run is not None:
            hit = True
            return fields(obj, run)
        try:
            obj[key] = json.loads("[" + text + "]")
        except ValueError:
            return fields(json.loads(line))
        record = fields(obj)  # a new run's errors come in the whole-line order
        if len(runs) < _INTERN_LIMIT:
            runs[text] = getattr(record, key)
        return record

    return decode


def _dialogue_decoder() -> Callable[[str], Dialogue]:
    """Decode dialogue lines under the file's rules; equal turns, bounds
    and outcomes across the records share one object each, and so do equal
    turn runs (``_run_reader``)."""
    decode_turn = _turn_decoder()
    share_bounds = _interner(PriceBounds)
    share_outcome = _interner(NegotiationOutcome)

    def fields(obj: dict, turns: Optional[tuple[Turn, ...]] = None) -> Dialogue:
        did = _record_id(obj)
        b = obj["bounds"]
        cost, seller, buyer = b["cost_price"], b["seller_init"], b["buyer_init"]
        if not (type(cost) is type(seller) is type(buyer) is int):
            raise CorpusError("bounds must be integers")
        outcome = obj.get("outcome")
        if outcome is not None:
            outcome = share_outcome(*_outcome_fields(outcome))
        language, error = obj.get("language", "en"), obj.get("error")
        if type(language) is not str or not (error is None or type(error) is str):
            raise CorpusError("language must be a string, and error a string or null")
        if turns is None:
            turns = _decode_turns(obj["turns"], decode_turn)
            if problems := _opener_problems(turns):
                raise CorpusError("; ".join(problems))
        raw = obj["topic"]
        try:
            topic = _TOPICS[raw]
        except (KeyError, TypeError):
            topic = Topic(raw)  # raises the enum's own error
        return Dialogue(did, topic, share_bounds(cost, seller, buyer), turns, outcome, language, error)

    return _run_reader("turns", _split_dialogue, fields)


def _exemplar_obj(e: Exemplar, history: list) -> dict:
    obj: dict = {
        "id": e.id,
        "history": history,
        "violation_text": e.violation_text,
        "remediation_text": e.remediation_text,
    }
    if e.rationale is not None:
        obj["rationale"] = e.rationale
    if e.latent_quality is not None:
        obj["latent_quality"] = e.latent_quality
    return obj


def _exemplar_decoder() -> Callable[[str], Exemplar]:
    """Decode exemplar lines under the file's rules; equal history turns
    across the records share one ``Turn``, and equal histories one tuple
    (``_run_reader``)."""
    decode_turn = _turn_decoder()

    def fields(obj: dict, history: Optional[tuple[Turn, ...]] = None) -> Exemplar:
        eid = _record_id(obj)
        violation, remediation = obj["violation_text"], obj["remediation_text"]
        rationale, quality = obj.get("rationale"), obj.get("latent_quality")
        if not (type(violation) is type(remediation) is str and (rationale is None or type(rationale) is str)):
            raise CorpusError("violation_text, remediation_text and rationale must be strings")
        if not violation or not remediation:
            raise CorpusError("empty text in violation_text or remediation_text")
        if not (encodable(violation) and encodable(remediation) and encodable(rationale)):
            raise CorpusError("violation_text, remediation_text or rationale holds a lone surrogate")
        if quality is not None and type(quality) is not float and type(quality) is not int:
            raise CorpusError("latent_quality must be a number")
        if quality is not None and not abs(quality) <= sys.float_info.max:  # false for NaN too
            raise CorpusError("latent_quality must be a finite number")
        if history is None:
            history = _decode_turns(obj["history"], decode_turn)
        return Exemplar(eid, history, violation, remediation, rationale, quality)

    return _run_reader("history", _split_exemplar, fields)


def _load_jsonl(path: str | Path, decoder: Callable[[], Callable[[str], Record]]) -> list[Record]:
    """Decode every non-blank line of a JSON-lines file with one ``decoder()``
    for the file; ids must be unique. Only JSON's own whitespace is blank."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    records: list[Record] = []
    seen: set[str] = set()
    decode = decoder()
    try:
        with path.open(encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip(" \t\r\n")
                if not line:
                    continue
                try:
                    record = decode(line)
                except CorpusError as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from exc
                except (ValueError, KeyError, TypeError) as exc:
                    raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
                if record.id in seen:
                    raise CorpusError(f"{path}:{lineno}: duplicate id {record.id!r}")
                seen.add(record.id)
                records.append(record)
    except UnicodeDecodeError as exc:  # raised by the reader, a chunk at a time
        raise CorpusError(f"{path}: not a UTF-8 file: {exc}") from exc
    return records


def write_whole(lines: Iterable[str], path: str | Path) -> None:
    """Write ``lines`` to ``path`` whole or not at all: they go to a new file
    beside it, which replaces it only once the last line is written and takes
    the mode of the file it replaces. It is not synced to disk, so this holds
    for a write that fails, not for a crash. A path that exists but is not a
    regular file, such as ``/dev/null``, is written in place, since replacing
    it would put a file where a device was."""
    target = Path(path).resolve()  # through a symlink, as open() writes
    if target.exists() and not target.is_file():
        with target.open("w", encoding="utf-8") as f:
            f.writelines(lines)
        return
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        f = tmp.open("w", encoding="utf-8")
    except OSError as exc:  # name the path asked for, as open(path) would
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            if target.exists():
                shutil.copymode(target, tmp)
            f.writelines(lines)
        os.replace(tmp, target)
    finally:  # gone already once it replaced the target
        tmp.unlink(missing_ok=True)


def _id_spliced(
    records: Iterable[Record], encode: Callable[[Record], str], at: str, key: Callable[[Record], Optional[tuple]]
) -> Iterator[tuple[Record, str]]:
    """Each record with ``encode(record)``, a text that holds the record's id
    right after the first ``at``. Records whose ``key`` is equal share the
    text around their id, cut from the first one's encoding, so that a
    repeat only encodes its id, up to ``_INTERN_LIMIT`` keys. A record whose
    id is not a string, or whose ``key`` is None since a field has not its
    declared type, is encoded whole, and so is every record of a new key
    once the table is full."""
    table: dict[tuple, tuple[str, str]] = {}
    for r in records:
        k = key(r) if type(r.id) is str else None
        cut = None if k is None else table.get(k)
        if cut is not None:
            yield r, cut[0] + _encode_str(r.id) + cut[1]
            continue
        text = encode(r)
        if k is not None and len(table) < _INTERN_LIMIT:
            start = text.index(at) + len(at)
            table[k] = text[:start], text[start + len(_encode_str(r.id)) :]
        yield r, text


def _dialogue_head_key(d: Dialogue) -> Optional[tuple]:
    """What a dialogue's head holds apart from its id and turns, when each
    field has exactly its declared type: 1, 1.0 and true are equal keys."""
    b, o = d.bounds, d.outcome
    key = topic, language, error, cost, seller, buyer = (
        d.topic, d.language, d.error, b.cost_price, b.seller_init, b.buyer_init
    )
    if not (type(topic) is Topic and type(language) is str
            and (error is None or type(error) is str) and type(cost) is type(seller) is type(buyer) is int):
        return None
    if o is None:
        return key
    deal, price, trust, business = o.deal, o.price, o.trust_delta, o.business_delta
    if not (type(deal) is bool and (price is None or type(price) is int) and type(trust) is type(business) is int):
        return None
    return key + (deal, price, trust, business)


def _exemplar_tail_key(e: Exemplar) -> Optional[tuple]:
    """An exemplar's fields after its id, when each has exactly its declared
    type; a float ``latent_quality`` is never keyed, since -0.0 and 0.0 are
    equal keys."""
    key = violation, remediation, rationale, quality = (
        e.violation_text, e.remediation_text, e.rationale, e.latent_quality
    )
    if (type(violation) is type(remediation) is str
            and (rationale is None or type(rationale) is str) and (quality is None or type(quality) is int)):
        return key
    return None


def load_dialogues(path: str | Path) -> list[Dialogue]:
    """Load a JSON-lines dialogue corpus, validating every record."""
    return _load_jsonl(path, _dialogue_decoder)


def dump_dialogues(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    """Write a corpus, one dialogue record per line, writing each distinct
    turn's text once and each distinct head around its id once."""
    encode = _turn_encoder()
    # "turns" is the record's last key: the encoding ends with the marker and "]}".
    heads = _id_spliced(dialogues, lambda d: _ENCODER.encode(_dialogue_obj(d, []))[: -len(_TURNS_HEAD) - 2],
                        _ID_KEY, _dialogue_head_key)
    write_whole((head + _TURNS_HEAD + ", ".join(map(encode, d.turns)) + "]}\n" for d, head in heads), path)


def load_exemplars(path: str | Path) -> list[Exemplar]:
    """Load a JSON-lines exemplar pool, validating every record."""
    return _load_jsonl(path, _exemplar_decoder)


def dump_exemplars(pool: Iterable[Exemplar], path: str | Path) -> None:
    """Write a pool, one exemplar record per line, writing each distinct
    history turn's text once and each distinct tail after the id once."""
    encode = _turn_encoder()
    # "history" is the record's first key and "id" its second: the encoding
    # starts with both markers.
    tails = _id_spliced(pool, lambda e: _ENCODER.encode(_exemplar_obj(e, []))[len(_HISTORY_HEAD) :],
                        _HISTORY_END, _exemplar_tail_key)
    write_whole((_HISTORY_HEAD + ", ".join(map(encode, e.history)) + tail + "\n" for e, tail in tails), path)
