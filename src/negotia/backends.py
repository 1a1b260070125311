"""Agent backends.

Two kinds: a remote OpenAI-compatible chat-completions client with a
persistent on-disk response cache, and a deterministic scripted bargaining
world that stands in for the role-playing LLM agents at desk scale.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .core import NegotiationOutcome, PriceBounds, encodable, format_money

__all__ = [
    "BackendSession",
    "BackendError",
    "NetworkError",
    "ContentFilterError",
    "chat",
    "ScriptedWorld",
    "BargainState",
    "bargain_move",
    "scripted_step",
    "scripted_outcome",
    "scripted_remediation_text",
    "scripted_violation_text",
    "remediation_quality",
    "derive_seed",
]

API_KEY_ENV = "NEGOTIA_API_KEY"

# Quality tag parsed by the scripted world from remediation texts. The tag is
# how remediation strength flows from the remediator back into the oracle.
# Only a decimal number is a quality: "[q=.]" or "[q=1.2.3]" is no tag.
_QUALITY_TAG = re.compile(r"\[q=([0-9]+(?:\.[0-9]*)?|\.[0-9]+)\]")


class BackendError(Exception):
    """Base class for backend failures."""


class NetworkError(BackendError):
    """Transport-level failure after exhausting retries."""


class ContentFilterError(BackendError):
    """Provider refused the request; the caller may mark the turn and go on."""


@dataclass(frozen=True)
class BackendSession:
    """Handle to an agent backend plus its generation parameters."""

    kind: str  # "remote" | "scripted"
    endpoint: Optional[str] = None
    model_name: Optional[str] = None
    temperature: float = 1.0
    max_tokens: int = 256
    cache_dir: Optional[str | os.PathLike] = None
    retries: int = 3
    backoff_base: float = 1.0
    transport: Optional[Callable[[dict], dict]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "scripted"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.kind == "remote" and (self.endpoint is None or self.model_name is None):
            raise ValueError("remote sessions need endpoint and model_name")


def derive_seed(base: int, *parts: object) -> int:
    """Stable 64-bit seed derived from a base seed and any hashable parts.

    Uses sha256 rather than hash() so results are identical across processes
    and worker counts.
    """
    h = hashlib.sha256(repr((base,) + parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


# ---------------------------------------------------------------------------
# Remote chat client

# The cache key's encoder, built once: its output equals
# json.dumps(body, sort_keys=True, ensure_ascii=False).
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def _http_transport(session: BackendSession) -> Callable[[dict], dict]:
    import requests

    def post(body: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = session.endpoint.rstrip("/") + "/chat/completions"
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=60)
        except requests.RequestException as exc:
            raise NetworkError(str(exc)) from exc
        if resp.status_code in (408, 429) or resp.status_code >= 500:  # may pass on a retry
            raise NetworkError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        if resp.status_code != 200:  # any other refusal would be refused again
            raise BackendError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise NetworkError(f"unreadable response body: {exc}") from exc

    return post


def chat(session: BackendSession, messages: list[dict]) -> str:
    """Run one chat completion, serving repeats from the on-disk cache.

    Cache entries are content-addressed by a digest of the canonical
    serialization of the request body (model, generation params, messages);
    a hit is one read of the bytes of ``<digest>.json``, decoded as strict
    UTF-8, whose ``content`` must be a string that UTF-8 can encode, as a
    reply's must.
    Each writer renames its own temp file into place, so concurrent writers
    of one key never collide; the last rename wins with identical contents.
    Only a transport's ``NetworkError`` is retried; a malformed response or
    cache entry raises ``BackendError``.
    """
    if session.kind != "remote":
        raise BackendError("chat requires a remote session")
    if not messages:
        raise BackendError("messages must be non-empty")

    body = {
        "model": session.model_name,
        "temperature": session.temperature,
        "max_tokens": session.max_tokens,
        "messages": messages,
    }
    digest = hashlib.sha256(_KEY_ENCODER.encode(body).encode("utf-8")).hexdigest()
    cache_path = None
    if session.cache_dir is not None:
        cache_path = os.path.join(session.cache_dir, f"{digest}.json")
        try:
            # One unbuffered read of the bytes, decoded as strict UTF-8 first:
            # json.loads of bytes would take UTF-16/32 and a UTF-8 BOM too.
            with open(cache_path, "rb", buffering=0) as entry:
                content = json.loads(entry.read().decode("utf-8"))["content"]
        except FileNotFoundError:
            pass  # a miss: ask the transport
        except (OSError, ValueError, KeyError, TypeError) as exc:  # a directory, say, or bytes that are not UTF-8
            raise BackendError(f"unreadable cache entry {cache_path}: {exc!r}") from exc
        else:
            if isinstance(content, str) and encodable(content):
                return content
            raise BackendError(f"unreadable cache entry {cache_path}: content {content!r} is not UTF-8 text")

    transport = session.transport or _http_transport(session)

    last_exc: Optional[NetworkError] = None
    for attempt in range(session.retries + 1):
        try:
            data = transport(body)
            break
        except NetworkError as exc:
            last_exc = exc
            if attempt < session.retries:
                time.sleep(session.backoff_base * (2**attempt))
    else:
        raise NetworkError(f"chat failed after {session.retries + 1} attempts: {last_exc}")

    try:
        choice = data["choices"][0]
        if choice.get("finish_reason") == "content_filter":
            raise ContentFilterError("provider content filter refused the completion")
        content = choice["message"]["content"]
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise BackendError(f"malformed provider response: {exc!r}") from exc
    if not isinstance(content, str):
        raise BackendError(f"malformed provider response: content is {content!r}")
    if not encodable(content):
        raise BackendError("malformed provider response: content holds a lone surrogate")

    if cache_path is not None:
        os.makedirs(session.cache_dir, exist_ok=True)
        tmp = os.path.join(session.cache_dir, f"{digest}.tmp{os.getpid()}-{threading.get_ident()}")
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(json.dumps({"content": content}, ensure_ascii=False))
            os.replace(tmp, cache_path)
        finally:  # gone already once it replaced the entry
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    return content


# ---------------------------------------------------------------------------
# Scripted bargaining world


@dataclass(frozen=True)
class ScriptedWorld:
    """Deterministic concession-bargaining rules standing in for LLM agents.

    Goodwill starts at 2 and scales the buyer's concession speed through
    goodwill_factor = max(g, 0) / 2. A violation costs one point of goodwill;
    a remediation of quality q restores q, so the oracle's reward is
    continuous in remediation quality and value comparisons are strict. The
    bargain closes once the gap is within close_tolerance, and ends without
    a deal once goodwill is spent.
    """

    bounds: PriceBounds
    concession_buyer: float = 0.3
    concession_seller: float = 0.3
    goodwill: float = 2.0
    close_tolerance: int = 50

    def __post_init__(self) -> None:
        if not (0.0 < self.concession_buyer < 1.0 and 0.0 < self.concession_seller < 1.0):
            raise ValueError("concession rates must lie in (0, 1)")
        if not (0.0 < self.goodwill < math.inf):
            raise ValueError(f"goodwill must be finite and above 0, not {self.goodwill!r}")
        if self.close_tolerance < 0:
            raise ValueError(f"close_tolerance must be at least 0, not {self.close_tolerance!r}")


@dataclass(slots=True)
class BargainState:
    """Mutable rollout state; confined to a single rollout worker."""

    bid: float
    ask: float
    goodwill: float
    terminal: bool = False
    deal: bool = False
    pending_ask: Optional[float] = None
    remediation_qualities: list[float] = field(default_factory=list)
    unremediated_violations: int = 0

    @classmethod
    def initial(cls, world: ScriptedWorld) -> "BargainState":
        return cls(
            bid=float(world.bounds.buyer_init),
            ask=float(world.bounds.seller_init),
            goodwill=world.goodwill,
        )


# A policy's scripted rewrite is one text for every probe point it is
# scored on, so each value-impact estimate parses it once.
@lru_cache(maxsize=16)
def remediation_quality(text: str) -> float:
    """Extract the scripted quality tag from a remediation; a text with no
    decimal ``[q=...]`` tag reads as 0."""
    m = _QUALITY_TAG.search(text)
    if not m:
        return 0.0
    return min(max(float(m.group(1)), 0.0), 1.0)


def scripted_remediation_text(quality: float) -> str:
    """Canned remediation whose strength the scripted world can read back."""
    quality = min(max(quality, 0.0), 1.0)
    return (
        "I understand your position; let us look for a price that works "
        f"for both sides. [q={quality:.6f}]"
    )


def scripted_violation_text(ask: float) -> str:
    """The scripted seller's norm-violating rendering of its ask."""
    return (
        f"How can you be so unreasonable? We will not go below {format_money(round(ask))}. "
        "Take it or leave it!"
    )


def bargain_move(
    world: ScriptedWorld,
    state: BargainState,
    role: str,
    violation: bool = False,
    quality: Optional[float] = None,
) -> None:
    """Apply one turn of the given role to the bargain state.

    The buyer move for a round must precede the seller move; the pending bid
    and ask are computed together at the buyer move, from the previous
    round's numbers, so both move simultaneously. A seller violation
    decrements goodwill by one; a remediation of the given quality restores
    that quality, and a violation without one counts as unremediated. The
    seller move ends the bargain: with a deal when the gap has closed,
    without one when goodwill is spent.
    """
    if state.terminal:
        raise BackendError("scripted world stepped after terminal state")

    # Each field is read once: the rollouts of value impact make these moves.
    if role == "buyer":
        bid, ask, goodwill = state.bid, state.ask, state.goodwill
        gap = ask - bid
        factor = (0.0 if 0.0 > goodwill else goodwill) / 2.0  # max(goodwill, 0.0), -0.0 and NaN alike
        state.bid = bid + world.concession_buyer * gap * factor
        state.pending_ask = ask - world.concession_seller * gap
        return

    if role != "seller":
        raise BackendError(f"unknown scripted role: {role}")

    ask = state.pending_ask
    if ask is None:
        ask = state.ask
    else:
        state.ask = ask
        state.pending_ask = None
    goodwill = state.goodwill
    if violation:
        goodwill -= 1.0
        if quality is not None:
            goodwill += quality
            state.remediation_qualities.append(quality)
        else:
            state.unremediated_violations += 1
        state.goodwill = goodwill

    # Close rule, evaluated after the seller's number lands.
    bid = state.bid
    state.deal = deal = ask - bid <= world.close_tolerance or bid >= ask
    state.terminal = deal or goodwill <= 0.0


def scripted_step(
    world: ScriptedWorld,
    state: BargainState,
    role: str,
) -> str:
    """Apply ``bargain_move``, then say the role's scripted line. A seller
    violation is no step: it lands through ``bargain_move`` directly."""
    bargain_move(world, state, role)
    if role == "buyer":
        return (
            f"Would you consider selling at {format_money(round(state.bid))} per unit? "
            "That price would work well for us."
        )
    return (
        f"Considering our costs, we can come down to {format_money(round(state.ask))} per unit. "
        "We value a long-term relationship with you."
    )


# A bargain that never closed; outcomes are frozen, so every one is this.
_NO_DEAL = NegotiationOutcome(False, None, -1, -1)


def scripted_outcome(world: ScriptedWorld, state: BargainState) -> NegotiationOutcome:
    """Assess a bargain state; one that never closed has no deal.

    Unremediated violations count as quality 0 in the mean; a dialogue with
    no violations at all is treated as mean quality 1 (vacuous mean).
    """
    if not state.deal:
        return _NO_DEAL

    qualities, unremediated = state.remediation_qualities, state.unremediated_violations
    n = len(qualities) + unremediated
    mean_q = sum(qualities) / n if n else 1.0  # the zeros add nothing to the sum
    price = round((state.bid + state.ask) / 2.0)
    if unremediated > 0:
        trust = -1
    elif mean_q >= 1.0:
        trust = 1
    else:
        trust = 0
    business = 1 if mean_q >= 0.5 else 0
    return NegotiationOutcome(True, price, trust, business)
