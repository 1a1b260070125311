"""Prompt template store and renderer for every agent role.

Templates ship as editable JSON files (one per template id) under the
package's ``templates/`` directory; an alternate directory can be supplied so
runs in other languages can swap the whole set. Substitution is byte-exact
literal replacement of the declared wildcards.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .core import Exemplar, Speaker, Turn, encodable

__all__ = [
    "WILDCARDS",
    "TEMPLATE_IDS",
    "PromptTemplate",
    "TemplateError",
    "TemplateStore",
    "render",
    "format_icl_block",
    "render_conversation",
    "exemplar_text",
]

WILDCARDS = (
    "$ICL-Examples",
    "$CONVERSATION",
    "$LAST_SENTENCE",
    "SELLER_INIT_PRICE",
    "COST_PRICE",
    "BUYER_INIT_PRICE",
)

# trust_eval/business_eval/deal_eval bind $CONVERSATION only; moderator and
# deal_eval have no printed source and are reconstructions.
TEMPLATE_IDS = (
    "seller_violate",
    "seller_normal",
    "buyer",
    "remediator",
    "trust_eval",
    "business_eval",
    "moderator",
    "deal_eval",
)


class TemplateError(Exception):
    """Unknown template id, missing binding, or malformed template file."""


# Splits a text at every wildcard name, longest name first, keeping the names.
_WILDCARD_SPLIT = re.compile(
    "(" + "|".join(map(re.escape, sorted(WILDCARDS, key=len, reverse=True))) + ")"
)


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    segments: tuple[dict, ...]  # ordered {role, content} messages
    # Found once, since a template never changes: each segment's role and its
    # content split at its wildcards, which stand at the odd indices; and the
    # set of wildcards the segments hold.
    parts: tuple[tuple[str, tuple[str, ...]], ...] = field(init=False, repr=False, compare=False)
    wildcards: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(
            (seg["role"], tuple(_WILDCARD_SPLIT.split(seg["content"]))) for seg in self.segments
        )
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "wildcards", frozenset(w for _, p in parts for w in p[1::2]))


class TemplateStore:
    """Read-only template collection, loaded once and safe to share."""

    def __init__(self, directory: Optional[Path] = None):
        self._templates: dict[str, PromptTemplate] = {}
        if directory is None:
            root = resources.files("negotia") / "templates"
        else:
            root = Path(directory)
        for tid in TEMPLATE_IDS:
            path = root / f"{tid}.json"
            try:
                obj = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError as exc:
                raise TemplateError(f"missing template file {path} for {tid!r}") from exc
            except ValueError as exc:  # not UTF-8, or not JSON
                raise TemplateError(f"{path}: not a UTF-8 JSON file: {exc}") from None
            raw = obj.get("segments") if isinstance(obj, dict) else None
            if not isinstance(raw, list) or not all(
                isinstance(s, dict) and type(s.get("role")) is type(s.get("content")) is str
                and encodable(s["role"] + s["content"]) for s in raw
            ):
                raise TemplateError(
                    f"{path}: expected an array 'segments' of objects with UTF-8 string 'role' and 'content'"
                )
            segments = tuple({"role": s["role"], "content": s["content"]} for s in raw)
            self._templates[tid] = PromptTemplate(id=tid, segments=segments)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError as exc:
            raise TemplateError(f"unknown template id: {template_id!r}") from exc


def render(template: PromptTemplate, bindings: dict[str, str]) -> list[dict]:
    """Substitute wildcards into a template, preserving message order.

    Every wildcard present in the template must be bound. Each is replaced
    in one pass over the template's own text, so a bound value is kept as
    written, even when it holds a wildcard's name.
    """
    missing = sorted(template.wildcards - set(bindings))
    if missing:
        raise TemplateError(f"template {template.id!r} missing bindings: {', '.join(missing)}")
    messages = []
    for role, parts in template.parts:
        if len(parts) == 1:
            content = parts[0]
        elif len(parts) == 3:  # one wildcard, the commonest case
            content = parts[0] + bindings[parts[1]] + parts[2]
        else:
            pieces = list(parts)
            for i in range(1, len(parts), 2):
                pieces[i] = bindings[parts[i]]
            content = "".join(pieces)
        messages.append({"role": role, "content": content})
    return messages


def render_conversation(turns: list[Turn] | tuple[Turn, ...]) -> str:
    """Render a trajectory as speaker-tagged lines for prompt embedding."""
    return "\n".join(f"{t.speaker.value}: {t.text}" for t in turns)


def exemplar_text(e: Exemplar, conversation: Optional[str] = None) -> str:
    """An exemplar's history and violating line: what retrieval matches, and an ICL block quotes.

    ``conversation``, when given, is ``render_conversation(e.history)``, for
    a caller that renders each distinct history once."""
    line = f"{Speaker.SELLER.value}: {e.violation_text}"
    if not e.history:
        return line
    return f"{render_conversation(e.history) if conversation is None else conversation}\n{line}"


def format_icl_block(exemplars: list[Exemplar] | tuple[Exemplar, ...]) -> str:
    """Render exemplars in members order as "# Dialogue:" blocks.

    The violating line is suffixed "[violation]"; the rationale, when
    present, follows the remediation text.
    """
    blocks = []
    for e in exemplars:
        lines = ["# Dialogue:", exemplar_text(e) + " [violation]", "# Remediation:", e.remediation_text]
        if e.rationale is not None:
            lines.append(e.rationale)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
