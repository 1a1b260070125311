"""Prompt template store and renderer for every agent role.

Templates ship as editable JSON files (one per template id) under the
package's ``templates/`` directory; an alternate directory can be supplied so
runs in other languages can swap the whole set. Substitution is byte-exact
literal replacement of the declared wildcards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .core import Exemplar, Speaker, Turn

__all__ = [
    "WILDCARDS",
    "TEMPLATE_IDS",
    "PromptTemplate",
    "TemplateError",
    "TemplateStore",
    "render",
    "format_icl_block",
    "render_conversation",
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


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    segments: tuple[dict, ...]  # ordered {role, content} messages

    def wildcards(self) -> set[str]:
        return {w for seg in self.segments for w in WILDCARDS if w in seg["content"]}


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
                raise TemplateError(f"missing template file for {tid!r}") from exc
            segments = tuple(
                {"role": s["role"], "content": s["content"]} for s in obj["segments"]
            )
            self._templates[tid] = PromptTemplate(id=tid, segments=segments)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError as exc:
            raise TemplateError(f"unknown template id: {template_id!r}") from exc


def render(template: PromptTemplate, bindings: dict[str, str]) -> list[dict]:
    """Substitute wildcards into a template, preserving message order.

    Every wildcard present in the template must be bound; no wildcard may
    remain in the output.
    """
    needed = template.wildcards()
    missing = sorted(needed - set(bindings))
    if missing:
        raise TemplateError(f"template {template.id!r} missing bindings: {', '.join(missing)}")
    messages = []
    for seg in template.segments:
        content = seg["content"]
        for w in needed:
            content = content.replace(w, bindings[w])
        messages.append({"role": seg["role"], "content": content})
    return messages


def render_conversation(turns: list[Turn] | tuple[Turn, ...]) -> str:
    """Render a trajectory as speaker-tagged lines for prompt embedding."""
    return "\n".join(f"{t.speaker.value}: {t.text}" for t in turns)


def format_icl_block(exemplars: list[Exemplar] | tuple[Exemplar, ...]) -> str:
    """Render exemplars in members order as "# Dialogue:" blocks.

    The violating line is suffixed "[violation]"; the rationale, when
    present, follows the remediation text.
    """
    blocks = []
    for e in exemplars:
        lines = ["# Dialogue:"]
        for t in e.history:
            lines.append(f"{t.speaker.value}: {t.text}")
        lines.append(f"{Speaker.SELLER.value}: {e.violation_text} [violation]")
        lines.append("# Remediation:")
        lines.append(e.remediation_text)
        if e.rationale is not None:
            lines.append(e.rationale)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
