"""Template store, rendering, and ICL block formatting."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from negotia.core import Speaker, Turn
from negotia.prompts import (
    TEMPLATE_IDS,
    WILDCARDS,
    TemplateError,
    TemplateStore,
    format_icl_block,
    render,
    render_conversation,
)

from conftest import make_exemplar


def test_store_loads_every_template(templates):
    for tid in TEMPLATE_IDS:
        t = templates.get(tid)
        assert t.id == tid
        assert t.segments


def test_store_unknown_id(templates):
    with pytest.raises(TemplateError, match="unknown template id"):
        templates.get("nonexistent")


def test_store_missing_file(tmp_path):
    with pytest.raises(TemplateError, match="missing template file"):
        TemplateStore(tmp_path)


def test_store_missing_file_names_the_path_it_looked_for(tmp_path, templates):
    buyer = templates.get("buyer")
    (tmp_path / "buyer.json").write_text(json.dumps({"segments": list(buyer.segments)}), encoding="utf-8")
    with pytest.raises(TemplateError) as info:
        TemplateStore(tmp_path)
    assert str(tmp_path / "seller_violate.json") in str(info.value)


def test_store_alternate_directory(tmp_path, templates):
    for tid in TEMPLATE_IDS:
        t = templates.get(tid)
        (tmp_path / f"{tid}.json").write_text(
            json.dumps({"id": tid, "segments": list(t.segments)}), encoding="utf-8"
        )
    other = TemplateStore(tmp_path)
    assert other.get("buyer").segments == templates.get("buyer").segments


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b'{"segments": [{"role": "user", "content": "caf\xe9"}]}',
        b"[]",
        b"{}",
        b'{"segments": {"role": "user", "content": "hi"}}',
        b'{"segments": ["hi"]}',
        b'{"segments": [{"role": "user"}]}',
        b'{"segments": [{"role": 1, "content": "hi"}]}',
        b'{"segments": [{"role": "user", "content": 5}]}',
        b'{"segments": [{"role": "user\\ud83d", "content": "hi"}]}',
        b'{"segments": [{"role": "user", "content": "caf\\u00e9 \\ud83d"}]}',
    ],
    ids=["not-json", "not-utf8", "array", "no-segments", "segments-object", "segment-string",
         "no-content", "role-number", "content-number", "role-surrogate", "content-surrogate"],
)
def test_malformed_template_file_is_refused_by_name(tmp_path, templates, content):
    for tid in TEMPLATE_IDS:
        (tmp_path / f"{tid}.json").write_text(
            json.dumps({"id": tid, "segments": list(templates.get(tid).segments)}), encoding="utf-8"
        )
    (tmp_path / "remediator.json").write_bytes(content)
    with pytest.raises(TemplateError, match=f"^{re.escape(str(tmp_path / 'remediator.json'))}: "):
        TemplateStore(tmp_path)


@pytest.mark.parametrize("tid", TEMPLATE_IDS)
def test_template_wildcards_are_those_its_segments_hold(templates, tid):
    t = templates.get(tid)
    assert t.wildcards == {w for seg in t.segments for w in WILDCARDS if w in seg["content"]}


def test_prompts_dir_template_with_an_unbound_wildcard_is_refused(tmp_path, templates):
    # An edited judge template that asks for a wildcard its caller never binds.
    for tid in TEMPLATE_IDS:
        segments = [dict(seg) for seg in templates.get(tid).segments]
        if tid == "trust_eval":
            segments[-1]["content"] += "\nThe last line was: $LAST_SENTENCE"
        (tmp_path / f"{tid}.json").write_text(
            json.dumps({"id": tid, "segments": segments}), encoding="utf-8"
        )
    edited = TemplateStore(tmp_path).get("trust_eval")
    assert "$LAST_SENTENCE" in edited.wildcards
    with pytest.raises(TemplateError, match=r"'trust_eval' missing bindings: \$LAST_SENTENCE"):
        render(edited, {"$CONVERSATION": "buyer: hello"})


def test_render_rejects_missing_bindings(templates):
    with pytest.raises(TemplateError, match="missing bindings"):
        render(templates.get("remediator"), {"$CONVERSATION": "x"})


def test_render_leaves_no_wildcards(templates):
    bindings = {
        "$ICL-Examples": "none",
        "$CONVERSATION": "buyer: hello",
        "$LAST_SENTENCE": "Take it or leave it!",
        "SELLER_INIT_PRICE": "$50",
        "COST_PRICE": "$35",
        "BUYER_INIT_PRICE": "$30",
    }
    for tid in TEMPLATE_IDS:
        msgs = render(templates.get(tid), bindings)
        for m in msgs:
            assert m["role"] in ("system", "user", "assistant")
            for w in WILDCARDS:
                assert w not in m["content"], (tid, w)


def test_seller_opener_price_binding(templates):
    msgs = render(
        templates.get("seller_normal"),
        {
            "$CONVERSATION": "buyer: hello",
            "SELLER_INIT_PRICE": "$50",
            "COST_PRICE": "$35",
        },
    )
    assert any("$50" in m["content"] for m in msgs)


def test_render_conversation():
    turns = (
        Turn(speaker=Speaker.BUYER, text="hello"),
        Turn(speaker=Speaker.SELLER, text="hi there"),
    )
    assert render_conversation(turns) == "buyer: hello\nseller: hi there"


def test_format_icl_block_structure():
    e1 = make_exemplar("a", 0.9)
    e2 = make_exemplar("b", 0.1)
    block = format_icl_block((e1, e2))
    chunks = block.split("\n\n")
    assert len(chunks) == 2
    for chunk, e in zip(chunks, (e1, e2)):
        lines = chunk.splitlines()
        assert lines[0] == "# Dialogue:"
        assert lines[-3].endswith("[violation]")
        assert lines[-3].startswith("seller: ")
        assert lines[-2] == "# Remediation:"
        assert lines[-1] == e.remediation_text


def test_format_icl_block_includes_rationale():
    from dataclasses import replace

    e = replace(make_exemplar("a", 0.9), rationale="keeps the tone respectful")
    assert format_icl_block((e,)).splitlines()[-1] == "keeps the tone respectful"


def test_format_icl_block_empty():
    assert format_icl_block(()) == ""


RENDER_IN_A_FRESH_PROCESS = """
import json
from negotia.prompts import TemplateStore, render
bindings = {
    "$ICL-Examples": "none",
    "$CONVERSATION": "buyer: my COST_PRICE is $LAST_SENTENCE",
    "$LAST_SENTENCE": "Take it or leave it!",
}
print(json.dumps(render(TemplateStore().get("remediator"), bindings)))
"""


def test_render_keeps_bound_values_as_written_under_any_hash_seed():
    # A value that holds other wildcards' names must come out as written, so
    # that a prompt, and with it the cache key, is the same in every process.
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", RENDER_IN_A_FRESH_PROCESS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    (content,) = [m["content"] for m in json.loads(outputs.pop())]
    assert "buyer: my COST_PRICE is $LAST_SENTENCE" in content
    assert content.count("Take it or leave it!") == 1
