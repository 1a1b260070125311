"""CLI subcommands, run manifests, exit codes, and the interactive session."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from negotia.cli import run
from negotia.core import load_dialogues, load_exemplars


def read_manifest(out_path):
    return json.loads((out_path.parent / (out_path.name + ".manifest.json")).read_text())


def simulate_corpus(tmp_path, name="corpus.jsonl", extra=()):
    out = tmp_path / name
    code = run(
        ["simulate", "--backend", "scripted", "--seed", "7", "--n", "5", "--out", str(out), *extra]
    )
    assert code == 0
    return out


def test_simulate_writes_corpus_and_manifest(tmp_path):
    out = simulate_corpus(tmp_path)
    corpus = load_dialogues(out)
    assert len(corpus) == 5
    assert all(d.outcome is not None for d in corpus)
    manifest = read_manifest(out)
    assert manifest["command"] == "simulate"
    assert manifest["base_seed"] == 7
    assert manifest["counts"]["rollouts"] == 5
    assert str(out) in manifest["outputs"]
    assert manifest["config"]["p_c"] == 0.4
    assert manifest["finished_at"] >= manifest["started_at"]


def test_simulate_worker_independence(tmp_path):
    a = simulate_corpus(tmp_path, "a.jsonl")
    out_b = tmp_path / "b.jsonl"
    assert run(["--workers", "3", "simulate", "--backend", "scripted", "--seed", "7",
                "--n", "5", "--out", str(out_b)]) == 0
    assert a.read_bytes() == out_b.read_bytes()


def test_simulate_with_remediation_set(tmp_path):
    corpus = simulate_corpus(tmp_path, extra=["--p-c", "0.8"])
    pool_path = tmp_path / "pool.jsonl"
    assert run(["annotate", "--in", str(corpus), "--out", str(pool_path)]) == 0
    pool = load_exemplars(pool_path)
    assert pool

    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": [pool[0].id]}), encoding="utf-8")
    out = tmp_path / "remediated.jsonl"
    assert run(["simulate", "--backend", "scripted", "--seed", "7", "--n", "5",
                "--remediate", "on", "--pool", str(pool_path), "--set", str(set_path),
                "--out", str(out)]) == 0
    remediated = load_dialogues(out)
    assert any(
        t.original_text is not None for d in remediated for t in d.turns
    )


def test_annotate_manifest_lists_input(tmp_path):
    corpus = simulate_corpus(tmp_path, extra=["--p-c", "0.9"])
    pool_path = tmp_path / "pool.jsonl"
    assert run(["annotate", "--in", str(corpus), "--out", str(pool_path)]) == 0
    manifest = read_manifest(pool_path)
    assert str(corpus) in manifest["inputs"]
    assert manifest["counts"]["exemplars"] == len(load_exemplars(pool_path))


def make_pool_file(tmp_path, qualities):
    from negotia.core import dump_exemplars
    from conftest import make_exemplar

    pool_path = tmp_path / "pool.jsonl"
    dump_exemplars([make_exemplar(f"ex-{q}", q) for q in qualities], pool_path)
    return pool_path


def test_filter_and_search_pipeline(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7, 0.3, 0.2, 0.1))
    ranked_path = tmp_path / "ranked.json"
    assert run(["filter", "--pool", str(pool_path), "--sample", "6",
                "--probe-size", "4", "--seed", "3", "--out", str(ranked_path)]) == 0
    ranked = json.loads(ranked_path.read_text())
    assert [r["id"] for r in ranked] == [f"ex-{q}" for q in (0.9, 0.8, 0.7, 0.3, 0.2, 0.1)]

    set_path = tmp_path / "best.json"
    trace_path = tmp_path / "trace.json"
    assert run(["search", "--ranked", str(ranked_path), "--pool", str(pool_path),
                "--k", "2", "--m", "2", "--probe-size", "4", "--seed", "3",
                "--out", str(set_path), "--trace", str(trace_path)]) == 0
    best = json.loads(set_path.read_text())
    # The top-2 initial set is already optimal here.
    assert best["members"] == ["ex-0.9", "ex-0.8"]
    trace = json.loads(trace_path.read_text())
    assert trace["evaluations"]
    manifest = read_manifest(set_path)
    assert manifest["counts"]["evaluations"] == len(trace["evaluations"])
    assert str(trace_path) in manifest["outputs"]


def test_probe_size_from_config_file_and_flag(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"probe_size": 3}), encoding="utf-8")
    out = tmp_path / "ranked.json"
    base = ["--config", str(cfg), "filter", "--pool", str(pool_path), "--sample", "2",
            "--out", str(out)]
    assert run(base) == 0
    assert read_manifest(out)["config"]["probe_size"] == 3
    # A flag overrides the file.
    assert run(base + ["--probe-size", "2"]) == 0
    assert read_manifest(out)["config"]["probe_size"] == 2


def test_select_random_and_retrieval(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7, 0.3, 0.2, 0.1))
    out = tmp_path / "set.json"
    assert run(["select", "--strategy", "random", "--pool", str(pool_path),
                "--k", "3", "--seed", "1", "--out", str(out)]) == 0
    first = json.loads(out.read_text())["members"]
    assert len(first) == 3
    assert run(["select", "--strategy", "random", "--pool", str(pool_path),
                "--k", "3", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["members"] == first

    query = tmp_path / "query.json"
    query.write_text(json.dumps({"text": "could you reconsider the price"}), encoding="utf-8")
    assert run(["select", "--strategy", "retrieval", "--pool", str(pool_path),
                "--k", "2", "--query", str(query), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 2


def test_select_retrieval_requires_query(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    out = tmp_path / "set.json"
    assert run(["select", "--strategy", "retrieval", "--pool", str(pool_path),
                "--k", "1", "--out", str(out)]) == 1


def test_remediate_command_prints_rewrite(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ex-0.9"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(
        json.dumps({"history": [], "violation_text": "Take it or leave it!"}), encoding="utf-8"
    )
    assert run(["remediate", "--pool", str(pool_path), "--set", str(set_path),
                "--in", str(query)]) == 0
    printed = capsys.readouterr().out.strip()
    assert "[q=0.9" in printed
    # remediate writes no file, so it leaves no manifest.
    assert not list(tmp_path.glob("*.manifest.json"))


def test_remediate_unknown_member_is_usage_error(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ghost"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"history": [], "violation_text": "x"}), encoding="utf-8")
    assert run(["remediate", "--pool", str(pool_path), "--set", str(set_path),
                "--in", str(query)]) == 1


def test_evaluate_report(tmp_path):
    corpus = simulate_corpus(tmp_path)
    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--in", str(corpus), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {
        "success_rate", "mean_deal_value", "trust_improvement_rate",
        "relation_enhancement_rate", "n",
    }
    assert report["n"] == 5


def test_exit_codes(tmp_path):
    # No subcommand: usage error.
    assert run([]) == 1
    # Unknown flag: argparse usage error.
    assert run(["simulate", "--nope", "--out", "x"]) == 1
    # Missing input file: runtime failure.
    assert run(["evaluate", "--in", str(tmp_path / "absent.jsonl"),
                "--report", str(tmp_path / "r.json")]) == 2
    # Remote backend without connection details: usage error.
    assert run(["simulate", "--backend", "remote", "--out", str(tmp_path / "x.jsonl")]) == 1
    # Config file that does not exist: usage error.
    assert run(["--config", str(tmp_path / "absent.json"), "simulate",
                "--out", str(tmp_path / "x.jsonl")]) == 1


def test_module_entry_point_runs_a_command(tmp_path):
    corpus = simulate_corpus(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "negotia.cli", "evaluate", "--in", str(corpus), "--report", "r.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["n"] == 5


def test_uncontained_backend_failure_exits_2(tmp_path, monkeypatch, capsys):
    import requests

    class Reply:
        status_code = 200

        def __init__(self, content):
            self.content = content

        def json(self):
            return {"choices": [{"finish_reason": "stop", "message": {"content": self.content}}]}

    def post(url, json, **kwargs):
        if any("whether a deal was reached" in m["content"] for m in json["messages"]):
            raise requests.ConnectionError("evaluator unreachable")
        return Reply("Yes")

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr("negotia.backends.time.sleep", lambda seconds: None)
    # A failed turn ends its dialogue; a failed outcome assessment has no
    # dialogue to end, so it fails the command.
    assert run(["--api-base", "http://example.invalid/v1", "--model", "m", "simulate",
                "--backend", "remote", "--n", "1", "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "evaluator unreachable" in capsys.readouterr().err


def test_removed_flags_are_usage_errors(tmp_path):
    corpus = simulate_corpus(tmp_path)
    assert run(["evaluate", "--in", str(corpus), "--weights", "1,0,0,0",
                "--report", str(tmp_path / "r.json")]) == 1
    assert run(["simulate", "--topic", "salary", "--out", str(tmp_path / "x.jsonl")]) == 1


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 99}), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--backend", "scripted",
                "--seed", "7", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    # n comes from the file, seed from the flag.
    assert manifest["counts"]["rollouts"] == 3
    assert manifest["base_seed"] == 7


SESSION_LINES = {
    "seller": ["We can offer $48 per unit.", "/flag Take it or leave it, $47 final!", "y"],
    # A buyer cannot flag: the notice is printed and the line asked again.
    "buyer": ["/flag You are wasting my time!", "Could you go a little lower?"],
}


def play_session(tmp_path, monkeypatch, role):
    lines = iter(SESSION_LINES[role])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines, "Let us keep talking."))
    out = tmp_path / "session.jsonl"
    assert run(["interactive", "--role", role, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("role", ["seller", "buyer"])
def test_interactive_session_both_roles(tmp_path, monkeypatch, capsys, role):
    out = play_session(tmp_path, monkeypatch, role)
    [d] = load_dialogues(out)
    assert d.outcome is not None and d.outcome.deal
    # The scripted counterpart concedes every round.
    prices = [
        float(m.group(1).replace(",", ""))
        for t in d.turns[1:]
        if t.speaker.value != role and (m := re.search(r"\$([\d,.]+\d)", t.text))
    ]
    assert len(prices) > 2 and len(set(prices)) == len(prices)
    assert prices == sorted(prices, reverse=(role == "buyer"))
    manifest = read_manifest(out)
    assert manifest["command"] == "interactive"
    assert str(out) in manifest["outputs"]
    assert manifest["counts"]["turns"] == len(d.turns)


def test_interactive_session(tmp_path, monkeypatch, capsys):
    out = play_session(tmp_path, monkeypatch, "seller")
    record = json.loads(out.read_text())
    assert record["interactive_choices"] == [
        {
            "original": "Take it or leave it, $47 final!",
            "remediation": record["interactive_choices"][0]["remediation"],
            "accepted": True,
        }
    ]
    flagged = [t for t in record["turns"] if t.get("violation")]
    assert len(flagged) == 1
    assert flagged[0]["speaker"] == "seller"
    assert flagged[0]["original_text"] == "Take it or leave it, $47 final!"
    assert "acceptance rate: 1/1" in capsys.readouterr().out


def test_interactive_buyer_flag_is_not_a_violation(tmp_path, monkeypatch, capsys):
    out = play_session(tmp_path, monkeypatch, "buyer")
    record = json.loads(out.read_text())
    assert record["interactive_choices"] == []
    assert not any(t["violation"] for t in record["turns"])
    assert "You are wasting my time!" not in out.read_text()
    assert "only seller lines can be flagged" in capsys.readouterr().out


def test_interactive_bare_flag_is_refused(tmp_path, monkeypatch, capsys):
    lines = iter(["/flag", "/flag ", "We can offer $48 per unit.", "/quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    out = tmp_path / "session.jsonl"
    assert run(["interactive", "--role", "seller", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["interactive_choices"] == []
    assert not any(t["text"].startswith("/flag") for t in record["turns"])
    assert "We can offer $48 per unit." in [t["text"] for t in record["turns"]]
    assert capsys.readouterr().out.count("'/flag' needs the line to flag") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "2", "--out", "{out}"],
        ["annotate", "--in", "{corpus}", "--out", "{out}"],
        ["filter", "--pool", "{pool}", "--sample", "3", "--probe-size", "2", "--out", "{out}"],
        ["search", "--ranked", "{ranked}", "--pool", "{pool}", "--k", "2", "--probe-size", "2",
         "--out", "{out}"],
        ["select", "--strategy", "random", "--pool", "{pool}", "--k", "2", "--out", "{out}"],
        ["evaluate", "--in", "{corpus}", "--report", "{out}"],
        ["interactive", "--role", "buyer", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_writing_subcommand_writes_a_manifest(tmp_path, monkeypatch, argv):
    monkeypatch.setattr("builtins.input", lambda prompt="": "/quit")
    ranked = tmp_path / "ranked.json"
    ranked.write_text(json.dumps([{"id": f"ex-{q}", "value_impact": q} for q in (0.9, 0.8, 0.7)]))
    paths = {
        "corpus": simulate_corpus(tmp_path, extra=["--p-c", "0.9"]),
        "pool": make_pool_file(tmp_path, (0.9, 0.8, 0.7)),
        "ranked": ranked,
        "out": tmp_path / "out.json",
    }
    assert run([a.format(**paths) for a in argv]) == 0
    manifest = read_manifest(paths["out"])
    assert manifest["command"] == argv[0]
    assert str(paths["out"]) in manifest["outputs"]
