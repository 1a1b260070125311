"""CLI subcommands, run manifests, exit codes, and the interactive session."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

from negotia import cli
from negotia.cli import run
from negotia.core import load_dialogues, load_exemplars
from negotia.search import search_optimal_set, split_candidates


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


def test_simulate_worker_independence(tmp_path, monkeypatch):
    a = simulate_corpus(tmp_path, "a.jsonl")

    def no_pool(*args, **kwargs):
        raise AssertionError("scripted simulate started a thread pool")

    # Scripted rollouts run in the calling thread for any --workers value.
    monkeypatch.setattr("negotia.cli.ThreadPoolExecutor", no_pool)
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


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_digests_are_each_files_sha256(tmp_path):
    # Both files span more than one hash block.
    corpus, pool = tmp_path / "corpus.jsonl", tmp_path / "pool.jsonl"
    assert run(["simulate", "--seed", "1", "--n", "1000", "--out", str(corpus)]) == 0
    assert run(["annotate", "--in", str(corpus), "--out", str(pool)]) == 0
    assert min(corpus.stat().st_size, pool.stat().st_size) > cli._HASH_BLOCK
    manifest = read_manifest(pool)
    assert manifest["inputs"] == {str(corpus): sha256_of(corpus)}
    assert manifest["outputs"] == {str(pool): sha256_of(pool)}


def test_manifest_hashes_a_block_at_a_time(tmp_path):
    out = tmp_path / "big.jsonl"
    out.write_bytes(b"x" * (3 * cli._HASH_BLOCK + 1))
    args = argparse.Namespace(command="simulate", seed=1)
    tracemalloc.start()
    try:
        cli._write_manifest(args, time.time(), cli.Written([out], {}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cli._HASH_BLOCK
    assert read_manifest(out)["outputs"] == {str(out): sha256_of(out)}


def run_in_a_child(cwd, *argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh process, so that a command that blocks fails
    the test at the timeout instead of hanging the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "negotia.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


READ_A_FILE = "import sys\nwith open(sys.argv[1], 'rb') as f:\n    sys.stdout.buffer.write(f.read())\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_output_is_streamed_without_a_manifest(tmp_path):
    # A manifest that read the FIFO back would wait for a writer forever.
    fifo = tmp_path / "corpus.jsonl"
    os.mkfifo(fifo)
    with subprocess.Popen([sys.executable, "-c", READ_A_FILE, str(fifo)], stdout=subprocess.PIPE) as reader:
        try:
            proc = run_in_a_child(tmp_path, "simulate", "--n", "2", "--out", str(fifo))
            streamed = reader.communicate(timeout=60)[0]
        finally:
            reader.kill()
    assert proc.returncode == 0, proc.stderr
    expected = tmp_path / "expected" / "corpus.jsonl"
    expected.parent.mkdir()
    assert run(["simulate", "--n", "2", "--out", str(expected)]) == 0
    assert streamed == expected.read_bytes()
    assert not (tmp_path / "corpus.jsonl.manifest.json").exists()


def test_device_output_gets_no_manifest_and_input_no_digest(tmp_path):
    null = tmp_path / "null.jsonl"
    null.symlink_to(os.devnull)
    proc = run_in_a_child(tmp_path, "simulate", "--n", "2", "--out", str(null))
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "null.jsonl.manifest.json").exists()
    # Read as an empty corpus, the device is listed without a digest.
    pool = tmp_path / "pool.jsonl"
    proc = run_in_a_child(tmp_path, "annotate", "--in", str(null), "--out", str(pool))
    assert proc.returncode == 0, proc.stderr
    manifest = read_manifest(pool)
    assert manifest["inputs"] == {str(null): None}
    assert manifest["outputs"] == {str(pool): sha256_of(pool)}


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


def test_search_trace_replays_every_decision(tmp_path):
    # The trace holds enough to replay the search: its recorded impacts as the
    # impact function, the ranked file's order, k and m give the same bytes.
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7, 0.3, 0.2, 0.1, 0.6, 0.4))
    ranked_path, set_path, trace_path = tmp_path / "ranked.json", tmp_path / "best.json", tmp_path / "trace.json"
    probed = ["--pool", str(pool_path), "--probe-size", "4", "--seed", "5"]
    assert run(["filter", *probed, "--sample", "8", "--out", str(ranked_path)]) == 0
    # The filter's ranking with its last two ids moved to the front, so the search climbs and prunes.
    ranked = json.loads(ranked_path.read_text())
    ranked_path.write_text(json.dumps(ranked[-2:] + ranked[:-2]), encoding="utf-8")
    k, m = 3, 2
    assert run(["search", *probed, "--ranked", str(ranked_path), "--k", str(k), "--m", str(m),
                "--out", str(set_path), "--trace", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text())
    impacts = {tuple(ev["members"]): ev["impact"] for ev in trace["evaluations"]}
    s_init, s_cand = split_candidates([(o["id"], o["value_impact"]) for o in json.loads(ranked_path.read_text())], k)
    best, replayed = search_optimal_set(s_init, s_cand, impacts.__getitem__, m)
    assert len(trace["evaluations"]) > k + m and trace["pruning_events"]
    assert json.dumps({
        "evaluations": [asdict(ev) for ev in replayed.evaluations],
        "pruning_events": [asdict(pe) for pe in replayed.pruning_events],
        "best": {"members": list(best.members), "impact": best.value_impact},
    }, indent=2) == trace_path.read_text(encoding="utf-8")


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


def test_filter_and_search_honour_max_turns(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7, 0.3, 0.2, 0.1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_turns": 4}), encoding="utf-8")
    probed = ["--pool", str(pool_path), "--probe-size", "4", "--seed", "3"]
    ranked = {}
    for name, config in (("default", []), ("capped", ["--config", str(cfg)])):
        ranked[name] = tmp_path / f"{name}.json"
        assert run([*config, "filter", *probed, "--sample", "6", "--out", str(ranked[name])]) == 0
    # A bargain cut at four turns never closes, so no rewrite moves its reward.
    default = json.loads(ranked["default"].read_text())
    assert [r["value_impact"] for r in json.loads(ranked["capped"].read_text())] == [0.0] * 6
    assert all(r["value_impact"] != 0.0 for r in default)
    # The manifest records the cap that set these values.
    assert read_manifest(ranked["default"])["config"]["max_turns"] == 20
    assert read_manifest(ranked["capped"])["config"]["max_turns"] == 4

    best = tmp_path / "best.json"
    assert run(["--config", str(cfg), "search", *probed, "--ranked", str(ranked["default"]),
                "--k", "2", "--m", "2", "--out", str(best)]) == 0
    assert json.loads(best.read_text())["value_impact"] == 0.0
    assert read_manifest(best)["config"]["max_turns"] == 4


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


def test_select_query_file_holds_text(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"query": "could you reconsider the price"}), encoding="utf-8")
    assert run(["select", "--strategy", "retrieval", "--pool", str(pool_path),
                "--k", "1", "--query", str(query), "--out", str(tmp_path / "set.json")]) == 2
    assert "'text'" in capsys.readouterr().err


def test_select_retrieval_requires_query(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    out = tmp_path / "set.json"
    assert run(["select", "--strategy", "retrieval", "--pool", str(pool_path),
                "--k", "1", "--out", str(out)]) == 1


def test_select_random_refuses_query(tmp_path, capsys):
    # --query is read only by retrieval, so random refuses it before opening any file.
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    out = tmp_path / "set.json"
    assert run(["select", "--strategy", "random", "--pool", str(pool_path), "--k", "1",
                "--query", str(tmp_path / "nonexist.json"), "--out", str(out)]) == 1
    assert "select takes --query only with --strategy retrieval" in capsys.readouterr().err
    assert not out.exists()


def test_select_retrieval_refuses_a_typed_seed(tmp_path, capsys):
    # Retrieval draws nothing, so a --seed on the command line is refused
    # before any file is opened; a config's shared seed still reaches it.
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"text": "could you reconsider the price"}), encoding="utf-8")
    out = tmp_path / "set.json"
    argv = ["select", "--strategy", "retrieval", "--pool", str(pool_path), "--k", "1",
            "--query", str(query), "--out", str(out)]
    assert run([*argv, "--seed", "0"]) == 1
    assert "select takes --seed only with --strategy random" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    assert run(["--config", str(cfg), *argv]) == 0
    assert len(json.loads(out.read_text())["members"]) == 1


def test_select_random_writes_the_same_bytes_with_or_without_a_seed(tmp_path):
    # The exact files random draws write: without a seed the draw uses seed
    # 0, and a config's seed counts as a typed one.
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7, 0.3, 0.2, 0.1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    out = tmp_path / "set.json"
    for config, seed, members in [
        ([], ["--seed", "1"], ("ex-0.8", "ex-0.2", "ex-0.9")),
        ([], ["--seed", "0"], ("ex-0.3", "ex-0.1", "ex-0.9")),
        ([], [], ("ex-0.3", "ex-0.1", "ex-0.9")),
        ([], ["--seed", "12345678901234567890"], ("ex-0.2", "ex-0.1", "ex-0.3")),
        (["--config", str(cfg)], [], ("ex-0.2", "ex-0.7", "ex-0.1")),
    ]:
        assert run([*config, "select", "--strategy", "random", "--pool", str(pool_path), "--k", "3",
                    *seed, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == '{\n  "members": [\n%s\n  ]\n}' % ",\n".join(
            f'    "{m}"' for m in members
        )


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


def test_remediate_refuses_a_history_that_breaks_the_turn_rules(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ex-0.9"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    history = [{"speaker": "buyer", "text": "hello"}, {"speaker": "buyer", "text": ""}]
    query.write_text(json.dumps({"history": history, "violation_text": "x"}), encoding="utf-8")
    assert run(["remediate", "--pool", str(pool_path), "--set", str(set_path),
                "--in", str(query)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "turn 1: empty text" in captured.err and "alternate" in captured.err


def test_remediate_unknown_member_is_usage_error(tmp_path):
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ghost"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"history": [], "violation_text": "x"}), encoding="utf-8")
    assert run(["remediate", "--pool", str(pool_path), "--set", str(set_path),
                "--in", str(query)]) == 1


@pytest.mark.parametrize(
    "name, content",
    [
        ("query", []),
        ("query", {"history": ["hello"], "violation_text": "x"}),
        ("query", {"histry": [], "violation_text": "x"}),
        ("query", {"history": [], "violation_text": 5}),
        ("set", ["ex-0.9"]),
        ("config", [1]),
        ("text", ["could you reconsider the price"]),
        ("text", {"text": 5}),
        ("config", "{not json"),
    ],
    ids=["query-list", "history-of-strings", "misspelt-history", "violation-not-string",
         "set-list", "config-list", "text-list", "text-not-string", "config-not-json"],
)
def test_malformed_json_input_is_refused(tmp_path, capsys, name, content):
    pool_path = make_pool_file(tmp_path, (0.9,))
    files = {
        "query": {"history": [], "violation_text": "x"},
        "set": {"members": ["ex-0.9"]},
        "config": {},
        "text": {"text": "could you reconsider the price"},
        name: content,
    }
    paths = {}
    for key, obj in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    if name == "text":
        argv = ["select", "--strategy", "retrieval", "--pool", str(pool_path), "--k", "1",
                "--query", paths["text"], "--out", str(tmp_path / "out.json")]
    else:
        argv = ["remediate", "--pool", str(pool_path), "--set", paths["set"], "--in", paths["query"]]
    assert run(["--config", paths["config"], *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def ranked_with(impact):
    return [{"id": "ex-0.9", "value_impact": 0.5}, {"id": "ex-0.8", "value_impact": impact},
            {"id": "ex-0.7", "value_impact": 0}]


@pytest.mark.parametrize(
    "name, content",
    [
        ("ranked", {"a": 1}),
        ("ranked", ["ex-0.9", "ex-0.8", "ex-0.7"]),
        ("ranked", [{"id": "ex-0.9"}, {"id": "ex-0.8"}, {"id": "ex-0.7"}]),
        *[("ranked", ranked_with(v)) for v in ("high", None, True, float("nan"), float("-inf"), 10**400)],
        ("config", {"world": [1]}),
        ("config", {"world": {"bounds": 5}}),
        ("config", {"seed": None}),
        ("config", {"k": True}),
        ("config", {"m": [1]}),
        ("config", {"probe_size": {"n": 2}}),
        ("config", {"cache_dir": None}),
        ("config", {"max_turns": [1]}),
        ("config", {"world": {"goodwill": None}}),
        ("config", {"world": {"goodwill": [1]}}),
        ("config", {"world": {"bounds": {"seller_init": None}}}),
    ],
    ids=["ranked-object", "ranked-ids", "ranked-no-impact", "impact-string", "impact-null", "impact-bool",
         "impact-nan", "impact-minus-inf", "impact-past-float-range", "world-list", "bounds-number",
         "seed-null", "k-true", "m-array", "probe-size-object", "cache-dir-null",
         "max-turns-array", "goodwill-null", "goodwill-array", "seller-init-null"],
)
def test_malformed_json_shape_is_refused(tmp_path, capsys, name, content):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7))
    files = {"ranked": [{"id": f"ex-{q}", "value_impact": q} for q in (0.9, 0.8, 0.7)], "config": {}}
    files[name] = content
    paths = {key: tmp_path / f"{key}.json" for key in files}
    for key, obj in files.items():
        paths[key].write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "best.json"
    assert run(["--config", str(paths["config"]), "search", "--ranked", str(paths["ranked"]),
                "--pool", str(pool_path), "--k", "2", "--probe-size", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {paths[name]}: ")
    assert not out.exists()


def test_scripted_commands_need_no_prompt_templates(tmp_path, capsys):
    corpus = simulate_corpus(tmp_path, extra=["--p-c", "0.9"])
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ex-0.9"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"history": [], "violation_text": "x"}), encoding="utf-8")
    empty = tmp_path / "no-templates"
    empty.mkdir()
    prompts = ["--prompts-dir", str(empty)]
    assert run([*prompts, "simulate", "--n", "2", "--p-c", "0.9", "--remediate", "on",
                "--out", str(tmp_path / "c.jsonl")]) == 0
    assert run([*prompts, "annotate", "--in", str(corpus), "--out", str(tmp_path / "p.jsonl")]) == 0
    assert run([*prompts, "remediate", "--pool", str(pool_path), "--set", str(set_path),
                "--in", str(query)]) == 0
    capsys.readouterr()
    # A remote session renders them, so it is refused before any request.
    assert run([*prompts, "--api-base", "http://example.invalid/v1", "--model", "m", "simulate",
                "--backend", "remote", "--n", "1", "--out", str(tmp_path / "r.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: missing template file")


def test_remote_run_refuses_a_template_with_a_lone_surrogate(tmp_path, monkeypatch, capsys):
    import requests

    from negotia.prompts import TEMPLATE_IDS, TemplateStore

    shipped = TemplateStore()
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    for tid in TEMPLATE_IDS:
        segments = [dict(seg) for seg in shipped.get(tid).segments]
        if tid == "buyer":
            segments[0]["content"] += " \ud83d"  # written as the escape, which JSON reads alone
        (prompts / f"{tid}.json").write_text(json.dumps({"id": tid, "segments": segments}), encoding="utf-8")
    posts = []
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: posts.append(args))
    out = tmp_path / "r.jsonl"
    assert run(["--api-base", "http://example.invalid/v1", "--model", "m", "--prompts-dir", str(prompts),
                "simulate", "--backend", "remote", "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {prompts / 'buyer.json'}: expected an array 'segments' of objects with UTF-8 string "
        "'role' and 'content'\n"
    )
    assert posts == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prompts"]


def test_search_refuses_ranked_ids_not_in_pool(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7))
    ranked = tmp_path / "ranked.json"
    ids = ["ex-0.9", "nope", "ex-0.8", "gone"]
    ranked.write_text(json.dumps([{"id": eid, "value_impact": 0.0} for eid in ids]), encoding="utf-8")
    assert run(["search", "--ranked", str(ranked), "--pool", str(pool_path), "--k", "2",
                "--probe-size", "2", "--out", str(tmp_path / "best.json")]) == 1
    assert capsys.readouterr().err == "error: ranked ids not in pool: nope, gone\n"


def test_repeated_ranked_ids_and_set_members_are_usage_errors(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7))
    ranked = tmp_path / "ranked.json"
    ids = ["ex-0.9", "ex-0.8", "ex-0.7", "ex-0.7"]
    ranked.write_text(json.dumps([{"id": eid, "value_impact": 0.0} for eid in ids]), encoding="utf-8")
    best = tmp_path / "best.json"
    assert run(["search", "--ranked", str(ranked), "--pool", str(pool_path), "--k", "2",
                "--probe-size", "2", "--out", str(best)]) == 1
    assert capsys.readouterr().err == "error: ranked ids repeated: ex-0.7\n"
    assert not best.exists()

    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ex-0.8", "ex-0.9", "ex-0.8"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"history": [], "violation_text": "x"}), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    for argv in (["remediate", "--in", str(query)], ["simulate", "--remediate", "on", "--out", str(out)]):
        assert run([*argv, "--pool", str(pool_path), "--set", str(set_path)]) == 1
        assert capsys.readouterr().err == "error: set members repeated: ex-0.8\n"
    assert not out.exists()


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


def test_evaluate_excludes_dialogues_without_outcome(tmp_path):
    corpus = simulate_corpus(tmp_path)
    scored, errored = corpus.read_text(encoding="utf-8").splitlines()[:2]
    errored = json.loads(errored)
    del errored["outcome"]
    errored["error"] = "evaluator: unreachable"
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(scored + "\n" + json.dumps(errored) + "\n", encoding="utf-8")
    only_scored = tmp_path / "scored.jsonl"
    only_scored.write_text(scored + "\n", encoding="utf-8")

    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--in", str(mixed), "--report", str(report_path)]) == 0
    expected = tmp_path / "expected.json"
    assert run(["evaluate", "--in", str(only_scored), "--report", str(expected)]) == 0
    assert report_path.read_bytes() == expected.read_bytes()
    counts = read_manifest(report_path)["counts"]
    assert counts == {"dialogues": 1, "excluded": 1, "excluded_ids": [errored["id"]]}

    # With no outcome left to score, evaluate fails.
    none_scored = tmp_path / "errored.jsonl"
    none_scored.write_text(json.dumps(errored) + "\n", encoding="utf-8")
    assert run(["evaluate", "--in", str(none_scored), "--report", str(report_path)]) == 2


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
    proc = run_in_a_child(tmp_path, "evaluate", "--in", str(corpus), "--report", "r.json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["n"] == 5


class Reply:
    """A chat completion as the HTTP transport receives it."""

    status_code = 200

    def __init__(self, content):
        self.content = content

    def json(self):
        return {"choices": [{"finish_reason": "stop", "message": {"content": self.content}}]}


def hashed_post(url, json, **kwargs):
    """A chat endpoint whose every reply depends only on the request."""
    text = "\n".join(m["content"] for m in json["messages"])
    h = int(hashlib.sha256(text.encode()).hexdigest(), 16)
    if "You are the moderator" in text:  # dialogues part at the seller's violation coins
        lines = sum(ln.startswith(("buyer: ", "seller: ")) for ln in text.splitlines())
        return Reply("Yes" if lines >= 8 and h % 3 == 0 else "No")
    if "whether a deal was reached" in text:
        return Reply(f"Deal\n${40 + h % 10}" if h % 2 else "No deal")
    if "whether trust" in text:
        return Reply(("Trust Deepening", "No Change")[h % 2])
    if "whether the business relationship" in text:
        return Reply(("Business Relationship Weakening", "No Change")[h % 2])
    return Reply(f"Could we settle at ${40 + h % 10} per unit?")


def test_remote_simulate_is_byte_identical_for_any_worker_count(tmp_path, monkeypatch):
    import requests

    monkeypatch.setattr(requests, "post", hashed_post)
    outs = []
    for workers in ("1", "3"):
        outs.append(tmp_path / f"w{workers}.jsonl")
        assert run(["--workers", workers, "--api-base", "http://example.invalid/v1", "--model", "m",
                    "simulate", "--backend", "remote", "--seed", "5", "--n", "6", "--p-c", "0.5",
                    "--remediate", "on", "--out", str(outs[-1])]) == 0
    corpus = load_dialogues(outs[0])
    assert len(corpus) == 6 and all(d.outcome is not None for d in corpus)
    assert len({d.turns for d in corpus}) > 1
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_evaluator_failure_is_contained_to_its_dialogue(tmp_path, monkeypatch):
    import requests

    def post(url, json, **kwargs):
        if any("whether a deal was reached" in m["content"] for m in json["messages"]):
            raise requests.ConnectionError("evaluator unreachable")
        return Reply("Yes")

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr("negotia.backends.time.sleep", lambda seconds: None)
    # A failed outcome assessment, like a failed turn, ends only its own
    # dialogue: the corpus is written and records the error.
    out = tmp_path / "x.jsonl"
    assert run(["--api-base", "http://example.invalid/v1", "--model", "m", "simulate",
                "--backend", "remote", "--n", "2", "--out", str(out)]) == 0
    corpus = load_dialogues(out)
    assert len(corpus) == 2
    for d in corpus:
        assert d.outcome is None
        assert d.error.startswith("evaluator: ") and "evaluator unreachable" in d.error
        assert len(d.turns) >= 2


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


@pytest.mark.parametrize(
    "config, code, message",
    [
        ({"remediate": True}, 2, "'remediate' must be a JSON string or number"),
        ({"backend": 5}, 1, "argument --backend: invalid choice: '5'"),
        ({"n": [1]}, 2, "'n' must be a JSON string or number"),
        ({"seed": 1.7}, 1, "argument --seed: invalid int value: '1.7'"),
        ({"seed": None}, 2, "'seed' must be a JSON string or number"),
        ({"max_turns": 5.5}, 1, "'max_turns' is an invalid int value: '5.5'"),
        ({"world": {"close_tolerance": 80.5}}, 1, "'world.close_tolerance' is an invalid int value: '80.5'"),
        ({"max_turns": "x"}, 1, "'max_turns' is an invalid int value: 'x'"),
        ({"n": -3}, 1, "argument --n: must be at least 1, not '-3'"),
        ({"workers": 0}, 1, "argument --workers: must be at least 1, not '0'"),
        ({"p_c": 2}, 1, "argument --p-c: must lie in [0, 1], not '2'"),
    ],
    ids=["remediate-true", "backend-number", "n-array", "seed-fraction", "seed-null",
         "max-turns-fraction", "close-tolerance-fraction", "max-turns-text", "n-negative",
         "workers-zero", "p-c-above"],
)
def test_config_value_the_flag_would_refuse_is_refused(tmp_path, capsys, config, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 2:
        assert err.startswith(f"error: {cfg}: ")
    assert not out.exists()


def test_config_values_are_read_as_flag_text(tmp_path):
    cfg = tmp_path / "cfg.json"
    config = {"seed": "7", "p_c": 0.5, "n": 2, "workers": 4, "model": "m", "prompts_dir": "prompts",
              "max_turns": 12}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--out", str(out)]) == 0
    resolved = read_manifest(out)["config"]
    assert (resolved["seed"], resolved["p_c"], resolved["n"], resolved["workers"]) == (7, 0.5, 2, 4)
    assert (resolved["model"], resolved["prompts_dir"], resolved["max_turns"]) == ("m", "prompts", 12)
    assert read_manifest(out)["base_seed"] == 7
    # Flags win, and flags before the subcommand, in either form, do not
    # hide where it starts.
    assert run(["--workers=2", "--config", str(cfg), "--model", "simulate", "simulate",
                "--seed", "3", "--out", str(out)]) == 0
    resolved = read_manifest(out)["config"]
    assert (resolved["seed"], resolved["workers"], resolved["model"], resolved["n"]) == (3, 2, "simulate", 2)
    assert resolved["remediate"] is False and resolved["backend"] == "scripted"


def test_every_top_level_flag_takes_one_value():
    from negotia.cli import _build_parser

    # The config splice finds the subcommand by skipping one value per flag.
    flags = [a for a in _build_parser()._actions if a.option_strings and a.dest != "help"]
    assert [a.dest for a in flags] == ["config", "workers", "cache_dir", "api_base", "model", "prompts_dir"]
    assert all(a.nargs is None and a.const is None for a in flags)


@pytest.mark.parametrize("command", ["filter", "search"])
def test_probed_manifest_records_p_c(tmp_path, command):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8, 0.7))
    ranked = tmp_path / "ranked.json"
    ranked.write_text(json.dumps([{"id": f"ex-{q}", "value_impact": q} for q in (0.9, 0.8, 0.7)]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_c": 0.5}), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [command, "--pool", str(pool_path), "--probe-size", "2", "--out", str(out),
            *(["--sample", "3"] if command == "filter" else ["--ranked", str(ranked), "--k", "2"])]
    for config, flags, p_c in (([], [], 0.6), (["--config", str(cfg)], [], 0.5),
                               (["--config", str(cfg)], ["--p-c", "0.7"], 0.7)):
        assert run([*config, *argv, *flags]) == 0
        assert read_manifest(out)["config"]["p_c"] == p_c


@pytest.mark.parametrize("flag", ["--pool", "--set"])
def test_simulate_takes_pool_and_set_together(tmp_path, capsys, flag):
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ghost"]}), encoding="utf-8")
    value = {"--pool": str(tmp_path / "absent.jsonl"), "--set": str(set_path)}[flag]
    out = tmp_path / "c.jsonl"
    assert run(["simulate", "--remediate", "on", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--pool" in err and "--set" in err
    assert not out.exists()


def test_simulate_refuses_pool_and_set_without_remediation(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run(["simulate", "--pool", str(tmp_path / "nowhere.jsonl"),
                "--set", str(tmp_path / "nowhere.json"), "--out", str(out)]) == 1
    assert "--remediate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "world, key",
    [
        ({"max_round": 1}, "max_round"),
        ({"bounds": {"seler_init": 9000}}, "seler_init"),
        # The turn cap is the top-level max_turns; the world has no round cap.
        ({"max_rounds": 3}, "max_rounds"),
    ],
)
def test_unknown_world_key_is_usage_error(tmp_path, capsys, world, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": world}), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--n", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_world_config_overrides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"close_tolerance": 80, "bounds": {"seller_init": "6000"}}}),
                   encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--n", "1", "--out", str(out)]) == 0
    world = read_manifest(out)["config"]["world"]
    assert world["close_tolerance"] == 80 and world["goodwill"] == 2.0
    assert world["bounds"] == {"cost_price": 3500, "seller_init": 6000, "buyer_init": 3000}


def test_world_bounds_value_the_flag_would_refuse_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"bounds": {"seller_init": 6000.5}}}), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--n", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: 'world.bounds.seller_init' is an invalid int value: '6000.5'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "world, message",
    [
        ({"goodwill": "nan"}, "goodwill must be finite and above 0, not nan"),
        ({"goodwill": "inf"}, "goodwill must be finite and above 0, not inf"),
        ({"goodwill": -5}, "goodwill must be finite and above 0, not -5.0"),
        ({"close_tolerance": -100}, "close_tolerance must be at least 0, not -100"),
        ({"bounds": {"buyer_init": 5000}}, "buyer_init must be below seller_init"),
    ],
    ids=["goodwill-nan", "goodwill-inf", "goodwill-negative", "tolerance-negative", "bounds-crossed"],
)
def test_world_the_scripted_rules_refuse_is_usage_error(tmp_path, capsys, world, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": world}), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(["--config", str(cfg), "simulate", "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--n", "-3"], "argument --n: must be at least 1, not '-3'"),
        (["simulate", "--n", "0"], "argument --n: must be at least 1, not '0'"),
        (["--workers", "0", "simulate"], "argument --workers: must be at least 1, not '0'"),
        (["simulate", "--p-c", "2"], "argument --p-c: must lie in [0, 1], not '2'"),
        (["simulate", "--p-c", "-0.1"], "argument --p-c: must lie in [0, 1], not '-0.1'"),
        (["simulate", "--p-c", "nan"], "argument --p-c: must lie in [0, 1], not 'nan'"),
        (["filter", "--pool", "p.jsonl", "--sample", "0"], "argument --sample: must be at least 1"),
        (["filter", "--pool", "p.jsonl", "--sample", "4", "--probe-size", "0"],
         "argument --probe-size: must be at least 1"),
        (["filter", "--pool", "p.jsonl", "--sample", "4", "--p-c", "1.5"],
         "argument --p-c: must lie in [0, 1]"),
        (["search", "--pool", "p.jsonl", "--ranked", "r.json", "--k", "0"], "argument --k: must be at least 1"),
        (["search", "--pool", "p.jsonl", "--ranked", "r.json", "--m", "0"], "argument --m: must be at least 1"),
        (["select", "--strategy", "random", "--pool", "p.jsonl", "--k", "-1"],
         "argument --k: must be at least 1"),
        (["simulate", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["simulate", "--p-c", "x"], "argument --p-c: invalid float value: 'x'"),
    ],
    ids=["n-negative", "n-zero", "workers-zero", "p-c-above", "p-c-below", "p-c-nan", "sample-zero",
         "probe-size-zero", "filter-p-c-above", "search-k-zero", "m-zero", "select-k-negative",
         "n-text", "p-c-text"],
)
def test_numeric_flag_out_of_range_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_interactive_needs_no_prompt_templates(tmp_path, monkeypatch):
    # The scripted remediator renders no prompt, so a --prompts-dir without
    # templates does not stop a session.
    monkeypatch.setattr("builtins.input", lambda prompt="": "/quit")
    out = tmp_path / "session.jsonl"
    assert run(["--prompts-dir", str(tmp_path), "interactive", "--role", "seller", "--out", str(out)]) == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--strategy", "random", "--pool", "{pool}", "--k", "2", "--out", "{out}"],
        ["evaluate", "--in", "{corpus}", "--report", "{out}"],
        ["interactive", "--role", "buyer", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_output_is_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys, argv):
    # Each output goes to a new file beside it, which replaces it only once
    # written: a rename that fails leaves the old bytes and no new file.
    monkeypatch.setattr("builtins.input", lambda prompt="": "/quit")
    paths = {
        "corpus": simulate_corpus(tmp_path),
        "pool": make_pool_file(tmp_path, (0.9, 0.8, 0.7)),
        "out": tmp_path / "out.json",
    }
    paths["out"].write_bytes(b"old bytes\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr("negotia.core.os.replace", fail)
    capsys.readouterr()
    assert run([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
    assert paths["out"].read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == []


def test_corpus_records_are_refused_where_they_enter(tmp_path, capsys):
    # A record the old decoder coerced, and a turn text it let through that
    # UTF-8 cannot encode: each ends in exit 2 naming the line, before any
    # output is written.
    line = simulate_corpus(tmp_path).read_text(encoding="utf-8").splitlines()[0]
    record = json.loads(line)
    priced = {**record, "outcome": {**record["outcome"], "deal": True, "price": "4000"}}
    surrogate = {**record, "turns": [{**record["turns"][0], "text": "café \ud83d"}, *record["turns"][1:]]}
    for name, bad, command, message in [
        ("priced.jsonl", priced, "evaluate", "a deal's price must be an integer"),
        ("surrogate.jsonl", surrogate, "annotate", "turn 0: text holds a lone surrogate"),
    ]:
        path, out = tmp_path / name, tmp_path / f"{name}.out"
        path.write_text(json.dumps(record | {"id": "ok"}) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        flag = "--report" if command == "evaluate" else "--out"
        capsys.readouterr()
        assert run([command, "--in", str(path), flag, str(out)]) == 2
        assert f"{path}:2: {message}" in capsys.readouterr().err
        assert not out.exists()


BARGAINING_ARGV = {
    "simulate": ["simulate", "--n", "2", "--out", "{out}"],
    "filter": ["filter", "--pool", "{pool}", "--sample", "3", "--probe-size", "2", "--out", "{out}"],
    "search": ["search", "--ranked", "{ranked}", "--pool", "{pool}", "--k", "2", "--probe-size", "2",
               "--out", "{out}"],
    "interactive": ["interactive", "--role", "buyer", "--out", "{out}"],
}


def bargaining_paths(tmp_path):
    ranked = tmp_path / "ranked.json"
    ranked.write_text(json.dumps([{"id": f"ex-{q}", "value_impact": q} for q in (0.9, 0.8, 0.7)]), encoding="utf-8")
    return {"pool": make_pool_file(tmp_path, (0.9, 0.8, 0.7)), "ranked": ranked, "out": tmp_path / "out.json"}


@pytest.mark.parametrize("command", sorted(BARGAINING_ARGV))
def test_max_turns_the_scripted_rules_refuse_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr("builtins.input", lambda prompt="": "/quit")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_turns": 1}), encoding="utf-8")
    paths = bargaining_paths(tmp_path)
    assert run(["--config", str(cfg), *(a.format(**paths) for a in BARGAINING_ARGV[command])]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: max_turns must leave room for the two opening turns\n"
    assert not paths["out"].exists()


def test_manifest_records_world_and_max_turns_of_bargaining_commands_only(tmp_path, monkeypatch):
    monkeypatch.setattr("builtins.input", lambda prompt="": "/quit")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_turns": 12, "world": {"bounds": {"seller_init": 6000}}}), encoding="utf-8")
    paths = {**bargaining_paths(tmp_path), "corpus": simulate_corpus(tmp_path)}
    others = {
        "annotate": ["annotate", "--in", "{corpus}", "--out", "{out}"],
        "select": ["select", "--strategy", "random", "--pool", "{pool}", "--k", "2", "--out", "{out}"],
        "evaluate": ["evaluate", "--in", "{corpus}", "--report", "{out}"],
    }
    for command, argv in {**BARGAINING_ARGV, **others}.items():
        assert run(["--config", str(cfg), *(a.format(**paths) for a in argv)]) == 0
        config = read_manifest(paths["out"])["config"]
        if command in BARGAINING_ARGV:
            assert config["max_turns"] == 12
            assert config["world"]["bounds"] == {"cost_price": 3500, "seller_init": 6000, "buyer_init": 3000}
        else:
            assert "max_turns" not in config and "world" not in config


@pytest.mark.parametrize(
    "history",
    [[{}], [{"speaker": "moderator", "text": "hi"}], [{"speaker": "buyer", "text": 5}]],
    ids=["empty-object", "unknown-speaker", "text-number"],
)
def test_remediate_refuses_a_malformed_history_turn_by_file(tmp_path, capsys, history):
    pool_path = make_pool_file(tmp_path, (0.9,))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"members": ["ex-0.9"]}), encoding="utf-8")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"history": history, "violation_text": "x"}), encoding="utf-8")
    assert run(["remediate", "--pool", str(pool_path), "--set", str(set_path), "--in", str(query)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {query}: ")


def test_filter_without_violations_is_a_reported_probe_failure(tmp_path, capsys):
    pool_path = make_pool_file(tmp_path, (0.9, 0.8))
    out = tmp_path / "ranked.json"
    assert run(["filter", "--pool", str(pool_path), "--sample", "2", "--p-c", "0", "--out", str(out)]) == 2
    assert "probe point 0: no violation within 20 regenerations" in capsys.readouterr().err
    assert not out.exists()


def test_annotate_refuses_a_turn_text_that_is_not_a_string(tmp_path, capsys):
    record = json.loads(simulate_corpus(tmp_path).read_text(encoding="utf-8").splitlines()[0])
    record["turns"][1]["text"] = 5
    path, out = tmp_path / "bad.jsonl", tmp_path / "pool.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run(["annotate", "--in", str(path), "--out", str(out)]) == 2
    assert f"{path}:1: turn 1: text must be a string" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_deal_price_beyond_a_float(tmp_path, capsys):
    records = [json.loads(line) for line in simulate_corpus(tmp_path).read_text(encoding="utf-8").splitlines()]
    n = next(i for i, r in enumerate(records) if r["outcome"]["deal"])
    records[n]["outcome"]["price"] = 10**400
    path, report = tmp_path / "huge.jsonl", tmp_path / "report.json"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run(["evaluate", "--in", str(path), "--report", str(report)]) == 2
    assert f"{path}:{n + 1}: a deal's price must be an integer that a float can hold" in capsys.readouterr().err
    assert not report.exists()


def test_remediate_switch_takes_only_on_or_off(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run(["simulate", "--remediate", "maybe", "--out", str(out)]) == 1
    assert "argument --remediate: invalid choice: 'maybe' (choose from 'on', 'off')" in capsys.readouterr().err
    assert not out.exists()


def test_interactive_record_is_written_with_sorted_keys(tmp_path, monkeypatch, capsys):
    line = play_session(tmp_path, monkeypatch, "seller").read_text(encoding="utf-8")
    assert line == json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True) + "\n"


def test_interactive_rejected_rewrite_keeps_the_raw_line(tmp_path, monkeypatch, capsys):
    lines = iter(["/flag Take it or leave it, $47 final!", "n", "/quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    out = tmp_path / "session.jsonl"
    assert run(["interactive", "--role", "seller", "--out", str(out)]) == 0
    [d] = load_dialogues(out)
    [flagged] = [t for t in d.turns if t.violation]
    assert flagged.text == "Take it or leave it, $47 final!" and flagged.original_text is None
    [choice] = json.loads(out.read_text(encoding="utf-8"))["interactive_choices"]
    assert choice["original"] == flagged.text and choice["accepted"] is False
    assert "acceptance rate: 0/1 = 0.00" in capsys.readouterr().out


def test_interactive_end_of_input_ends_the_session(tmp_path, monkeypatch):
    def closed(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", closed)
    out = tmp_path / "session.jsonl"
    assert run(["interactive", "--role", "buyer", "--out", str(out)]) == 0
    [d] = load_dialogues(out)
    # The closed input reads as '/quit': a walk-away after the two openers.
    assert len(d.turns) == 2 and not d.outcome.deal


INPUT_MISTAKES = {
    # A flag that asks for more than its file holds: a usage error naming both.
    "select-k": (["select", "--strategy", "random", "--pool", "{pool}", "--k", "99", "--out", "{out}"],
                 1, "--k 99 exceeds the 6 exemplars in {pool}"),
    "select-k-empty-pool": (["select", "--strategy", "random", "--pool", "{empty}", "--k", "1",
                             "--out", "{out}"], 1, "--k 1 exceeds the 0 exemplars in {empty}"),
    "filter-sample": (["filter", "--pool", "{pool}", "--sample", "99", "--out", "{out}"],
                      1, "--sample 99 exceeds the 6 exemplars in {pool}"),
    "filter-sample-empty-pool": (["filter", "--pool", "{empty}", "--sample", "1", "--out", "{out}"],
                                 1, "--sample 1 exceeds the 0 exemplars in {empty}"),
    "search-k": (["search", "--ranked", "{ranked}", "--pool", "{pool}", "--k", "99", "--out", "{out}"],
                 1, "--k 99 leaves no candidates among the 1 ids in {ranked}"),
    # Bad file content: a runtime error naming the file.
    "evaluate-empty": (["evaluate", "--in", "{empty}", "--report", "{out}"], 2, "{empty}: no dialogues"),
    "evaluate-no-outcome": (["evaluate", "--in", "{unscored}", "--report", "{out}"],
                            2, "{unscored}: no dialogue has an outcome: sim-0"),
    "remediate-empty-violation": (["remediate", "--pool", "{pool}", "--set", "{set}", "--in", "{query}"],
                                  2, "{query}: 'violation_text' must be non-empty"),
    "remediate-surrogate-violation": (["remediate", "--pool", "{pool}", "--set", "{set}", "--in",
                                       "{surrogate}"], 2, "{surrogate}: not a UTF-8 JSON file"),
    "corpus-not-utf8": (["evaluate", "--in", "{latin1}", "--report", "{out}"], 2, "{latin1}: not a UTF-8 file"),
    "pool-not-utf8": (["select", "--strategy", "random", "--pool", "{latin1}", "--k", "1", "--out", "{out}"],
                      2, "{latin1}: not a UTF-8 file"),
    "config-not-utf8": (["--config", "{latin1}", "evaluate", "--in", "{corpus}", "--report", "{out}"],
                        2, "{latin1}: not a UTF-8 JSON file"),
    "set-not-utf8": (["remediate", "--pool", "{pool}", "--set", "{latin1}", "--in", "{query}"],
                     2, "{latin1}: not a UTF-8 JSON file"),
    # How a byte of argv that is not UTF-8 arrives; every request would carry it.
    "model-not-utf8": (["--api-base", "http://example.invalid/v1", "--model", "m\udcff", "simulate",
                        "--backend", "remote", "--out", "{out}"], 1, "--api-base and --model must be UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(INPUT_MISTAKES))
def test_input_mistakes_name_their_flag_or_file(tmp_path, capsys, case):
    # Seen on a 3-dialogue scripted corpus and its 6-exemplar pool.
    paths = {name: tmp_path / name for name in
             ("corpus.jsonl", "pool.jsonl", "empty.jsonl", "ranked.json", "unscored.jsonl", "set.json",
              "query.json", "surrogate.json", "latin1.bin", "out.json")}
    corpus, pool = paths["corpus.jsonl"], paths["pool.jsonl"]
    assert run(["simulate", "--n", "3", "--p-c", "0.9", "--seed", "1", "--out", str(corpus)]) == 0
    assert run(["annotate", "--in", str(corpus), "--out", str(pool)]) == 0
    ids = [e.id for e in load_exemplars(pool)]
    assert len(ids) == 6
    unscored = json.loads(corpus.read_text(encoding="utf-8").splitlines()[0])
    del unscored["outcome"]
    paths["empty.jsonl"].write_text("", encoding="utf-8")
    paths["ranked.json"].write_text(json.dumps([{"id": ids[0], "value_impact": 0.1}]), encoding="utf-8")
    paths["unscored.jsonl"].write_text(json.dumps(unscored) + "\n", encoding="utf-8")
    paths["set.json"].write_text(json.dumps({"members": ids[:1]}), encoding="utf-8")
    paths["query.json"].write_text(json.dumps({"history": [], "violation_text": ""}), encoding="utf-8")
    paths["surrogate.json"].write_text('{"history": [], "violation_text": "ok \\ud83d"}', encoding="utf-8")
    paths["latin1.bin"].write_bytes('{"text": "café"}\n'.encode("latin-1"))
    named = {Path(name).stem: str(p) for name, p in paths.items()}
    capsys.readouterr()
    argv, code, message = INPUT_MISTAKES[case]
    assert run([a.format(**named) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(**named))
    assert not paths["out.json"].exists()


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_interactive_input_that_is_not_utf8_is_refused(tmp_path, monkeypatch, capsys, errors):
    def read(prompt=""):  # how sys.stdin decodes the byte 0xff under each error handler
        return b"hello \xff".decode("utf-8", errors)

    monkeypatch.setattr("builtins.input", read)
    out = tmp_path / "session.jsonl"
    assert run(["interactive", "--role", "buyer", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: standard input: not UTF-8: ")
    assert not out.exists()
