"""The four workloads: one pass of each, its outputs and its checks.

Every workload is a closed loop with one client on one thread: a pass runs
its steps one after another and the next pass starts when it ends. CLI
subcommands run in-process through `negotia.cli.run(argv)`, so interpreter
start-up is not timed as work. Functions are looked up on their modules at
call time, so the traced run sees these calls too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from negotia import backends, cli, core, prompts, simulation

import inputs
from stub import StubTransport

remediate_mod = importlib.import_module("negotia.remediate")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Pass:
    """One pass: its wall time, stage times, output digests and failures.

    `scale` converts this pass's seconds to seconds at the reference speed
    (see calibrate.py); run.py sets it from the calibration loops run just
    before and just after the pass.
    """

    wall_s: float = 0.0
    scale: float = 1.0
    stages: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    def time(self, stage: str, seconds: float) -> None:
        self.stages.setdefault(stage, []).append(seconds)

    def check(self, ok: bool, problem: str) -> None:
        """Record one correctness check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


def _cli(p: Pass, stage: str, argv: list) -> bool:
    """Run one subcommand in-process; a non-zero exit is a failed operation."""
    start = perf_counter()
    try:
        code = cli.run([str(a) for a in argv])
    except Exception:  # noqa: BLE001 - the run reports the failure and goes on
        traceback.print_exc(file=sys.stderr)
        code = -1
    p.time(stage, perf_counter() - start)
    p.check(code == 0, f"{stage} exited with {code}")
    return code == 0


class Workload:
    """Inputs of one seed; `run_pass` runs the steps into a fresh directory."""

    name = ""
    # Work items of one pass, for items_per_s.
    items = 1

    def __init__(self, inp: dict, seed: int):
        self.inp = inp
        self.seed = seed

    def reference(self, d: Path) -> Pass:
        """The pass whose outputs later passes must reproduce byte for byte."""
        return self.run_pass(d)

    def run_pass(self, d: Path) -> Pass:
        raise NotImplementedError

    def named(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics, by name, with units."""
        raise NotImplementedError

    def items_per_s(self, passes: list[Pass]) -> float:
        raise NotImplementedError


def median_s(passes: list[Pass], *stages: str) -> float:
    """Median over passes of the time in the given stages (default: the whole
    pass), in seconds at the reference speed."""
    if not stages:
        return statistics.median(p.wall_s * p.scale for p in passes)
    return statistics.median(sum(sum(p.stages.get(s, ())) for s in stages) * p.scale for p in passes)


class Corpus(Workload):
    """simulate (2 workers) -> annotate -> evaluate on a scripted corpus."""

    name = "corpus"
    items = inputs.CORPUS_DIALOGUES

    def reference(self, d: Path) -> Pass:
        return self.run_pass(d, workers=1)

    def run_pass(self, d: Path, workers: int = 2) -> Pass:
        p = Pass()
        corpus, pool, report = d / "corpus.jsonl", d / "pool.jsonl", d / "report.json"
        start = perf_counter()
        (_cli(p, "simulate", ["--config", self.inp["config"], "--workers", workers,
                              "simulate", "--out", corpus])
         and _cli(p, "annotate", ["annotate", "--in", corpus, "--out", pool])
         and _cli(p, "evaluate", ["evaluate", "--in", corpus, "--report", report]))
        p.wall_s = perf_counter() - start
        if not p.problems:
            p.outputs = {f.name: digest(f) for f in (corpus, pool, report)}
            n = json.loads(report.read_text(encoding="utf-8"))["n"]
            p.check(n == self.items, f"report counts {n} dialogues, expected {self.items}")
        return p

    def items_per_s(self, passes):
        return self.items / median_s(passes)

    def named(self, passes):
        return {"dialogues_per_s": (self.items_per_s(passes), "1/s")}


class ValueSearch(Workload):
    """filter, a search from its ranking (m 2), a search from a noisy one (m 4)."""

    name = "value_search"
    items = inputs.FILTER_SAMPLE

    def run_pass(self, d: Path) -> Pass:
        p = Pass()
        pool = self.inp["pool"]
        ranked = d / "ranked.json"
        common = ["--pool", pool, "--k", inputs.SET_K, "--probe-size", inputs.PROBE_SIZE,
                  "--seed", self.seed]
        runs = (("search_ranked", ranked, inputs.FILTER_M), ("search_noisy", self.inp["noisy"], inputs.NOISY_M))
        start = perf_counter()
        ok = _cli(p, "filter", ["filter", "--pool", pool, "--sample", inputs.FILTER_SAMPLE,
                                "--probe-size", inputs.PROBE_SIZE, "--seed", self.seed, "--out", ranked])
        for stage, ranking, m in runs:
            ok = ok and _cli(p, stage, ["search", "--ranked", ranking, *common, "--m", m,
                                        "--out", d / f"best_{stage}.json", "--trace", d / f"trace_{stage}.json"])
        p.wall_s = perf_counter() - start
        if not ok:
            return p
        outs = [ranked] + [d / f"{kind}_{stage}.json" for stage, _, _ in runs for kind in ("best", "trace")]
        p.outputs = {f.name: digest(f) for f in outs}

        ids = {o["id"] for o in json.loads(ranked.read_text(encoding="utf-8"))}
        noisy = {o["id"] for o in json.loads(self.inp["noisy"].read_text(encoding="utf-8"))}
        p.check(ids == noisy, "filter ranked other ids than the noisy ranking holds")
        for stage, _, _ in runs:
            chosen = json.loads((d / f"best_{stage}.json").read_text(encoding="utf-8"))
            trace = json.loads((d / f"trace_{stage}.json").read_text(encoding="utf-8"))
            impacts = [e["impact"] for e in trace["evaluations"]]
            p.check(chosen["value_impact"] == max(impacts) and len(chosen["members"]) == inputs.SET_K,
                    f"{stage}: best set is not the best evaluated set")
            p.counts[f"{stage}.evaluations"] = len(impacts)
        return p

    def items_per_s(self, passes):
        return self.items / median_s(passes, "filter")

    def named(self, passes):
        return {
            "ranked_per_s": (self.items_per_s(passes), "1/s"),
            "search_s": (median_s(passes, "search_ranked", "search_noisy"), "s"),
        }


class Retrieval(Workload):
    """select --strategy retrieval for each query against a fixed pool."""

    name = "retrieval"
    items = inputs.RETRIEVAL_QUERIES

    def run_pass(self, d: Path) -> Pass:
        p = Pass()
        outs = []
        start = perf_counter()
        for i, query in enumerate(self.inp["queries"]):
            out = d / f"selected{i}.json"
            if not _cli(p, "select", ["select", "--strategy", "retrieval", "--pool", self.inp["pool"],
                                      "--k", inputs.SELECT_K, "--query", query, "--out", out]):
                break
            outs.append(out)
        p.wall_s = perf_counter() - start
        if p.problems:
            return p
        p.outputs = {f.name: digest(f) for f in outs}
        for f in outs:
            members = json.loads(f.read_text(encoding="utf-8"))["members"]
            p.check(len(set(members)) == inputs.SELECT_K, f"{f.name}: not {inputs.SELECT_K} distinct members")
        return p

    def _query_ms(self, passes):
        return statistics.median(t * p.scale for p in passes for t in p.stages["select"]) * 1000.0

    def items_per_s(self, passes):
        return 1000.0 / self._query_ms(passes)

    def named(self, passes):
        samples = sum(len(p.stages["select"]) for p in passes)
        return {
            "query_ms": (self._query_ms(passes), "ms"),
            "query_samples": (samples, "count"),
        }


class RemoteCached(Workload):
    """Library simulate on the remote lane, remediation on, through a cache.

    For each stub salt, a cold pass over the dialogue seeds starts from an
    empty cache directory and writes an entry on each miss; a warm pass over
    the same seeds is all hits. The transport is the deterministic stub.
    """

    name = "remote_cached"
    items = inputs.REMOTE_SALTS * inputs.REMOTE_DIALOGUES

    def run_pass(self, d: Path) -> Pass:
        cfg = json.loads(self.inp["config"].read_text(encoding="utf-8"))
        p = Pass()
        p.counts = {"cold_calls": 0, "warm_calls": 0}
        results = {"cold": [], "warm": []}
        start = perf_counter()
        templates = prompts.TemplateStore()
        for j, salt in enumerate(cfg["salts"]):
            stub = StubTransport(salt)
            session = backends.BackendSession(
                kind="remote", endpoint="http://stub.invalid/v1", model_name="stub",
                cache_dir=d / f"cache{j}", backoff_base=0.0, transport=stub,
            )
            policy = remediate_mod.RemediationPolicy(exemplars=(), backend=session)

            def remediator(history, text, policy=policy):
                return remediate_mod.remediate(policy, history, text, templates)

            for phase in ("cold", "warm"):
                calls_before = stub.calls
                t = perf_counter()
                for i, seed in enumerate(cfg["dialogue_seeds"]):
                    config = simulation.SimulationConfig(
                        p_c=cfg["p_c"], remediation_enabled=True, max_turns=cfg["max_turns"], seed=seed)
                    try:
                        dialogue = simulation.simulate(
                            session, session, session, config, templates,
                            remediator=remediator, evaluator=session,
                            bounds=inputs.BOUNDS, dialogue_id=f"remote-{j}-{i}",
                        )
                    except Exception:  # noqa: BLE001 - counted as a failed operation
                        traceback.print_exc(file=sys.stderr)
                        dialogue = None
                    p.check(dialogue is not None and dialogue.error is None and dialogue.outcome is not None,
                            f"{phase} dialogue {j}-{i} failed"
                            + (f": {dialogue.error}" if dialogue is not None and dialogue.error else ""))
                    results[phase].append(dialogue)
                p.time(phase, perf_counter() - t)
                p.counts[f"{phase}_calls"] += stub.calls - calls_before
        p.wall_s = perf_counter() - start
        if p.problems:
            return p

        for phase, dialogues in results.items():
            path = d / f"remote_{phase}.jsonl"
            core.dump_dialogues(dialogues, path)
            p.outputs[path.name] = digest(path)
        p.check(p.outputs["remote_cold.jsonl"] == p.outputs["remote_warm.jsonl"],
                "warm pass differs from the cold pass")
        p.check(p.counts["warm_calls"] == 0, "warm pass reached the transport")
        return p

    def items_per_s(self, passes):
        # The warm pass: a cold pass's misses each create a file, whose cost
        # swings with the host's disk load, and run_s already holds both.
        return self.items / median_s(passes, "warm")

    def named(self, passes):
        return {
            "cold_dialogues_per_s": (self.items / median_s(passes, "cold"), "1/s"),
            "warm_dialogues_per_s": (self.items_per_s(passes), "1/s"),
            "chat_calls_per_dialogue": (passes[0].counts.get("cold_calls", 0) / self.items, "count"),
        }


WORKLOADS = {w.name: w for w in (Corpus, ValueSearch, Retrieval, RemoteCached)}
