"""The benchmark's checks of itself.

    python3 perfbench/selfcheck.py

- BENCHMARK.json names exactly the metrics run.py and spans.py report;
- every generator writes the same bytes for the same seed and other bytes
  for another seed;
- the stub transport recognises every template and answers each with a
  reply the program parses;
- work counts (chat calls per dialogue, search evaluations, rollouts and
  every other count of the traced run) repeat exactly across two runs;
- every workload runs clean on a second seed.

Each benchmark run it starts is its own process, as in normal use. Exits
non-zero if any check fails.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from negotia.backends import BackendSession  # noqa: E402
from negotia.core import Dialogue, Speaker, Topic, Turn  # noqa: E402
from negotia.outcome import assess_outcome  # noqa: E402
from negotia.prompts import TEMPLATE_IDS, WILDCARDS, TemplateStore, render  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selfcheck"
SEEDS = (1, 2)
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER),
          "BENCHMARK.json per_layer matches spans.PER_LAYER")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")


def check_generators() -> None:
    for name, generate in inputs.GENERATORS.items():
        digests = []
        for i, seed in enumerate((SEEDS[0], SEEDS[0], SEEDS[1])):
            d = WORK / f"gen-{name}-{i}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            generate(seed, d)
            digests.append(inputs.input_digests(d))
        check(digests[0] == digests[1], f"{name}: same seed, same input digests")
        check(digests[0] != digests[2], f"{name}: another seed, other input digests")


def check_stub() -> None:
    templates = TemplateStore()
    bindings = {w: "buyer: Could you do $3100 per unit?\nseller: We can do $4500." for w in WILDCARDS}
    transport = stub.StubTransport("selfcheck")
    for tid in TEMPLATE_IDS:
        messages = render(templates.get(tid), bindings)
        check(stub.template_id(messages) == tid, f"stub recognises template {tid}")
        reply = transport({"messages": messages})["choices"][0]["message"]["content"]
        ok = reply in ("Yes", "No") if tid == "moderator" else bool(reply.strip())
        check(ok, f"stub answers {tid}: {reply!r}")
    check(transport.calls == len(TEMPLATE_IDS), "stub counts its calls")

    # assess_outcome logs a warning for every evaluator reply it cannot parse.
    warnings: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warnings.append
    logger = logging.getLogger("negotia.outcome")
    logger.addHandler(handler)
    session = BackendSession(kind="remote", endpoint="http://stub.invalid/v1", model_name="stub",
                             transport=transport)
    deals = set()
    try:
        for i in range(40):
            turns = (Turn(Speaker.BUYER, f"Could you do ${3000 + i} per unit?"),
                     Turn(Speaker.SELLER, "We can come down to $4500 per unit."))
            d = Dialogue(id=f"d{i}", topic=Topic.PRODUCT_SALE, bounds=inputs.BOUNDS, turns=turns)
            deals.add(assess_outcome(d, session, templates).deal)
    finally:
        logger.removeHandler(handler)
    check(not warnings and deals == {True, False},
          f"evaluator replies parse, deals and no deals both occur ({len(warnings)} warnings)")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    report = WORK / f"report-{workload}-{seed}-{trace}.json"
    result = compare.run_once(ROOT, workload, seed, trace, seconds=2, report=report)
    if result is None:
        check(False, f"{workload} seed {seed} trace {trace} exits 0")
        return {}, {}
    return result, json.loads(report.read_text(encoding="utf-8"))


def check_runs() -> None:
    counts = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "ratio")]
    for name in sorted(workloads.WORKLOADS):
        traced = [bench(name, SEEDS[0], 1) for _ in range(2)]
        if all(r for r, _ in traced):
            (a, ra), (b, rb) = traced
            differ = [m for m in counts if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
            check(not differ, f"{name}: per-layer counts repeat exactly across runs {differ}")
            check(ra["counts"] == rb["counts"], f"{name}: workload counts repeat exactly {ra['counts']}")
            if "chat_calls_per_dialogue" in ra["named"]:
                check(ra["named"]["chat_calls_per_dialogue"] == rb["named"]["chat_calls_per_dialogue"],
                      f"{name}: chat_calls_per_dialogue repeats exactly")
        for seed in SEEDS:
            result, _ = bench(name, seed, 0)
            if result:
                check(result["correct"] and result["failed"] == 0, f"{name} seed {seed}: runs clean")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_metric_names()
        check_generators()
        check_stub()
        check_runs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
