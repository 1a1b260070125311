"""negotia benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The run generates the workload's inputs from the seed (several times, to
time set-up), runs one untimed reference pass, then runs passes back to back
for `--seconds` and checks every pass's outputs. Times are medians, scaled to
a reference machine speed measured between passes (calibrate.py). It prints a
table of the workload's named metrics, then, as the last line, one JSON
object: `--trace 0` gives the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and gives the per-layer metrics, the tracing
overhead among them. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
DIGESTS = Path(__file__).resolve().parent / "digests.json"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _import_program() -> bool:
    """Import negotia from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import negotia
    except ImportError as exc:
        print(f"perfbench: cannot import negotia from {src}: {exc}", file=sys.stderr)
        return False
    if Path(negotia.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: imported negotia from {negotia.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def _import_s() -> float:
    """Median seconds `import negotia` takes in a fresh interpreter.

    Each child times only the import, so interpreter start-up is left out.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import negotia; print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(SETUP_REPEATS)
    )


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "value_search", "retrieval", "remote_cached"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write every metric, count and digest to this JSON file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    import calibrate
    import inputs
    import spans
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work, calibrate, inputs, spans, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, calibrate, inputs, spans, workloads) -> int:
    attempted, problems = 0, []

    def check(ok: bool, problem: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            problems.append(problem)

    # Set-up: import the program and generate the inputs several times; the
    # inputs must be byte-identical each time.
    setup_kernel = calibrate.kernel_s()
    import_s = _import_s()
    setup_times, input_digests = [], []
    for i in range(SETUP_REPEATS):
        d = work / f"inputs{i}"
        d.mkdir(parents=True)
        t = perf_counter()
        inp = inputs.GENERATORS[args.workload](args.seed, d)
        setup_times.append(perf_counter() - t)
        input_digests.append(inputs.input_digests(d))
    check(all(x == input_digests[0] for x in input_digests), "same seed gave different inputs")
    setup_scale = calibrate.REFERENCE_S / statistics.mean((setup_kernel, calibrate.kernel_s()))
    workload = workloads.WORKLOADS[args.workload](inp, args.seed)

    reference = workload.reference(_fresh(work / "reference"))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {}).get(str(args.seed))
    expected = recorded if recorded is not None else reference.outputs
    attempted += reference.attempted
    problems += [f"reference: {x}" for x in reference.problems]
    if recorded is not None:
        check(reference.outputs == recorded, "reference outputs differ from the digests recorded for the seed")

    scaled = {name for name, unit, _ in spans.PER_LAYER if unit == "s"}
    passes, traced, layer, kernels = [], [], [], [calibrate.kernel_s()]
    deadline = perf_counter() + args.seconds
    k = 0
    while k < 2 * (1 + args.trace) or perf_counter() < deadline:
        tracer = None
        if args.trace and k % 2 == 1:
            tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}:{k}")
            tracer.install()
        try:
            p = workload.run_pass(_fresh(work / f"pass{k}"))
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(work / f"pass{k}", ignore_errors=True)
        kernels.append(calibrate.kernel_s())
        p.scale = calibrate.REFERENCE_S / statistics.mean(kernels[-2:])
        attempted += p.attempted
        problems += [f"pass {k}: {x}" for x in p.problems]
        check(p.outputs == expected, f"pass {k}: outputs differ from the reference")
        if tracer is None:
            passes.append(p)
        else:
            traced.append(p)
            layer.append({name: value * p.scale if name in scaled else value
                          for name, value in tracer.layer_metrics().items()})
            last_tracer = tracer
        k += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Time only passes that completed; a failed one may have skipped steps.
    passes = [p for p in passes if not p.problems] or passes
    traced = [p for p in traced if not p.problems] or traced
    run_s = workloads.median_s(passes)
    named = {
        "setup_s": ((import_s + statistics.median(setup_times)) * setup_scale, "s"),
        "run_s": (run_s, "s"),
        **workload.named(passes),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (len(problems) / attempted, "ratio"),
    }
    if args.trace:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        overhead = workloads.median_s(traced) - run_s
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values["trace.overhead_s"] = overhead
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        last_tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": named["setup_s"][0],
            "run_s": run_s,
            "items_per_s": workload.items_per_s(passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} untraced and {len(traced)} traced passes, closed loop, 1 client")
    walls = sorted(p.wall_s for p in passes)
    scales = sorted(p.scale for p in passes)
    print(f"  unscaled pass wall time over {len(walls)} passes: fastest {walls[0]:.6g} s, "
          f"median {statistics.median(walls):.6g} s, slowest {walls[-1]:.6g} s; "
          f"speed scale {scales[0]:.3g} to {scales[-1]:.3g}")
    for name, (value, unit) in named.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  {'trace.overhead_s':<26} {values['trace.overhead_s']:>14.6g} s")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")

    if args.report:
        Path(args.report).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "named": {k: v[0] for k, v in named.items()},
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "inputs": input_digests[0],
            "outputs": reference.outputs,
            "counts": passes[0].counts,
            "pass_s": [p.wall_s for p in passes],
            "pass_scale": [p.scale for p in passes],
            "traced_pass_s": [p.wall_s for p in traced],
            "problems": problems,
        }, indent=2, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


def _fresh(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
