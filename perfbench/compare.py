"""Run the benchmark over several seeds, on one checkout or on two.

One checkout: the median, quartiles and spread of every end-to-end metric,
the spread being (Q3 - Q1) / median as `statistics.quantiles(n=4)` gives
them.

    python3 perfbench/compare.py --workload corpus --seeds 1-10 .

Two checkouts (parent first): runs alternate which side goes first, one pair
per seed, and each metric is reported with both sides' medians, the pairs
the change won, and a verdict. A gain needs wins in at least nine tenths of
the pairs, a median difference larger than the parent's own spread, and no
more failed operations than the parent; a regression is a median worse
than the parent's by more than the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py --workload retrieval --seeds 1-10 ../parent ../change

`--record FILE` stores the first checkout's per-metric values, medians and
quartiles under the workload's name in FILE (perfbench/baseline.json holds
the recorded baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, trace: int,
             seconds: int = BENCHMARK["run_seconds"], report: Path | None = None) -> dict | None:
    """One benchmark run in its own process: its JSON result, or None if it
    exits non-zero (its standard error is then printed)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if report is not None:
        argv += ["--report", str(report)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{checkout} {workload} seed {seed}: INCORRECT\n{proc.stdout}", file=sys.stderr)
    return result


def seed_range(text: str) -> list[int]:
    """The seeds of an inclusive range such as "1-10", or of one seed."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")

    seeds = seed_range(args.seeds)
    runs: list[list[dict]] = [[] for _ in args.checkouts]
    for i, seed in enumerate(seeds):
        order = list(range(len(args.checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            result = run_once(args.checkouts[side], args.workload, seed, args.trace)
            if result is None:
                return 1
            runs[side].append(result)

    metrics = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    failed = [sum(r["failed"] for r in side) for side in runs]
    print(f"{args.workload}: {len(seeds)} seeds, {BENCHMARK['run_seconds']} s runs, "
          f"failed operations {failed}")
    summary = {}
    for m in metrics:
        name = m["name"]
        values = [[r["metrics"][name]["value"] for r in side] for side in runs]
        q1, med, q3 = _quartiles(values[0])
        spread = (q3 - q1) / med if med else None
        summary[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": values[0]}
        shown = "-" if spread is None else f"{spread:.3f}"
        line = f"  {name:<40} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {shown}"
        if "bound" in m:
            line += f" (bound {m['bound']})"
        if len(runs) == 2:
            lower = m["better"] == "lower"
            c_med = statistics.median(values[1])
            wins = sum((b < a) if lower else (b > a) for a, b in zip(*values))
            diff = (med - c_med) if lower else (c_med - med)
            all_better = wins == len(seeds) and (
                max(values[1]) < min(values[0]) if lower else min(values[1]) > max(values[0]))
            if failed[1] > failed[0]:
                verdict = "no gain: failed operations"
            elif wins >= 0.9 * len(seeds) and diff > q3 - q1:
                verdict = "gain"
            elif "bound" in m and -diff > m["bound"] * med:
                verdict = "REGRESSION"
            elif "bound" in m and spread is not None and spread > m["bound"] and not all_better:
                verdict = "unresolved: the parent's spread exceeds the bound"
            else:
                verdict = "within the bound"
            line += f"\n  {'':<40} change {c_med:<12.6g} won {wins}/{len(seeds)}: {verdict}"
        print(line)
    if args.record:
        table = json.loads(args.record.read_text()) if args.record.exists() else {}
        table[args.workload] = {"seeds": args.seeds, "seconds": BENCHMARK["run_seconds"], "trace": args.trace,
                                "failed": failed[0], "metrics": summary}
        args.record.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
