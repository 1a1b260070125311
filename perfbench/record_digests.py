"""Record the digests of each workload's outputs for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-49

For every workload and seed it generates the inputs, runs the reference pass
(for `corpus`, the `--workers 1` build) and writes the sha256 of every
output to `digests.json`, which `run.py` checks each pass against. Re-record
only in a change that alters the program's outputs on purpose, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record_digests.py")
    parser.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    args = parser.parse_args(argv)
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    work = HERE.parent / ".perfbench_work" / "record"
    try:
        for name in sorted(workloads.WORKLOADS):
            for seed in compare.seed_range(args.seeds):
                shutil.rmtree(work, ignore_errors=True)
                (work / "inputs").mkdir(parents=True)
                (work / "out").mkdir()
                inp = inputs.GENERATORS[name](seed, work / "inputs")
                ref = workloads.WORKLOADS[name](inp, seed).reference(work / "out")
                if ref.problems:
                    print(f"{name} seed {seed}: {ref.problems}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = ref.outputs
                print(f"{name} seed {seed}: {len(ref.outputs)} outputs", flush=True)
            table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
