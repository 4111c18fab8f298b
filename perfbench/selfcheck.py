"""Self-check of the traced run: two traced runs at one seed must report
identical per-layer counts and ratios.

    python3 perfbench/selfcheck.py --workload calculus --seed 7

Runs ``run.py --trace 1`` twice, each in a fresh process, and compares every
per-layer metric whose unit is ``count`` or ``ratio`` except
``trace.overhead``, which is a timing.  Exits 0 when they agree; otherwise
names each metric that differs with both values and exits 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, timeout=600, check=True,
                          cwd=RUN.parent.parent)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "calculus", "grid"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first, second = traced(args.workload, args.seed), traced(args.workload, args.seed)
    counts = [name for name, m in first.items()
              if m["unit"] in ("count", "ratio") and name != "trace.overhead"]
    differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
    for name in differ:
        print(f"{name}: {first[name]['value']} then {second[name]['value']}")
    print(f"{args.workload} seed {args.seed}: {len(counts) - len(differ)} of "
          f"{len(counts)} per-layer counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
