"""Self-check of the traced run: two traced runs with one seed must report identical counts.

    python3 perfbench/selfcheck.py --workload cli-sweep --seed 1

Runs run.py --trace 1 twice and compares every per-layer metric that is a
count of work (unit count or B): cuts.schmidt.calls, linalg.svd.calls,
subspaces.search.calls, catalog.gate.calls, statefile.bytes_in and
bytes_out, report.bytes_out and the rest. Exits 1 when any differs or a run
fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run printed a wrong answer ({result['failed']} of "
                         f"{result['attempted']} operations failed)")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    first, second = traced_counts(args.workload, args.seed), traced_counts(args.workload, args.seed)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    for k in first:
        print(f"{k:38} {first[k]:>14g} {second[k]:>14g}{'  DIFFERS' if k in differ else ''}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
