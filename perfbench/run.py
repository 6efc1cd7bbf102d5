"""uebkit benchmark: one workload, one seed, timed end to end or traced per layer.

    python3 perfbench/run.py --workload allcuts-verify --seed 1 --seconds 26 --trace 0

Run it from the root of a checkout; it imports uebkit from ./src and fails
(exit code 2, no result) when that is missing. Workloads are described in
workloads.py.

A run is a fixed number of passes, ceil(seconds / the workload's nominal
pass time) and at least 2. Each pass is a fresh interpreter that generates
the inputs from the seed, then runs the workload's operations back to back
(a closed loop, one client). The count depends only on the workload and
--seconds, so every commit runs the same operations: sample counts and the
tail percentile repeat exactly. Every pass repeats the same commands on the
same inputs, in separate processes; two repeats that print different bytes
count as failed. The library searches of complement-search are the
exception: each pass draws fresh subspaces (see workloads.py).

--trace 0 prints the end-to-end metrics, measured without tracing:
  setup_s      median wall time from starting a fresh interpreter to its
               first timed operation, over the passes plus set-up-only
               passes, at least three in all
  ops_per_s    operations completed / their summed wall time
  op_ms_p50    median wall time of one operation
  op_ms_tail   wall time at the highest percentile with at least ten
               samples beyond it
  peak_rss_mb  peak resident memory of the processes that ran the workload
               (getrusage of each pass and of its children)
op_ms_p50 and op_ms_tail are printed but left out of the result line
(UNGATED). failed_ratio (failed / attempted) is printed with them and
carried by the result line's "failed" and "attempted". An operation fails
when its output is wrong or when it is a near miss (see NEAR_MISS in
workloads.py and check_me_band in oracle.py); "correct" is false when any
output is wrong.

--trace 1 runs two passes, each twice on identical inputs, plain and then
traced, and prints the per-layer metrics of the traced passes (tracing.py)
plus trace.overhead_ratio, the traced over the plain operation wall time.
Traced counts repeat exactly between runs with the same seed. A traced
repeat must print the same bytes as its plain twin.

The last line of stdout is the JSON result; the full record (environment,
samples, per-operation digests, failures) is written to
.perfbench-out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
DEADLINE_S = 120  # no pass starts after this, so a run ends well within 180 s
PASS_TIMEOUT_S = 170
TRACED_PASSES = 2
SETUP_SAMPLES = 3  # set-up-only passes top the set-up samples up to this many
# Printed and recorded, but left out of the result line. On a shared 2-core
# host their spread over ten seeds (IQR / median) reached 0.24-0.26 for
# op_ms_p50 on complement-search and 0.24-0.34 for op_ms_tail, wider than any
# bound a checked metric may have: the median operation there is a short
# product search whose time varies with the subspace and the host, and the
# ten slowest operations follow the host's bursts. ops_per_s, the inverse
# mean operation time, stays checked on every workload.
UNGATED = {"op_ms_p50", "op_ms_tail"}

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = {
    "cli.self_s": "s",
    "statefile.calls": "count",
    "statefile.self_s": "s",
    "statefile.bytes_in": "B",
    "statefile.bytes_out": "B",
    "states.validate.calls": "count",
    "states.validate.self_s": "s",
    "states.complement.calls": "count",
    "states.complement.self_s": "s",
    "cuts.schmidt.calls": "count",
    "cuts.self_s": "s",
    "subspaces.verify.calls": "count",
    "subspaces.verify.self_s": "s",
    "subspaces.exact.calls": "count",
    "subspaces.exact.self_s": "s",
    "subspaces.search.calls": "count",
    "subspaces.search.self_s": "s",
    "subspaces.search.hits": "count",
    "subspaces.search.witness_calls": "count",
    "subspaces.search.hit_ratio": "ratio",
    "subspaces.completion.found": "count",
    "subspaces.completion.complement_dim": "count",
    "subspaces.completion.fill_ratio": "ratio",
    "catalog.build.calls": "count",
    "catalog.build.self_s": "s",
    "catalog.gate.calls": "count",
    "report.diagnostics.self_s": "s",
    "report.render.self_s": "s",
    "report.bytes_out": "B",
    "slocc.calls": "count",
    "slocc.self_s": "s",
    "locc.calls": "count",
    "locc.self_s": "s",
    "linalg.svd.calls": "count",
    "linalg.svd.self_s": "s",
    "linalg.svd.elems": "count",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(input_bytes: dict[str, int]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},  # None: left at the library default
        "input_bytes": input_bytes,
    }


def run_pass(workload: str, seed: int, mode: str, index: int, run_dir: Path, deadline: float) -> dict:
    out = run_dir / f"pass{index}-{mode}.json"
    cmd = [sys.executable, str(BENCH / "passrun.py"), str(ROOT), workload, str(seed), str(index), mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(t0), str(out)], stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"pass {index} timed out")
    if code != 0:
        raise RuntimeError(f"pass {index} exited with code {code}")
    return {"index": index, **json.loads(out.read_text())}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - i - 1


def score(passes: list[dict]) -> tuple[int, int, int, list[str], dict[str, list[str]]]:
    """attempted, failed, wrong, failure messages, stdout digests per operation in pass order.

    Runs of one operation on identical inputs (every pass for a repeated
    operation, the plain and traced twins of one pass otherwise) must print
    identical bytes. An operation with problems is wrong; one with only
    misses has failed without being wrong.
    """
    ids = [op["id"] for op in passes[0]["ops"]]
    failures, digests, first, attempted, failed, wrong = [], {}, {}, 0, 0, 0
    for res in passes:
        if [op["id"] for op in res["ops"]] != ids:
            raise RuntimeError(f"pass {res['index']} ran a different operation list")
        for op in res["ops"]:
            attempted += 1
            digests.setdefault(op["id"], []).append(op["sha256"])
            want = first.setdefault(op["id"] if op["repeated"] else (op["id"], res["index"]), op["sha256"])
            problems = list(op["problems"])
            if op["sha256"] != want:
                problems.append(f"stdout differs from its first repeat ({op['sha256'][:12]} vs {want[:12]})")
            if problems:
                wrong += 1
                failures.append(f"WRONG pass {res['index']} {op['id']}: " + "; ".join(problems))
            elif op["misses"]:
                failures.append(f"MISSED pass {res['index']} {op['id']}: " + "; ".join(op["misses"]))
            failed += bool(problems or op["misses"])
    return attempted, failed, wrong, failures, digests


def end_to_end(plain: list[dict], setup_only: list[dict]) -> dict[str, dict]:
    walls = [op["wall_s"] for res in plain for op in res["ops"]]
    setups = [res["setup_s"] for res in plain + setup_only]
    t_value, t_pct, beyond = tail(walls)
    n = len(walls)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups),
                    "note": "median of fresh-interpreter set-ups"},
        "ops_per_s": {"value": n / sum(walls), "unit": "1/s", "samples": n, "note": "closed loop, one client"},
        "op_ms_p50": {"value": 1000 * statistics.median(walls), "unit": "ms", "samples": n, "note": "median"},
        "op_ms_tail": {"value": 1000 * t_value, "unit": "ms", "samples": n,
                       "note": f"p{t_pct:.1f}, {beyond} samples beyond"},
        "peak_rss_mb": {"value": max(res["peak_rss_kb"] for res in plain) / 1024, "unit": "MB",
                        "samples": len(plain), "note": "max over pass processes and their children"},
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    sums: dict[str, float] = {}
    for res in traced:
        for key, value in res["layers"].items():
            sums[key] = sums.get(key, 0) + value
    sums["trace.traced_s"] = sum(op["wall_s"] for res in traced for op in res["ops"])
    sums["trace.untraced_s"] = sum(op["wall_s"] for res in plain for op in res["ops"])

    def ratio(num: str, den: str) -> tuple[float, str]:
        return (sums[num] / sums[den] if sums[den] else 0.0), f"{sums[num]:g} / {sums[den]:g}"

    notes = {}
    for name, num, den in (
        ("subspaces.search.hit_ratio", "subspaces.search.hits", "subspaces.search.witness_calls"),
        ("subspaces.completion.fill_ratio", "subspaces.completion.found", "subspaces.completion.complement_dim"),
        ("trace.overhead_ratio", "trace.traced_s", "trace.untraced_s"),
    ):
        sums[name], notes[name] = ratio(num, den)
    return {k: {"value": sums[k], "unit": u, "samples": len(traced), "note": notes.get(k, "summed over traced passes")}
            for k, u in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "uebkit" / "__init__.py").is_file():
        print(f"error: no uebkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    passes = TRACED_PASSES if args.trace else max(2, math.ceil(args.seconds / wl.pass_s))
    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    plain, traced, setup_only = [], [], []
    try:
        for k in range(passes):
            if k >= 2 and time.monotonic() - start > DEADLINE_S:
                break
            plain.append(run_pass(args.workload, args.seed, "plain", k, run_dir, start + PASS_TIMEOUT_S))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, "traced", k, run_dir, start + PASS_TIMEOUT_S))
        if not args.trace:
            for k in range(len(plain), SETUP_SAMPLES):
                setup_only.append(run_pass(args.workload, args.seed, "setup", k, run_dir, start + PASS_TIMEOUT_S))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, wrong, failures, digests = score(plain + traced)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup_only)
    env = environment(plain[0]["input_bytes"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(plain), "environment": env, "attempted": attempted, "failed": failed,
        "wrong": wrong, "failed_ratio": failed / attempted, "metrics": metrics, "digests": digests, "failures": failures,
        "op_wall_s": {op["id"]: [res["ops"][i]["wall_s"] for res in plain] for i, op in enumerate(plain[0]["ops"])},
    }
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(plain)} "
          f"operations/pass={len(plain[0]['ops'])}")
    print("environment: " + json.dumps(env))
    print(f"{'metric':36} {'value':>14} {'unit':6} {'samples':>7}  note")
    rows = dict(metrics)
    rows["failed_ratio"] = {"value": failed / attempted, "unit": "1", "samples": attempted,
                            "note": f"{failed} failed ({wrong} wrong) of {attempted} attempted"}
    for name, m in rows.items():
        print(f"{name:36} {m['value']:14.6g} {m['unit']:6} {m['samples']:7}  {m['note']}")
    for line in failures[:20]:
        print(line)
    print(f"record: {result_file.relative_to(ROOT)}")
    result = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items() if name not in UNGATED}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
