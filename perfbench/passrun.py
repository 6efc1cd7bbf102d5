"""One pass of a workload in a fresh interpreter: set up, run every operation once, check them.

Started by run.py as

    python3 perfbench/passrun.py ROOT WORKLOAD SEED INDEX MODE T0 OUT

T0 is the parent's time.monotonic() taken just before it started this
process (the clock is system-wide), so the reported set-up time covers
interpreter start-up, `import uebkit`, and generating and writing the
inputs. MODE is plain, traced, or setup (set up, then stop). The
operations run back to back, one at a time (a closed loop with
one client); checks and digests come after the last one, outside the
timed region. The pass writes one JSON result to OUT and, when traced, its
spans next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed, index = Path(argv[0]), argv[1], int(argv[2]), int(argv[3])
    mode, t0, out = argv[4], float(argv[5]), Path(argv[6])
    trace = mode == "traced"
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads  # imports oracle first, which binds numpy's svd before tracing wraps it

    import uebkit.cli  # noqa: F401  (the in-process operations call uebkit.cli.main)

    tracer = tracing.install() if trace else None
    work = out.parent / "work"
    work.mkdir(exist_ok=True)
    os.chdir(work)
    spans = out.with_suffix("")
    p = workloads.Pass(root, work, seed, index, trace, spans)
    ops = workloads.WORKLOADS[workload].setup(p)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        ops = []

    runs = []
    for i, op in enumerate(ops):
        span = tracer.begin_op(i) if tracer else None
        t = time.perf_counter()
        code, raw = op.run()
        wall = time.perf_counter() - t
        if tracer:
            tracer.end_op(span)
        runs.append((op, wall, code, raw))

    results = []
    for op, wall, code, raw in runs:
        text = op.render(raw)
        try:
            checked = op.check(code, text)
            problems, misses = list(checked), list(checked.misses)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:  # malformed output is a wrong answer
            problems, misses = [f"check raised {type(exc).__name__}: {exc}"], []
        digest = hashlib.sha256(text.encode()).hexdigest()
        results.append({"id": op.id, "repeated": op.repeated, "wall_s": wall, "exit": code, "sha256": digest,
                        "problems": problems, "misses": misses})

    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    layers = None
    if tracer:
        tracer.save(Path(f"{spans}.npz"))
        files = [Path(f"{spans}.npz")] + sorted(out.parent.glob(f"{spans.name}-op*.npz"))
        layers = {}
        for f in files:
            for key, value in tracing.summarize(f).items():
                layers[key] = layers.get(key, 0) + value
    out.write_text(json.dumps({
        "setup_s": setup_s,
        "peak_rss_kb": rss_kb,
        "input_bytes": p.input_bytes,
        "ops": results,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
