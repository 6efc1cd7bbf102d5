"""`python -m uebkit.cli` under tracing, for the cli-sweep workload's traced passes.

    python3 perfbench/tracecli.py SPANS.npz OP_ID <uebkit cli arguments>

The caller puts the checkout's src on PYTHONPATH. Spans are written to
SPANS.npz when the command returns; the exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans, op_id, cli_args = Path(argv[0]), int(argv[1]), argv[2:]
    import tracing

    import uebkit.cli

    tracer = tracing.install()
    span = tracer.begin_op(op_id)
    try:
        code = uebkit.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end_op(span)
        tracer.save(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
