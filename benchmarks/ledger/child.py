"""Child entry point: one repetition in a fresh interpreter.

The driver starts ``python -m benchmarks.ledger.child`` from the checkout
root with ``src`` on ``PYTHONPATH`` and reads the JSON object on the last
line of standard output.  Modes:

* ``untraced`` — the repetition end-to-end numbers come from;
* ``traced`` — the same repetition with the span wrappers installed;
  also writes ``out/<workload>.spans.jsonl``;
* ``extras`` — the workload's attached/detached ratios and direct drives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep-seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "extras"), required=True)
    args = parser.parse_args(argv)

    # Imported here so the clock that started in the driver also sees
    # the cost of importing the program (it is part of setup_s).
    from benchmarks.ledger.workloads import OUT_DIR, WORKLOADS, Context

    ctx = Context(args.workload, args.seed, args.rep_seconds, args.spawned_at)
    if args.mode == "extras":
        from benchmarks.ledger.extras import EXTRAS

        measure = EXTRAS.get(args.workload)
        result = {"layers": measure(ctx) if measure is not None else {}}
    elif args.mode == "untraced":
        result = WORKLOADS[args.workload](ctx)
    else:
        from benchmarks.ledger import probes
        from benchmarks.ledger.spans import SpanLog

        ctx.log = log = SpanLog()
        probe = probes.install(log)
        try:
            result = WORKLOADS[args.workload](ctx)
        finally:
            log.restore()
        start, end = result["window"]
        result["layer_table"] = log.layer_table(start, end)
        result["layers"].update(
            probes.layer_metrics(log, probe, log.layer_table(float("-inf"), float("inf")))
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        result["spans_path"] = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl")
        result["spans"] = log.write(result["spans_path"], start)

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
