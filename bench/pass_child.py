"""Run one measured pass of a workload in a fresh interpreter.

Usage: python3 bench/pass_child.py WORKLOAD SEED TRACE OUT_JSON

The package must be importable (the benchmark sets PYTHONPATH to src).
Writes the pass's latencies and payloads, its ledger counts and, with
TRACE 1, its spans and counters to OUT_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
from tracing import NullTracer, Tracer


def main() -> int:
    name, seed, trace, out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    workload = harness.WORKLOADS[name]
    reference = json.loads(harness.REFERENCE.read_text())
    ledger = harness.Ledger()
    tracer = Tracer() if trace else NullTracer()
    if trace:
        with tracer.instrumented():
            result = workload.run_pass(workload.inputs(seed), reference, ledger, tracer)
    else:
        result = workload.run_pass(workload.inputs(seed), reference, ledger, tracer)
    out.write_text(json.dumps({
        "pass": result.to_json(),
        "ledger": ledger.to_json(),
        "trace": tracer.to_json() if trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
