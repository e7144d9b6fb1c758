#!/usr/bin/env python3
"""Benchmark of the antimagic package.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload large-cells|sweep|search \
        --seed N --seconds S --trace 0|1

Runs one workload for about S seconds, checks every output against
bench/reference.json, prints each metric with its unit, and prints as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.
The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("large-cells", "sweep", "search")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "antimagic" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'antimagic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))

    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in result.metrics.items():
        unit, _better, *kind = table[name]
        print(f"  {name:28s} {value:14.6g} {unit:6s} {' '.join(kind)}")
    for name, value in result.notes.items():
        print(f"  {name:28s} {value:14.6g}  (not gated)")
    ledger = result.ledger
    print(f"  {'failed_ops_ratio':28s} {ledger.failed / ledger.attempted:14.6g}"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    if result.tracers:
        spans = harness.WORK / f"trace-{args.workload}-{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(json.dumps([t.to_json() for t in result.tracers]))
        print(f"  spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
