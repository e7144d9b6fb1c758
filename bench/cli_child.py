"""Run one ``antimagic`` CLI command in this process with every layer traced.

Usage: python3 bench/cli_child.py SPANS_JSON CLI_ARG...

The package must be importable (the benchmark sets PYTHONPATH to src).
Writes the spans and counters to SPANS_JSON and exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from antimagic import cli

from tracing import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.instrumented():
        code = tracer.call("cli.main", cli.main, argv)
    out.write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
