#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks against.

Usage, from the root of a source checkout: python3 bench/record.py

Writes bench/reference.json: the output digests of CLI ``label`` and
``verify`` on the large cells, the ``label`` digests of the negative-
control pool (each labeling must verify), one digest of the JSONL
reports per sweep cell, and the status of each search instance.
Re-record only for a change that is meant to alter an output, and say
which outputs changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness
from harness import NullTracer, cell_id, digest


def main() -> int:
    tracer = NullTracer()
    reference: dict = {"large_cells": {}, "control": {}, "sweep": {}, "search": {}}
    for cell in harness.LARGE_CELLS:
        _s, _rss, code, path = harness.label_cell(tracer, cell)
        assert code == 0, f"label {cell} exited {code}"
        _s, _rss, verify_code, out = harness.verify_file(tracer, path)
        reference["large_cells"][cell_id(*cell)] = {
            "label_sha256": digest(path.read_bytes()),
            "verify_sha256": digest(out.read_bytes()),
            "verify_exit": verify_code,
        }
    for cell in harness.CONTROL_POOL:
        _s, _rss, code, path = harness.label_cell(tracer, cell)
        assert code == 0, f"label {cell} exited {code}"
        _s, _rss, verify_code, _out = harness.verify_file(tracer, path)
        assert verify_code == 0, f"the control labeling of {cell} is not antimagic"
        reference["control"][cell_id(*cell)] = digest(path.read_bytes())
    for cell in harness.SWEEP_CELLS:
        _s, text = harness.sweep_cell(tracer, cell)
        reference["sweep"][cell_id(*cell)] = digest(text.encode())
    for instance in harness.SEARCH_POOL:
        _s, _g, result = harness.search_instance(tracer, instance, 0)
        reference["search"][cell_id(*instance)] = result.status.value
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
