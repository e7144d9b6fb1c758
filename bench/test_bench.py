"""Tests of the benchmark itself.

Run from the root of a source checkout: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harness import Ledger, NullTracer, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads(harness.REFERENCE.read_text())


def test_metric_names_and_units_match_the_spec():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _kind) in harness.PER_LAYER.items()
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_same_seed_same_inputs():
    for workload in harness.WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
        assert workload.inputs(7) != workload.inputs(8)


def test_negative_control_passes_on_a_correct_program():
    ledger = Ledger()
    harness.LargeCells().prepare({"control": ["wheel", 10, 10, 3, 17]}, REFERENCE, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_duplicated_label_in_a_large_cell_is_a_failed_operation(monkeypatch):
    """The label file is corrupted after its own check, so only verify can catch it."""
    verify_file = harness.verify_file

    def duplicate_a_label(tracer, path):
        lines = path.read_text().splitlines()
        lines[5] = " ".join(lines[5].split()[:2] + lines[4].split()[2:])
        path.write_text("\n".join(lines) + "\n")
        return verify_file(tracer, path)

    monkeypatch.setattr(harness, "verify_file", duplicate_a_label)
    ledger = Ledger()
    harness.LargeCells().run_pass({"cells": [("wheel", 100, 100)]}, REFERENCE, ledger, NullTracer())
    assert (ledger.attempted, ledger.failed) == (2, 1)


def traced_pass(workload, inputs) -> dict:
    tracer = Tracer()
    with tracer.instrumented():
        workload.run_pass(inputs, REFERENCE, Ledger(), tracer)
    return harness.per_layer(tracer)


@pytest.fixture(scope="module")
def layers() -> dict:
    """One traced pass per workload, on a subset of the large cells and search instances."""
    return {
        "large-cells": traced_pass(harness.LargeCells(), {"cells": [("wheel", 100, 100)]}),
        "sweep": traced_pass(harness.Sweep(), harness.Sweep().inputs(0)),
        "search": traced_pass(
            harness.Search(),
            {"instances": [("local-search", "helm", 6, 2), ("exhaustive", "helm", 3, 1)],
             "config_seed": 0},
        ),
    }


PREDICTED = {
    "large-cells": (
        "graphs.product_s", "graphs.edges_built", "formula.scheme_s", "formula.evals",
        "labeling.verify_s", "labeling.verify_accepts",
        "labeling.to_text_s", "labeling.parse_s", "labeling.text_bytes",
        "cli.self_s", "cli.process_s",
    ),
    "sweep": (
        "graphs.product_s", "graphs.edges_built", "formula.scheme_s", "formula.evals",
        "formula.ref_hops", "formula.coverage_errors", "oracle.s", "oracle.evals", "labeling.verify_s",
        "labeling.verify_rejects", "labeling.collision_pairs",
        "conformance.report_self_s", "conformance.json_s",
    ),
    "search": (
        "search.s", "search.iterations", "search.nodes", "search.swaps_scored",
        "labeling.verify_accepts",
    ),
}


@pytest.mark.parametrize("workload", sorted(PREDICTED))
def test_each_layer_is_exercised_where_predicted(layers, workload):
    for name in PREDICTED[workload]:
        assert layers[workload][name] > 0, name


def test_idle_layers_stay_idle(layers):
    for workload in ("large-cells", "sweep"):
        assert layers[workload]["search.s"] == 0
    assert layers["search"]["formula.evals"] == 0
    assert layers["large-cells"]["oracle.evals"] == 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
