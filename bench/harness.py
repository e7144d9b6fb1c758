"""Workloads, operations, correctness checks and metrics of the benchmark.

Every operation goes through a public entry point of the package: the
``antimagic`` CLI run as a subprocess, or the public functions of
``graphs``, ``wheel``/``helm``/``flower``, ``labeling`` and ``search``
called in a fresh interpreter (``pass_child.py``) that runs one pass, so
no state carries from one pass to the next.  Each output is checked
against ``reference.json``; an output that differs, or an exit code or
search status other than the recorded one, is a failed operation.  A
FAIL verdict inside a conformance report is recorded output, not a
failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from antimagic.graphs import edge_name, product_graph
from antimagic.labeling import verify_antimagic
from antimagic.search import SearchConfig, Strategy, search_antimagic

import tracing
from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

FAMILIES = ("wheel", "helm", "flower")
CONFORMANCE = {f: getattr(tracing.FAMILY_MODULES[f], f"{f}_conformance") for f in FAMILIES}
EDGES_PER_MN = {"wheel": 4, "helm": 6, "flower": 8}

# q = 40k, 60k and 80k: per-edge work and text IO dominate.
LARGE_CELLS = tuple((f, 100, 100) for f in FAMILIES)
# Small products for the seeded negative control of the verifier.  Only
# n <= m: the flower large-star class with even m is not antimagic.
CONTROL_POOL = tuple((f, m, n) for f in FAMILIES for m, n in ((10, 10), (15, 10), (15, 15)))
# The standard sweep grids (88 cells) plus the large-star class of helm
# and flower: m 3..10 and odd n in (m, m+5] (40 cells).
SWEEP_CELLS = (
    tuple(("wheel", m, n) for m in range(3, 11) for n in range(1, 6))
    + tuple((f, m, n) for f in ("helm", "flower") for m in range(3, 9) for n in range(1, 5))
    + tuple(
        (f, m, n)
        for f in ("helm", "flower")
        for m in range(3, 11)
        for n in range(m + 1, m + 6)
        if n % 2 == 1
    )
)
# Local search on q 24..72 products whose identity labeling is not
# antimagic (0.02-0.6 s each, so a pass is short and a run has many),
# and exhaustive search on every product with q <= 18.
SEARCH_POOL = tuple(
    ("local-search", f, m, n)
    for f, m, n in (
        ("wheel", 3, 2), ("wheel", 4, 2), ("flower", 4, 1), ("helm", 3, 2),
        ("wheel", 3, 3), ("wheel", 5, 2), ("helm", 7, 1), ("flower", 3, 2),
        ("helm", 8, 1), ("flower", 7, 1), ("wheel", 7, 2), ("helm", 6, 2),
    )
) + (
    ("exhaustive", "wheel", 3, 1),
    ("exhaustive", "wheel", 4, 1),
    ("exhaustive", "helm", 3, 1),
)
SEARCH_MAX_ITERATIONS = 2000
SETUP_SAMPLES = 11
# Untraced runs take at least this many passes; a large-cells pass takes
# about 15 s, a search pass about 4 s and a sweep pass about 1.5 s.
MIN_PASSES = 2

# name -> (unit, better); the untraced run reports exactly these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "cell_p50_ms": ("ms", "lower"),
    "cell_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# name -> (unit, better, kind); the traced run reports exactly these.
# kind: "timed" from spans, "counted" from returned values, "computed"
# from counted values.
PER_LAYER = {
    "graphs.product_s": ("s", "lower", "timed"),
    "graphs.edges_built": ("count", "lower", "counted"),
    "formula.scheme_s": ("s", "lower", "timed"),
    "formula.evals": ("count", "lower", "counted"),
    "formula.ref_hops": ("count", "lower", "computed"),
    "formula.coverage_errors": ("count", "lower", "counted"),
    "oracle.s": ("s", "lower", "timed"),
    "oracle.evals": ("count", "lower", "counted"),
    "labeling.verify_s": ("s", "lower", "timed"),
    "labeling.verify_accepts": ("count", "higher", "counted"),
    "labeling.verify_rejects": ("count", "lower", "counted"),
    "labeling.collision_pairs": ("count", "lower", "counted"),
    "labeling.to_text_s": ("s", "lower", "timed"),
    "labeling.parse_s": ("s", "lower", "timed"),
    "labeling.text_bytes": ("bytes", "lower", "counted"),
    "conformance.report_self_s": ("s", "lower", "timed"),
    "conformance.json_s": ("s", "lower", "timed"),
    "cli.self_s": ("s", "lower", "timed"),
    "cli.process_s": ("s", "lower", "timed"),
    "search.s": ("s", "lower", "timed"),
    "search.iterations": ("count", "lower", "counted"),
    "search.nodes": ("count", "lower", "counted"),
    "search.prunes": ("count", "lower", "counted"),
    "search.restarts": ("count", "lower", "counted"),
    "search.swaps_scored": ("count", "lower", "computed"),
    "trace.overhead_ratio": ("ratio", "lower", "timed"),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_id(*parts) -> str:
    return "/".join(map(str, parts))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: at least (1-p) of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Ledger:
    """Counts operations attempted and operations whose output is wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed operation: {what}", file=sys.stderr)
        return ok

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}

    def absorb(self, child: dict) -> None:
        self.attempted += child["attempted"]
        self.failed += child["failed"]


@dataclass
class PassResult:
    """``latency`` maps (cell id, operation) to seconds; ``payloads`` maps
    a cell id to an output that must be the same in every pass."""

    latency: dict[tuple[str, str], float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    payloads: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "latency": [[cid, op, s] for (cid, op), s in self.latency.items()],
            "payloads": self.payloads,
        }

    @classmethod
    def from_json(cls, data: dict, peak_rss_mb: float) -> "PassResult":
        latency = {(cid, op): s for cid, op, s in data["latency"]}
        return cls(latency, peak_rss_mb, data["payloads"])


# -- subprocesses ---------------------------------------------------------

def run_child(argv: list[str], stderr=None) -> tuple[float, float, int]:
    """Run one subprocess to completion: wall seconds, max RSS in MB, exit code.

    The child's stderr goes to ``bench/.work/child.stderr`` unless
    ``stderr`` names another file object.
    """
    WORK.mkdir(exist_ok=True)
    with open(WORK / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=stderr or err, env=CHILD_ENV
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        sys.stderr.write((WORK / "child.stderr").read_text()[-2000:])
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def run_cli(tracer, args: list[str]) -> tuple[float, float, int]:
    """One ``antimagic`` command; traced passes run it under ``cli_child.py``."""
    if not isinstance(tracer, Tracer):
        return run_child([sys.executable, "-m", "antimagic.cli", *args])
    spans = WORK / "cli_child.json"
    spans.unlink(missing_ok=True)
    with tracer.span("cli.process") as index:
        result = run_child([sys.executable, str(BENCH / "cli_child.py"), str(spans), *args])
    if spans.is_file():
        tracer.merge(json.loads(spans.read_text()), index)
    return result


def output_matches(path: Path, code: int, expected_code: int, expected_digest: str) -> bool:
    return code == expected_code and path.is_file() and digest(path.read_bytes()) == expected_digest


def label_cell(tracer, cell) -> tuple[float, float, int, Path]:
    f, m, n = cell
    out = WORK / f"{f}-{m}-{n}.txt"
    out.unlink(missing_ok=True)
    seconds, rss, code = run_cli(
        tracer, ["label", "--family", f, "--m", str(m), "--n", str(n), "--out", str(out)]
    )
    return seconds, rss, code, out


def verify_file(tracer, path: Path) -> tuple[float, float, int, Path]:
    out = path.with_suffix(".verify.json")
    out.unlink(missing_ok=True)
    seconds, rss, code = run_cli(tracer, ["verify", "--in", str(path), "--out", str(out)])
    return seconds, rss, code, out


def measure_setup(ledger: Ledger) -> float:
    """Median wall time of a fresh interpreter importing the package.

    One untimed import first writes the bytecode cache, as an installed
    package would have it.
    """
    argv = [sys.executable, "-c", "import antimagic"]
    run_child(argv)
    times = []
    for _ in range(SETUP_SAMPLES):
        seconds, _rss, code = run_child(argv)
        ledger.check(code == 0, "fresh interpreter importing antimagic")
        times.append(seconds)
    return statistics.median(times)


# -- in-process operations ------------------------------------------------

def sweep_cell(tracer, cell) -> tuple[float, str]:
    """Both conformance reports of one cell as JSONL, as ``grid-report`` writes them."""
    f, m, n = cell
    start = time.perf_counter()
    with tracer.span("sweep.cell"):
        reports = CONFORMANCE[f](m, n)
        with tracer.span("conformance.json"):
            text = "".join(
                json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in reports
            )
    return time.perf_counter() - start, text


def search_instance(tracer, instance, config_seed: int):
    strategy, f, m, n = instance
    start = time.perf_counter()
    g = tracer.call("graphs.product", product_graph, f, m, n, count=tracing.count_graph)
    config = SearchConfig(
        strategy=Strategy(strategy),
        max_exhaustive_edges=g.q,
        max_iterations=SEARCH_MAX_ITERATIONS,
        seed=config_seed,
    )
    result = tracer.call("search.search", search_antimagic, g, config, count=tracing.count_search)
    return time.perf_counter() - start, g, result


def search_payload(g, result) -> dict:
    """The ``antimagic search`` payload without ``stats.wall_time_ms``, which varies."""
    stats = result.stats.to_json_dict()
    del stats["wall_time_ms"]
    labels = None
    if result.labeling is not None:
        labels = {edge_name(e): result.labeling.labels[e] for e in g.edges}
    return {"status": result.status.value, "labels": labels, "stats": stats}


# -- workloads ------------------------------------------------------------

class Workload:
    name: str
    # True: each pass runs in a fresh interpreter (pass_child.py), so no
    # state built by one pass can make a later pass faster.
    fresh_process = False

    def prepare(self, inputs: dict, reference: dict, ledger: Ledger) -> None:
        """Once-per-run checks outside the measured passes."""


class LargeCells(Workload):
    name = "large-cells"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        cells = list(LARGE_CELLS)
        rng.shuffle(cells)
        f, m, n = rng.choice(CONTROL_POOL)
        a, b = rng.sample(range(EDGES_PER_MN[f] * m * n), 2)
        return {"cells": cells, "control": [f, m, n, a, b]}

    def prepare(self, inputs: dict, reference: dict, ledger: Ledger) -> None:
        """Negative control: a labeling with one duplicated label must be rejected."""
        f, m, n, a, b = inputs["control"]
        cell = (f, m, n)
        _s, _rss, code, path = label_cell(NullTracer(), cell)
        expected = reference["control"][cell_id(*cell)]
        if not ledger.check(output_matches(path, code, 0, expected), f"label {cell}"):
            return
        lines = path.read_text().splitlines()
        ua, va, la = lines[1 + a].split()
        ub, vb, lb = lines[1 + b].split()
        lines[1 + b] = f"{ub} {vb} {la}"
        corrupted = WORK / "control.txt"
        corrupted.write_text("\n".join(lines) + "\n")
        _s, _rss, code, out = verify_file(NullTracer(), corrupted)
        ok = code == 1 and out.is_file()
        if ok:
            report = json.loads(out.read_text())
            ok = (
                report["bijective"] is False
                and report["duplicate_labels"]
                == [{"label": int(la), "edges": sorted([f"{ua}-{va}", f"{ub}-{vb}"])}]
                and report["missing_labels"] == [int(lb)]
            )
        ledger.check(ok, f"verify rejects a duplicated label on {cell}")

    def run_pass(self, inputs, reference, ledger, tracer) -> PassResult:
        """CLI label, then CLI verify, on each cell; each command is a fresh process."""
        result = PassResult()
        for cell in inputs["cells"]:
            cid = cell_id(*cell)
            tracer.cell = cid
            expected = reference["large_cells"][cid]
            t_label, rss_label, code, path = label_cell(tracer, cell)
            ledger.check(
                output_matches(path, code, 0, expected["label_sha256"]), f"label {cid}"
            )
            t_verify, rss_verify, code, out = verify_file(tracer, path)
            ledger.check(
                output_matches(out, code, expected["verify_exit"], expected["verify_sha256"]),
                f"verify {cid}",
            )
            result.latency[cid, "label"] = t_label
            result.latency[cid, "verify"] = t_verify
            result.peak_rss_mb = max(result.peak_rss_mb, rss_label, rss_verify)
        return result


class Sweep(Workload):
    name = "sweep"
    fresh_process = True

    def inputs(self, seed: int) -> dict:
        cells = list(SWEEP_CELLS)
        random.Random(seed).shuffle(cells)
        return {"cells": cells}

    def run_pass(self, inputs, reference, ledger, tracer) -> PassResult:
        result = PassResult()
        for cell in inputs["cells"]:
            cid = cell_id(*cell)
            tracer.cell = cid
            seconds, text = sweep_cell(tracer, cell)
            expected = reference["sweep"][cid]
            ledger.check(digest(text.encode()) == expected, f"conformance reports {cid}")
            result.latency[cid, "conformance"] = seconds
        return result


class Search(Workload):
    name = "search"
    fresh_process = True

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        instances = list(SEARCH_POOL)
        rng.shuffle(instances)
        return {"instances": instances, "config_seed": rng.randrange(2**31)}

    def run_pass(self, inputs, reference, ledger, tracer) -> PassResult:
        """Each payload must also equal the same instance's payload in every other pass."""
        result = PassResult()
        for instance in inputs["instances"]:
            iid = cell_id(*instance)
            tracer.cell = iid
            seconds, g, found = search_instance(tracer, instance, inputs["config_seed"])
            ok = found.status.value == reference["search"][iid]
            if found.labeling is not None:
                ok = ok and verify_antimagic(g, found.labeling).antimagic
            ledger.check(ok, f"search {iid}")
            result.payloads[iid] = search_payload(g, found)
            result.latency[iid, "search"] = seconds
        return result


WORKLOADS = {w.name: w for w in (LargeCells(), Sweep(), Search())}


def measure_pass(workload: Workload, seed: int, inputs: dict, reference: dict,
                 ledger: Ledger, traced: bool) -> tuple[PassResult, Tracer | None]:
    """One pass of the workload, traced or not.

    A fresh-process workload's pass runs under ``pass_child.py``; its peak
    RSS is then the child's max-RSS from ``os.wait4``.
    """
    tracer = Tracer() if traced else NullTracer()
    if not workload.fresh_process:
        if traced:
            with tracer.instrumented():
                return workload.run_pass(inputs, reference, ledger, tracer), tracer
        return workload.run_pass(inputs, reference, ledger, tracer), None
    out = WORK / "pass_child.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "pass_child.py"), workload.name, str(seed),
            str(int(traced)), str(out)]
    _s, rss, code = run_child(argv, stderr=sys.stderr)
    if code != 0 or not out.is_file():
        raise RuntimeError(f"{workload.name} pass exited {code}")
    data = json.loads(out.read_text())
    ledger.absorb(data["ledger"])
    if traced:
        tracer.merge(data["trace"])
    return PassResult.from_json(data["pass"], rss), (tracer if traced else None)


# -- metrics --------------------------------------------------------------

def typical(passes: list[PassResult]) -> dict[tuple[str, str], float]:
    """Each operation's median over the passes."""
    samples: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        for key, seconds in p.latency.items():
            samples.setdefault(key, []).append(seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


def end_to_end(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    """A cell's latency is the sum of its operations' median passes."""
    per_cell: Counter = Counter()
    for (cid, _op), seconds in typical(passes).items():
        per_cell[cid] += seconds
    latencies = list(per_cell.values())
    return {
        "setup_s": setup_s,
        "cells_per_s": len(latencies) / sum(latencies),
        "cell_p50_ms": percentile(latencies, 0.5) * 1e3,
        "cell_p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def per_layer(t: Tracer) -> dict[str, float]:
    c = t.counts
    return {
        "graphs.product_s": t.total("graphs.product"),
        "graphs.edges_built": c["graphs.edges_built"],
        "formula.scheme_s": t.total("formula.scheme"),
        "formula.evals": c["formula.evals"],
        "formula.ref_hops": c["formula.evals"] - c["formula.cells"],
        "formula.coverage_errors": c["formula.coverage_errors"],
        "oracle.s": t.total("oracle.expected"),
        "oracle.evals": c["oracle.evals"],
        "labeling.verify_s": t.total("labeling.verify"),
        "labeling.verify_accepts": c["labeling.verify_accepts"],
        "labeling.verify_rejects": c["labeling.verify_rejects"],
        "labeling.collision_pairs": c["labeling.collision_pairs"],
        "labeling.to_text_s": t.total("labeling.to_text"),
        "labeling.parse_s": t.total("labeling.parse"),
        "labeling.text_bytes": c["labeling.text_bytes"],
        "conformance.report_self_s": t.self_time("conformance.build_report"),
        "conformance.json_s": t.total("conformance.json"),
        "cli.self_s": t.self_time("cli.main"),
        "cli.process_s": t.self_time("cli.process"),
        "search.s": t.total("search.search"),
        "search.iterations": c["search.iterations"],
        "search.nodes": c["search.nodes"],
        "search.prunes": c["search.prunes"],
        "search.restarts": c["search.restarts"],
        "search.swaps_scored": c["search.swaps_scored"],
    }


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict[str, float]
    notes: dict[str, float]
    tracers: list[Tracer]


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Measure one workload for about ``seconds``.

    A new pass starts only while the run is expected to end within
    ``seconds``, and untraced runs take at least MIN_PASSES passes; they
    report END_TO_END.  Traced runs alternate untraced and traced passes,
    at least one of each, and report PER_LAYER, each the median over the
    traced passes, with the traced/untraced ratio of pass time.
    """
    workload = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())
    inputs = workload.inputs(seed)
    ledger = Ledger()
    workload.prepare(inputs, reference, ledger)
    setup_s = 0.0 if trace else measure_setup(ledger)

    plain: list[PassResult] = []
    traced: list[tuple[Tracer, PassResult]] = []
    payloads: dict = {}
    start = time.perf_counter()
    while True:
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= (1 if trace else MIN_PASSES) and (traced or not trace)
        if enough and elapsed * (done + 1) / done > seconds:
            break
        traced_pass = trace and len(traced) < len(plain)
        result, tracer = measure_pass(workload, seed, inputs, reference, ledger, traced_pass)
        for key, payload in result.payloads.items():
            ledger.check(payloads.setdefault(key, payload) == payload, f"{key} repeats")
        if tracer is None:
            plain.append(result)
        else:
            traced.append((tracer, result))

    cells = {cid for cid, _op in plain[0].latency}
    notes: dict[str, float] = Counter(passes=len(plain), cells_per_pass=len(cells))
    for (_cid, op), op_seconds in typical(plain).items():
        notes[f"{op}_s"] += op_seconds
    if not trace:
        return RunResult(ledger, end_to_end(plain, setup_s), notes, [])

    layers = [per_layer(t) for t, _ in traced]
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    pass_time = lambda ps: statistics.median(sum(p.latency.values()) for p in ps)
    metrics["trace.overhead_ratio"] = pass_time([p for _, p in traced]) / pass_time(plain)
    notes["traced_passes"] = len(traced)
    return RunResult(ledger, metrics, notes, [t for t, _ in traced])
