"""In-memory spans and counters recorded around calls into the package's layers.

Nothing here touches the package's source: a traced pass replaces the
callees at the name each caller looks them up by (a module global or a
class attribute) and puts the originals back afterwards.
Counters are taken from the values the callees return, so they repeat
exactly from run to run.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from antimagic import cli, conformance, flower, helm, labeling, search, wheel

FAMILY_MODULES = {"wheel": wheel, "helm": helm, "flower": flower}


class NullTracer:
    """Untraced passes: calls go straight through and nothing is recorded."""

    cell = None

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Spans are ``[name, start, end, parent index, cell id]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.cell]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, count=None, **kwargs):
        with self.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(self.counts, args, result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced call to the same function."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def instrumented(self):
        """Wrap every layer entry point the sweep, search and CLI paths call."""
        for family, module in FAMILY_MODULES.items():
            self.wrap(module, "product_graph", "graphs.product", count_graph)
            self.wrap(module, f"{family}_labels", "formula.scheme", count_scheme)
            self.wrap(module, f"{family}_expected", "oracle.expected", count_oracle)
            self.wrap(module, "build_report", "conformance.build_report")
        self.wrap(cli, "product_graph", "graphs.product", count_graph)
        for module in (conformance, search, cli):
            self.wrap(module, "verify_antimagic", "labeling.verify", count_verify)
        self.wrap(cli, "parse_labeled_edge_list", "labeling.parse", count_parse)
        self.wrap(labeling.EdgeLabeling, "to_text", "labeling.to_text", count_text)
        try:
            yield self
        finally:
            self.unwrap_all()

    def merge(self, child: dict, parent: int | None = None) -> None:
        """Adopt the spans and counts a traced child process wrote.

        The child's top-level spans become children of span ``parent``,
        and spans without a cell id take this tracer's current cell.
        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so child timestamps share the parent's time base.
        """
        offset = len(self.spans)
        for name, start, end, p, cell in child["spans"]:
            self.spans.append(
                [name, start, end, parent if p is None else p + offset, cell or self.cell]
            )
        self.counts.update(child["counts"])

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _c in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        covered: Counter = Counter()
        for _n, start, end, parent, _c in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return sum(
            end - start - covered[k]
            for k, (n, start, end, _p, _c) in enumerate(self.spans)
            if n == name
        )

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# Counters read from returned values.  Each (args, result) pair is the
# traced call's positional arguments and return value.

def count_graph(counts, args, g) -> None:
    counts["graphs.edges_built"] += g.q


def count_scheme(counts, args, scheme) -> None:
    evals = sum(scheme.branch_hits.values())
    counts["formula.evals"] += evals
    counts["formula.cells"] += len(scheme.labels) + len(scheme.coverage)
    counts["formula.coverage_errors"] += len(scheme.coverage)


def count_oracle(counts, args, oracle) -> None:
    counts["oracle.evals"] += sum(oracle.branch_hits.values())


def count_verify(counts, args, report) -> None:
    counts["labeling.verify_accepts" if report.antimagic else "labeling.verify_rejects"] += 1
    counts["labeling.collision_pairs"] += len(report.colliding_pairs)


def count_parse(counts, args, result) -> None:
    counts["labeling.text_bytes"] += len(args[0].encode())


def count_text(counts, args, text) -> None:
    counts["labeling.text_bytes"] += len(text.encode())


def count_search(counts, args, result) -> None:
    g, config = args
    stats = result.stats
    counts["search.iterations"] += stats.iterations
    counts["search.nodes"] += stats.nodes
    counts["search.prunes"] += stats.prunes
    counts["search.restarts"] += stats.restarts
    if config.strategy is search.Strategy.LOCAL_SEARCH:
        counts["search.swaps_scored"] += stats.iterations * g.q * (g.q - 1) // 2
