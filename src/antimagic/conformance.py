"""The schemes' one row table and evaluator, and the cross-check of their output.

Wheel, helm and flower share one row-shape table, :data:`ROWS`, keyed by
the last component of a formula id: the cells (i, j) a row evaluates and
the edge it labels, or the vertex whose sum it gives, at each.  A family
module gives a :class:`Scheme` for each cell (m, n): its formula-id prefix,
the names of its rows and its report policy; one evaluator runs them.

A conformance report is the deliverable for one (family, m, n, variant)
cell: bijectivity and sum-distinctness verdicts from the independent
verifier, an elementwise comparison against the closed-form expected
sums, branch hit counts, and every coverage violation by name.  All
fields are canonically ordered so reports are byte-stable.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from . import formula as F
from .formula import CoverageError, Variant
from .graphs import Edge, Graph, Vertex, edge, edge_name
from .labeling import EdgeLabeling, VerificationReport, verify_antimagic


@dataclass(frozen=True)
class Scheme:
    """What differs between the families at one cell (m, n).

    Row ``name`` evaluates formula ``prefix.name``; edge and vertex rows
    run in the order given.  ``notes`` go into every report of the cell,
    ``oracle_partial`` marks an oracle that prints only part of the
    vertex set, and ``printed_sums`` is the set the sums at the oracle's
    vertices must be exactly, where the source prints one (both are the
    flower n=1 case).
    """

    prefix: str
    edges: tuple[str, ...]
    vertices: tuple[str, ...]
    notes: tuple[str, ...] = ()
    oracle_partial: bool = False
    printed_sums: range | None = None

    @property
    def family(self) -> str:
        """The family, the first part of the prefix."""
        return self.prefix.split(".")[0]

    @property
    def case_class(self) -> str | None:
        """The n >= 2 case class of helm and flower, the last of their prefix's three parts."""
        parts = self.prefix.split(".")
        return parts[2] if len(parts) == 3 else None


@dataclass(frozen=True)
class SchemeLabels:
    """Outcome of evaluating a scheme's edge formulas over all cells."""

    labels: dict[Edge, int]
    coverage: list[str]
    branch_hits: Counter

    @property
    def total(self) -> bool:
        return not self.coverage


@dataclass(frozen=True)
class OracleSums:
    """Outcome of evaluating the closed-form expected-sum formulas."""

    sums: dict[Vertex, int]
    coverage: list[str]
    branch_hits: Counter


# Cell sets: each maps (m, n) to the cells (i, j) that one row evaluates.

def cells_ij(m, n):
    return ((i, j) for i in range(1, m + 1) for j in range(1, n + 1))


def cells_rim(m, n):
    return ((i, j) for i in range(1, m) for j in range(1, n + 1))


def cells_close_first(m, n):
    return ((1, j) for j in range(1, n + 1))


def cells_close_last(m, n):
    return ((m, j) for j in range(1, n + 1))


def cells_hub_row(m, n):
    return ((i, 0) for i in range(1, m + 1))


def cells_leaf_col(m, n):
    return ((0, j) for j in range(1, n + 1))


def cell_center(m, n):
    return ((0, 0),)


# name -> (cells, key): key(m, n, i, j) is the Edge the row labels, or the
# Vertex whose sum it gives, at cell (i, j).  The n=1 schemes' rows write j
# where the paper writes 1; at n=1 they agree.
ROWS = {
    "hub": (cells_ij, lambda m, n, i, j: edge(Vertex(0, 0), Vertex(i, j))),
    "hub_outer": (cells_ij, lambda m, n, i, j: edge(Vertex(0, 0), Vertex(m + i, j))),
    "rim_jv": (cells_rim, lambda m, n, i, j: edge(Vertex(i, j), Vertex(i + 1, 0))),
    "rim_vj": (cells_rim, lambda m, n, i, j: edge(Vertex(i, 0), Vertex(i + 1, j))),
    "rim_close_vj": (cells_close_last, lambda m, n, i, j: edge(Vertex(m, 0), Vertex(1, j))),
    "rim_close_jv": (cells_close_last, lambda m, n, i, j: edge(Vertex(m, j), Vertex(1, 0))),
    "rim_close_A": (cells_close_first, lambda m, n, i, j: edge(Vertex(1, j), Vertex(m, 0))),
    "rim_close_B": (cells_close_first, lambda m, n, i, j: edge(Vertex(m, j), Vertex(1, 0))),
    "pend_in": (cells_ij, lambda m, n, i, j: edge(Vertex(i, j), Vertex(m + i, 0))),
    "pend_out": (cells_ij, lambda m, n, i, j: edge(Vertex(m + i, j), Vertex(i, 0))),
    "spoke": (cells_ij, lambda m, n, i, j: edge(Vertex(i, 0), Vertex(0, j))),
    "spoke_outer": (cells_ij, lambda m, n, i, j: edge(Vertex(m + i, 0), Vertex(0, j))),
    "sum_center": (cell_center, lambda m, n, i, j: Vertex(0, 0)),
    "sum_rim_leaf": (cells_ij, lambda m, n, i, j: Vertex(i, j)),
    "sum_outer_leaf": (cells_ij, lambda m, n, i, j: Vertex(m + i, j)),
    "sum_rim_hub": (cells_hub_row, lambda m, n, i, j: Vertex(i, 0)),
    "sum_outer_hub": (cells_hub_row, lambda m, n, i, j: Vertex(m + i, 0)),
    "sum_center_leaf": (cells_leaf_col, lambda m, n, i, j: Vertex(0, j)),
}
# Formula ids are the paper's, so three shapes go by a second name.
ROWS.update(center=ROWS["spoke"], pend_jv=ROWS["pend_in"], pend_vj=ROWS["pend_out"])


def _evaluate(prefix: str, names: tuple[str, ...], m: int, n: int, variant: Variant, describe):
    """Evaluate each named row's formula at its cells into a dict keyed by what the row maps to.

    Row ``name`` evaluates formula ``prefix.name``.  One
    :class:`formula.Resolver` serves the whole (m, n, variant), so each
    formula, cited ones included, picks its branch once per (fid, i) and
    reuses it for every j; no guard reads ``j``.  Hit counts and coverage
    messages are still per cell.
    """
    values: dict = {}
    coverage: list[str] = []
    resolver = F.Resolver(variant)
    for name in names:
        fid = f"{prefix}.{name}"
        cells, key = ROWS[name]
        for i, j in cells(m, n):
            k = key(m, n, i, j)
            if k in values:
                raise RuntimeError(f"{describe(k)} produced twice by the cell map")
            try:
                values[k] = resolver(fid, m, n, i, j)
            except CoverageError as exc:
                coverage.append(_coverage_message(fid, m, n, i, j, exc))
    return values, coverage, resolver.hits


def _coverage_message(fid: str, m: int, n: int, i: int, j: int, exc: CoverageError) -> str:
    if exc.fid == fid:
        return str(exc)
    return f"{fid} at (m={m}, n={n}, i={i}, j={j}): cited formula fails: {exc}"


def evaluate_edge_families(scheme: Scheme, m: int, n: int, variant: Variant) -> SchemeLabels:
    return SchemeLabels(
        *_evaluate(scheme.prefix, scheme.edges, m, n, variant, lambda e: f"edge {edge_name(e)}")
    )


def evaluate_vertex_families(scheme: Scheme, m: int, n: int, variant: Variant) -> OracleSums:
    return OracleSums(
        *_evaluate(scheme.prefix, scheme.vertices, m, n, variant, lambda v: f"vertex {v.name}")
    )


class FormulaCoverageError(Exception):
    """A labeling request hit piecewise coverage violations."""


def require_total(result: SchemeLabels) -> EdgeLabeling:
    if result.coverage:
        raise FormulaCoverageError("; ".join(result.coverage))
    return EdgeLabeling(result.labels)


@dataclass(frozen=True)
class ConformanceReport:
    family: str
    m: int
    n: int
    variant: str
    case_class: str | None
    q: int
    label_coverage: list[str]
    oracle_coverage: list[str]
    branch_hits: dict[str, int]
    verification: VerificationReport | None
    handshake_ok: bool | None
    sum_mismatches: list[dict]
    center_computed: int | None
    center_expected: int | None
    notes: list[str]
    passed: bool
    first_violation: str | None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "variant": self.variant,
            "case_class": self.case_class,
            "q": self.q,
            "passed": self.passed,
            "first_violation": self.first_violation,
            "label_coverage": self.label_coverage,
            "oracle_coverage": self.oracle_coverage,
            "branch_hits": dict(sorted(self.branch_hits.items())),
            "verification": None if self.verification is None else self.verification.to_json_dict(),
            "handshake_ok": self.handshake_ok,
            "sum_mismatches": self.sum_mismatches,
            "center_computed": self.center_computed,
            "center_expected": self.center_expected,
            "notes": self.notes,
        }


def to_jsonl(records: list[dict]) -> str:
    """Compact JSON Lines: one record per line, fields in insertion order."""
    return "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n"


def build_report(
    scheme: Scheme,
    m: int,
    n: int,
    variant: Variant,
    graph: Graph,
    labels: SchemeLabels,
    oracle: OracleSums,
) -> ConformanceReport:
    """Assemble the verdicts for one cell: the only place a report's verdicts are written.

    When ``scheme.oracle_partial`` is set, vertices the oracle skips are
    not counted against the comparison.  ``scheme.printed_sums`` is the
    last check, so it runs only on a cell that passes every other one.
    """
    q = graph.q
    hits: Counter = Counter()
    hits.update(labels.branch_hits)
    hits.update(oracle.branch_hits)

    verification = None
    handshake_ok = None
    mismatches: list[dict] = []
    center_computed = None
    if labels.total:
        verification = verify_antimagic(graph, EdgeLabeling(labels.labels))
        if verification.total:
            sums = verification.sums
            handshake_ok = sum(sums.values()) == 2 * sum(labels.labels[e] for e in graph.edges)
            center_computed = sums.get(Vertex(0, 0))
            for v in graph.vertices:
                if v in oracle.sums and oracle.sums[v] != sums[v]:
                    mismatches.append(
                        {"vertex": v.name, "computed": sums[v], "expected": oracle.sums[v]}
                    )

    center_expected = oracle.sums.get(Vertex(0, 0))

    oracle_complete = not oracle.coverage and (
        scheme.oracle_partial or len(oracle.sums) == graph.p
    )
    passed = (
        labels.total
        and verification is not None
        and verification.antimagic
        and oracle_complete
        and not mismatches
        and handshake_ok is True
    )

    first = None
    if labels.coverage:
        first = f"label coverage: {labels.coverage[0]}"
    elif verification is not None and not verification.bijective:
        if verification.duplicate_labels:
            lab, edges = verification.duplicate_labels[0]
            first = f"duplicate label {lab} on {', '.join(edges)}"
        elif verification.missing_labels:
            first = f"missing label {verification.missing_labels[0]}"
        elif verification.out_of_range_labels:
            lab, e = verification.out_of_range_labels[0]
            first = f"label {lab} on {e} outside 1..{q}"
        else:
            first = "labeling is not a bijection"
    elif verification is not None and verification.colliding_pairs:
        u, v, s = verification.colliding_pairs[0]
        first = f"vertex sum collision: {u} and {v} both sum to {s}"
    elif oracle.coverage:
        first = f"oracle coverage: {oracle.coverage[0]}"
    elif mismatches:
        mm = mismatches[0]
        first = (
            f"sum mismatch at {mm['vertex']}: computed {mm['computed']}, "
            f"expected {mm['expected']}"
        )
    elif not oracle_complete:
        first = "oracle does not cover the whole vertex set"
    elif scheme.printed_sums is not None and (
        {verification.sums[v] for v in oracle.sums} != set(scheme.printed_sums)
    ):
        passed = False
        first = "outer sums leave the printed range"

    return ConformanceReport(
        family=scheme.family,
        m=m,
        n=n,
        variant=variant.value,
        case_class=scheme.case_class,
        q=q,
        label_coverage=list(labels.coverage),
        oracle_coverage=list(oracle.coverage),
        branch_hits=dict(hits),
        verification=verification,
        handshake_ok=handshake_ok,
        sum_mismatches=mismatches,
        center_computed=center_computed,
        center_expected=center_expected,
        notes=list(scheme.notes),
        passed=passed,
        first_violation=first,
    )
