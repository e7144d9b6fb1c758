"""Cross-checks a scheme's labeling against the verifier and its printed sum oracle.

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
from typing import Callable, Iterable

from . import formula as F
from .formula import CoverageError, Variant
from .graphs import Edge, Graph, Vertex, check_index, edge_name
from .labeling import EdgeLabeling, VerificationReport, verify_antimagic


@dataclass
class SchemeLabels:
    """Outcome of evaluating a scheme's edge formulas over all cells."""

    labels: dict[Edge, int]
    coverage: list[str]
    branch_hits: Counter

    @property
    def total(self) -> bool:
        return not self.coverage


@dataclass
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


def check_mn(m: int, n: int) -> None:
    """The schemes' domain: m >= 3 and n >= 1; a GraphError (a ValueError) otherwise."""
    check_index(m, "m", 3)
    check_index(n, "n", 1)


EdgeFamily = tuple[str, str, Callable, Callable]
# (edge_class, formula id, cells(m, n) -> iterable[(i, j)], edge(m, n, i, j) -> Edge)

VertexFamily = tuple[str, Callable, Callable]
# (formula id, cells(m, n) -> iterable[(i, j)], vertex(m, n, i, j) -> Vertex)


def _evaluate(families: Iterable[VertexFamily], m: int, n: int, variant: Variant, describe):
    """Evaluate each row's formula at its cells into a dict keyed by what the row maps to."""
    values: dict = {}
    coverage: list[str] = []
    hits: Counter = Counter()
    for fid, cells, key in families:
        for i, j in cells(m, n):
            k = key(m, n, i, j)
            if k in values:
                raise RuntimeError(f"{describe(k)} produced twice by the cell map")
            try:
                value, _branch = F.evaluate(fid, variant, m, n, i, j, hits)
            except CoverageError as exc:
                coverage.append(_coverage_message(fid, m, n, i, j, exc))
                continue
            values[k] = value
    return values, coverage, hits


def _coverage_message(fid: str, m: int, n: int, i: int, j: int, exc: CoverageError) -> str:
    if exc.fid == fid:
        return str(exc)
    return f"{fid} at (m={m}, n={n}, i={i}, j={j}): cited formula fails: {exc}"


def evaluate_edge_families(
    families: Iterable[EdgeFamily], m: int, n: int, variant: Variant
) -> SchemeLabels:
    rows = ((fid, cells, mk_edge) for _cls, fid, cells, mk_edge in families)
    return SchemeLabels(*_evaluate(rows, m, n, variant, lambda e: f"edge {edge_name(e)}"))


def evaluate_vertex_families(
    families: Iterable[VertexFamily], m: int, n: int, variant: Variant
) -> OracleSums:
    return OracleSums(*_evaluate(families, m, n, variant, lambda v: f"vertex {v.name}"))


class FormulaCoverageError(Exception):
    """A labeling or oracle request hit piecewise coverage violations."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def require_total(result: SchemeLabels, q: int) -> EdgeLabeling:
    if result.coverage:
        raise FormulaCoverageError(result.coverage)
    return EdgeLabeling(result.labels, q)


def require_sums(result: OracleSums) -> dict[Vertex, int]:
    if result.coverage:
        raise FormulaCoverageError(result.coverage)
    return result.sums


@dataclass
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def build_report(
    family: str,
    m: int,
    n: int,
    variant: Variant,
    graph: Graph,
    scheme: SchemeLabels,
    oracle: OracleSums,
    case_class: str | None = None,
    notes: list[str] | None = None,
    oracle_partial: bool = False,
) -> ConformanceReport:
    """Assemble the verdicts for one cell.

    ``oracle_partial`` marks oracles that intentionally cover only part
    of the vertex set (the flower n=1 case); vertices the oracle skips
    are then not counted against the comparison.
    """
    q = graph.q
    hits: Counter = Counter()
    hits.update(scheme.branch_hits)
    hits.update(oracle.branch_hits)

    verification = None
    handshake_ok = None
    mismatches: list[dict] = []
    center_computed = None
    if scheme.total:
        labeling = EdgeLabeling(scheme.labels, q)
        verification = verify_antimagic(graph, labeling)
        if verification.total:
            handshake_ok = (
                sum(verification.sums.values())
                == 2 * sum(scheme.labels[e] for e in graph.edges)
            )
            center = Vertex(0, 0)
            center_computed = verification.sums.get(center.name)
            for v in graph.vertices:
                if v in oracle.sums and oracle.sums[v] != verification.sums[v.name]:
                    mismatches.append(
                        {
                            "vertex": v.name,
                            "computed": verification.sums[v.name],
                            "expected": oracle.sums[v],
                        }
                    )

    center_expected = oracle.sums.get(Vertex(0, 0))

    oracle_complete = not oracle.coverage and (
        oracle_partial or len(oracle.sums) == graph.p
    )
    passed = (
        scheme.total
        and verification is not None
        and verification.antimagic
        and oracle_complete
        and not mismatches
        and handshake_ok is True
    )

    first = None
    if scheme.coverage:
        first = f"label coverage: {scheme.coverage[0]}"
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

    return ConformanceReport(
        family=family,
        m=m,
        n=n,
        variant=variant.value,
        case_class=case_class,
        q=q,
        label_coverage=list(scheme.coverage),
        oracle_coverage=list(oracle.coverage),
        branch_hits=dict(hits),
        verification=verification,
        handshake_ok=handshake_ok,
        sum_mismatches=mismatches,
        center_computed=center_computed,
        center_expected=center_expected,
        notes=list(notes or []),
        passed=passed,
        first_violation=first,
    )
