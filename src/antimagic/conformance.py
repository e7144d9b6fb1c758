"""The schemes' one row table and evaluator, and the cross-check of their output.

Wheel, helm and flower share one row-shape table, :data:`ROWS`, keyed by
the last component of a formula id: the rows i a formula is evaluated on,
the j of each row, and the edge a row labels, or the vertex whose sum it
gives, at each j.  A family module gives a :class:`Scheme` for each cell
(m, n): its formula-id prefix, the names of its rows and its report
policy; one evaluator runs them, and :func:`scheme_labeling` reaches a
family's total labeling by the family's name.

A conformance report is the deliverable for one (family, m, n, variant)
cell: bijectivity and sum-distinctness verdicts from the independent
verifier, an elementwise comparison against the closed-form expected
sums, branch hit counts, and every coverage violation by name.  All
fields are canonically ordered so reports are byte-stable.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import formula as F
from .formula import CoverageError, Variant
from .graphs import Graph, edge, edge_name, vertex, vertex_name
from .labeling import EdgeLabeling, VerificationReport, verify_antimagic


@dataclass(frozen=True)
class Scheme:
    """What differs between the families at one cell (m, n).

    Row ``name`` evaluates formula ``prefix.name``; edge and vertex rows
    run in the order given.  ``notes`` go into every report of the cell.
    ``printed_sums`` is the set the sums at the oracle's vertices must be
    exactly, where the source prints one (the flower n=1 case); such an
    oracle covers only those vertices.
    """

    prefix: str
    edges: tuple[str, ...]
    vertices: tuple[str, ...]
    notes: tuple[str, ...] = ()
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

    labels: dict[int, int]
    coverage: list[str]
    branch_hits: Counter

    @property
    def total(self) -> bool:
        return not self.coverage


@dataclass(frozen=True)
class OracleSums:
    """Outcome of evaluating the closed-form expected-sum formulas."""

    sums: dict[int, int]
    coverage: list[str]
    branch_hits: Counter


# Row sets: each maps (m, n) to the i of its rows and the j of every row.

def rows_ij(m, n):
    return range(1, m + 1), range(1, n + 1)


def rows_rim(m, n):
    return range(1, m), range(1, n + 1)


def rows_close_first(m, n):
    return range(1, 2), range(1, n + 1)


def rows_close_last(m, n):
    return range(m, m + 1), range(1, n + 1)


def rows_hub(m, n):
    return range(1, m + 1), range(0, 1)


def rows_leaf(m, n):
    return range(0, 1), range(1, n + 1)


def row_center(m, n):
    return range(0, 1), range(0, 1)


# name -> (rows, ends): ends(m, i) is (a, c), and row i maps its cell (i, j)
# to the edge between the vertices (a, j) and (c, 0) or, where c is None, to
# the vertex (a, j) whose sum it gives.  A product edge joins two different
# first indices, so the smaller one comes first.  The n=1 schemes' rows
# write j where the paper writes 1; at n=1 they agree.
ROWS = {
    "hub": (rows_ij, lambda m, i: (i, 0)),
    "hub_outer": (rows_ij, lambda m, i: (m + i, 0)),
    "rim_jv": (rows_rim, lambda m, i: (i, i + 1)),
    "rim_vj": (rows_rim, lambda m, i: (i + 1, i)),
    "rim_close_vj": (rows_close_last, lambda m, i: (1, m)),
    "rim_close_jv": (rows_close_last, lambda m, i: (m, 1)),
    "rim_close_A": (rows_close_first, lambda m, i: (1, m)),
    "rim_close_B": (rows_close_first, lambda m, i: (m, 1)),
    "pend_in": (rows_ij, lambda m, i: (i, m + i)),
    "pend_out": (rows_ij, lambda m, i: (m + i, i)),
    "spoke": (rows_ij, lambda m, i: (0, i)),
    "spoke_outer": (rows_ij, lambda m, i: (0, m + i)),
    "sum_center": (row_center, lambda m, i: (0, None)),
    "sum_rim_leaf": (rows_ij, lambda m, i: (i, None)),
    "sum_outer_leaf": (rows_ij, lambda m, i: (m + i, None)),
    "sum_rim_hub": (rows_hub, lambda m, i: (i, None)),
    "sum_outer_hub": (rows_hub, lambda m, i: (m + i, None)),
    "sum_center_leaf": (rows_leaf, lambda m, i: (0, None)),
}
# Formula ids are the paper's, so three shapes go by a second name.
ROWS.update(center=ROWS["spoke"], pend_jv=ROWS["pend_in"], pend_vj=ROWS["pend_out"])


def _evaluate(prefix: str, names: tuple[str, ...], m: int, n: int, variant: Variant):
    """Evaluate each named row's formula at its cells into a dict keyed by what the row maps to.

    Row ``name`` evaluates formula ``prefix.name``.  One
    :class:`formula.Resolver` serves the whole (m, n, variant) and
    evaluates each row i with :meth:`formula.Resolver.row`, short, long or
    failing, as a progression in j from its first two cells.  A row that
    raises a :class:`CoverageError` fails at every cell: each has no value
    and its own message, rebuilt from the one error at its j.  Cited
    formulas share the resolver's branch choices.  The keys of a row are a
    progression too: the code of the vertex (a, j), or of the edge from it
    to (c, 0), is affine in j, so a row's keys are the range its first two
    codes start.
    """
    values: dict = {}
    coverage: list[str] = []
    failed_keys = []
    resolver = F.Resolver(variant)
    for name in names:
        fid = f"{prefix}.{name}"
        rows, ends = ROWS[name]
        i_s, js = rows(m, n)
        start, width = js.start, len(js)
        for i in i_s:
            a, c = ends(m, i)
            if c is None:
                first, second = vertex(a, start), vertex(a, start + 1)
            else:
                other = vertex(c, 0)
                first, second = edge(vertex(a, start), other), edge(vertex(a, start + 1), other)
            step = second - first
            keys = range(first, first + step * width, step)
            try:
                row, error = resolver.row(fid, m, n, i, js), None
            except CoverageError as exc:
                row, error = [None] * width, exc
            size = len(values)
            values.update(zip(keys, row))
            if len(values) != size + width:
                seen = set(islice(values, size))  # the keys of the rows before
                repeated = next(k for k in keys if k in seen or seen.add(k))
                kind, name_of = ("vertex", vertex_name) if c is None else ("edge", edge_name)
                raise RuntimeError(f"{kind} {name_of(repeated)} produced twice by the cell map")
            if error:  # each cell's value is None: it keeps only its message
                coverage.extend(_coverage_message(fid, m, n, i, j, error) for j in js)
                failed_keys.extend(keys)
    # only now, so a later row that repeats a failed cell's key is refused too
    for key in failed_keys:
        del values[key]
    return values, coverage, resolver.hits


def _coverage_message(fid: str, m: int, n: int, i: int, j: int, exc: CoverageError) -> str:
    """The message of the cell (i, j) of a row of ``fid`` that raised ``exc`` at any j."""
    exc = CoverageError(exc.fid, (m, n, i, j), exc.matched)
    if exc.fid == fid:
        return str(exc)
    return f"{fid} at (m={m}, n={n}, i={i}, j={j}): cited formula fails: {exc}"


def evaluate_edge_families(scheme: Scheme, m: int, n: int, variant: Variant) -> SchemeLabels:
    return SchemeLabels(*_evaluate(scheme.prefix, scheme.edges, m, n, variant))


def evaluate_vertex_families(scheme: Scheme, m: int, n: int, variant: Variant) -> OracleSums:
    return OracleSums(*_evaluate(scheme.prefix, scheme.vertices, m, n, variant))


class FormulaCoverageError(Exception):
    """A labeling request hit piecewise coverage violations."""


def scheme_labeling(family: str, m: int, n: int, variant: Variant = Variant.ERRATA) -> EdgeLabeling:
    """The total labeling of the named family's scheme at (m, n); coverage gaps raise.

    Only the tables that family's formulas need are imported: wheel and
    helm load their own, and flower loads helm's as well, whose formulas
    its citing branches cite.
    """
    module = importlib.import_module(f".{family}", __package__)
    result = getattr(module, f"{family}_labels")(m, n, variant)
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
    first_violation: str | None

    @property
    def passed(self) -> bool:
        """True exactly when the report names no violation."""
        return self.first_violation is None

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

    The verdict is the first violation the checks find, in a fixed order,
    and a report passes exactly when there is none.  When
    ``scheme.printed_sums`` is set, vertices the oracle skips are not
    counted against the comparison, and the printed set is checked only
    on a cell whose labeling is antimagic and agrees with the oracle.
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
            center_computed = sums.get(vertex(0, 0))
            for v in graph.vertices:
                if v in oracle.sums and oracle.sums[v] != sums[v]:
                    mismatches.append(
                        {"vertex": vertex_name(v), "computed": sums[v], "expected": oracle.sums[v]}
                    )

    center_expected = oracle.sums.get(vertex(0, 0))

    # with no label coverage error the labeling was verified
    first = None
    if labels.coverage:
        first = f"label coverage: {labels.coverage[0]}"
    elif not verification.bijective:
        if verification.duplicate_labels:
            lab, edges = verification.duplicate_labels[0]
            first = f"duplicate label {lab} on {', '.join(edges)}"
        elif verification.missing_labels:
            # with 1..q all on the edges, no edge has a label out of range
            first = f"missing label {verification.missing_labels[0]}"
        else:
            first = "labeling is not a bijection"
    elif verification.colliding_pairs:
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
    elif scheme.printed_sums is None and len(oracle.sums) != graph.p:
        first = "oracle does not cover the whole vertex set"
    elif scheme.printed_sums is not None and (
        {verification.sums[v] for v in oracle.sums} != set(scheme.printed_sums)
    ):
        first = "outer sums leave the printed range"
    elif not handshake_ok:
        first = "vertex sums do not total twice the label sum"

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
        first_violation=first,
    )
