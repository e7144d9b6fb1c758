"""Edge labelings, vertex sums, and the antimagic verifier.

The verifier is the trusted oracle of the project: labeling schemes are
the subjects under test, so verification never repairs a candidate, it
only reports evidence.  A labeling is only its labels: q and the edge
set come from the graph it is checked against.  It is antimagic when it
is a bijection onto {1..q} and all vertex sums are pairwise distinct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Graph,
    _read_edge_list,
    edge_name,
    incident_sums,
    vertex_name,
    write_edge_list,
)


class LabelingError(ValueError):
    """Raised when a labeling is not total over the graph's edge set."""


@dataclass(frozen=True)
class EdgeLabeling:
    """Candidate assignment edge code -> integer; q and the edge set are the graph's.

    Candidates may violate bijectivity; that is report content for the
    verifier, not a construction error.
    """

    labels: dict[int, int]

    def to_text(self, g: Graph) -> str:
        """Labeled edge-list text: header ``p q`` then ``u v label`` lines.

        Raises :class:`LabelingError` unless the labels are exactly on the
        edges of ``g``: the text holds only edges, so a label elsewhere
        would be lost and the text's verdict differ from this labeling's.
        """
        return write_edge_list(g, _aligned(g, self))


def parse_labeled_edge_list(text: str) -> tuple[Graph, EdgeLabeling]:
    """Inverse of :meth:`EdgeLabeling.to_text`: a graph plus its labeling."""
    g, labels = _read_edge_list(text)
    return g, EdgeLabeling(labels)


def vertex_sums(g: Graph, labeling: EdgeLabeling) -> dict[int, int]:
    """Sum of incident edge labels per vertex; requires a total labeling."""
    return incident_sums(g, _aligned(g, labeling))


def _aligned(g: Graph, labeling: EdgeLabeling) -> list[int]:
    """The labels in ``g.edges`` order, if they are exactly on the edges of ``g``.

    Otherwise raises :class:`LabelingError` naming the first unlabeled edge
    in canonical order or, when every edge has a label, the smallest key
    that is no edge.
    """
    labels = labeling.labels
    try:
        aligned = [labels[e] for e in g.edges]
    except KeyError as exc:
        raise LabelingError(f"edge {edge_name(exc.args[0])} is unlabeled") from None
    # every edge carries a label, so any key beyond q is no edge
    if len(labels) != g.q:
        edge_set = set(g.edges)
        extra = min(e for e in labels if e not in edge_set)
        raise LabelingError(f"label on {edge_name(extra)}, which is not a graph edge")
    return aligned


@dataclass(frozen=True)
class VerificationReport:
    """Full evidence for one (graph, labeling) check.

    ``antimagic`` is true exactly when the labeling is a bijection onto
    {1..q}, q the graph's edge count, and no two vertices share a sum;
    every failure mode carries concrete, canonically ordered evidence.
    """

    q: int
    total: bool
    unlabeled_edges: list[str]
    unknown_edges: list[str]
    bijective: bool
    missing_labels: list[int]
    duplicate_labels: list[tuple[int, list[str]]]
    out_of_range_labels: list[tuple[int, str]]
    sums: dict[int, int] | None
    colliding_pairs: list[tuple[str, str, int]]

    @property
    def antimagic(self) -> bool:
        return self.bijective and self.total and not self.colliding_pairs

    def to_json_dict(self) -> dict:
        return {
            # one q under both keys, which the pinned reports carry
            "target_q": self.q,
            "graph_q": self.q,
            "total": self.total,
            "unlabeled_edges": self.unlabeled_edges,
            "unknown_edges": self.unknown_edges,
            "bijective": self.bijective,
            "missing_labels": self.missing_labels,
            "duplicate_labels": [
                {"label": lab, "edges": edges} for lab, edges in self.duplicate_labels
            ],
            "out_of_range_labels": [
                {"label": lab, "edge": e} for lab, e in self.out_of_range_labels
            ],
            "sums": None if self.sums is None else {
                vertex_name(v): s for v, s in self.sums.items()
            },
            "colliding_pairs": [
                {"u": u, "v": v, "sum": s} for u, v, s in self.colliding_pairs
            ],
            "antimagic": self.antimagic,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def verify_antimagic(g: Graph, labeling: EdgeLabeling) -> VerificationReport:
    """Check bijectivity onto {1..q} and sum distinctness; never raises.

    Every check runs on every input, and the sums are computed once.  An
    evidence list is built only when its check fails: the unlabeled edges
    when fewer edges than ``g.q`` carry a label, the keys that are no graph
    edge when there are more keys than labeled edges, the missing, repeated
    and out-of-range labels when the labels on the edges are not a
    permutation of 1..q, and the colliding pairs when there are fewer
    distinct sums than vertices.  So a labeling that passes skips no check,
    and one that fails gets the same evidence, in the same order, as a
    verifier that always builds it.  The permutation test is a pigeonhole:
    q labels, all distinct and each between 1 and q, are 1..q, so it needs
    their count, minimum, maximum and one set of them, not a set of 1..q.
    """
    q = g.q
    labels = labeling.labels
    # one lookup per edge; a labeling's labels are integers, never None
    present = [lab for lab in map(labels.get, g.edges) if lab is not None]
    unlabeled: list[str] = []
    if len(present) < q:
        unlabeled = sorted(edge_name(e) for e in g.edges if e not in labels)
    total = not unlabeled

    unknown: list[str] = []
    if len(labels) > len(present):
        edge_set = set(g.edges)
        unknown = sorted(edge_name(e) for e in labels if e not in edge_set)

    missing: list[int] = []
    duplicates: list[tuple[int, list[str]]] = []
    out_of_range: list[tuple[int, str]] = []
    permutation = len(present) == q and (
        q == 0 or 1 <= min(present) and max(present) <= q and len(set(present)) == q
    )
    if not permutation:
        by_label: dict[int, list[int]] = {}
        for e in g.edges:
            if e not in labels:
                continue
            lab = labels[e]
            by_label.setdefault(lab, []).append(e)
            if not 1 <= lab <= q:
                out_of_range.append((lab, edge_name(e)))
        missing = [lab for lab in range(1, q + 1) if lab not in by_label]
        duplicates = sorted(
            (lab, sorted(map(edge_name, es))) for lab, es in by_label.items() if len(es) > 1
        )
        out_of_range.sort()
    bijective = total and not missing and not duplicates and not out_of_range and not unknown

    sums: dict[int, int] | None = None
    collisions: list[tuple[str, str, int]] = []
    if total:
        sums = incident_sums(g, present)
        if len(set(sums.values())) < len(sums):
            by_sum: dict[int, list[int]] = {}
            for v, s in sums.items():
                by_sum.setdefault(s, []).append(v)
            for s, group in by_sum.items():
                # groups fill in canonical vertex order, so each pair is already ordered
                collisions.extend(
                    (vertex_name(a), vertex_name(b), s) for a, b in combinations(group, 2)
                )
            collisions.sort(key=lambda t: (t[2], t[0], t[1]))

    return VerificationReport(
        q=q,
        total=total,
        unlabeled_edges=unlabeled,
        unknown_edges=unknown,
        bijective=bijective,
        missing_labels=missing,
        duplicate_labels=duplicates,
        out_of_range_labels=out_of_range,
        sums=sums,
        colliding_pairs=collisions,
    )
