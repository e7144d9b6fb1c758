"""Edge labelings, vertex sums, and the antimagic verifier.

The verifier is the trusted oracle of the project: labeling schemes are
the subjects under test, so verification never repairs a candidate, it
only reports evidence.  A labeling is antimagic when it is a bijection
onto {1..q} and all vertex sums are pairwise distinct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graphs import Edge, Graph, GraphError, Vertex, edge, edge_name, make_graph


class LabelingError(ValueError):
    """Raised when a labeling is not total over the graph's edge set."""


@dataclass
class EdgeLabeling:
    """Candidate assignment edge -> positive integer, aimed at {1..target_q}.

    Candidates may violate bijectivity; that is report content for the
    verifier, not a construction error.
    """

    labels: dict[Edge, int]
    target_q: int

    def to_text(self, g: Graph) -> str:
        """Labeled edge-list text: header ``p q`` then ``u v label`` lines."""
        lines = [f"{g.p} {g.q}"]
        for e in g.edges:
            if e not in self.labels:
                raise LabelingError(f"edge {edge_name(e)} is unlabeled")
            lines.append(f"{e[0].name} {e[1].name} {self.labels[e]}")
        return "\n".join(lines) + "\n"


def parse_labeled_edge_list(text: str) -> tuple[Graph, EdgeLabeling]:
    """Read the ``u v label`` format back into a graph plus labeling."""
    lines = ((k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip())
    _k, header = next(lines, (0, None))
    if header is None:
        raise GraphError("empty labeled edge list")
    head = header.split()
    if len(head) != 2:
        raise GraphError(f"bad header {header!r}; expected 'p q'")
    p, q = (int(x) for x in head)
    labels: dict[Edge, int] = {}
    vertices: set[Vertex] = set()
    for k, ln in lines:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphError(f"bad labeled edge line {ln!r}")
        e = edge(Vertex.parse(parts[0]), Vertex.parse(parts[1]))
        if e in labels:
            raise GraphError(f"line {k}: edge {edge_name(e)} is listed twice")
        vertices.update(e)
        labels[e] = int(parts[2])
    g = make_graph("other", (), vertices, labels)
    if g.p != p or g.q != q:
        raise GraphError(f"header says p={p} q={q} but body has p={g.p} q={g.q}")
    return g, EdgeLabeling(labels, q)


def vertex_sums(g: Graph, labeling: EdgeLabeling) -> dict[Vertex, int]:
    """Sum of incident edge labels per vertex; requires a total labeling."""
    edge_set = set(g.edges)
    for e in g.edges:
        if e not in labeling.labels:
            raise LabelingError(f"edge {edge_name(e)} is unlabeled")
    for e in labeling.labels:
        if e not in edge_set:
            raise LabelingError(f"label on {edge_name(e)}, which is not a graph edge")
    sums = {v: 0 for v in g.vertices}
    for e in g.edges:
        lab = labeling.labels[e]
        sums[e[0]] += lab
        sums[e[1]] += lab
    return sums


def handshake_check(g: Graph, labeling: EdgeLabeling) -> bool:
    """Conservation identity: the vertex sums total twice the label sum."""
    sums = vertex_sums(g, labeling)
    return sum(sums.values()) == 2 * sum(labeling.labels[e] for e in g.edges)


@dataclass
class VerificationReport:
    """Full evidence for one (graph, labeling) check.

    ``antimagic`` is true exactly when the labeling is a bijection onto
    {1..target_q} and no two vertices share a sum; every failure mode
    carries concrete, canonically ordered evidence.
    """

    target_q: int
    graph_q: int
    total: bool
    unlabeled_edges: list[str]
    unknown_edges: list[str]
    bijective: bool
    missing_labels: list[int]
    duplicate_labels: list[tuple[int, list[str]]]
    out_of_range_labels: list[tuple[int, str]]
    sums: dict[str, int] | None
    colliding_pairs: list[tuple[str, str, int]]
    antimagic: bool = field(init=False)

    def __post_init__(self) -> None:
        self.antimagic = self.bijective and self.total and not self.colliding_pairs

    def to_json_dict(self) -> dict:
        return {
            "target_q": self.target_q,
            "graph_q": self.graph_q,
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
            "sums": self.sums,
            "colliding_pairs": [
                {"u": u, "v": v, "sum": s} for u, v, s in self.colliding_pairs
            ],
            "antimagic": self.antimagic,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def verify_antimagic(g: Graph, labeling: EdgeLabeling) -> VerificationReport:
    """Check bijectivity onto {1..q} and sum distinctness; never raises."""
    q = labeling.target_q
    edge_set = set(g.edges)
    unlabeled = sorted(
        (edge_name(e) for e in g.edges if e not in labeling.labels)
    )
    unknown = sorted(
        edge_name(e) for e in labeling.labels if e not in edge_set
    )
    total = not unlabeled

    by_label: dict[int, list[str]] = {}
    out_of_range: list[tuple[int, str]] = []
    for e in g.edges:
        if e not in labeling.labels:
            continue
        lab = labeling.labels[e]
        by_label.setdefault(lab, []).append(edge_name(e))
        if not 1 <= lab <= q:
            out_of_range.append((lab, edge_name(e)))
    missing = sorted(set(range(1, q + 1)) - set(by_label))
    duplicates = sorted(
        (lab, sorted(names)) for lab, names in by_label.items() if len(names) > 1
    )
    out_of_range.sort()
    bijective = (
        total
        and g.q == q
        and not missing
        and not duplicates
        and not out_of_range
        and not unknown
    )

    sums_by_name: dict[str, int] | None = None
    collisions: list[tuple[str, str, int]] = []
    if total:
        sums = {v: 0 for v in g.vertices}
        for e in g.edges:
            sums[e[0]] += labeling.labels[e]
            sums[e[1]] += labeling.labels[e]
        sums_by_name = {v.name: sums[v] for v in g.vertices}
        by_sum: dict[int, list[Vertex]] = {}
        for v in g.vertices:
            by_sum.setdefault(sums[v], []).append(v)
        for s, group in by_sum.items():
            if len(group) > 1:
                group = sorted(group, key=Vertex.key)
                for a in range(len(group)):
                    for b in range(a + 1, len(group)):
                        collisions.append((group[a].name, group[b].name, s))
        collisions.sort(key=lambda t: (t[2], t[0], t[1]))

    return VerificationReport(
        target_q=q,
        graph_q=g.q,
        total=total,
        unlabeled_edges=unlabeled,
        unknown_edges=unknown,
        bijective=bijective,
        missing_labels=missing,
        duplicate_labels=duplicates,
        out_of_range_labels=out_of_range,
        sums=sums_by_name,
        colliding_pairs=collisions,
    )
