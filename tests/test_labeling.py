"""The verifier: vertex sums, handshake identity, evidence quality, and edge-list text."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.conformance import scheme_labeling
from antimagic.families import CONFORMANCE
from antimagic.formula import Variant
from antimagic.graphs import (
    build_cycle,
    build_flower,
    build_helm,
    build_star,
    build_wheel,
    edge,
    edge_ends,
    edge_name,
    make_graph,
    product_graph,
    vertex,
    vertex_name,
)
from antimagic.labeling import (
    EdgeLabeling,
    LabelingError,
    parse_labeled_edge_list,
    verify_antimagic,
    vertex_sums,
)

from . import build_path, indices


def _path_labeling(labels):
    g = build_path(len(labels) + 1)
    mapping = {e: lab for e, lab in zip(g.edges, labels)}
    return g, EdgeLabeling(mapping)


def test_vertex_sums_on_paths():
    g, lab = _path_labeling([1, 2])
    sums = vertex_sums(g, lab)
    assert [sums[v] for v in g.vertices] == [1, 3, 2]

    g2, lab2 = _path_labeling([1])
    assert list(vertex_sums(g2, lab2).values()) == [1, 1]


def test_vertex_sums_requires_totality():
    g = build_path(3)
    partial = EdgeLabeling({g.edges[0]: 1})
    with pytest.raises(LabelingError, match="u2-u3"):
        vertex_sums(g, partial)
    extraneous = EdgeLabeling({g.edges[0]: 1, g.edges[1]: 2, edge(vertex(1), vertex(3)): 3})
    with pytest.raises(LabelingError, match="u1-u3"):
        vertex_sums(g, extraneous)


def test_wheel_product_sums_match_hand_evaluation():
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    sums = {vertex_name(v): s for v, s in vertex_sums(g, lab).items()}
    assert sums == {
        "w0_0": 27, "w1_1": 10, "w2_1": 22, "w3_1": 16,
        "w1_0": 21, "w2_0": 13, "w3_0": 17, "w0_1": 30,
    }


def test_p2_is_not_antimagic():
    g, lab = _path_labeling([1])
    report = verify_antimagic(g, lab)
    assert not report.antimagic
    assert report.colliding_pairs == [("u1", "u2", 1)]


def test_p3_is_antimagic():
    g, lab = _path_labeling([1, 2])
    assert verify_antimagic(g, lab).antimagic


def test_all_colliding_pairs_are_listed():
    # star with colliding leaf sums: labels equal on three leaves is not a
    # bijection, so collide via a path with symmetric labels instead
    g = build_cycle(4)
    labels = dict(zip(g.edges, (1, 2, 4, 3)))
    report = verify_antimagic(g, EdgeLabeling(labels))
    groups = {}
    for v in g.vertices:
        groups.setdefault(report.sums[v], []).append(vertex_name(v))
    expected_pairs = sum(
        len(vs) * (len(vs) - 1) // 2 for vs in groups.values() if len(vs) > 1
    )
    assert len(report.colliding_pairs) == expected_pairs
    assert report.colliding_pairs == sorted(
        report.colliding_pairs, key=lambda t: (t[2], t[0], t[1])
    )


def test_handshake_examples():
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    assert sum(vertex_sums(g, lab).values()) == 12 * 13

    g2, lab2 = _path_labeling([1, 2])
    assert sum(vertex_sums(g2, lab2).values()) == 6


def test_corrupted_sum_profile_detected():
    g, lab = _path_labeling([1, 2])
    sums = vertex_sums(g, lab)
    total = sum(sums.values())
    assert total == 2 * sum(lab.labels.values())
    # a corrupted profile breaks the identity
    assert total + 1 != 2 * sum(lab.labels.values())


def test_verifier_reports_totality_violations():
    g = build_path(3)
    report = verify_antimagic(g, EdgeLabeling({g.edges[0]: 1}))
    assert not report.total
    assert not report.bijective
    assert not report.antimagic
    assert report.unlabeled_edges == ["u2-u3"]


def test_verifier_never_mutates():
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    lab.labels[g.edges[0]] = lab.labels[g.edges[1]]
    snapshot = dict(lab.labels)
    verify_antimagic(g, lab)
    assert lab.labels == snapshot


def test_relabeling_automorphism_preserves_verdict():
    # rotating the rim of the wheel factor is a graph automorphism
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)

    def rot(v):
        i, j = indices(v)
        return v if i == 0 else vertex(i % 3 + 1, j)

    rotated = {edge(*map(rot, edge_ends(e))): val for e, val in lab.labels.items()}
    assert verify_antimagic(g, EdgeLabeling(rotated)).antimagic


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_swap_mutation_keeps_report_consistent(data):
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    idx = data.draw(st.tuples(
        st.integers(0, g.q - 1), st.integers(0, g.q - 1)))
    e1, e2 = g.edges[idx[0]], g.edges[idx[1]]
    lab.labels[e1], lab.labels[e2] = lab.labels[e2], lab.labels[e1]
    report = verify_antimagic(g, lab)
    # a swap preserves bijectivity, so any failure must be a collision
    assert report.bijective
    assert report.antimagic == (not report.colliding_pairs)
    assert sum(report.sums.values()) == g.q * (g.q + 1)


def test_verification_is_idempotent_and_stable():
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    first = verify_antimagic(g, lab)
    second = verify_antimagic(g, lab)
    assert first.to_json() == second.to_json()
    assert first.antimagic


def test_labeled_edge_list_round_trip():
    g = product_graph("helm", 3, 1)
    lab = scheme_labeling("helm", 3, 1)
    text = lab.to_text(g)
    g2, lab2 = parse_labeled_edge_list(text)
    assert g2.edges == g.edges
    assert lab2.labels == lab.labels
    assert lab2.to_text(g2) == text


@pytest.mark.parametrize("family", sorted(CONFORMANCE))
def test_edge_list_text_is_the_graph(family):
    # the labeled text reads back to an equal graph and an equal labeling
    products = [product_graph(family, m, n) for m in range(3, 7) for n in range(1, 4)]
    factors = [build_path(2), build_path(5), build_cycle(5), build_star(3),
               build_wheel(4), build_helm(4), build_flower(4)]
    for g in products + factors:
        lab = EdgeLabeling(dict(zip(g.edges, range(g.q, 0, -1))))
        assert parse_labeled_edge_list(lab.to_text(g)) == (g, lab)


def test_to_text_names_the_first_unlabeled_edge():
    g = product_graph("wheel", 3, 1)
    lab = scheme_labeling("wheel", 3, 1)
    del lab.labels[g.edges[7]]
    del lab.labels[g.edges[2]]
    with pytest.raises(LabelingError, match=f"^edge {edge_name(g.edges[2])} is unlabeled$"):
        lab.to_text(g)


_REFUSERS = {"to_text": lambda g, lab: lab.to_text(g), "vertex_sums": vertex_sums}


@pytest.mark.parametrize("refuser", sorted(_REFUSERS))
def test_to_text_refuses_a_label_on_a_non_edge(refuser):
    # the text names only edges, so a label on a non-edge would vanish and the
    # text's verdict turn antimagic while this labeling's is not; both refusers
    # name the smallest non-edge, whatever order the labels were set in
    g = build_path(4)
    labels = dict(zip(g.edges, (1, 2, 3)))
    labels[edge(vertex(2), vertex(4))] = 4
    labels[edge(vertex(1), vertex(3))] = 5
    lab = EdgeLabeling(labels)
    assert verify_antimagic(g, lab).unknown_edges == ["u1-u3", "u2-u4"]
    with pytest.raises(LabelingError, match="^label on u1-u3, which is not a graph edge$"):
        _REFUSERS[refuser](g, lab)


def test_report_sums_are_the_vertex_sums():
    g = product_graph("flower", 4, 2)
    lab = scheme_labeling("flower", 4, 2)
    sums = vertex_sums(g, lab)
    report = verify_antimagic(g, lab)
    assert report.sums == sums
    assert report.to_json_dict()["sums"] == {vertex_name(v): s for v, s in sums.items()}


def test_graphs_and_labelings_hold_nothing_the_cycle_collector_scans():
    # integers, and dicts of only integers, are never tracked by CPython's
    # cyclic garbage collector; a tuple subclass per vertex would be, and so
    # would every edge and every dict keyed by one, at each collection
    g = product_graph("flower", 4, 3)
    assert not any(map(gc.is_tracked, g.vertices + g.edges))
    scheme = scheme_labeling("flower", 4, 3)
    g2, parsed = parse_labeled_edge_list(scheme.to_text(g))
    for labels in (scheme.labels, parsed.labels, verify_antimagic(g2, parsed).sums):
        assert not gc.is_tracked(labels)


_VERTEX_POOL = st.sampled_from(
    [vertex(i) for i in range(4)] + [vertex(i, j) for i in range(3) for j in range(2)]
)
_SMALL_EDGE_SETS = st.lists(
    st.tuples(_VERTEX_POOL, _VERTEX_POOL).filter(lambda t: t[0] != t[1]),
    max_size=12,
    unique_by=frozenset,
)


@given(pairs=_SMALL_EDGE_SETS, data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_labeled_edge_list_round_trips_any_integer_labels(pairs, data):
    # labels 0 and negatives must survive the text boundary: the verifier
    # reports them as out-of-range evidence, so the reader may not drop them
    g = make_graph(pairs)
    labels = data.draw(st.lists(st.integers(-10**20, 10**20) | st.integers(-3, 3),
                                min_size=g.q, max_size=g.q))
    lab = EdgeLabeling(dict(zip(g.edges, labels)))
    g2, lab2 = parse_labeled_edge_list(lab.to_text(g))
    assert g2.edges == g.edges
    assert lab2.labels == lab.labels


def test_report_json_schema_fields():
    g, lab = _path_labeling([1])
    payload = verify_antimagic(g, lab).to_json_dict()
    assert list(payload) == [
        "target_q", "graph_q", "total", "unlabeled_edges", "unknown_edges",
        "bijective", "missing_labels", "duplicate_labels",
        "out_of_range_labels", "sums", "colliding_pairs", "antimagic",
    ]


def _naive_report(g, labeling) -> dict:
    """The verifier's report, recomputed from the definitions one field at a time."""
    q, labels = g.q, labeling.labels

    def name(e):
        return "-".join(map(vertex_name, edge_ends(e)))

    on_edges = [(labels[e], e) for e in g.edges if e in labels]
    values = [lab for lab, _e in on_edges]
    total = all(e in labels for e in g.edges)
    unknown = sorted(name(e) for e in labels if e not in g.edges)
    missing = [k for k in range(1, q + 1) if k not in values]
    duplicates = [
        {"label": lab, "edges": sorted(name(e) for other, e in on_edges if other == lab)}
        for lab in sorted(set(values)) if values.count(lab) > 1
    ]
    out_of_range = sorted((lab, name(e)) for lab, e in on_edges if lab < 1 or lab > q)
    bijective = total and not unknown and not missing and not duplicates and not out_of_range
    sums = None
    pairs = []
    if total:
        sums = {
            vertex_name(v): sum(lab for lab, e in on_edges if v in edge_ends(e))
            for v in g.vertices
        }
        names = list(sums)
        pairs = sorted(
            ((u, v, sums[u]) for k, u in enumerate(names)
             for v in names[k + 1:] if sums[u] == sums[v]),
            key=lambda t: (t[2], t[0], t[1]),
        )
    return {
        "target_q": q,
        "graph_q": g.q,
        "total": total,
        "unlabeled_edges": sorted(name(e) for e in g.edges if e not in labels),
        "unknown_edges": unknown,
        "bijective": bijective,
        "missing_labels": missing,
        "duplicate_labels": duplicates,
        "out_of_range_labels": [{"label": lab, "edge": e} for lab, e in out_of_range],
        "sums": sums,
        "colliding_pairs": [{"u": u, "v": v, "sum": s} for u, v, s in pairs],
        "antimagic": bijective and not pairs,
    }


_SMALL_PRODUCTS = [(family, m, n) for family in ("wheel", "helm", "flower")
                   for m in (3, 4) for n in (1, 2)]
# "shift" gives q distinct labels, 2..q+1: only the verifier's min/max test sees it
_MUTATIONS = [
    "none", "swap", "duplicate", "zero", "q+1", "shift", "negative", "drop", "extra",
]


@pytest.mark.parametrize("family, m, n", _SMALL_PRODUCTS)
def test_verifier_accepts_scheme_labelings_like_the_naive_reference(family, m, n):
    g = product_graph(family, m, n)
    labeling = scheme_labeling(family, m, n, Variant.ERRATA)
    report = verify_antimagic(g, labeling).to_json_dict()
    assert report["antimagic"]
    assert report == _naive_report(g, labeling)


@given(cell=st.sampled_from(_SMALL_PRODUCTS), mutation=st.sampled_from(_MUTATIONS),
       data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_verifier_equals_naive_reference(cell, mutation, data):
    family, m, n = cell
    g = product_graph(family, m, n)
    order = data.draw(st.permutations(range(1, g.q + 1)))
    labels = dict(zip(g.edges, order))
    pick = st.sampled_from(g.edges)
    if mutation == "swap":
        a, b = data.draw(pick), data.draw(pick)
        labels[a], labels[b] = labels[b], labels[a]
    elif mutation == "duplicate":
        labels[data.draw(pick)] = labels[data.draw(pick)]
    elif mutation in ("zero", "q+1"):
        labels[data.draw(pick)] = 0 if mutation == "zero" else g.q + 1
    elif mutation == "shift":
        labels = {e: lab + 1 for e, lab in labels.items()}
    elif mutation == "negative":
        labels[data.draw(pick)] = -data.draw(st.integers(1, g.q))
    elif mutation == "drop":
        del labels[data.draw(pick)]
    elif mutation == "extra":
        a, b = data.draw(st.sampled_from(g.vertices)), data.draw(st.sampled_from(g.vertices))
        non_edge = edge(a, b) if a != b else None
        if non_edge is not None and non_edge not in labels:
            labels[non_edge] = data.draw(st.integers(0, g.q + 1))
    labeling = EdgeLabeling(labels)
    assert verify_antimagic(g, labeling).to_json_dict() == _naive_report(g, labeling)


def test_verifier_reports_on_a_graph_without_edges():
    g = make_graph([])
    report = verify_antimagic(g, EdgeLabeling({}))
    assert report.antimagic and report.q == 0
    assert report.to_json_dict() == _naive_report(g, EdgeLabeling({}))
    stray = EdgeLabeling({edge(vertex(1), vertex(2)): 1})
    assert verify_antimagic(g, stray).to_json_dict() == _naive_report(g, stray)


@given(pairs=_SMALL_EDGE_SETS, data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_reader_sorts_shuffled_lines_like_make_graph(pairs, data):
    # the reader builds its Graph with one sort of what it read, not make_graph
    labels = data.draw(st.lists(st.integers(-3, 30), min_size=len(pairs), max_size=len(pairs)))
    lines = [f"{vertex_name(a)} {vertex_name(b)} {lab}" for (a, b), lab in zip(pairs, labels)]
    lines = data.draw(st.permutations(lines))
    vertices = {v for e in pairs for v in e}
    text = "\n".join([f"{len(vertices)} {len(pairs)}", *lines]) + "\n"
    g, labeling = parse_labeled_edge_list(text)
    assert g == make_graph(pairs)
    assert labeling.labels == {edge(a, b): lab for (a, b), lab in zip(pairs, labels)}
