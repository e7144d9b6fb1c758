"""Wheel-star schemes: anchors, bijectivity, oracle agreement, detection."""

import pytest

from antimagic.conformance import scheme_labeling
from antimagic.formula import Variant
from antimagic.graphs import edge, vertex, product_graph
from antimagic.labeling import EdgeLabeling, verify_antimagic, vertex_sums
from antimagic.wheel import wheel_conformance, wheel_expected, wheel_labels

from . import covered_sums


def test_m3_n1_anchor_labels():
    lab = scheme_labeling("wheel", 3, 1)
    assert lab.labels[edge(vertex(3, 0), vertex(1, 1))] == 1
    assert lab.labels[edge(vertex(0, 0), vertex(1, 1))] == 7


def test_m3_n1_label_multiset_and_steps():
    lab = scheme_labeling("wheel", 3, 1)
    assert sorted(lab.labels.values()) == list(range(1, 13))
    hub = {lab.labels[edge(vertex(0, 0), vertex(i, 1))] for i in (1, 2, 3)}
    spokes = {lab.labels[edge(vertex(i, 0), vertex(0, 1))] for i in (1, 2, 3)}
    assert hub == {7, 9, 11}
    assert spokes == {8, 10, 12}


def test_m3_n1_as_printed_detection():
    g = product_graph("wheel", 3, 1)
    result = wheel_labels(3, 1, Variant.AS_PRINTED)
    assert not result.coverage
    report = verify_antimagic(g, EdgeLabeling(result.labels))
    assert not report.bijective
    assert (5, ["w1_0-w2_1", "w1_1-w2_0"]) in report.duplicate_labels
    assert 2 in report.missing_labels


def test_expected_sum_anchors():
    assert covered_sums(wheel_expected(3, 1))[vertex(0, 0)] == 27
    assert covered_sums(wheel_expected(4, 2))[vertex(0, 0)] == 3 * 16 * 4 + 2 == 194
    assert covered_sums(wheel_expected(3, 1))[vertex(0, 1)] == 30


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_errata_scheme_verifies_and_matches_oracle(m, n):
    g = product_graph("wheel", m, n)
    lab = scheme_labeling("wheel", m, n)
    report = verify_antimagic(g, lab)
    assert report.antimagic
    expected = covered_sums(wheel_expected(m, n))
    sums = vertex_sums(g, lab)
    assert all(sums[v] == expected[v] for v in g.vertices)
    assert sum(expected.values()) == 4 * m * n * (4 * m * n + 1)


@pytest.mark.parametrize("m,n", [(3, 2), (5, 3), (6, 2), (7, 4)])
def test_proof_orderings_hold_numerically(m, n):
    sums = covered_sums(wheel_expected(m, n))
    center = sums[vertex(0, 0)]
    assert all(center > s for v, s in sums.items() if v != vertex(0, 0))
    chain = [sums[vertex(0, j)] for j in range(1, n + 1)]
    assert chain == sorted(chain) and len(set(chain)) == n
    for i in range(1, m + 1):
        row = [sums[vertex(i, j)] for j in range(1, n + 1)]
        assert row == sorted(row) and len(set(row)) == n


@pytest.mark.parametrize("m,n", [(5, 2), (7, 3), (6, 2), (8, 3)])
def test_rim_chains_match_the_stated_order(m, n):
    sums = covered_sums(wheel_expected(m, n))
    j = 1
    if m % 2 == 1:
        leaf_chain = list(range(1, m + 1, 2)) + list(range(2, m, 2))
    else:
        leaf_chain = list(range(1, m, 2)) + [m] + list(range(m - 2, 1, -2))
    values = [sums[vertex(i, j)] for i in leaf_chain]
    assert values == sorted(values) and len(set(values)) == m
    if m % 2 == 1:
        hub_chain = (list(range(2, m, 2)) + [m] + list(range(1, m - 1, 2)))
    else:
        fl4, cl4 = m // 4, -(-m // 4)
        hub_chain = (list(range(2, 2 * fl4 + 1, 2)) + [m]
                     + list(range(2 * fl4 + 2, m - 1, 2))
                     + list(range(m - 1, 2 * cl4, -2)) + [1]
                     + list(range(2 * cl4 - 1, 2, -2)))
    values = [sums[vertex(i, 0)] for i in hub_chain]
    assert sorted(set(hub_chain)) == list(range(1, m + 1))
    assert values == sorted(values) and len(set(values)) == m


def test_as_printed_even_m_oracle_has_uncovered_rows():
    result = wheel_expected(4, 1, Variant.AS_PRINTED)
    assert any("wheel.meven.sum_rim_hub" in msg for msg in result.coverage)
    # the errata reading covers every vertex
    assert not wheel_expected(4, 1, Variant.ERRATA).coverage


def test_as_printed_even_m_labels_are_not_bijective():
    g = product_graph("wheel", 4, 1)
    result = wheel_labels(4, 1, Variant.AS_PRINTED)
    assert not result.coverage
    report = verify_antimagic(g, EdgeLabeling(result.labels))
    assert not report.bijective


def test_scheme_labeling_validates_arguments():
    with pytest.raises(ValueError):
        scheme_labeling("wheel", 2, 1)
    with pytest.raises(ValueError):
        scheme_labeling("wheel", 3, 0)


def test_conformance_reports_both_variants():
    reports = wheel_conformance(3, 1)
    by_variant = {r.variant: r for r in reports}
    assert set(by_variant) == {"as-printed", "errata"}
    good = by_variant["errata"]
    assert good.passed
    assert good.center_computed == good.center_expected == 27
    assert good.handshake_ok
    bad = by_variant["as-printed"]
    assert not bad.passed
    assert "duplicate label" in bad.first_violation
    assert bad.verification.missing_labels == [2, 6]


def test_conformance_center_anchor_4_2():
    reports = wheel_conformance(4, 2)
    errata = next(r for r in reports if r.variant == "errata")
    assert errata.passed
    assert errata.center_computed == 194


def test_branch_hits_partition_edges():
    reports = wheel_conformance(5, 2)
    errata = next(r for r in reports if r.variant == "errata")
    label_hits = sum(
        c for k, c in errata.branch_hits.items() if ".sum_" not in k
    )
    assert label_hits == 4 * 5 * 2


def test_wheel_expected_reports_uncovered_cells():
    assert wheel_expected(4, 1, Variant.AS_PRINTED).coverage
