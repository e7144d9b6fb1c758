"""Helm-star schemes: the n=1 labeling, the case split, and the oracles."""

import pytest

from antimagic.conformance import scheme_labeling
from antimagic.formula import Variant
from antimagic.graphs import edge, vertex, product_graph
from antimagic.helm import (
    CaseClass,
    helm_case_class,
    helm_conformance,
    helm_expected,
    helm_labels,
)
from antimagic.labeling import EdgeLabeling, verify_antimagic, vertex_sums

from . import covered_sums, incident


def test_case_classification():
    assert helm_case_class(5, 3) is CaseClass.BASE
    assert helm_case_class(3, 5) is CaseClass.LARGE_STAR
    assert helm_case_class(3, 2) is CaseClass.EVEN_STAR
    with pytest.raises(ValueError):
        helm_case_class(3, 1)


def test_exactly_one_class_per_cell():
    for m in range(3, 9):
        for n in range(2, 7):
            assert helm_case_class(m, n) in CaseClass


def test_n1_anchor_labels():
    lab3 = scheme_labeling("helm", 3, 1)
    assert lab3.labels[edge(vertex(1, 1), vertex(4, 0))] == 1
    lab4 = scheme_labeling("helm", 4, 1)
    assert lab4.labels[edge(vertex(1, 0), vertex(5, 1))] == 6


def test_n1_label_sum_identity():
    lab = scheme_labeling("helm", 3, 1)
    assert sorted(lab.labels.values()) == list(range(1, 19))
    assert sum(lab.labels.values()) == 171


@pytest.mark.parametrize("m", range(3, 11))
def test_n1_scheme_verifies_and_matches_oracle(m):
    g = product_graph("helm", m, 1)
    lab = scheme_labeling("helm", m, 1)
    report = verify_antimagic(g, lab)
    assert report.antimagic
    expected = covered_sums(helm_expected(m, 1))
    sums = vertex_sums(g, lab)
    assert all(sums[v] == expected[v] for v in expected)
    assert expected[vertex(0, 0)] == 3 * m * m + m
    assert expected[vertex(0, 1)] == 5 * m * m + m


def test_n1_as_printed_oracle_overlap_at_m3():
    result = helm_expected(3, 1, Variant.AS_PRINTED)
    assert len(result.coverage) == 1
    assert "i=2" in result.coverage[0]
    assert "overlap" in result.coverage[0]


@pytest.mark.parametrize("m", [5, 7, 9])
def test_n1_as_printed_oracle_midpoint_mismatch(m):
    g = product_graph("helm", m, 1)
    lab = scheme_labeling("helm", m, 1, Variant.AS_PRINTED)
    sums = vertex_sums(g, lab)
    printed = helm_expected(m, 1, Variant.AS_PRINTED).sums
    mid = vertex((m + 1) // 2, 0)
    assert printed[mid] == 9 * m + 8 * ((m + 1) // 2) - 3
    assert sums[mid] == 10 * m + 8 * ((m + 1) // 2) - 2
    assert printed[mid] != sums[mid]


def test_pendant_vertices_sum_to_their_label():
    for m, n in [(3, 1), (4, 2), (5, 3)]:
        g = product_graph("helm", m, n)
        lab = scheme_labeling("helm", m, n)
        sums = vertex_sums(g, lab)
        inc = incident(g)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                v = vertex(m + i, j)
                assert len(inc[v]) == 1
                (e,) = inc[v]
                assert sums[v] == lab.labels[e]


def test_product_anchor_labels():
    lab = scheme_labeling("helm", 5, 3)
    assert lab.labels[edge(vertex(0, 0), vertex(3, 1))] == 68
    lab32 = scheme_labeling("helm", 3, 2)
    assert lab32.labels[edge(vertex(0, 0), vertex(1, 1))] == 26


def test_expected_center_anchors():
    assert covered_sums(helm_expected(5, 3))[vertex(0, 0)] == 1140
    assert covered_sums(helm_expected(3, 1))[vertex(0, 0)] == 30
    assert covered_sums(helm_expected(5, 1))[vertex(0, 1)] == 130


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_errata_scheme_verifies_and_matches_oracle(m, n):
    g = product_graph("helm", m, n)
    lab = scheme_labeling("helm", m, n)
    report = verify_antimagic(g, lab)
    assert report.antimagic, report.to_json()
    expected = covered_sums(helm_expected(m, n))
    sums = vertex_sums(g, lab)
    assert all(sums[v] == expected[v] for v in g.vertices)
    assert sum(expected.values()) == 6 * m * n * (6 * m * n + 1)


def test_case_class_changes_labeling_never_the_graph():
    # (5,3), (5,4) and (3,5) land in three different classes, but each
    # labeling is total over exactly the same edge set its graph has
    cells = [(5, 3), (5, 4), (3, 5)]
    assert len({helm_case_class(m, n) for m, n in cells}) == 3
    for m, n in cells:
        g = product_graph("helm", m, n)
        lab = scheme_labeling("helm", m, n)
        assert set(lab.labels) == set(g.edges)
        assert product_graph("helm", m, n) == g


def test_conformance_m4_n2_reports_branch_hits():
    reports = helm_conformance(4, 2)
    errata = next(r for r in reports if r.variant == "errata")
    assert errata.passed
    assert errata.case_class == "even-star"
    m4_rows = [k for k in errata.branch_hits if "m=4" in k]
    assert m4_rows, "the m=4 special rows should be exercised"
    assert any("closing rim family read at i=1" in note for note in errata.notes)


def test_as_printed_m4_has_coverage_overlap():
    result = helm_labels(4, 2, Variant.AS_PRINTED)
    assert any("pend_out" in msg and "overlap" in msg for msg in result.coverage)


def test_as_printed_m8_loses_bijectivity():
    g = product_graph("helm", 8, 2)
    result = helm_labels(8, 2, Variant.AS_PRINTED)
    assert not result.coverage
    report = verify_antimagic(g, EdgeLabeling(result.labels))
    assert not report.bijective


def test_n1_conformance_reports():
    reports = helm_conformance(3, 1)
    for report in reports:
        assert report.q == 18
        assert report.branch_hits
    printed = next(r for r in reports if r.variant == "as-printed")
    assert any("i=2" in msg for msg in printed.oracle_coverage)
    errata = next(r for r in reports if r.variant == "errata")
    assert errata.passed
