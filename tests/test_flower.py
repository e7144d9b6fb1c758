"""Flower-star schemes: compositions over the helm, and their oracles."""

import dataclasses

import pytest

from antimagic import flower, formula as F
from antimagic.conformance import build_report, scheme_labeling
from antimagic.flower import (
    flower_conformance,
    flower_expected,
    flower_labels,
)
from antimagic.formula import Variant
from antimagic.graphs import edge, vertex, product_graph
from antimagic.labeling import verify_antimagic, vertex_sums

from . import covered_sums, incident


def test_n1_anchor_labels():
    lab = scheme_labeling("flower", 3, 1)
    assert lab.labels[edge(vertex(2, 1), vertex(5, 0))] == 4
    assert lab.labels[edge(vertex(4, 0), vertex(0, 1))] == 8
    assert lab.labels[edge(vertex(3, 1), vertex(1, 0))] == 21


@pytest.mark.parametrize("m", range(3, 11))
def test_n1_scheme_verifies(m):
    g = product_graph("flower", m, 1)
    lab = scheme_labeling("flower", m, 1)
    report = verify_antimagic(g, lab)
    assert report.antimagic
    outer = {report.sums[vertex(m + i, t)] for i in range(1, m + 1) for t in (0, 1)}
    assert outer == set(range(2 * m + 2, 6 * m + 1, 2))


@pytest.mark.parametrize("m", range(3, 7))
def test_n1_report_checks_the_printed_outer_sums(m):
    # the n=1 proof prints the outer sums as exactly {2m+2, .., 6m}; a scheme
    # that prints another set fails on that claim alone
    g = product_graph("flower", m, 1)
    scheme = flower._scheme(m, 1)
    shifted = dataclasses.replace(scheme, printed_sums=range(2 * m + 4, 6 * m + 3, 2))
    labels = flower_labels(m, 1)
    expected = flower_expected(m, 1)
    report = build_report(scheme, m, 1, Variant.ERRATA, g, labels, expected)
    assert report.passed and report.first_violation is None
    report = build_report(shifted, m, 1, Variant.ERRATA, g, labels, expected)
    assert not report.passed
    assert report.first_violation == "outer sums leave the printed range"


def test_n1_as_printed_flags_undefined_citations():
    result = flower_labels(3, 1, Variant.AS_PRINTED)
    assert any("rim_leaf_pair" in msg for msg in result.coverage)
    assert any("flower.n1.rim_close_A" in msg for msg in result.coverage)
    # the well-defined families still label
    assert edge(vertex(1, 1), vertex(4, 0)) in result.labels


def test_n1_outer_vertices_have_degree_two_and_matching_sums():
    for m in (3, 4, 6):
        g = product_graph("flower", m, 1)
        lab = scheme_labeling("flower", m, 1)
        sums = vertex_sums(g, lab)
        expected = covered_sums(flower_expected(m, 1))
        inc = incident(g)
        for i in range(1, m + 1):
            for v in (vertex(m + i, 1), vertex(m + i, 0)):
                assert len(inc[v]) == 2
                assert sums[v] == sum(lab.labels[e] for e in inc[v])
                assert expected[v] == sums[v]


def test_product_anchor_labels():
    lab = scheme_labeling("flower", 5, 3)
    assert lab.labels[edge(vertex(0, 0), vertex(3, 1))] == 98
    lab42 = scheme_labeling("flower", 4, 2)
    assert lab42.labels[edge(vertex(1, 2), vertex(4, 0))] == 34


def test_expected_center_anchors():
    assert covered_sums(flower_expected(5, 3))[vertex(0, 0)] == 1815


def test_center_leaf_formula_vs_class_aware_oracle():
    # the base-class row evaluates to 141 at (m=3, n=2, j=1), but that cell
    # belongs to the even-star class, whose own row gives 70; the verified
    # labeling settles it
    base_row = F.Resolver(Variant.ERRATA)("flower.modd.base.sum_center_leaf", 3, 2, 0, 1)
    assert base_row == 8 * 9 * 2 - 2 * 3 * 2 + 3 * (4 * 1 - 1) == 141
    class_aware = covered_sums(flower_expected(3, 2))[vertex(0, 1)]
    assert class_aware == 70
    g = product_graph("flower", 3, 2)
    sums = vertex_sums(g, scheme_labeling("flower", 3, 2))
    assert sums[vertex(0, 1)] == class_aware


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_errata_scheme_verifies_and_matches_oracle(m, n):
    g = product_graph("flower", m, n)
    lab = scheme_labeling("flower", m, n)
    report = verify_antimagic(g, lab)
    assert report.antimagic, report.to_json()
    expected = covered_sums(flower_expected(m, n))
    sums = vertex_sums(g, lab)
    assert all(sums[v] == expected[v] for v in g.vertices)
    assert sum(expected.values()) == 8 * m * n * (8 * m * n + 1)


def test_outer_vertices_degree_two_in_product():
    g = product_graph("flower", 4, 2)
    lab = scheme_labeling("flower", 4, 2)
    sums = vertex_sums(g, lab)
    inc = incident(g)
    for i in range(1, 5):
        for j in range(1, 3):
            v = vertex(4 + i, j)
            assert len(inc[v]) == 2
            assert sums[v] == sum(lab.labels[e] for e in inc[v])


@pytest.mark.parametrize("family_pair", [
    ("flower.modd.base.pend_in", "helm.modd.base.pend_in"),
    ("flower.modd.base.pend_out", "helm.modd.base.pend_out"),
    ("flower.modd.base.spoke", "helm.modd.base.spoke"),
    ("flower.modd.base.rim_jv", "helm.modd.base.rim_jv"),
])
def test_offset_coherence_with_helm(family_pair):
    # wherever the flower rows are declared as 2mn plus a helm row, the
    # label multiset is the helm multiset shifted by 2mn
    flower_fid, helm_fid = family_pair
    m, n = 5, 3
    cells = [(i, j) for i in range(1, m + (0 if "rim" in helm_fid else 1))
             for j in range(1, n + 1)]
    shift = 2 * m * n
    for i, j in cells:
        f_val = F.Resolver(Variant.ERRATA)(flower_fid, m, n, i, j)
        h_val = F.Resolver(Variant.ERRATA)(helm_fid, m, n, i, j)
        assert f_val == h_val + shift


def test_m3_even_star_spoke_duplicated_condition_as_printed():
    result = flower_labels(3, 2, Variant.AS_PRINTED)
    spoke_msgs = [msg for msg in result.coverage if "even-star.spoke" in msg]
    assert spoke_msgs
    assert any("overlap" in msg for msg in spoke_msgs)
    assert any("no branch matches" in msg and "i=2" in msg for msg in spoke_msgs)


def test_m_even_large_star_fails_honestly():
    # the shifted class for even m is internally inconsistent as printed:
    # no unique patch exists, so conformance must report a definitive FAIL
    reports = flower_conformance(4, 5)
    for report in reports:
        assert report.case_class == "large-star"
        assert not report.passed
        assert report.first_violation
    errata = next(r for r in reports if r.variant == "errata")
    assert not errata.verification.bijective


def test_conformance_acceptance_style_row():
    reports = flower_conformance(3, 2)
    errata = next(r for r in reports if r.variant == "errata")
    assert errata.passed
    assert errata.center_computed == 8 * 9 * 4 + 2  # even-star centre for m=3
    assert any("m=3" in k for k in errata.branch_hits)
