"""Flower-star schemes: compositions over the helm, and their oracles."""

import pytest

from antimagic import formula as F
from antimagic.flower import (
    expected_flower_sums,
    flower_conformance,
    flower_expected,
    flower_labels,
    label_flower_n1,
    label_flower_product,
    outer_sum_range_ok,
)
from antimagic.formula import Variant
from antimagic.graphs import Vertex, edge, product_graph
from antimagic.labeling import verify_antimagic, vertex_sums


def test_n1_anchor_labels():
    lab = label_flower_n1(3)
    assert lab.labels[edge(Vertex(2, 1), Vertex(5, 0))] == 4
    assert lab.labels[edge(Vertex(4, 0), Vertex(0, 1))] == 8
    assert lab.labels[edge(Vertex(3, 1), Vertex(1, 0))] == 21


@pytest.mark.parametrize("m", range(3, 11))
def test_n1_scheme_verifies(m):
    g = product_graph("flower", m, 1)
    lab = label_flower_n1(m)
    report = verify_antimagic(g, lab)
    assert report.antimagic
    assert outer_sum_range_ok(m, report.sums)


def test_n1_as_printed_flags_undefined_citations():
    result = flower_labels(3, 1, Variant.AS_PRINTED)
    assert any("rim_leaf_pair" in msg for msg in result.coverage)
    assert any("flower.n1.rim_close_A" in msg for msg in result.coverage)
    # the well-defined families still label
    assert edge(Vertex(1, 1), Vertex(4, 0)) in result.labels


def test_n1_outer_vertices_have_degree_two_and_matching_sums():
    for m in (3, 4, 6):
        g = product_graph("flower", m, 1)
        lab = label_flower_n1(m)
        sums = vertex_sums(g, lab)
        expected = expected_flower_sums(m, 1)
        for i in range(1, m + 1):
            for v in (Vertex(m + i, 1), Vertex(m + i, 0)):
                assert g.degree(v) == 2
                assert sums[v] == sum(lab.labels[e] for e in g.incident[v])
                assert expected[v] == sums[v]


def test_product_anchor_labels():
    lab = label_flower_product(5, 3)
    assert lab.labels[edge(Vertex(0, 0), Vertex(3, 1))] == 98
    lab42 = label_flower_product(4, 2)
    assert lab42.labels[edge(Vertex(1, 2), Vertex(4, 0))] == 34


def test_expected_center_anchors():
    assert expected_flower_sums(5, 3)[Vertex(0, 0)] == 1815


def test_center_leaf_formula_vs_class_aware_oracle():
    # the base-class row evaluates to 141 at (m=3, n=2, j=1), but that cell
    # belongs to the even-star class, whose own row gives 70; the verified
    # labeling settles it
    base_row = F.evaluate("flower.modd.base.sum_center_leaf", Variant.ERRATA, 3, 2, 0, 1)[0]
    assert base_row == 8 * 9 * 2 - 2 * 3 * 2 + 3 * (4 * 1 - 1) == 141
    class_aware = expected_flower_sums(3, 2)[Vertex(0, 1)]
    assert class_aware == 70
    g = product_graph("flower", 3, 2)
    sums = vertex_sums(g, label_flower_product(3, 2))
    assert sums[Vertex(0, 1)] == class_aware


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_errata_scheme_verifies_and_matches_oracle(m, n):
    g = product_graph("flower", m, n)
    lab = label_flower_product(m, n)
    report = verify_antimagic(g, lab)
    assert report.antimagic, report.to_json()
    expected = expected_flower_sums(m, n)
    sums = vertex_sums(g, lab)
    assert all(sums[v] == expected[v] for v in g.vertices)
    assert sum(expected.values()) == 8 * m * n * (8 * m * n + 1)


def test_outer_vertices_degree_two_in_product():
    g = product_graph("flower", 4, 2)
    lab = label_flower_product(4, 2)
    sums = vertex_sums(g, lab)
    for i in range(1, 5):
        for j in range(1, 3):
            v = Vertex(4 + i, j)
            assert g.degree(v) == 2
            assert sums[v] == sum(lab.labels[e] for e in g.incident[v])


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
        f_val = F.evaluate(flower_fid, Variant.ERRATA, m, n, i, j)[0]
        h_val = F.evaluate(helm_fid, Variant.ERRATA, m, n, i, j)[0]
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
