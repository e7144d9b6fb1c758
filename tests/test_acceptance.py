"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one PASS line on success (pytest -s shows them); any
assertion failure is the criterion's FAIL with the evidence in the
message.  Every numeric comparison here is exact integer equality.
"""

import json
import time

import pytest

from antimagic.flower import flower_conformance, label_flower_product
from antimagic.formula import Variant
from antimagic.graphs import (
    build_cycle,
    build_star,
    build_wheel,
    product_graph,
    tensor_product,
    vertex,
    vertex_name,
)
from antimagic.helm import helm_conformance, label_helm_product
from antimagic.labeling import EdgeLabeling, verify_antimagic, vertex_sums
from antimagic.search import Status, search_antimagic
from antimagic.wheel import label_wheel_product, wheel_conformance, wheel_expected

from tests import build_path, covered_sums, pairs
from tests.test_search import naive_has_antimagic


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_structural_laws():
    start = time.perf_counter()
    for m in range(3, 9):
        for n in range(1, 5):
            wheel = product_graph("wheel", m, n)
            assert (wheel.p, wheel.q) == ((m + 1) * (n + 1), 4 * m * n)
            helm = product_graph("helm", m, n)
            assert (helm.p, helm.q) == ((2 * m + 1) * (n + 1), 6 * m * n)
            flower = product_graph("flower", m, n)
            assert (flower.p, flower.q) == ((2 * m + 1) * (n + 1), 8 * m * n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"structural sweep took {elapsed:.2f}s"
    _report(1, f"72 products checked in {elapsed:.2f}s")


def test_criterion_2_weichsel_agreement():
    # each wheel-family factor has a triangle, so by Weichsel's theorem its
    # product with the connected star is connected
    nx = pytest.importorskip("networkx")
    cells = 0
    for family in ("wheel", "helm", "flower"):
        for m in range(3, 9):
            for n in range(1, 5):
                g = product_graph(family, m, n)
                assert nx.is_connected(nx.Graph(pairs(g))), (family, m, n)
                cells += 1
    _report(2, f"{cells} products are connected")


def test_criterion_3_wheel_errata_grid():
    start = time.perf_counter()
    cells = 0
    for m in [3, 5, 7, 9, 4, 6, 8, 10]:
        for n in range(1, 6):
            g = product_graph("wheel", m, n)
            labeling = label_wheel_product(m, n, Variant.ERRATA)
            report = verify_antimagic(g, labeling)
            assert report.bijective, f"({m},{n}): {report.missing_labels}"
            assert report.antimagic, f"({m},{n}): {report.colliding_pairs[:3]}"
            expected = covered_sums(wheel_expected(m, n, Variant.ERRATA))
            sums = vertex_sums(g, labeling)
            for v in g.vertices:
                assert sums[v] == expected[v], (m, n, vertex_name(v), sums[v], expected[v])
            center = 3 * m * m * n * n + (n if n % 2 == 0 else 0)
            assert sums[vertex(0, 0)] == center
            cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"wheel grid took {elapsed:.2f}s"
    _report(3, f"{cells} cells bijective, distinct, oracle-exact in {elapsed:.2f}s")


def test_criterion_4_wheel_as_printed_detection():
    reports = wheel_conformance(3, 1)
    printed = next(r for r in reports if r.variant == "as-printed")
    assert not printed.passed
    verification = printed.verification
    assert not verification.bijective
    assert (5, ["w1_0-w2_1", "w1_1-w2_0"]) in verification.duplicate_labels
    assert 2 in verification.missing_labels
    _report(4, "duplicate 5 on w1_0-w2_1/w1_1-w2_0 and missing 2 reported")


def test_criterion_5_helm_flower_n1():
    labelers = {"helm": label_helm_product, "flower": label_flower_product}
    conformance = {"helm": helm_conformance, "flower": flower_conformance}
    verified = []
    for family in ("helm", "flower"):
        for m in range(3, 11):
            reports = conformance[family](m, 1)
            assert {r.variant for r in reports} == {"as-printed", "errata"}
            for report in reports:
                assert report.branch_hits, (family, m, report.variant)
            errata = next(r for r in reports if r.variant == "errata")
            assert errata.passed, (family, m, errata.first_violation)
            if family == "helm":
                assert errata.center_computed == 3 * m * m + m
            verified.append((family, m))

    # printed branches that overlap or leave cells uncovered name the cell
    helm_printed = next(r for r in helm_conformance(3, 1) if r.variant == "as-printed")
    assert any("i=2" in msg and "overlap" in msg for msg in helm_printed.oracle_coverage)
    flower_printed = next(r for r in flower_conformance(3, 1) if r.variant == "as-printed")
    assert flower_printed.label_coverage
    assert all("i=" in msg for msg in flower_printed.label_coverage)

    # mutation sensitivity: corrupting any one label flips the verdict with
    # pinpointed evidence
    mutations = 0
    for family, m in [("helm", 3), ("helm", 6), ("flower", 4), ("flower", 7)]:
        g = product_graph(family, m, 1)
        labeling = labelers[family](m, 1)
        assert verify_antimagic(g, labeling).antimagic
        donor = g.edges[0]
        for e in g.edges:
            corrupted = dict(labeling.labels)
            source = donor if e != donor else g.edges[1]
            corrupted[e] = corrupted[source]
            report = verify_antimagic(g, EdgeLabeling(corrupted))
            assert not report.antimagic
            assert report.duplicate_labels and report.missing_labels
            dup_label, dup_edges = report.duplicate_labels[0]
            assert len(dup_edges) >= 2
            mutations += 1
    _report(5, f"16 (family, m) cells verified; {mutations} single-label "
               "corruptions all detected with evidence")


def test_criterion_6_helm_flower_grids():
    conformance = {"helm": helm_conformance, "flower": flower_conformance}
    q_of = {"helm": 6, "flower": 8}
    center_base = {"helm": 5, "flower": 8}
    passed_cells = 0
    for family in ("helm", "flower"):
        for m in range(3, 9):
            for n in range(2, 5):
                reports = conformance[family](m, n)
                for report in reports:
                    # every cell yields a definitive verdict with evidence
                    assert report.passed or report.first_violation, (family, m, n)
                errata = next(r for r in reports if r.variant == "errata")
                if not errata.passed:
                    continue
                passed_cells += 1
                q = q_of[family] * m * n
                verification = errata.verification
                assert sum(verification.sums.values()) == q * (q + 1), (family, m, n)
                assert errata.center_computed == errata.center_expected
                if n % 2 == 1:  # base class: the flat centre formulas apply
                    assert errata.center_computed == center_base[family] * m * m * n * n + m * n
    assert passed_cells == 2 * 6 * 3  # every errata cell in the grid passes
    _report(6, f"{passed_cells} errata cells PASS with exact handshake and "
               "class-appropriate centres")


def test_criterion_7_search_oracle():
    start = time.perf_counter()
    assert search_antimagic(build_path(2)).status is Status.NONE_EXISTS
    # K_{1,1} is P_2 itself, the one exception, so the findable stars start at n=2
    assert search_antimagic(build_star(1)).status is Status.NONE_EXISTS
    targets = [build_path(3), build_cycle(3), build_cycle(4), build_cycle(5),
               build_wheel(3)] + [build_star(n) for n in range(2, 6)]
    for g in targets:
        result = search_antimagic(g)
        assert result.status is Status.FOUND, g.edges
        assert verify_antimagic(g, result.labeling).antimagic

    # pruned verdicts equal the naive unpruned enumerator on q <= 6
    small = [build_path(2), build_path(3), build_path(4), build_cycle(3),
             build_cycle(4), build_cycle(5), build_star(5),
             tensor_product(build_path(2), build_path(3))]
    for g in small:
        assert g.q <= 6
        result = search_antimagic(g)
        assert (result.status is Status.FOUND) == naive_has_antimagic(g), g.edges
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"search suite took {elapsed:.2f}s"
    _report(7, f"P_2 none-exists; 10 graphs found and verified; naive "
               f"agreement on q<=6 in {elapsed:.2f}s")


def test_criterion_8_grid_report_determinism(tmp_path):
    from antimagic.cli import main

    outputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        assert main(["grid-report", "--family", "flower", "--m", "3..5",
                     "--n", "1..2", "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    records = [json.loads(ln) for ln in outputs[0].decode().splitlines()]
    assert len(records) == 3 * 2 * 2
    _report(8, "grid-report reruns byte-identical")
