"""The shared row table and the conformance sweep the ROADMAP gate pins."""

import hashlib
import subprocess
import sys

import pytest

from antimagic import cli, flower, helm, wheel
from antimagic import formula as F
from antimagic.conformance import (
    ROWS,
    OracleSums,
    SchemeLabels,
    build_report,
    scheme_labeling,
    to_jsonl,
)
from antimagic.families import CONFORMANCE
from antimagic.formula import Variant
from antimagic.graphs import edge, edge_name, vertex, product_graph

from . import ROOT, src_env

MODULES = {"wheel": wheel, "helm": helm, "flower": flower}

# The class of each edge row in the proofs' count of the product's edges.
EDGE_CLASS = {
    "hub": "hub-spokes", "hub_outer": "hub-spokes",
    "rim_jv": "rim", "rim_vj": "rim", "rim_close_vj": "rim", "rim_close_jv": "rim",
    "rim_close_A": "rim", "rim_close_B": "rim",
    "pend_in": "pendant", "pend_out": "pendant", "pend_jv": "pendant", "pend_vj": "pendant",
    "spoke": "center-spokes", "spoke_outer": "center-spokes", "center": "center-spokes",
}
PER_MN = {
    "wheel": {"hub-spokes": 1, "rim": 2, "center-spokes": 1},
    "helm": {"hub-spokes": 1, "rim": 2, "pendant": 2, "center-spokes": 1},
    "flower": {"hub-spokes": 2, "rim": 2, "pendant": 2, "center-spokes": 2},
}
# At least one cell per scheme prefix: odd and even m, n = 1, and for
# n >= 2 the base (n odd, n <= m), large-star (n odd, n > m) and even-star classes.
ROW_CELLS = [("wheel", 5, 2), ("wheel", 4, 2)] + [
    (family, m, n)
    for family in ("helm", "flower")
    for m, n in [(5, 2), (5, 1), (4, 1), (4, 2), (5, 3), (4, 3), (3, 5), (4, 5)]
]


@pytest.mark.parametrize("family, m, n", ROW_CELLS, ids=[f"{f}-{m}-{n}" for f, m, n in ROW_CELLS])
def test_edge_class_sizes(family, m, n):
    # the edge rows partition the product's edge set into the classes
    # the proofs count: each class has a fixed multiple of mn edges
    sizes = {}
    edges = []
    for name in MODULES[family]._scheme(m, n).edges:
        rows, ends = ROWS[name]
        i_s, js = rows(m, n)
        for i in i_s:
            a, c = ends(m, i)
            assert c is not None
            for j in js:
                sizes[EDGE_CLASS[name]] = sizes.get(EDGE_CLASS[name], 0) + 1
                edges.append(edge(vertex(a, j), vertex(c, 0)))
    g = product_graph(family, m, n)
    assert sizes == {cls: k * m * n for cls, k in PER_MN[family].items()}
    assert sum(sizes.values()) == g.q
    assert len(edges) == g.q
    assert set(edges) == set(g.edges)


@pytest.mark.parametrize("family, n, variant, twice, first, repeated", [
    pytest.param("wheel", 2, Variant.ERRATA, "rim_vj", "rim_jv", "w1_1-w2_0",
                 id="wheel-rim_vj-rim_jv-w1_1-w2_0"),
    pytest.param("helm", 2, Variant.ERRATA, "pend_out", "pend_in", "w1_1-w6_0",
                 id="helm-pend_out-pend_in-w1_1-w6_0"),
    # every rim_vj cell of the as-printed n=1 scheme raises a coverage error
    pytest.param("flower", 1, Variant.AS_PRINTED, "rim_vj", "hub", "w0_0-w1_1",
                 id="flower-n1-as-printed-rim_vj-hub-w0_0-w1_1"),
    # the rim_jv cells all fail too, yet rim_close_A repeating one is refused
    pytest.param("flower", 1, Variant.AS_PRINTED, "rim_close_A", "rim_jv", "w1_1-w2_0",
                 id="flower-n1-as-printed-rim_close_A-rim_jv-w1_1-w2_0"),
])
def test_a_key_produced_twice_is_refused(monkeypatch, family, n, variant, twice, first, repeated):
    # a row table that maps two rows onto one edge is a bug in the table,
    # not a labeling, even where the cells fail; the evaluator names the
    # first repeated edge
    monkeypatch.setitem(ROWS, twice, ROWS[first])
    labels = getattr(MODULES[family], f"{family}_labels")
    with pytest.raises(RuntimeError, match=f"^edge {repeated} produced twice by the cell map$"):
        labels(5, n, variant)


def test_row_cells_reach_every_prefix_and_row_shape():
    used_prefixes, used_names = set(), set()
    for family, m, n in ROW_CELLS:
        scheme = MODULES[family]._scheme(m, n)
        used_prefixes.add(scheme.prefix)
        used_names.update(scheme.edges, scheme.vertices)
    printed = {fid.rsplit(".", 1)[0] for fid in F._PRINTED if fid.startswith(tuple(MODULES))}
    assert used_prefixes == printed
    assert used_names == set(ROWS)
    assert set(EDGE_CLASS) == {name for name in ROWS if not name.startswith("sum_")}


def _wheel_3_1_report(labels: dict | None = None, sums: dict | None = None):
    """The errata report at wheel 3x1, with the labels or the oracle's sums replaced."""
    labeled, expected = wheel.wheel_labels(3, 1), wheel.wheel_expected(3, 1)
    return build_report(
        wheel._scheme(3, 1), 3, 1, Variant.ERRATA, product_graph("wheel", 3, 1),
        SchemeLabels(labeled.labels if labels is None else labels, [], labeled.branch_hits),
        OracleSums(expected.sums if sums is None else sums, [], expected.branch_hits),
    )


def test_report_passes_exactly_when_it_names_no_violation():
    # the sweep, the CLI verbs and the benchmark reach none of the clauses
    # below; the wheel 3x1 errata scheme itself passes
    good = _wheel_3_1_report()
    assert good.passed and good.first_violation is None
    g, labels = product_graph("wheel", 3, 1), wheel.wheel_labels(3, 1).labels

    # label q moved to q + 1: a label out of range always leaves one of
    # 1..q missing, and the verdict names the missing one
    top = max(labels, key=labels.get)
    report = _wheel_3_1_report({**labels, top: g.q + 1})
    assert report.verification.out_of_range_labels == [(g.q + 1, edge_name(top))]
    assert (report.passed, report.first_violation) == (False, f"missing label {g.q}")

    # a permutation of 1..q on the edges plus a label on a non-edge
    stray = edge(vertex(1, 1), vertex(2, 1))
    report = _wheel_3_1_report({**labels, stray: 1})
    assert report.verification.unknown_edges == ["w1_1-w2_1"]
    assert (report.passed, report.first_violation) == (False, "labeling is not a bijection")

    # a bijection whose sums collide: the identity with labels 1 and 5 swapped
    colliding = dict(zip(g.edges, [5, 2, 3, 4, 1, *range(6, g.q + 1)]))
    report = _wheel_3_1_report(colliding)
    assert report.verification.bijective
    assert (report.passed, report.first_violation) == (
        False, "vertex sum collision: w2_0 and w2_1 both sum to 21")

    # an oracle, neither partial nor failing, that leaves out one vertex
    sums = dict(wheel.wheel_expected(3, 1).sums)
    del sums[vertex(3, 1)]
    report = _wheel_3_1_report(sums=sums)
    assert report.verification.antimagic and report.sum_mismatches == []
    assert (report.passed, report.first_violation) == (
        False, "oracle does not cover the whole vertex set")


SWEEP_DIGESTS = {
    "wheel_conformance.jsonl": "55528529bb14a0b9ce05f0a7ec1c780921d4f58d982744ad570dd142bb42c5da",
    "helm_conformance.jsonl": "e1e0dc41000aa0ca71044ef8217d77072d60f576d88b6879bf5a5d59df1bb837",
    "flower_conformance.jsonl": "985f88856724bc36316ea4b875c196fd7880ba4131a938d12d89aa2d04711804",
    "cross_validation.jsonl": "df4dce9f841c2e32bca123ce64e8a4d61224601d57c0768c1b6665365215343f",
}


# bench/reference.json's label_sha256 of the 100x100 cells: the text of
# `antimagic label` at the errata reading.  Their rows have 100 cells; the
# sweep's have at most 15.
LARGE_CELL_LABEL_DIGESTS = {
    "wheel": "46728fa1cebba6f8bcb613ee288db6c151e4b304e33e08aab6545bb22f4ff6ed",
    "helm": "90c15cc3b6a8f2a9c65461a4685f907d886d8f4b665f8e09bab2f5b4d273ea96",
    "flower": "6ccb34ad2a7e77619ad6a102a3865349e17e48310588414688b606a31d78034e",
}


# bench/reference.json's verify_sha256 of the same cells: the report of
# `antimagic verify` on that text, which exits 0 on each.
LARGE_CELL_VERIFY_DIGESTS = {
    "wheel": "104f30048541296bb3450fc9cd140b3e47bd72daa604303981cab0fa6a250bfd",
    "helm": "d8791f2f3853f3f270ffffddb639bf97e3d97174f1980692b8c2a8e71cae866f",
    "flower": "e30f158bcad7445ff4b0d978824f7ddc0e3083cdb13b5ade3b83f86feb757612",
}


@pytest.mark.parametrize("family", ["wheel", "helm", "flower"])
def test_large_cell_labels_are_pinned(family, tmp_path):
    g = product_graph(family, 100, 100)
    text = scheme_labeling(family, 100, 100, Variant.ERRATA).to_text(g)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_CELL_LABEL_DIGESTS[family]
    # the text read back and verified as `antimagic verify` does it
    labeled, report = tmp_path / "label.txt", tmp_path / "verify.json"
    labeled.write_text(text)
    code = cli.main(["verify", "--in", str(labeled), "--out", str(report)])
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert (code, digest) == (0, LARGE_CELL_VERIFY_DIGESTS[family])


def test_sweep_reports_are_pinned(tmp_path):
    # A change that means to alter a verdict updates these digests and
    # names the affected cells in CHANGES.md.  The cross-validation rows
    # are pinned too: they carry search counters but no measured time.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_grid_reports.py"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SWEEP_DIGESTS
    }
    assert digests == SWEEP_DIGESTS


# The large-star class (n odd, n > m) of helm and flower lies outside the
# sweep grids: m 3..10 and odd n in (m, m+5], the 40 cells the benchmark's
# sweep also checks.  Both variants, as grid-report writes them.
LARGE_STAR_DIGESTS = {
    "helm": "db7cc7ea497fa590a41920d1cfe55f169b1b449503c46c50f476007d7e1f6ff2",
    "flower": "5567619c2dc4614a4e997eaad2f74acf10afd530c3b7f83e6e1df3f0dd9c615a",
}


@pytest.mark.parametrize("family", sorted(LARGE_STAR_DIGESTS))
def test_large_star_reports_are_pinned(family):
    cells = [(m, n) for m in range(3, 11) for n in range(m + 1, m + 6) if n % 2 == 1]
    records = [r.to_json_dict() for m, n in cells for r in CONFORMANCE[family](m, n)]
    failing = [(r["m"], r["n"]) for r in records if r["variant"] == "errata" and not r["passed"]]
    # errata fails exactly the even-m flower cells: README's definitive FAIL
    assert failing == [(m, n) for m, n in cells if family == "flower" and m % 2 == 0]
    assert hashlib.sha256(to_jsonl(records).encode()).hexdigest() == LARGE_STAR_DIGESTS[family]


def _sweep_flower(harness, tracer, tmp_path):
    harness.sweep_cell(tracer, ("flower", 3, 2))


def _label_then_verify_flower(harness, tracer, tmp_path):
    labeled = str(tmp_path / "flower.txt")
    assert cli.main(["label", "--family", "flower", "--m", "3", "--n", "2", "--out", labeled]) == 0
    assert cli.main(["verify", "--in", labeled, "--out", str(tmp_path / "report.json")]) == 0


def _search_wheel(harness, tracer, tmp_path):
    harness.search_instance(tracer, ("local-search", "wheel", 3, 2), 0)


@pytest.mark.parametrize("run, spans, counts", [
    (_sweep_flower,
     {"graphs.product", "formula.scheme", "oracle.expected", "conformance.build_report",
      "labeling.verify"},
     ("formula.evals", "oracle.evals")),
    (_label_then_verify_flower,
     {"graphs.product", "formula.scheme", "labeling.to_text", "labeling.parse",
      "labeling.verify"},
     ("formula.evals", "labeling.text_bytes")),
    (_search_wheel,
     {"graphs.product", "search.search", "labeling.verify"},
     ("search.iterations", "labeling.verify_accepts")),
], ids=["sweep", "cli", "search"])
def test_benchmark_tracer_still_finds_every_name_it_wraps(monkeypatch, tmp_path, run, spans,
                                                          counts):
    # bench/tracing.py wraps the package's layer entry points by module
    # attribute and bench/harness.py binds <family>_conformance on import,
    # so a renamed or deleted name breaks `bench/run.py --trace 1`; the CLI
    # verbs and the search must also reach them through those attributes, or
    # the large-cells and search counters read 0
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness
    import tracing

    tracer = tracing.Tracer()
    with tracer.instrumented():
        run(harness, tracer, tmp_path)
    assert spans <= {span[0] for span in tracer.spans}
    assert all(tracer.counts[name] > 0 for name in counts)
