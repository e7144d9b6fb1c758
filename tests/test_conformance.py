"""The shared row table and the conformance sweep the ROADMAP gate pins."""

import hashlib
import subprocess
import sys

import pytest

from antimagic import cli, flower, helm, wheel
from antimagic import formula as F
from antimagic.conformance import ROWS, to_jsonl
from antimagic.families import FAMILIES
from antimagic.graphs import product_graph

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
        cells, key = ROWS[name]
        for i, j in cells(m, n):
            sizes[EDGE_CLASS[name]] = sizes.get(EDGE_CLASS[name], 0) + 1
            edges.append(key(m, n, i, j))
    g = product_graph(family, m, n)
    assert sizes == {cls: k * m * n for cls, k in PER_MN[family].items()}
    assert sum(sizes.values()) == g.q
    assert len(edges) == g.q
    assert set(edges) == set(g.edges)


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


SWEEP_DIGESTS = {
    "wheel_conformance.jsonl": "55528529bb14a0b9ce05f0a7ec1c780921d4f58d982744ad570dd142bb42c5da",
    "helm_conformance.jsonl": "e1e0dc41000aa0ca71044ef8217d77072d60f576d88b6879bf5a5d59df1bb837",
    "flower_conformance.jsonl": "985f88856724bc36316ea4b875c196fd7880ba4131a938d12d89aa2d04711804",
    "cross_validation.jsonl": "df4dce9f841c2e32bca123ce64e8a4d61224601d57c0768c1b6665365215343f",
}


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
    records = [r.to_json_dict() for m, n in cells for r in FAMILIES[family].conformance(m, n)]
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
