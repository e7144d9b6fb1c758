"""The schemes' row tables and the conformance sweep the ROADMAP gate pins."""

import hashlib
import subprocess
import sys

import pytest

from antimagic import flower, helm, wheel
from antimagic.conformance import to_jsonl
from antimagic.families import FAMILIES
from antimagic.graphs import product_graph

from . import ROOT, src_env

MODULES = {"wheel": wheel, "helm": helm, "flower": flower}

WHEEL_CLASSES = {"hub-spokes": 1, "rim": 2, "center-spokes": 1}
HELM_CLASSES = {"hub-spokes": 1, "rim-pendant": 4, "center-spokes": 1}
FLOWER_CLASSES = {"hub-spokes": 2, "rim-pendant": 4, "center-spokes": 2}


@pytest.mark.parametrize("family, m, n, per_mn", [
    pytest.param("wheel", 5, 2, WHEEL_CLASSES, id="wheel-5-2"),
    pytest.param("helm", 5, 2, HELM_CLASSES, id="helm-5-2"),
    pytest.param("helm", 5, 1, HELM_CLASSES, id="helm-5-1"),
    pytest.param("flower", 5, 3, FLOWER_CLASSES, id="flower-5-3"),
    pytest.param("flower", 5, 1, FLOWER_CLASSES, id="flower-5-1"),
])
def test_edge_class_sizes(family, m, n, per_mn):
    # the edge rows partition the product's edge set into the classes
    # the proofs count: each class has a fixed multiple of mn edges
    edge_rows, _vertex_rows = MODULES[family]._families(m, n)
    sizes = {}
    edges = []
    for cls, _fid, cells, mk_edge in edge_rows:
        for i, j in cells(m, n):
            sizes[cls] = sizes.get(cls, 0) + 1
            edges.append(mk_edge(m, n, i, j))
    g = product_graph(family, m, n)
    assert sizes == {cls: k * m * n for cls, k in per_mn.items()}
    assert sum(sizes.values()) == g.q
    assert len(edges) == g.q
    assert set(edges) == set(g.edges)


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
