"""The products checked against networkx's tensor product, built independently."""

import pytest

from antimagic.graphs import edge_ends, product_graph, vertex_name

nx = pytest.importorskip("networkx")

CELLS = [(family, m, n) for family in ("wheel", "helm", "flower")
         for m in range(3, 8) for n in range(1, 5)]


def _nx_factor(family, m):
    """W_m as networkx builds it, plus the helm's pendants and the flower's hub-to-outer edges."""
    g = nx.wheel_graph(m + 1)  # hub 0, rim cycle 1..m
    if family in ("helm", "flower"):
        g.add_edges_from((i, m + i) for i in range(1, m + 1))
    if family == "flower":
        g.add_edges_from((0, m + i) for i in range(1, m + 1))
    return g


def _names(prod):
    name = {v: f"w{v[0]}_{v[1]}" for v in prod.nodes}
    return set(name.values()), {frozenset((name[a], name[b])) for a, b in prod.edges}


@pytest.mark.parametrize("family, m, n", CELLS, ids=lambda x: str(x))
def test_product_graph_equals_networkx(family, m, n):
    expected = nx.tensor_product(_nx_factor(family, m), nx.star_graph(n))
    g = product_graph(family, m, n)
    vertices, edges = _names(expected)
    assert {vertex_name(v) for v in g.vertices} == vertices
    assert {frozenset(map(vertex_name, edge_ends(e))) for e in g.edges} == edges
    assert g.q == len(g.edges) == len(edges)
    assert nx.is_connected(expected)
