"""Helpers shared by the tests: a fresh interpreter's environment, an oracle's full sums,
and the paths, incidences and degrees the package has no verb for."""

import os
from pathlib import Path

from antimagic.graphs import Graph, edge_ends, make_graph, vertex

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """This process's environment with the package's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def covered_sums(oracle) -> dict:
    """The sums of an ``OracleSums``, after asserting that every row it evaluated was covered."""
    assert oracle.coverage == []
    return oracle.sums


def build_path(m: int) -> Graph:
    """The path u1..um; m >= 2, since a lone vertex lies on no edge."""
    vs = [vertex(i) for i in range(1, m + 1)]
    return make_graph(zip(vs, vs[1:]))


def incident(g: Graph) -> dict[int, list[int]]:
    """Each vertex's edges, in ``g.edges`` order."""
    inc = {v: [] for v in g.vertices}
    for e in g.edges:
        for v in edge_ends(e):
            inc[v].append(e)
    return inc


def indices(v: int) -> tuple[int, int]:
    """The (i, j) of a vertex code, j = -1 for ``u_i``: the inverse of ``graphs.vertex``."""
    return v >> 16, (v & 0xFFFF) - 1


def pairs(g: Graph) -> list[tuple[int, int]]:
    """Each edge as its two vertices, in ``g.edges`` order, as networkx reads edges."""
    return [edge_ends(e) for e in g.edges]


def degrees(g: Graph) -> dict[int, int]:
    return {v: len(es) for v, es in incident(g).items()}
