"""Helpers shared by the tests: a fresh interpreter's environment, an oracle's full sums,
and the paths, incidences and degrees the package has no verb for."""

import os
from pathlib import Path

from antimagic.graphs import Edge, Graph, Vertex, make_graph

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
    vs = [Vertex(i) for i in range(1, m + 1)]
    return make_graph(vs, zip(vs, vs[1:]))


def incident(g: Graph) -> dict[Vertex, list[Edge]]:
    """Each vertex's edges, in ``g.edges`` order."""
    inc = {v: [] for v in g.vertices}
    for e in g.edges:
        inc[e[0]].append(e)
        inc[e[1]].append(e)
    return inc


def degrees(g: Graph) -> dict[Vertex, int]:
    return {v: len(es) for v, es in incident(g).items()}
