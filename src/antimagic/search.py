"""Scheme-independent search for antimagic labelings.

Two strategies: exhaustive enumeration of label permutations in
lexicographic order with pruning on finished vertex sums (complete, so a
negative answer is definitive), and a seeded steepest-descent swap
search (incomplete, so a miss is only 'not found').  Every labeling
either strategy returns has passed the verifier before it is handed
back.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum

from .conformance import FormulaCoverageError
from .families import FAMILIES
from .formula import Variant
from .graphs import Graph, product_graph
from .labeling import EdgeLabeling, verify_antimagic


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    LOCAL_SEARCH = "local-search"


class Status(Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"
    NOT_FOUND = "not-found"


class CapacityError(ValueError):
    """Exhaustive search refused: the instance is too large."""


@dataclass(frozen=True)
class SearchConfig:
    strategy: Strategy = Strategy.EXHAUSTIVE
    max_exhaustive_edges: int = 10
    max_iterations: int = 20_000
    seed: int = 0


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    iterations: int = 0
    restarts: int = 0
    wall_time_ms: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "prunes": self.prunes,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }


@dataclass
class SearchResult:
    status: Status
    labeling: EdgeLabeling | None
    stats: SearchStats


def _checked(g: Graph, labels: dict) -> EdgeLabeling:
    labeling = EdgeLabeling(dict(labels), g.q)
    report = verify_antimagic(g, labeling)
    if not report.antimagic:
        raise RuntimeError("search produced a labeling the verifier rejects")
    return labeling


def _exhaustive(g: Graph, config: SearchConfig, stats: SearchStats) -> EdgeLabeling | None:
    q = g.q
    if q > config.max_exhaustive_edges:
        raise CapacityError(
            f"exhaustive search refuses q={q} > {config.max_exhaustive_edges} edges; "
            "use the local-search strategy"
        )
    edges = g.edges
    vertex_index = {v: k for k, v in enumerate(g.vertices)}
    remaining = [g.degree(v) for v in g.vertices]
    sums = [0] * g.p
    finished: set[int] = set()
    used = [False] * (q + 1)
    assignment = [0] * q

    def place(pos: int) -> bool:
        if pos == q:
            return True
        a, b = edges[pos]
        ia, ib = vertex_index[a], vertex_index[b]
        for label in range(1, q + 1):
            if used[label]:
                continue
            stats.nodes += 1
            used[label] = True
            assignment[pos] = label
            sums[ia] += label
            sums[ib] += label
            remaining[ia] -= 1
            remaining[ib] -= 1
            closed = []
            ok = True
            for iv in (ia, ib):
                if remaining[iv] == 0:
                    if sums[iv] in finished:
                        ok = False
                        break
                    finished.add(sums[iv])
                    closed.append(iv)
            if ok and place(pos + 1):
                return True
            if not ok:
                stats.prunes += 1
            for iv in closed:
                finished.discard(sums[iv])
            remaining[ia] += 1
            remaining[ib] += 1
            sums[ia] -= label
            sums[ib] -= label
            used[label] = False
        return False

    if place(0):
        return _checked(g, dict(zip(edges, assignment)))
    return None


def _collision_count(g: Graph, labels: list[int]) -> int:
    sums: dict = {}
    for e, lab in zip(g.edges, labels):
        sums[e[0]] = sums.get(e[0], 0) + lab
        sums[e[1]] = sums.get(e[1], 0) + lab
    seen: dict[int, int] = {}
    for v in g.vertices:
        seen[sums[v]] = seen.get(sums[v], 0) + 1
    return sum(c * (c - 1) // 2 for c in seen.values())


def _local_search(g: Graph, config: SearchConfig, stats: SearchStats) -> EdgeLabeling | None:
    q = g.q
    rng = random.Random(config.seed)
    plateau_budget = 2 * q
    labels = list(range(1, q + 1))
    while stats.iterations < config.max_iterations:
        cost = _collision_count(g, labels)
        plateau = 0
        while cost > 0 and stats.iterations < config.max_iterations:
            stats.iterations += 1
            best = None
            for a in range(q):
                for b in range(a + 1, q):
                    labels[a], labels[b] = labels[b], labels[a]
                    c = _collision_count(g, labels)
                    labels[a], labels[b] = labels[b], labels[a]
                    if best is None or c < best[0]:
                        best = (c, a, b)
            if best is None or best[0] > cost:
                break
            if best[0] == cost:
                plateau += 1
                if plateau > plateau_budget:
                    break
            else:
                plateau = 0
            cost, a, b = best
            labels[a], labels[b] = labels[b], labels[a]
        if cost == 0:
            return _checked(g, dict(zip(g.edges, labels)))
        stats.restarts += 1
        labels = list(range(1, q + 1))
        rng.shuffle(labels)
    return None


def search_antimagic(g: Graph, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Search for an antimagic labeling of g under the given strategy.

    Exhaustive returns a definitive NONE_EXISTS when the enumeration
    finishes empty; local search can only report NOT_FOUND.
    """
    if g.q < 1:
        raise ValueError("search needs at least one edge")
    stats = SearchStats()
    start = time.perf_counter()
    if config.strategy is Strategy.EXHAUSTIVE:
        labeling = _exhaustive(g, config, stats)
        missing_status = Status.NONE_EXISTS
    else:
        labeling = _local_search(g, config, stats)
        missing_status = Status.NOT_FOUND
    stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
    status = Status.FOUND if labeling is not None else missing_status
    return SearchResult(status, labeling, stats)


@dataclass
class AgreementRecord:
    """Scheme vs. searcher on the same product graph; they need not agree
    on the labeling, only both be checked by the same verifier."""

    family: str
    m: int
    n: int
    scheme_antimagic: bool
    search_status: str
    search_stats: SearchStats

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "scheme_antimagic": self.scheme_antimagic,
            "search_status": self.search_status,
            "search_stats": self.search_stats.to_json_dict(),
        }


def cross_validate(m: int, n: int, family: str,
                   config: SearchConfig | None = None) -> AgreementRecord:
    """Run the published scheme (errata reading) and the searcher side by side."""
    g = product_graph(family, m, n)
    try:
        labeling = FAMILIES[family].label(m, n, Variant.ERRATA)
    except FormulaCoverageError:
        scheme_ok = False
    else:
        scheme_ok = verify_antimagic(g, labeling).antimagic
    if config is None:
        config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=2000, seed=7)
    result = search_antimagic(g, config)
    return AgreementRecord(family, m, n, scheme_ok, result.status.value, result.stats)
