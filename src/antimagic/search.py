"""Scheme-independent search for antimagic labelings.

Two strategies: exhaustive enumeration of label permutations in
lexicographic order with pruning on finished vertex sums (complete, so a
negative answer is definitive; a loop over edge positions, so no
recursion limit bounds its depth), and a steepest-descent swap search from
the identity labeling (incomplete, so a miss is only 'not found').  Each
descent iteration takes the best of the q(q-1)/2 label swaps without
walking them all: a swap's collisions are bounded below by the cost less
the gains of its two edges, so the scan sets a target at the floor no
swap can beat, walks only the pairs whose bound allows it, and raises
the target by one until a pair scores it; each swap it scores costs
O(1), and mostly they are swaps next to a vertex whose sum collides.  A
descent restarts, from a seeded shuffle of the labels, as soon as no swap
lowers the collisions; the seed drives only those shuffles.  Every
labeling either strategy returns has passed the verifier before it is
handed back.  The search picks its strategy from q: exhaustive when q is
at most ``SearchConfig.max_exhaustive_edges``, local search above it, or
at any q when ``SearchConfig.strategy`` asks for local search.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

from .graphs import Graph, edge_ends
from .labeling import EdgeLabeling, verify_antimagic


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    LOCAL_SEARCH = "local-search"


class Status(Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class SearchConfig:
    strategy: Strategy = Strategy.EXHAUSTIVE
    max_exhaustive_edges: int = 10
    max_iterations: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.max_exhaustive_edges, self.max_iterations) < 0:
            raise ValueError(f"search budgets must be >= 0: {self}")


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


@dataclass(frozen=True)
class SearchResult:
    strategy: Strategy  # the one that ran
    status: Status
    labeling: EdgeLabeling | None
    stats: SearchStats


def _checked(g: Graph, labels: dict) -> EdgeLabeling:
    labeling = EdgeLabeling(dict(labels))
    report = verify_antimagic(g, labeling)
    if not report.antimagic:
        raise RuntimeError("search produced a labeling the verifier rejects")
    return labeling


def _endpoints(g: Graph) -> list[tuple[int, int]]:
    """Each edge's two ends as ranks in ``g.vertices``, in edge order."""
    rank = {v: k for k, v in enumerate(g.vertices)}
    return [(rank[a], rank[b]) for a, b in map(edge_ends, g.edges)]


def _exhaustive(g: Graph, stats: SearchStats) -> EdgeLabeling | None:
    q = g.q
    ends = _endpoints(g)
    remaining = [0] * g.p  # each vertex's degree, then its edges still unlabeled
    for ia, ib in ends:
        remaining[ia] += 1
        remaining[ib] += 1
    sums = [0] * g.p
    finished: set[int] = set()
    used = [False] * (q + 1)
    assignment = [0] * q  # the label tried at each position, 0 before the first
    closed: list[list[int]] = [[] for _ in range(q)]  # the vertices that label finished
    pos = 0
    while pos >= 0:
        ia, ib = ends[pos]
        label = assignment[pos]
        if label:  # take back the label tried here last
            for iv in closed[pos]:
                finished.discard(sums[iv])
            remaining[ia] += 1
            remaining[ib] += 1
            sums[ia] -= label
            sums[ib] -= label
            used[label] = False
        label = assignment[pos] = next((k for k in range(label + 1, q + 1) if not used[k]), 0)
        if not label:  # every label tried here: back to the position before
            pos -= 1
            continue
        stats.nodes += 1
        used[label] = True
        sums[ia] += label
        sums[ib] += label
        remaining[ia] -= 1
        remaining[ib] -= 1
        done = closed[pos] = []
        for iv in (ia, ib):
            if remaining[iv] == 0:
                if sums[iv] in finished:
                    stats.prunes += 1
                    break
                finished.add(sums[iv])
                done.append(iv)
        else:
            if pos + 1 == q:
                return _checked(g, dict(zip(g.edges, assignment)))
            pos += 1
    return None


class _SwapTable:
    """A labeling's vertex sums, a sum -> count table and the number of
    vertex pairs with equal sums, kept exact under swaps of two labels.

    Swapping the labels of edges a and b adds d = l_b - l_a at a's ends
    and subtracts it at b's ends; a vertex on both edges nets to 0.  So a
    swap moves at most four vertex sums, and scoring it costs O(1).  A
    vertex that leaves a sum shared by c vertices removes at most c - 1
    collisions, so with gain[e] = count[sums[u]] + count[sums[v]] - 2 for
    edge e = (u, v), swapping a and b leaves at least
    ``collisions - gain[a] - gain[b]``; ``best_swap`` walks only the pairs
    whose bound allows its target.  ``swap`` swaps the two entries of the
    caller's ``labels`` in place.
    """

    def __init__(self, ends: list[tuple[int, int]], p: int, labels: list[int]):
        self.ends = ends
        self.labels = labels
        self.sums = [0] * p
        for (u, v), label in zip(ends, labels):
            self.sums[u] += label
            self.sums[v] += label
        self.count: defaultdict[int, int] = defaultdict(int)
        for s in self.sums:
            self.count[s] += 1
        self.collisions = sum(c * (c - 1) // 2 for c in self.count.values())

    def _moves(self, a: int, b: int) -> list[tuple[int, int]]:
        """(vertex, its sum after the swap) for each vertex whose sum changes."""
        ea, eb = self.ends[a], self.ends[b]
        d = self.labels[b] - self.labels[a]
        sums = self.sums
        return ([(v, sums[v] + d) for v in ea if v not in eb]
                + [(v, sums[v] - d) for v in eb if v not in ea])

    def _recount(self, moves: list[tuple[int, int]]) -> int:
        """Move the counts of ``moves`` to their new sums; return the new collisions."""
        count, sums = self.count, self.sums
        collisions = self.collisions
        for v, _ in moves:
            count[sums[v]] -= 1
            collisions -= count[sums[v]]
        for _, s in moves:
            collisions += count[s]
            count[s] += 1
        return collisions

    def score(self, a: int, b: int) -> int:
        """Collisions after swapping the labels of edges a and b; the table is left as it was."""
        moves = self._moves(a, b)
        collisions = self._recount(moves)
        count, sums = self.count, self.sums
        for v, s in moves:
            count[s] -= 1
            count[sums[v]] += 1
        return collisions

    def best_swap(self) -> tuple[int, int, int] | None:
        """The first pair a < b, in lexicographic order, whose swap leaves
        the fewest collisions, as (collisions, a, b); None when q < 2.

        No swap leaves fewer than the floor ``collisions - g1 - g2``, g1
        and g2 the two largest gains, so the target starts there.  Each
        rung of the ladder walks, in lexicographic order, the pairs whose
        bound newly allows the target, found by bisection over the edges
        sorted by gain, and returns the first that scores it, unless a
        pair scored on a lower rung scores it and comes first.  Then the
        target rises by one.  A pair that scores s has a bound <= s, so
        it is walked by rung s: the first rung any pair scores is the
        fewest collisions, and the pair returned there is the first to
        leave them.  Each pair is scored at most once.
        """
        cost, count, sums = self.collisions, self.count, self.sums
        gain = [count[sums[u]] + count[sums[v]] - 2 for u, v in self.ends]
        if len(gain) < 2:
            return None
        by_gain = sorted(range(len(gain)), key=gain.__getitem__)
        ranked = [gain[e] for e in by_gain]
        top = ranked[-1] + ranked[-2]
        target = max(0, cost - top)
        first: dict[int, tuple[int, int]] = {}  # score -> the first pair scored to it so far
        while True:
            need = cost - target  # walk the pairs whose gains sum to need .. top
            # a new pair must come before the first pair a lower rung
            # scored to the target; with none, any pair does
            known = first.get(target, (len(gain), 0))
            for a in sorted(by_gain[bisect_left(ranked, need - ranked[-1]):]):
                if a > known[0]:
                    break
                partners = by_gain[bisect_left(ranked, need - gain[a]):
                                   bisect_right(ranked, top - gain[a])]
                for b in sorted(partners):
                    if b <= a:
                        continue
                    if (a, b) > known:
                        break
                    c = self.score(a, b)
                    if c == target:
                        return c, a, b
                    first[c] = min(first.get(c, (a, b)), (a, b))
            if target in first:
                return (target, *known)
            top = need - 1
            target += 1

    def swap(self, a: int, b: int) -> None:
        moves = self._moves(a, b)
        self.collisions = self._recount(moves)
        for v, s in moves:
            self.sums[v] = s
        self.labels[a], self.labels[b] = self.labels[b], self.labels[a]


def _local_search(g: Graph, config: SearchConfig, stats: SearchStats) -> EdgeLabeling | None:
    q = g.q
    ends = _endpoints(g)
    rng = random.Random(config.seed)
    labels = list(range(1, q + 1))
    while stats.iterations < config.max_iterations:
        table = _SwapTable(ends, g.p, labels)
        cost = table.collisions
        while cost > 0 and stats.iterations < config.max_iterations:
            stats.iterations += 1
            best = table.best_swap()
            if best is None or best[0] >= cost:
                break
            cost, a, b = best
            table.swap(a, b)
        if cost == 0:
            return _checked(g, dict(zip(g.edges, labels)))
        stats.restarts += 1
        labels = list(range(1, q + 1))
        rng.shuffle(labels)
    return None


def search_antimagic(g: Graph, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Search for an antimagic labeling of g by the strategy the config and q pick.

    Exhaustive returns a definitive NONE_EXISTS when the enumeration
    finishes empty; local search can only report NOT_FOUND.
    """
    if g.q < 1:
        raise ValueError("search needs at least one edge")
    stats = SearchStats()
    start = time.perf_counter()
    if config.strategy is Strategy.EXHAUSTIVE and g.q <= config.max_exhaustive_edges:
        strategy = Strategy.EXHAUSTIVE
        labeling = _exhaustive(g, stats)
        missing_status = Status.NONE_EXISTS
    else:
        strategy = Strategy.LOCAL_SEARCH
        labeling = _local_search(g, config, stats)
        missing_status = Status.NOT_FOUND
    stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
    status = Status.FOUND if labeling is not None else missing_status
    return SearchResult(strategy, status, labeling, stats)
