"""Search oracle: exhaustive completeness, pruning safety, determinism."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import formula as F
from antimagic.cli import main
from antimagic.conformance import FormulaCoverageError, scheme_labeling
from antimagic.families import cross_validate
from antimagic.graphs import (
    build_cycle,
    build_star,
    build_wheel,
    edge_ends,
    edge_name,
    make_graph,
    product_graph,
    vertex,
)
from antimagic.labeling import verify_antimagic, vertex_sums
from antimagic.search import (
    SearchConfig,
    Status,
    Strategy,
    _endpoints,
    _SwapTable,
    search_antimagic,
)

from . import ROOT, build_path


def naive_has_antimagic(g):
    """Unpruned full enumeration; the reference the pruned search must equal."""
    for perm in itertools.permutations(range(1, g.q + 1)):
        sums = {v: 0 for v in g.vertices}
        for e, lab in zip(g.edges, perm):
            for v in edge_ends(e):
                sums[v] += lab
        values = list(sums.values())
        if len(set(values)) == len(values):
            return True
    return False


def test_p2_has_no_antimagic_labeling():
    result = search_antimagic(build_path(2))
    assert result.status is Status.NONE_EXISTS
    assert result.labeling is None


def test_c3_found_with_expected_sums():
    g = build_cycle(3)
    result = search_antimagic(g)
    assert result.status is Status.FOUND
    assert sorted(vertex_sums(g, result.labeling).values()) == [3, 4, 5]


def test_star_structure_forces_distinctness():
    g = build_star(4)
    result = search_antimagic(g)
    assert result.status is Status.FOUND
    sums = vertex_sums(g, result.labeling)
    assert sums[vertex(0)] == 10
    assert all(sums[vertex(0)] > sums[vertex(i)] for i in range(1, 5))


@pytest.mark.parametrize("g", [
    build_path(3), build_cycle(4), build_cycle(5), build_wheel(3), build_star(5),
])
def test_small_graphs_found_and_sound(g):
    result = search_antimagic(g)
    assert result.status is Status.FOUND
    assert verify_antimagic(g, result.labeling).antimagic


def test_the_edge_budget_picks_the_strategy():
    g = product_graph("wheel", 3, 1)  # q = 12 > default budget 10
    result = search_antimagic(g)
    assert (result.strategy, result.status) == (Strategy.LOCAL_SEARCH, Status.FOUND)
    assert verify_antimagic(g, result.labeling).antimagic
    result = search_antimagic(g, SearchConfig(max_exhaustive_edges=12))
    assert (result.strategy, result.status) == (Strategy.EXHAUSTIVE, Status.FOUND)
    # asking for local search runs it within the budget too
    config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_exhaustive_edges=12)
    assert search_antimagic(g, config).strategy is Strategy.LOCAL_SEARCH


def test_local_search_finds_on_product():
    g = product_graph("wheel", 3, 1)
    config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=500, seed=3)
    result = search_antimagic(g, config)
    assert result.status is Status.FOUND
    assert verify_antimagic(g, result.labeling).antimagic


def test_determinism_same_config_same_everything():
    g = product_graph("helm", 3, 1)
    config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=300, seed=11)
    a = search_antimagic(g, config)
    b = search_antimagic(g, config)
    assert a.status == b.status
    assert a.stats == b.stats  # wall time excluded from equality
    if a.labeling is not None:
        assert a.labeling.labels == b.labeling.labels


def _graph_from_edge_set(pairs):
    return make_graph((vertex(a), vertex(b)) for a, b in pairs)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pruned_search_equals_naive_enumeration(data):
    all_pairs = list(itertools.combinations(range(5), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=6,
                               unique=True))
    g = _graph_from_edge_set(pairs)
    assert g.q <= 6
    result = search_antimagic(g)
    assert (result.status is Status.FOUND) == naive_has_antimagic(g)
    if result.labeling is not None:
        assert verify_antimagic(g, result.labeling).antimagic


def test_exhaustive_order_is_lexicographic_first():
    g = build_path(3)
    result = search_antimagic(g)
    # first permutation (1, 2) on canonically ordered edges already works
    assert [result.labeling.labels[e] for e in g.edges] == [1, 2]


def test_exhaustive_search_is_not_bounded_by_the_recursion_limit(capsys):
    # one position per edge: q = 1,200 positions, more than the default
    # recursion limit of 1,000 frames
    g = product_graph("wheel", 3, 100)
    result = search_antimagic(g, SearchConfig(max_exhaustive_edges=g.q))
    assert result.status is Status.FOUND
    assert verify_antimagic(g, result.labeling).antimagic
    assert (result.stats.nodes, result.stats.prunes) == (1237, 37)
    args = ["search", "--family", "wheel", "--m", "3", "--n", "100",
            "--max-exhaustive-edges", "1200"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"


@pytest.mark.parametrize("family", ["wheel", "helm", "flower"])
def test_cross_validation_at_3_1(family):
    record = cross_validate(3, 1, family)
    assert record["scheme_antimagic"]
    assert record["search_status"] == "found"
    assert record["family"] == family


def test_cross_validation_reads_a_coverage_gap_as_not_antimagic(monkeypatch):
    # with no branch left, a rim formula covers no cell of odd-m wheels
    monkeypatch.setitem(F._PRINTED, "wheel.modd.rim_close_vj", ())
    with pytest.raises(FormulaCoverageError):
        scheme_labeling("wheel", 3, 1)
    record = cross_validate(3, 1, "wheel")
    assert record["scheme_antimagic"] is False
    assert record["search_status"] == "found"


def recount_collisions(g, labels):
    """Vertex pairs with equal sums, recounted from scratch: the reference
    the incremental swap score must equal."""
    sums = {}
    for e, lab in zip(g.edges, labels):
        for v in edge_ends(e):
            sums[v] = sums.get(v, 0) + lab
    seen = {}
    for v in g.vertices:
        seen[sums[v]] = seen.get(sums[v], 0) + 1
    return sum(c * (c - 1) // 2 for c in seen.values())


@st.composite
def labeled_graphs(draw):
    """A small product or a hand-built graph, with a random labeling."""
    products = [product_graph(f, 3, 1) for f in ("wheel", "helm", "flower")]
    all_pairs = list(itertools.combinations(range(6), 2))
    hand_built = st.lists(st.sampled_from(all_pairs), min_size=1, max_size=9,
                          unique=True).map(_graph_from_edge_set)
    g = draw(st.one_of(st.sampled_from(products), hand_built))
    return g, draw(st.permutations(range(1, g.q + 1)))


def _table_state(table):
    return list(table.sums), {s: c for s, c in table.count.items() if c}, table.collisions


@given(case=labeled_graphs(), pick=st.integers(min_value=0))
@example(case=(build_path(3), [1, 2]), pick=0)  # the two edges share u2
@example(case=(_graph_from_edge_set([(0, 1), (2, 3)]), [1, 2]), pick=0)  # sums 1,1,2,2 -> 2,2,1,1
@example(case=(build_star(3), [3, 1, 2]), pick=1)  # every swap shares the hub
@settings(max_examples=60, deadline=None, derandomize=True)
def test_incremental_score_equals_recount(case, pick):
    g, labels = case
    labels = list(labels)
    table = _SwapTable(_endpoints(g), g.p, labels)
    assert table.collisions == recount_collisions(g, labels)
    before = _table_state(table)
    pairs = list(itertools.combinations(range(g.q), 2))
    for a, b in pairs:
        swapped = list(labels)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        assert table.score(a, b) == recount_collisions(g, swapped), (a, b)
        assert _table_state(table) == before  # score reverts what it moved
    if pairs:
        a, b = pairs[pick % len(pairs)]
        table.swap(a, b)
        assert table.labels is labels
        assert _table_state(table) == _table_state(_SwapTable(_endpoints(g), g.p, labels))
        assert table.collisions == recount_collisions(g, labels)


def _full_scan(table):
    """Score every pair, keeping the first of the fewest collisions: the
    reference the bounded scan must equal."""
    best = None
    for a, b in itertools.combinations(range(len(table.labels)), 2):
        c = table.score(a, b)
        if best is None or c < best[0]:
            best = (c, a, b)
    return best


def _shuffled_start(family, m, n, seed):
    """A product and a seeded shuffle of its labels, as a restart draws one."""
    g = product_graph(family, m, n)
    labels = list(range(1, g.q + 1))
    random.Random(seed).shuffle(labels)
    return g, labels


@given(case=labeled_graphs())
@example(case=(build_path(3), [1, 2]))
@example(case=(_graph_from_edge_set([(0, 1), (2, 3)]), [1, 2]))
@example(case=(build_star(3), [3, 1, 2]))
@example(case=_shuffled_start("wheel", 5, 10, seed=0))  # q 200; 79 pairs tie for the best
@example(case=_shuffled_start("wheel", 5, 10, seed=1))  # no pair scores the floor
@settings(max_examples=100, deadline=None, derandomize=True)
def test_best_swap_equals_a_full_scan(case):
    g, labels = case
    table = _SwapTable(_endpoints(g), g.p, list(labels))
    for _ in range(3):  # the first steps of a descent, so later tables are checked too
        cost, count, sums = table.collisions, table.count, table.sums
        gain = [count[sums[u]] + count[sums[v]] - 2 for u, v in table.ends]
        for a, b in itertools.combinations(range(g.q), 2):
            assert table.score(a, b) >= cost - gain[a] - gain[b], (a, b)
        best = table.best_swap()
        assert best == _full_scan(table)
        if best is None:
            break
        table.swap(best[1], best[2])


def test_best_swap_climbs_from_a_floor_no_pair_scores():
    # the floor is the cost less the two largest gains; here no pair
    # scores it, so the target rises to 1, the fewest collisions
    g, labels = _shuffled_start("wheel", 5, 10, seed=1)
    table = _SwapTable(_endpoints(g), g.p, labels)
    count, sums = table.count, table.sums
    gain = sorted(count[sums[u]] + count[sums[v]] - 2 for u, v in table.ends)
    assert (table.collisions, table.collisions - gain[-1] - gain[-2]) == (4, 0)
    assert table.best_swap() == _full_scan(table) == (1, 13, 17)


def test_best_swap_scores_a_hundredth_of_the_pairs(monkeypatch):
    # the bench pool's local-search instances; a scan that scores every
    # pair makes one score call per pair considered (12,691 here, and 103
    # calls scan from the floor)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness

    calls = 0
    score = _SwapTable.score

    def counted(table, a, b):
        nonlocal calls
        calls += 1
        return score(table, a, b)

    monkeypatch.setattr(_SwapTable, "score", counted)
    config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=2000, seed=0)
    considered = 0
    for strategy, family, m, n in harness.SEARCH_POOL:
        if strategy == Strategy.LOCAL_SEARCH.value:
            g = product_graph(family, m, n)
            considered += search_antimagic(g, config).stats.iterations * g.q * (g.q - 1) // 2
    assert calls < considered / 100


@pytest.mark.parametrize("family, iterations", [("wheel", 60), ("helm", 4), ("flower", 4)])
def test_local_search_finds_the_100_by_100_products(family, iterations):
    # q 40,000 to 80,000: a scan that walked every pair would take
    # 10^9 loop steps per iteration here
    g = product_graph(family, 100, 100)
    result = search_antimagic(g, SearchConfig(strategy=Strategy.LOCAL_SEARCH))
    assert result.status is Status.FOUND
    assert (result.stats.iterations, result.stats.restarts) == (iterations, 0)
    assert verify_antimagic(g, result.labeling).antimagic


def _matching(k):
    """kK2: k disjoint edges, so every labeling repeats a vertex sum."""
    return _graph_from_edge_set([(2 * i, 2 * i + 1) for i in range(k)])


# sha256 of each search payload: status, labels by edge name, and stats
# without wall_time_ms.  The local-search instances are the bench pool's
# twelve plus wheel 6x3 (2 iterations), flower 20x20 (q 3,200, 1
# iteration) and wheel 20x10 (q 800, 6 iterations), pinned when every
# pair was walked; the exhaustive ones are the pool's three.  No pool
# instance restarts, so P2, 2K2 and 3K2 (60 restarts each, not found) and
# a triangle with a 3-edge tail (found after one restart, with a labeling
# the seed picks) pin the restart path.
PINNED_PAYLOADS = {
    "local-search-wheel-3-2": "782c06ed2e376bf7d3dc6c4923d63bbb2104d3eb4ddc2a6f1ed976399b1f700d",
    "local-search-wheel-4-2": "fc0ad2e46f43ffdbf4a45e88bd0b76d1224d669a0828b67dc5d04bc10788f9cf",
    "local-search-flower-4-1": "9b020b53b4d01b8d142f2fad0a9ce5892648dfa1fd44265050a3a41106351980",
    "local-search-helm-3-2": "f5e38470797dc6df3b0511b0019a08f2e67055f3828eec0c3e5528957dbebbb6",
    "local-search-wheel-3-3": "9dd49ab3f6fc26dfdd650ba46efa50a522811c6ad2d56dd635e777b56d209e46",
    "local-search-wheel-5-2": "c0d47e0b70cb2716a710f86b599b017894896a9186939ffd5da371e2a5ddbcb5",
    "local-search-helm-7-1": "2de87f7a3997da2f87bf0627d7b3b31bffffccaa01ce543343eb6dbcb12eb82e",
    "local-search-flower-3-2": "f4d7961972b1cb8802038efd0f647eb0a8bfe26b7c76ad5cc82fcb323c95042f",
    "local-search-helm-8-1": "eac94be2690fcf6e0d2e475389ff4018ff0b04faac2df42ac3d3ffbb453bb300",
    "local-search-flower-7-1": "3a29ac00581ce482263d5618431735bbfeda4f139657d039c80b3e74091b6622",
    "local-search-wheel-7-2": "d70d4e5a0fcdea7fd5783e8a22b89c5ed2071e791cd211054c26e53441f29061",
    "local-search-helm-6-2": "d960bc4306838eada1febe98b52b37c99c9c42d2865aa56520218d5c49a2a14b",
    "local-search-wheel-6-3": "d1a00214c0dde563935b23ed36db372e9dc4152b635d2fdf5a220a25069ae7b4",
    "local-search-flower-20-20":
        "fe2146bab6665bbe8f9ba20f5329d546942bd5c8ad81ce0767a7e41991f68e8f",
    "local-search-wheel-20-10":
        "bb9708a2202674c76a1a6b46ea574543fca96eb892ecd55880c40ecf71928d0c",
    "exhaustive-wheel-3-1": "6ea5844bd28b8e6f5da20b68490f84b9c15d12e78d6d68ca54c451f25fff7d44",
    "exhaustive-wheel-4-1": "2e32ad1fa6e0748af74e1bc721855eb0f4cff85e7a5385a3158324568aebc9e0",
    "exhaustive-helm-3-1": "ca5315e692a701c332e9fc8ac00532e9b9437140d6975557430c3341796fd95c",
    "restart-P2-seed-0": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-P2-seed-5": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-2K2-seed-0": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-2K2-seed-5": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-3K2-seed-0": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-3K2-seed-5": "d45346540875311a0a0f8b7d1715096b222f25d35942388e8e0b406e9496129d",
    "restart-tailed-triangle-seed-0":
        "d6ed67d3722c3dede714a646e8b7adb082080853fc4f85f5690258418f5283a2",
    "restart-tailed-triangle-seed-5":
        "b0da8cfb82cfab5e9864bd1607fe0d36a0a33f4e68ae33b837e3351b508692e9",
}

_RESTART_GRAPHS = {
    "P2": lambda: build_path(2),
    "2K2": lambda: _matching(2),
    "3K2": lambda: _matching(3),
    "tailed-triangle": lambda: _graph_from_edge_set(
        [(0, 2), (2, 4), (0, 4), (0, 5), (3, 5), (1, 3)]),
}


@pytest.mark.parametrize("case", sorted(PINNED_PAYLOADS))
def test_search_payloads_are_pinned(case):
    if case.startswith("restart-"):
        name, _, seed = case.removeprefix("restart-").rpartition("-seed-")
        g = _RESTART_GRAPHS[name]()
        config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=60,
                              seed=int(seed))
    else:
        strategy, family, m, n = case.rsplit("-", 3)
        g = product_graph(family, int(m), int(n))
        config = SearchConfig(strategy=Strategy(strategy), max_exhaustive_edges=g.q,
                              max_iterations=2000)
    result = search_antimagic(g, config)
    stats = result.stats.to_json_dict()
    del stats["wall_time_ms"]  # measured, so it differs between runs
    labels = None
    if result.labeling is not None:
        labels = {edge_name(e): result.labeling.labels[e] for e in g.edges}
    payload = {"status": result.status.value, "labels": labels, "stats": stats}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_PAYLOADS[case]


def test_a_stuck_descent_restarts_at_once():
    # a descent ends at the first iteration whose best swap does not lower
    # the collisions; on 2K2 that is every iteration
    config = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=60, seed=0)
    result = search_antimagic(_RESTART_GRAPHS["2K2"](), config)
    assert result.status is Status.NOT_FOUND
    assert (result.stats.iterations, result.stats.restarts) == (60, 60)
    # the tailed triangle's identity labeling has no lowering swap, and the
    # first shuffle is antimagic
    result = search_antimagic(_RESTART_GRAPHS["tailed-triangle"](), config)
    assert result.status is Status.FOUND
    assert (result.stats.iterations, result.stats.restarts) == (1, 1)
