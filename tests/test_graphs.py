"""Family builders, tensor products, connectivity, and serialization."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.graphs import (
    GraphError,
    Vertex,
    build_cycle,
    build_flower,
    build_helm,
    build_path,
    build_star,
    build_wheel,
    is_bipartite,
    is_connected,
    parse_edge_list,
    product_graph,
    tensor_product,
    weichsel_connected,
    write_edge_list,
)


def degree_sequence(g):
    return sorted(g.degree(v) for v in g.vertices)


def test_star_shapes():
    s1 = build_star(1)
    assert (s1.p, s1.q) == (2, 1)
    s3 = build_star(3)
    assert (s3.p, s3.q) == (4, 3)
    assert degree_sequence(s3) == [1, 1, 1, 3]
    s5 = build_star(5)
    assert s5.degree(Vertex(0)) == 5
    assert sum(1 for v in s5.vertices if s5.degree(v) == 1) == 5


def test_star_rejects_zero():
    with pytest.raises(GraphError):
        build_star(0)


def test_wheel_helm_flower_shapes():
    w3 = build_wheel(3)
    assert (w3.p, w3.q) == (4, 6)
    # W3 is complete on 4 vertices
    assert all(w3.degree(v) == 3 for v in w3.vertices)

    h3 = build_helm(3)
    assert (h3.p, h3.q) == (7, 9)
    assert sum(1 for v in h3.vertices if h3.degree(v) == 1) == 3

    f4 = build_flower(4)
    assert (f4.p, f4.q) == (9, 16)
    assert f4.degree(Vertex(0)) == 8


@pytest.mark.parametrize("m", [0, 1, 2])
def test_wheel_family_rejects_small_m(m):
    for builder in (build_wheel, build_helm, build_flower):
        with pytest.raises(GraphError):
            builder(m)


def test_tensor_product_examples():
    w3k11 = tensor_product(build_wheel(3), build_star(1))
    assert (w3k11.p, w3k11.q) == (8, 12)

    p2p2 = tensor_product(build_path(2), build_path(2))
    assert (p2p2.p, p2p2.q) == (4, 2)
    assert not is_connected(p2p2)

    h3k12 = tensor_product(build_helm(3), build_star(2))
    assert (h3k12.p, h3k12.q) == ((2 * 3 + 1) * (2 + 1), 36)

    f3k12 = tensor_product(build_flower(3), build_star(2))
    assert (f3k12.p, f3k12.q) == (21, 48)


def test_product_degrees_multiply():
    g = build_helm(4)
    h = build_star(3)
    prod = tensor_product(g, h)
    for x in g.vertices:
        for y in h.vertices:
            assert prod.degree(Vertex(x.i, y.i)) == g.degree(x) * h.degree(y)


def test_bipartite_and_connected():
    assert is_bipartite(build_cycle(4))
    assert not is_bipartite(build_cycle(3))
    assert not is_connected(tensor_product(build_path(2), build_path(2)))
    assert is_connected(tensor_product(build_wheel(5), build_star(3)))


def _factor_pool():
    return [
        build_path(2), build_path(3), build_path(4),
        build_cycle(3), build_cycle(4), build_cycle(5),
        build_star(1), build_star(2), build_star(3),
        build_wheel(3), build_wheel(4), build_wheel(5),
    ]


def test_weichsel_examples():
    assert weichsel_connected(build_wheel(3), build_star(2))
    assert not weichsel_connected(build_path(3), build_star(2))


def test_weichsel_agrees_with_traversal_on_pool():
    pool = _factor_pool()
    for g in pool:
        for h in pool:
            assert weichsel_connected(g, h) == is_connected(tensor_product(g, h))


def test_weichsel_rejects_disconnected_factor():
    disconnected = tensor_product(build_path(2), build_path(2))
    with pytest.raises(GraphError):
        weichsel_connected(disconnected, build_star(1))


@given(
    gi=st.integers(min_value=0, max_value=11),
    hi=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=40, deadline=None)
def test_product_invariants(gi, hi):
    pool = _factor_pool()
    g, h = pool[gi], pool[hi]
    prod = tensor_product(g, h)
    swapped = tensor_product(h, g)
    assert prod.q == 2 * g.q * h.q
    assert prod.p == swapped.p
    assert prod.q == swapped.q
    assert Counter(degree_sequence(prod)) == Counter(degree_sequence(swapped))


def test_edge_list_round_trip():
    g = product_graph("wheel", 4, 2)
    text = write_edge_list(g)
    assert text.splitlines()[0] == f"{g.p} {g.q}"
    back = parse_edge_list(text)
    assert back.edges == g.edges
    assert write_edge_list(back) == text


def test_edge_list_is_deterministic():
    a = write_edge_list(product_graph("helm", 5, 2))
    b = write_edge_list(product_graph("helm", 5, 2))
    assert a == b


def test_product_vertex_names():
    g = product_graph("wheel", 3, 1)
    names = {v.name for v in g.vertices}
    assert "w0_0" in names and "w3_1" in names
    assert Vertex.parse("w2_1") == Vertex(2, 1)
    assert Vertex.parse("u7") == Vertex(7)
    with pytest.raises(GraphError):
        Vertex.parse("x1")


@pytest.mark.parametrize("name", ["w1_2_3", "u1_0", "w-1_0", "u\uff11"])
def test_vertex_parse_rejects_names_no_vertex_writes(name):
    # an extra separator, a digit-group underscore, a sign or a non-ASCII
    # digit would each otherwise read as some other vertex
    with pytest.raises(GraphError):
        Vertex.parse(name)


@pytest.mark.parametrize("family", ["wheel", "helm", "flower"])
def test_vertex_names_round_trip(family):
    g = product_graph(family, 10, 10)
    for v in g.vertices:
        assert Vertex.parse(v.name) == v


def test_parse_edge_list_rejects_repeated_edge():
    with pytest.raises(GraphError, match="line 4"):
        parse_edge_list("3 2\nu0 u1\nu1 u2\nu1 u0\n")
