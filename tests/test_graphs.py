"""Family builders, tensor products, and serialization."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import graphs
from antimagic.cli import main
from antimagic.graphs import (
    CapacityError,
    GraphError,
    vertex,
    build_cycle,
    build_flower,
    build_helm,
    build_star,
    build_wheel,
    edge,
    edge_ends,
    edge_name,
    make_graph,
    parse_int,
    parse_vertex,
    product_graph,
    tensor_product,
    vertex_name,
    write_edge_list,
)
from antimagic.labeling import parse_labeled_edge_list

from . import build_path, degrees, indices, pairs


def degree_sequence(g):
    return sorted(degrees(g).values())


def test_star_shapes():
    s1 = build_star(1)
    assert (s1.p, s1.q) == (2, 1)
    s3 = build_star(3)
    assert (s3.p, s3.q) == (4, 3)
    assert degree_sequence(s3) == [1, 1, 1, 3]
    s5 = build_star(5)
    assert degrees(s5)[vertex(0)] == 5
    assert degree_sequence(s5).count(1) == 5


def test_star_rejects_zero():
    with pytest.raises(GraphError):
        build_star(0)


def test_wheel_helm_flower_shapes():
    w3 = build_wheel(3)
    assert (w3.p, w3.q) == (4, 6)
    # W3 is complete on 4 vertices
    assert degree_sequence(w3) == [3, 3, 3, 3]

    h3 = build_helm(3)
    assert (h3.p, h3.q) == (7, 9)
    assert degree_sequence(h3).count(1) == 3

    f4 = build_flower(4)
    assert (f4.p, f4.q) == (9, 16)
    assert degrees(f4)[vertex(0)] == 8


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
    assert degree_sequence(p2p2) == [1, 1, 1, 1]  # two disjoint edges

    h3k12 = tensor_product(build_helm(3), build_star(2))
    assert (h3k12.p, h3k12.q) == ((2 * 3 + 1) * (2 + 1), 36)

    f3k12 = tensor_product(build_flower(3), build_star(2))
    assert (f3k12.p, f3k12.q) == (21, 48)


def test_product_degrees_multiply():
    g = build_helm(4)
    h = build_star(3)
    prod, dg, dh = degrees(tensor_product(g, h)), degrees(g), degrees(h)
    for x in g.vertices:
        for y in h.vertices:
            assert prod[vertex(indices(x)[0], indices(y)[0])] == dg[x] * dh[y]


@pytest.mark.parametrize("family", ["wheel", "helm", "flower"])
def test_edge_budget_is_checked_from_the_computed_size(family, monkeypatch):
    # the refusal reports the p and q the product would have had
    for m in range(3, 8):
        for n in range(1, 5):
            g = product_graph(family, m, n)
            assert graphs.product_size(family, m, n) == (g.p, g.q)
            monkeypatch.setattr(graphs, "MAX_EDGES", g.q)
            assert product_graph(family, m, n) == g
            monkeypatch.setattr(graphs, "MAX_EDGES", g.q - 1)
            with pytest.raises(CapacityError, match=rf"p={g.p} vertices and q={g.q} edges"):
                product_graph(family, m, n)
            monkeypatch.undo()


def test_bipartite_and_connected():
    nx = pytest.importorskip("networkx")
    assert nx.is_bipartite(nx.Graph(pairs(build_cycle(4))))
    assert not nx.is_bipartite(nx.Graph(pairs(build_cycle(3))))
    assert not nx.is_connected(nx.Graph(pairs(tensor_product(build_path(2), build_path(2)))))
    assert nx.is_connected(nx.Graph(pairs(tensor_product(build_wheel(5), build_star(3)))))


def _factor_pool():
    return [
        build_path(2), build_path(3), build_path(4),
        build_cycle(3), build_cycle(4), build_cycle(5),
        build_star(1), build_star(2), build_star(3),
        build_wheel(3), build_wheel(4), build_wheel(5),
    ]


def test_weichsel_agrees_with_traversal_on_pool():
    # Weichsel: a product of connected factors is connected iff a factor has an odd cycle
    nx = pytest.importorskip("networkx")
    pool = _factor_pool()
    odd_cycle = [not nx.is_bipartite(nx.Graph(pairs(g))) for g in pool]
    for g, g_odd in zip(pool, odd_cycle):
        for h, h_odd in zip(pool, odd_cycle):
            assert nx.is_connected(nx.Graph(pairs(tensor_product(g, h)))) == (g_odd or h_odd)


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
    text = write_edge_list(g, list(range(1, g.q + 1)))
    assert text.splitlines()[0] == f"{g.p} {g.q}"
    back, labeling = parse_labeled_edge_list(text)
    assert back == g
    assert labeling.to_text(back) == text


def test_edge_list_is_deterministic():
    a = write_edge_list(product_graph("helm", 5, 2))
    b = write_edge_list(product_graph("helm", 5, 2))
    assert a == b


def test_product_vertex_names():
    g = product_graph("wheel", 3, 1)
    names = {vertex_name(v) for v in g.vertices}
    assert "w0_0" in names and "w3_1" in names
    assert parse_vertex("w2_1") == vertex(2, 1)
    assert parse_vertex("u7") == vertex(7)
    with pytest.raises(GraphError):
        parse_vertex("x1")


@pytest.mark.parametrize("name", ["w1_2_3", "u1_0", "w-1_0", "u\uff11"])
def test_vertex_parse_rejects_names_no_vertex_writes(name):
    # an extra separator, a digit-group underscore, a sign or a non-ASCII
    # digit would each otherwise read as some other vertex
    with pytest.raises(GraphError):
        parse_vertex(name)


@pytest.mark.parametrize("family", ["wheel", "helm", "flower"])
def test_vertex_names_round_trip(family):
    g = product_graph(family, 10, 10)
    for v in g.vertices:
        assert parse_vertex(vertex_name(v)) == v


def test_vertex_tuple_order_is_canonical():
    # u_i sorts before w_i^0, and i decides before j
    vs = sorted([vertex(2), vertex(1, 1), vertex(1), vertex(1, 0)])
    assert [vertex_name(v) for v in vs] == ["u1", "w1_0", "w1_1", "u2"]
    assert vertex(3) == vertex(3, -1) != vertex(3, 0)
    assert vertex(3) == parse_vertex("u3")
    assert edge(vertex(1, 0), vertex(1)) == edge(vertex(1), vertex(1, 0))
    assert edge_ends(edge(vertex(1, 0), vertex(1))) == (vertex(1), vertex(1, 0))
    assert edge_name(edge(vertex(1, 0), vertex(1))) == "u1-w1_0"


# Every index a product can have: i <= 2 * MAX_INDEX and j <= MAX_INDEX.
_I = st.integers(0, 2 * graphs.MAX_INDEX)
_J = st.integers(-1, graphs.MAX_INDEX)


@given(a=st.tuples(_I, _J), b=st.tuples(_I, _J))
@example(a=(7, -1), b=(7, 0))  # u_i sorts just before w_i^0
@example(a=(2 * graphs.MAX_INDEX, graphs.MAX_INDEX), b=(2 * graphs.MAX_INDEX + 1, -1))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_vertex_codes_keep_tuple_order_and_round_trip(a, b):
    va, vb = vertex(*a), vertex(*b)
    assert (va < vb, va == vb) == (a < b, a == b)
    i, j = a
    assert vertex_name(va) == (f"u{i}" if j < 0 else f"w{i}_{j}")
    assert parse_vertex(vertex_name(va)) == va
    if va != vb:
        assert edge_ends(edge(va, vb)) == (min(va, vb), max(va, vb))
        assert edge(va, vb) == edge(vb, va)


@pytest.mark.parametrize("name", ["u65536", "w65536_0", "w0_65535", "w70000_0"])
def test_vertex_names_beyond_a_vertex_id_are_refused(name):
    # i and j + 1 have 16 bits each; a larger index would alias another vertex
    with pytest.raises(GraphError, match="beyond what a vertex id holds"):
        parse_vertex(name)
    assert parse_vertex("w65535_65534") == vertex(65535, 65534)


def test_verify_refuses_a_vertex_beyond_a_vertex_id(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("2 1\nw70000_0 w0_0 1\n")
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: vertex 'w70000_0' has an index")


def test_edge_list_text_of_mixed_vertices():
    # w2_0 precedes w10_0: the order is by index, not by name
    es = [(vertex(10, 0), vertex(2)), (vertex(2, 0), vertex(10, 0)),
          (vertex(1, 0), vertex(1)), (vertex(2), vertex(1, 0))]
    g = make_graph(es)
    assert write_edge_list(g) == "5 4\nu1 w1_0\nw1_0 u2\nu2 w10_0\nw2_0 w10_0\n"


_INDICES = st.integers(0, 12)
_MIXED_VERTICES = _INDICES.map(vertex) | st.builds(vertex, _INDICES, _INDICES)


@given(ends=st.lists(st.tuples(_MIXED_VERTICES, _MIXED_VERTICES).filter(lambda t: t[0] != t[1]),
                     max_size=15, unique_by=frozenset))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_edge_list_round_trips_mixed_vertices(ends):
    g = make_graph(ends)
    text = write_edge_list(g, list(range(1, g.q + 1)))
    back, labeling = parse_labeled_edge_list(text)
    assert back == g
    assert labeling.to_text(back) == text


def test_cycle_of_two_vertices_is_refused():
    with pytest.raises(GraphError, match="m must be an integer >= 3"):
        build_cycle(2)


@pytest.mark.parametrize("text", ["0", "7", "-3", "10", "-120"])
def test_parse_int_reads_what_str_writes(text):
    assert str(parse_int(text)) == text


# Each is either no integer or one int() would accept; str.isdigit also
# accepts the superscript two, which int() rejects.
NOT_WRITTEN_BY_STR = [
    "", "-", "-0", "01", "+1", "1_0", " 1", "1 ", "1.0", "1e3", "\uff12", "\u0661", "0x1",
    "\u00b2",
]


@pytest.mark.parametrize("text", NOT_WRITTEN_BY_STR)
def test_parse_int_rejects_other_spellings(text):
    with pytest.raises(GraphError):
        parse_int(text)


@pytest.mark.parametrize("text", [t for t in NOT_WRITTEN_BY_STR if t.split() == [t]])
def test_labeled_reader_rejects_other_spellings_of_a_label(text):
    # the reader reads plain ASCII digits itself and hands every other
    # spelling to parse_int, so each is still an error on its own line
    with pytest.raises(GraphError, match=r"^line 2: bad integer "):
        parse_labeled_edge_list(f"3 2\nu0 u1 {text}\nu1 u2 1\n")


def test_verify_refuses_a_label_too_long_to_convert(tmp_path, capsys):
    # int() refuses it as parse_int would, and the error names its line
    path = tmp_path / "long.txt"
    path.write_text(f"2 1\nu0 u1 {'9' * 5000}\n")
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: Exceeds the limit (4300 digits)")


def test_labeled_reader_names_a_repeated_edge_in_canonical_order():
    with pytest.raises(GraphError, match=r"^line 3: edge u0-u1 is listed twice$"):
        parse_labeled_edge_list("2 1\nu0 u1 2\nu1 u0 1\n")
    # the repeat is found before the label is read
    with pytest.raises(GraphError, match=r"^line 3: edge u0-u1 is listed twice$"):
        parse_labeled_edge_list("2 1\nu0 u1 2\nu1 u0 01\n")


# Every line boundary str.splitlines knows; "\r" and "\n" alone also make "\r\n".
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
SPLIT_TEXTS = st.lists(st.sampled_from([*LINE_BREAKS, "a", " ", "u0"]), max_size=40).map(
    "".join
)


@given(text=SPLIT_TEXTS, size=st.integers(1, 8))
@settings(max_examples=300, derandomize=True, deadline=None)
@example(text="a\r\nb\r\n\r\n", size=1)
@example(text="\r\r\n\n\r", size=2)
def test_reader_slices_split_like_splitlines(text, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SLICE_CHARS", size)
        slices = list(graphs._slices(text))
    assert "".join(slices) == text
    assert all(s.endswith("\n") for s in slices[:-1])
    assert [ln for s in slices for ln in s.splitlines()] == text.splitlines()


EDGE_LIST_LINES = ["3 2", "u0 u1 1", "u1 u2 2", "u1 u0 3", "u2 u2 1", "u0 u1 01", "u0 u1", "", " "]


@st.composite
def edge_list_texts(draw):
    """Lines of a labeled edge list, right or wrong, each ended by any line boundary."""
    lines = draw(st.lists(st.sampled_from(EDGE_LIST_LINES), max_size=8))
    return "".join(ln + draw(st.sampled_from(LINE_BREAKS)) for ln in lines)


def _read_outcome(text, slice_chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_SLICE_CHARS", slice_chars)
        try:
            g, labeling = parse_labeled_edge_list(text)
        except GraphError as exc:
            return str(exc)
    return g, labeling.labels


@given(text=edge_list_texts(), size=st.integers(1, 8))
@settings(max_examples=300, derandomize=True, deadline=None)
@example(text="3 2\r\nu0 u1 1\r\n\r\nu1 u2 2\u2028", size=1)
@example(text="3 2\r\nu0 u1 1\r\nu1 u0 3\r\n", size=3)
def test_reader_reads_small_slices_like_one_slice(text, size):
    # one slice is text.splitlines(), so every result, error and line
    # number is the one a reader of the whole split text gives
    assert _read_outcome(text, size) == _read_outcome(text, len(text) + 1)


@pytest.mark.parametrize("size", range(1, 9))
def test_reader_numbers_lines_across_slices(size):
    text = "2 1\r\n\r\nu0 u1 2\x85u1 u0 1\n"
    assert _read_outcome(text, size) == "line 4: edge u0-u1 is listed twice"
    text = "3 2\r\nu0 u1 1\r\n\u2028u1 u2 x\r\n"
    assert _read_outcome(text, size).startswith("line 4: bad integer 'x'")


@pytest.mark.parametrize("chunk", [2, 3])
@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("q", range(8))
def test_writer_joins_chunks_like_one_join(chunk, labeled, q, monkeypatch):
    g = make_graph([]) if q == 0 else build_path(q + 1)
    labels = list(range(q, 0, -1)) if labeled else None
    lines = [" ".join(map(vertex_name, edge_ends(e))) for e in g.edges]
    if labeled:
        lines = [f"{ln} {lab}" for ln, lab in zip(lines, labels)]
    monkeypatch.setattr(graphs, "_CHUNK_LINES", chunk)
    assert write_edge_list(g, labels) == "\n".join([f"{g.p} {g.q}", *lines, ""])
