"""Wheel-family graphs, stars, their tensor products, and edge-list text.

Vertices carry structured identities: ``u<i>`` in a factor graph and
``w<i>_<j>`` in a product, where index 0 is always the hub of the
wheel-like factor respectively the centre of the star.  Inside, a vertex
is the integer ``i << 16 | (j + 1)``, with ``j = -1`` for ``u_i``, and an
edge is the integer ``lo << 32 | hi`` of its two ends, the smaller first.
Integer order is then the canonical order of both, (i, j) as a tuple,
and an edge decodes to its ends and names without its graph; names
exist only in text.  A graph is only its sorted vertices and edges, and
every vertex lies on an edge, so it is exactly its edge-list text: equal
graphs serialize to identical bytes.  Both edge-list formats, plain and
labeled, are written here by one writer; only the labeled format is read
back, and reading it gives an equal graph.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice

# Scheme sums grow like m^2 n^2; capping the indices keeps every sum
# comfortably inside 64 bits for downstream consumers.
MAX_INDEX = 10_000
# The most edges a product may have; 12.5x flower at m = n = 100.
MAX_EDGES = 1_000_000

# A vertex holds i and j + 1 in 16 bits each, an edge its two ends in 32.
_LOW = (1 << 16) - 1
_END = (1 << 32) - 1

# Text is assembled this many lines at a time, and read back a slice of
# about this many characters at a time, so no list holds every line.
_CHUNK_LINES = 4096
_SLICE_CHARS = 1 << 16


class GraphError(ValueError):
    """Raised for malformed graph parameters or serialized input."""


class CapacityError(ValueError):
    """Refused before any work: the instance is larger than its budget."""


def vertex(i: int, j: int = -1) -> int:
    """``u_i`` of a factor graph when ``j`` is -1, else ``w_i^j``; integer order is canonical."""
    return i << 16 | (j + 1)


def vertex_name(v: int) -> str:
    i, j = v >> 16, (v & _LOW) - 1
    return f"u{i}" if j < 0 else f"w{i}_{j}"


def parse_vertex(name: str) -> int:
    """Inverse of :func:`vertex_name`; any other spelling, or an index too large, is rejected."""
    match = _VERTEX_NAME.fullmatch(name)
    if match is None:
        raise GraphError(f"unrecognized vertex name {name!r}")
    u, i, j = match.groups()
    i, j = (int(u), -1) if u is not None else (int(i), int(j))
    if i > _LOW or j >= _LOW:
        raise GraphError(f"vertex {name!r} has an index beyond what a vertex id holds")
    return vertex(i, j)


# The names :func:`vertex_name` writes, in ASCII digits without leading zeros.
_VERTEX_NAME = re.compile(r"u(0|[1-9][0-9]*)|w(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")
# What ``str(int)`` writes: ASCII digits, no ``+``, ``_``, ``-0`` or leading zeros.
_INT = re.compile(r"0|-?[1-9][0-9]*")


def parse_int(text: str) -> int:
    """Inverse of ``str`` on integers; any other spelling is rejected."""
    if _INT.fullmatch(text) is None:
        raise GraphError(f"bad integer {text!r}; expected an optional '-' and ASCII digits")
    return int(text)


def edge(a: int, b: int) -> int:
    """Canonical unordered edge of two vertices: its code, loops rejected."""
    if a == b:
        raise GraphError(f"loop at {vertex_name(a)} is not allowed")
    return a << 32 | b if a < b else b << 32 | a


def edge_ends(e: int) -> tuple[int, int]:
    """The two vertices of an edge, the smaller first."""
    return e >> 32, e & _END


def edge_name(e: int) -> str:
    return f"{vertex_name(e >> 32)}-{vertex_name(e & _END)}"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: its vertex and edge codes, each in ascending order."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.vertices)

    @property
    def q(self) -> int:
        return len(self.edges)


def incident_sums(g: Graph, weights: list[int]) -> dict[int, int]:
    """Each vertex's sum of the weights of its edges; ``weights`` is aligned with ``g.edges``."""
    sums = dict.fromkeys(g.vertices, 0)
    for e, w in zip(g.edges, weights):  # edge_ends inlined: it would be a call per edge
        sums[e >> 32] += w
        sums[e & _END] += w
    return sums


def make_graph(edges) -> Graph:
    """The graph of the edges, given as vertex pairs: its vertices are their ends.

    So every vertex lies on an edge, as it must for the edge-list text,
    which names only edges, to read back as the same graph.
    """
    canon = {edge(a, b) for a, b in edges}
    vs = {v for e in canon for v in edge_ends(e)}
    return Graph(tuple(sorted(vs)), tuple(sorted(canon)))


def check_index(value: int, name: str, minimum: int) -> None:
    if not isinstance(value, int) or value < minimum:
        raise GraphError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > MAX_INDEX:
        raise GraphError(f"{name} = {value} exceeds the supported bound {MAX_INDEX}")


def check_mn(m: int, n: int) -> None:
    """The products' domain: m >= 3 and n >= 1; a GraphError (a ValueError) otherwise."""
    check_index(m, "m", 3)
    check_index(n, "n", 1)


def build_cycle(m: int) -> Graph:
    """Cycle u1..um; needs m >= 3."""
    check_index(m, "m", 3)
    return make_graph((vertex(i), vertex(i % m + 1)) for i in range(1, m + 1))


def build_star(n: int) -> Graph:
    """Star with centre u0 and leaves u1..un; n >= 1."""
    check_index(n, "n", 1)
    return make_graph((vertex(0), vertex(i)) for i in range(1, n + 1))


def build_wheel(m: int) -> Graph:
    """Cycle u1..um plus hub u0 joined to every rim vertex; m >= 3."""
    check_index(m, "m", 3)
    cycle = build_cycle(m)
    es = [*map(edge_ends, cycle.edges), *((vertex(0), vertex(i)) for i in range(1, m + 1))]
    return make_graph(es)


def build_helm(m: int) -> Graph:
    """Wheel plus a pendant u_{m+i} attached to each rim vertex u_i."""
    wheel = build_wheel(m)
    es = [*map(edge_ends, wheel.edges), *((vertex(i), vertex(m + i)) for i in range(1, m + 1))]
    return make_graph(es)


def build_flower(m: int) -> Graph:
    """Helm plus edges from the hub u0 to every pendant vertex u_{m+i}."""
    helm = build_helm(m)
    es = [*map(edge_ends, helm.edges), *((vertex(0), vertex(m + i)) for i in range(1, m + 1))]
    return make_graph(es)


# family -> (builder, a, b): the factor has a*m + 1 vertices and b*m edges
_FAMILY_BUILDERS = {
    "wheel": (build_wheel, 1, 2),
    "helm": (build_helm, 2, 3),
    "flower": (build_flower, 2, 4),
}


def _family(family: str) -> tuple:
    try:
        return _FAMILY_BUILDERS[family]
    except KeyError:
        raise GraphError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILY_BUILDERS)}"
        ) from None


def build_family(family: str, m: int) -> Graph:
    return _family(family)[0](m)


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (direct) product: (x1,y1)~(x2,y2) iff x1~x2 in g and y1~y2 in h.

    Factors must be plain graphs (no product vertices); product vertices
    are named w<i>_<j> with i drawn from ``g`` and j from ``h``.

    The product vertex (u_x, u_y) is the code of u_x plus y + 1, so both
    products of a factor edge x1 < x2 with an edge y1 < y2 are its code
    plus one of two offsets of the h edge: (x1, y1)-(x2, y2) and
    (x1, y2)-(x2, y1), the end on x1 first.  The codes are sorted once.  A
    product of simple graphs has no loop and no repeated edge, so nothing
    needs a second canonicalization.
    """
    if g.p == 0 or h.p == 0:
        raise GraphError("tensor product needs nonempty factors")
    if any(v & _LOW for v in (*g.vertices, *h.vertices)):
        raise GraphError("factors of a tensor product must not be product graphs")
    vs = tuple(x + (y >> 16) + 1 for x in g.vertices for y in h.vertices)
    ys = [((a >> 16) + 1, (b >> 16) + 1) for a, b in map(edge_ends, h.edges)]
    offsets = [*(y1 << 32 | y2 for y1, y2 in ys), *(y2 << 32 | y1 for y1, y2 in ys)]
    codes = [e + k for e in g.edges for k in offsets]
    codes.sort()
    return Graph(vs, tuple(codes))


def product_size(family: str, m: int, n: int) -> tuple[int, int]:
    """(p, q) of the product of a wheel-family graph with K_{1,n}, from arithmetic alone.

    A factor with a*m + 1 vertices and b*m edges times the star's n + 1
    and n gives p = (a*m + 1)(n + 1) and q = 2bmn.
    """
    _builder, a, b = _family(family)
    return (a * m + 1) * (n + 1), 2 * b * m * n


def product_graph(family: str, m: int, n: int) -> Graph:
    """The tensor product of a wheel-family graph with the star K_{1,n}.

    A product with more than ``MAX_EDGES`` edges raises
    :class:`CapacityError` before any factor is built.
    """
    _family(family)
    check_mn(m, n)
    p, q = product_size(family, m, n)
    if q > MAX_EDGES:
        raise CapacityError(
            f"the {family} product at m={m}, n={n} has p={p} vertices and q={q} edges;"
            f" the budget is {MAX_EDGES} edges"
        )
    return tensor_product(build_family(family, m), build_star(n))


def join_lines(lines: Iterable[str]) -> str:
    """The lines, each ended by a newline, as one ``str``.

    The lines are joined ``_CHUNK_LINES`` at a time and then the chunks,
    so no list holds every line: as its own string a line costs several
    times its characters.
    """
    lines = iter(lines)
    chunks = []
    while chunk := list(islice(lines, _CHUNK_LINES)):
        chunks.append("\n".join(chunk))
    chunks.append("")  # the last line's newline
    return "\n".join(chunks)


def write_edge_list(g: Graph, labels: list[int] | None = None) -> str:
    """Canonical edge-list text: header ``p q`` then one ``u v`` line per edge.

    With ``labels``, aligned with ``g.edges``, each line is ``u v label``,
    the labeled format, which alone :func:`_read_edge_list` reads back.
    The lines are joined by :func:`join_lines`, never all held at once.
    """
    name = {v: vertex_name(v) for v in g.vertices}  # once per vertex, not per edge end
    if labels is None:
        body = (f"{name[e >> 32]} {name[e & _END]}" for e in g.edges)
    else:
        body = (
            f"{name[e >> 32]} {name[e & _END]} {lab}"
            for e, lab in zip(g.edges, labels, strict=True)
        )
    return join_lines(chain([f"{g.p} {g.q}"], body))


def _slices(text: str) -> Iterable[str]:
    """``text`` in slices of about ``_SLICE_CHARS``, all but the last ending in ``\\n``.

    A cut after ``\\n`` ends a line and never parts ``\\r\\n``, so the
    slices' ``splitlines`` are, in order, exactly ``text.splitlines()``.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE_CHARS - 1) + 1 or size
        yield text[start:end]
        start = end


class _Names(dict):
    """Vertex name -> vertex, each name parsed when it is first looked up."""

    def __missing__(self, name: str) -> int:
        v = self[name] = parse_vertex(name)
        return v


def _read_edge_list(text: str) -> tuple[Graph, dict[int, int]]:
    """The labeled edge-list format: the graph and each edge's label.

    Its lines are ``text.splitlines()``, numbered from 1 in errors, but
    split a slice at a time (:func:`_slices`), so no list holds them all.
    A label of ASCII digits without a leading zero is read by ``int``,
    which refuses one too long to convert with the error
    :func:`parse_int` would raise; every other spelling, 0 and negative
    labels included, goes to :func:`parse_int`.  Either way a label is
    read after its line's edge is checked, so each error names what it
    always has.
    """
    lines = enumerate(chain.from_iterable(map(str.splitlines, _slices(text))), 1)
    for k, header in lines:
        head = header.split()
        if head:
            break
    else:
        raise GraphError("empty edge list")
    labels: dict[int, int] = {}
    vertices = _Names()  # each name parsed once per file rather than once per line
    try:
        if len(head) != 2:
            raise GraphError(f"bad header {header!r}; expected 'p q'")
        p, q = parse_int(head[0]), parse_int(head[1])
        for k, ln in lines:
            parts = ln.split()
            if len(parts) != 3:
                if not parts:
                    continue
                raise GraphError(f"bad edge line {ln!r}; expected 3 fields")
            a = vertices[parts[0]]
            b = vertices[parts[1]]
            if a < b:
                e = a << 32 | b
            elif b < a:
                e = b << 32 | a
            else:
                raise GraphError(f"loop at {parts[0]} is not allowed")
            if e in labels:
                raise GraphError(f"edge {edge_name(e)} is listed twice")
            label = parts[2]
            if label.isdigit() and label.isascii() and label[0] != "0":
                labels[e] = int(label)
            else:
                labels[e] = parse_int(label)
    except ValueError as exc:
        raise GraphError(f"line {k}: {exc}") from None
    # every edge went through the loop and repeat checks, and the vertex
    # set is their endpoints, so sorting is all make_graph would add
    g = Graph(tuple(sorted(vertices.values())), tuple(sorted(labels)))
    if g.p != p or g.q != q:
        raise GraphError(f"header says p={p} q={q} but body has p={g.p} q={g.q}")
    return g, labels
