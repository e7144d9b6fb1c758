"""Wheel-family graphs, stars, their tensor products, and edge-list text.

Vertices carry structured identities: ``u<i>`` in a factor graph and
``w<i>_<j>`` in a product, where index 0 is always the hub of the
wheel-like factor respectively the centre of the star.  A vertex is the
tuple ``(i, j)`` with ``j = -1`` for ``u_i``, and tuple order is canonical.
A graph is only its sorted vertices and edges, and every vertex lies on
an edge, so it is exactly its edge-list text: equal graphs serialize to
identical bytes.  Both edge-list formats, plain and labeled, are written
here by one writer; only the labeled format is read back, and reading it
gives an equal graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

# Scheme sums grow like m^2 n^2; capping the indices keeps every sum
# comfortably inside 64 bits for downstream consumers.
MAX_INDEX = 10_000
# The most edges a product may have; 12.5x flower at m = n = 100.
MAX_EDGES = 1_000_000


class GraphError(ValueError):
    """Raised for malformed graph parameters or serialized input."""


class CapacityError(ValueError):
    """Refused before any work: the instance is larger than its budget."""


class Vertex(NamedTuple):
    """``u_i`` of a factor graph when ``j`` is -1, else ``w_i^j``; tuple order is canonical."""

    i: int
    j: int = -1

    @property
    def name(self) -> str:
        if self.j < 0:
            return f"u{self.i}"
        return f"w{self.i}_{self.j}"

    @classmethod
    def parse(cls, name: str) -> Vertex:
        """Inverse of :attr:`name`; any other spelling is rejected."""
        match = _VERTEX_NAME.fullmatch(name)
        if match is None:
            raise GraphError(f"unrecognized vertex name {name!r}")
        u, i, j = match.groups()
        return cls(int(u)) if u is not None else cls(int(i), int(j))


# The names :attr:`Vertex.name` writes, in ASCII digits without leading zeros.
_VERTEX_NAME = re.compile(r"u(0|[1-9][0-9]*)|w(0|[1-9][0-9]*)_(0|[1-9][0-9]*)")
# What ``str(int)`` writes: ASCII digits, no ``+``, ``_``, ``-0`` or leading zeros.
_INT = re.compile(r"0|-?[1-9][0-9]*")


def parse_int(text: str) -> int:
    """Inverse of ``str`` on integers; any other spelling is rejected."""
    if _INT.fullmatch(text) is None:
        raise GraphError(f"bad integer {text!r}; expected an optional '-' and ASCII digits")
    return int(text)


Edge = tuple[Vertex, Vertex]


def edge(a: Vertex, b: Vertex) -> Edge:
    """Canonical unordered edge: endpoints sorted, loops rejected."""
    if a == b:
        raise GraphError(f"loop at {a.name} is not allowed")
    return (a, b) if a < b else (b, a)


def edge_name(e: Edge) -> str:
    return f"{e[0].name}-{e[1].name}"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: its vertices and edges, each in canonical order."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @property
    def p(self) -> int:
        return len(self.vertices)

    @property
    def q(self) -> int:
        return len(self.edges)


def make_graph(vertices, edges) -> Graph:
    """Canonicalize and validate the vertex/edge data.

    Every vertex must lie on an edge: the edge-list text names only edges,
    so a graph with an isolated vertex could not be read back from it.
    """
    vs = tuple(sorted(set(vertices)))
    vset = set(vs)
    canon = set()
    for a, b in edges:
        e = edge(a, b)
        if e[0] not in vset or e[1] not in vset:
            raise GraphError(f"edge {edge_name(e)} has an endpoint outside the vertex set")
        canon.add(e)
    isolated = vset - {v for e in canon for v in e}
    if isolated:
        raise GraphError(f"vertex {min(isolated).name} lies on no edge")
    es = tuple(sorted(canon))
    return Graph(vs, es)


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
    vs = [Vertex(i) for i in range(1, m + 1)]
    es = [(Vertex(i), Vertex(i % m + 1)) for i in range(1, m + 1)]
    return make_graph(vs, es)


def build_star(n: int) -> Graph:
    """Star with centre u0 and leaves u1..un; n >= 1."""
    check_index(n, "n", 1)
    vs = [Vertex(i) for i in range(n + 1)]
    es = [(Vertex(0), Vertex(i)) for i in range(1, n + 1)]
    return make_graph(vs, es)


def build_wheel(m: int) -> Graph:
    """Cycle u1..um plus hub u0 joined to every rim vertex; m >= 3."""
    check_index(m, "m", 3)
    cyc = build_cycle(m)
    vs = [Vertex(0), *cyc.vertices]
    es = list(cyc.edges) + [(Vertex(0), Vertex(i)) for i in range(1, m + 1)]
    return make_graph(vs, es)


def build_helm(m: int) -> Graph:
    """Wheel plus a pendant u_{m+i} attached to each rim vertex u_i."""
    wheel = build_wheel(m)
    vs = list(wheel.vertices) + [Vertex(m + i) for i in range(1, m + 1)]
    es = list(wheel.edges) + [(Vertex(i), Vertex(m + i)) for i in range(1, m + 1)]
    return make_graph(vs, es)


def build_flower(m: int) -> Graph:
    """Helm plus edges from the hub u0 to every pendant vertex u_{m+i}."""
    helm = build_helm(m)
    es = list(helm.edges) + [(Vertex(0), Vertex(m + i)) for i in range(1, m + 1)]
    return make_graph(helm.vertices, es)


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

    Both factors are sorted, so the product vertices come out in canonical
    order and a vertex's rank is its index there.  Each edge is encoded as
    ``lo * p + hi`` over the ranks of its endpoints, the codes are sorted
    once, and every edge shares the one ``Vertex`` object per vertex.  A
    product of simple graphs has no loop and no repeated edge, so nothing
    needs a second canonicalization.
    """
    if g.p == 0 or h.p == 0:
        raise GraphError("tensor product needs nonempty factors")
    if any(v.j >= 0 for v in (*g.vertices, *h.vertices)):
        raise GraphError("factors of a tensor product must not be product graphs")
    vs = tuple(Vertex(x.i, y.i) for x in g.vertices for y in h.vertices)
    p = len(vs)
    g_rank = {v: k * h.p for k, v in enumerate(g.vertices)}
    h_rank = {v: k for k, v in enumerate(h.vertices)}
    h_edges = [(h_rank[y1], h_rank[y2]) for y1, y2 in h.edges]
    codes = []
    for x1, x2 in g.edges:
        # x1 < x2, so every rank in row x1 is below every rank in row x2
        a1, a2 = g_rank[x1], g_rank[x2]
        codes.extend((a1 + b1) * p + a2 + b2 for b1, b2 in h_edges)
        codes.extend((a1 + b2) * p + a2 + b1 for b1, b2 in h_edges)
    codes.sort()
    return Graph(vs, tuple((vs[c // p], vs[c % p]) for c in codes))


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


def write_edge_list(g: Graph, labels: list[int] | None = None) -> str:
    """Canonical edge-list text: header ``p q`` then one ``u v`` line per edge.

    With ``labels``, aligned with ``g.edges``, each line is ``u v label``,
    the labeled format, which alone :func:`_read_edge_list` reads back.
    """
    name = {v: v.name for v in g.vertices}  # once per vertex, not per edge end
    lines = [f"{g.p} {g.q}"]
    if labels is None:
        lines.extend(f"{name[e[0]]} {name[e[1]]}" for e in g.edges)
    else:
        lines.extend(
            f"{name[e[0]]} {name[e[1]]} {lab}" for e, lab in zip(g.edges, labels, strict=True)
        )
    return "\n".join(lines) + "\n"


def _read_edge_list(text: str) -> tuple[Graph, dict[Edge, int]]:
    """The labeled edge-list format: the graph and each edge's label.

    A label of ASCII digits without a leading zero is read by ``int``;
    every other spelling, 0 and negative labels included, goes to
    :func:`parse_int`.  Either way a label is read after its line's edge
    is checked, so each error names what it always has.
    """
    lines = enumerate(text.splitlines(), 1)
    for k, header in lines:
        head = header.split()
        if head:
            break
    else:
        raise GraphError("empty edge list")
    labels: dict[Edge, int | None] = {}
    # one Vertex per name, parsed once per file rather than once per line
    vertices: dict[str, Vertex] = {}
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
            # a Vertex is a nonempty tuple, so a name is parsed only when new
            a = vertices.get(parts[0]) or vertices.setdefault(parts[0], Vertex.parse(parts[0]))
            b = vertices.get(parts[1]) or vertices.setdefault(parts[1], Vertex.parse(parts[1]))
            if a < b:
                e = (a, b)
            elif b < a:
                e = (b, a)
            else:
                raise GraphError(f"loop at {a.name} is not allowed")
            label = parts[2]
            value = None
            if label.isdigit() and label.isascii() and label[0] != "0":
                try:
                    value = int(label)
                except ValueError:  # longer than int() reads; parse_int says so
                    pass
            size = len(labels)
            labels[e] = value  # the one lookup of this edge
            if len(labels) == size:
                raise GraphError(f"edge {edge_name(e)} is listed twice")
            if value is None:
                labels[e] = parse_int(label)
    except ValueError as exc:
        raise GraphError(f"line {k}: {exc}") from None
    # every edge went through the loop and repeat checks, and the vertex
    # set is their endpoints, so sorting is all make_graph would add
    g = Graph(tuple(sorted(vertices.values())), tuple(sorted(labels)))
    if g.p != p or g.q != q:
        raise GraphError(f"header says p={p} q={q} but body has p={g.p} q={g.q}")
    return g, labels

