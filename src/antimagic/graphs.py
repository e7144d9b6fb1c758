"""Wheel-family graphs, stars, and their tensor products.

Vertices carry structured identities: ``u<i>`` in a factor graph and
``w<i>_<j>`` in a product, where index 0 is always the hub of the
wheel-like factor respectively the centre of the star.  Graphs are
immutable values with a canonical vertex and edge order, so any two
equal graphs serialize to identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

# Scheme sums grow like m^2 n^2; capping the indices keeps every sum
# comfortably inside 64 bits for downstream consumers.
MAX_INDEX = 10_000


class GraphError(ValueError):
    """Raised for malformed graph parameters or serialized input."""


@dataclass(frozen=True)
class Vertex:
    """``u_i`` of a factor graph when ``j`` is None, else product vertex ``w_i^j``."""

    i: int
    j: int | None = None

    def key(self) -> tuple[int, int]:
        return (self.i, -1 if self.j is None else self.j)

    @property
    def name(self) -> str:
        if self.j is None:
            return f"u{self.i}"
        return f"w{self.i}_{self.j}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

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


Edge = tuple[Vertex, Vertex]


def edge(a: Vertex, b: Vertex) -> Edge:
    """Canonical unordered edge: endpoints sorted, loops rejected."""
    if a == b:
        raise GraphError(f"loop at {a.name} is not allowed")
    return (a, b) if a.key() < b.key() else (b, a)


def edge_name(e: Edge) -> str:
    return f"{e[0].name}-{e[1].name}"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a family tag and canonical ordering."""

    family: str
    params: tuple[int, ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @property
    def p(self) -> int:
        return len(self.vertices)

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_set(self) -> frozenset[Vertex]:
        return frozenset(self.vertices)

    @cached_property
    def incident(self) -> dict[Vertex, tuple[Edge, ...]]:
        inc: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e[0]].append(e)
            inc[e[1]].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        return {
            v: tuple(b if a == v else a for a, b in es)
            for v, es in self.incident.items()
        }

    def degree(self, v: Vertex) -> int:
        return len(self.incident[v])

    @property
    def tag(self) -> str:
        if self.params:
            return f"{self.family}({','.join(map(str, self.params))})"
        return self.family


def make_graph(family: str, params: tuple[int, ...], vertices, edges) -> Graph:
    """Canonicalize and validate the vertex/edge data."""
    vs = tuple(sorted(set(vertices), key=Vertex.key))
    vset = set(vs)
    canon = set()
    for a, b in edges:
        e = edge(a, b)
        if e[0] not in vset or e[1] not in vset:
            raise GraphError(f"edge {edge_name(e)} has an endpoint outside the vertex set")
        canon.add(e)
    es = tuple(sorted(canon, key=lambda e: (e[0].key(), e[1].key())))
    return Graph(family, params, vs, es)


def check_index(value: int, name: str, minimum: int) -> None:
    if not isinstance(value, int) or value < minimum:
        raise GraphError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > MAX_INDEX:
        raise GraphError(f"{name} = {value} exceeds the supported bound {MAX_INDEX}")


def build_path(m: int) -> Graph:
    """Path on vertices u1..um."""
    check_index(m, "m", 1)
    vs = [Vertex(i) for i in range(1, m + 1)]
    es = [(Vertex(i), Vertex(i + 1)) for i in range(1, m)]
    return make_graph("path", (m,), vs, es)


def build_cycle(m: int) -> Graph:
    """Cycle u1..um; needs m >= 3."""
    check_index(m, "m", 3)
    vs = [Vertex(i) for i in range(1, m + 1)]
    es = [(Vertex(i), Vertex(i % m + 1)) for i in range(1, m + 1)]
    return make_graph("cycle", (m,), vs, es)


def build_star(n: int) -> Graph:
    """Star with centre u0 and leaves u1..un; n >= 1."""
    check_index(n, "n", 1)
    vs = [Vertex(i) for i in range(n + 1)]
    es = [(Vertex(0), Vertex(i)) for i in range(1, n + 1)]
    return make_graph("star", (n,), vs, es)


def build_wheel(m: int) -> Graph:
    """Cycle u1..um plus hub u0 joined to every rim vertex; m >= 3."""
    check_index(m, "m", 3)
    cyc = build_cycle(m)
    vs = [Vertex(0), *cyc.vertices]
    es = list(cyc.edges) + [(Vertex(0), Vertex(i)) for i in range(1, m + 1)]
    return make_graph("wheel", (m,), vs, es)


def build_helm(m: int) -> Graph:
    """Wheel plus a pendant u_{m+i} attached to each rim vertex u_i."""
    wheel = build_wheel(m)
    vs = list(wheel.vertices) + [Vertex(m + i) for i in range(1, m + 1)]
    es = list(wheel.edges) + [(Vertex(i), Vertex(m + i)) for i in range(1, m + 1)]
    return make_graph("helm", (m,), vs, es)


def build_flower(m: int) -> Graph:
    """Helm plus edges from the hub u0 to every pendant vertex u_{m+i}."""
    helm = build_helm(m)
    es = list(helm.edges) + [(Vertex(0), Vertex(m + i)) for i in range(1, m + 1)]
    return make_graph("flower", (m,), helm.vertices, es)


_FAMILY_BUILDERS = {
    "wheel": build_wheel,
    "helm": build_helm,
    "flower": build_flower,
}


def build_family(family: str, m: int) -> Graph:
    try:
        builder = _FAMILY_BUILDERS[family]
    except KeyError:
        raise GraphError(f"unknown family {family!r}; expected one of {sorted(_FAMILY_BUILDERS)}")
    return builder(m)


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (direct) product: (x1,y1)~(x2,y2) iff x1~x2 in g and y1~y2 in h.

    Factors must be plain graphs (no product vertices); product vertices
    are named w<i>_<j> with i drawn from ``g`` and j from ``h``.
    """
    if g.p == 0 or h.p == 0:
        raise GraphError("tensor product needs nonempty factors")
    for v in (*g.vertices, *h.vertices):
        if v.j is not None:
            raise GraphError("factors of a tensor product must not be product graphs")
    vs = [Vertex(x.i, y.i) for x, y in iproduct(g.vertices, h.vertices)]
    es = []
    for x1, x2 in g.edges:
        for y1, y2 in h.edges:
            es.append((Vertex(x1.i, y1.i), Vertex(x2.i, y2.i)))
            es.append((Vertex(x1.i, y2.i), Vertex(x2.i, y1.i)))
    params = ()
    if g.family in _FAMILY_BUILDERS and h.family == "star":
        params = (g.params[0], h.params[0])
    return make_graph("product", params, vs, es)


def product_graph(family: str, m: int, n: int) -> Graph:
    """The tensor product of a wheel-family graph with the star K_{1,n}."""
    return tensor_product(build_family(family, m), build_star(n))


def is_connected(g: Graph) -> bool:
    """BFS connectivity; the empty graph counts as connected."""
    if g.p == 0:
        return True
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == g.p


def is_bipartite(g: Graph) -> bool:
    """True iff the graph contains no odd cycle (2-colorable)."""
    color: dict[Vertex, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.adjacency[v]:
                    if u not in color:
                        color[u] = color[v] ^ 1
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return False
            frontier = nxt
    return True


def weichsel_connected(g: Graph, h: Graph) -> bool:
    """Connectivity of the tensor product of two connected factors.

    The product is connected iff at least one factor has an odd cycle;
    disconnected factors are rejected because the criterion is stated
    for connected ones.
    """
    if not is_connected(g) or not is_connected(h):
        raise GraphError("weichsel_connected requires connected factors")
    return not is_bipartite(g) or not is_bipartite(h)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header ``p q`` then one ``u v`` line per edge."""
    lines = [f"{g.p} {g.q}"]
    lines.extend(f"{a.name} {b.name}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of :func:`write_edge_list`; the family tag becomes ``other``."""
    lines = ((k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip())
    _k, header = next(lines, (0, None))
    if header is None:
        raise GraphError("empty edge list")
    head = header.split()
    if len(head) != 2:
        raise GraphError(f"bad header {header!r}; expected 'p q'")
    p, q = (int(x) for x in head)
    vertices: set[Vertex] = set()
    edges: set[Edge] = set()
    for k, ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        e = edge(*(Vertex.parse(s) for s in parts))
        if e in edges:
            raise GraphError(f"line {k}: edge {edge_name(e)} is listed twice")
        vertices.update(e)
        edges.add(e)
    g = make_graph("other", (), vertices, edges)
    if g.p != p or g.q != q:
        raise GraphError(f"header says p={p} q={q} but body has p={g.p} q={g.q}")
    return g
