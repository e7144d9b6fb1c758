"""Closed-form labelings of wheel-star tensor products plus their sum oracles.

The edge set splits into hub spokes (w00, w_i^j), the rim zigzag around
the cycle, and centre spokes (w_i^0, w_0^j), with |E| = 4mn.  Odd and
even m use different printed schemes; both are transcribed verbatim as
piecewise formulas, and the erratum ledger records the replacements the
printed vertex sums force.  See the ledger entries below for evidence.
"""

from __future__ import annotations

from . import formula as F
from .conformance import (
    ConformanceReport,
    Scheme,
    build_report,
    evaluate_edge_families,
    evaluate_vertex_families,
)
from .formula import Variant, VARIANTS, br, odd
from .graphs import check_mn, product_graph

# ---------------------------------------------------------------------------
# m odd

F.define(
    "wheel.modd.hub",
    br("i!=1, i odd", "2mn + (i-1)n + 2j - 1"),
    br("i!=1, i even", "3mn + (i-1)n + 2j - 1"),
    br("i=1, n odd", "2mn + 2j - 1"),
    br("i=1, n even", "2mn + 2j"),
)

F.define("wheel.modd.rim_close_vj", br("always", "j"))
F.define("wheel.modd.rim_close_jv", br("always", "mn + j"))

F.define(
    "wheel.modd.rim_jv",
    br("i even", "in + j"),
    br("i odd", "mn + in + j"),
)
F.patch(
    "wheel.modd.rim_jv",
    "parity swapped: in+j for odd i and mn+in+j for even i",
    (
        "printed, this family repeats (w_i^0, w_{i+1}^j) verbatim, so each label "
        "in it appears twice and the scheme cannot be a bijection (for m=3, n=1 "
        "label 5 lands on both rim families while 2 is never used); the printed "
        "sums for w_i^j and w_i^0 are reproduced exactly by swapping the parity "
        "split in this family alone and leaving its sibling as printed"
    ),
    br("i odd", "in + j"),
    br("i even", "mn + in + j"),
)

F.define(
    "wheel.modd.rim_vj",
    br("i even", "in + j"),
    br("i odd", "mn + in + j"),
)

F.define(
    "wheel.modd.center",
    br("i!=2, i even", "2mn + (i-2)n + 2j"),
    br("i odd, i!=m", "3mn + in + 2j"),
    br("i=m", "2mn + (i-1)n + 2j"),
    br("i=2, n odd", "2mn + 2j"),
    br("i=2, n even", "2mn + 2j - 1"),
)

F.define(
    "wheel.modd.sum_center",
    br("n odd", "3m^2n^2"),
    br("n even", "3m^2n^2 + n"),
)

F.define(
    "wheel.modd.sum_rim_leaf",
    br("i!=1, i odd", "(2m+3i-2)n + 4j - 1"),
    br("i!=1, i even", "(5m+3i-2)n + 4j - 1"),
    br("i=1, n odd", "(2m+3i-2)n + 4j - 1"),
    br("i=1, n even", "(2m+3i-2)n + 4j"),
)

F.define(
    "wheel.modd.sum_rim_hub",
    br("i odd, i!=m", "(5m+3i+1)n^2 + 2n"),
    br("i!=2, i even", "(2m+3i-1)n^2 + 2n"),
    br("i=m", "5in^2 + 2n"),
    br("i=2, n odd", "(2m+3i-1)n^2 + 2n"),
    br("i=2, n even", "(2m+3i-1)n^2 + n"),
)

F.define(
    "wheel.modd.sum_center_leaf",
    br("n odd", "(3mn+2j-n)m"),
    br("n even", "(3mn+2j-n)m - 1"),
)

# ---------------------------------------------------------------------------
# m even

F.define(
    "wheel.meven.hub",
    br("i!=1, i odd", "(2m+i-1)n + 2j - 1"),
    br("i!=1, i even", "(4m+1-i)n - 5 + 2j"),
    br("i=1, n odd", "2mn + 2j - 1"),
    br("i=1, n even", "2mn + 2j"),
)
F.patch(
    "wheel.meven.hub",
    "even-i branch replaced by (4m-i)n+2j-1",
    (
        "printed, every even-i hub label is even and collides with the centre "
        "spokes (m=4, n=1 assigns 12 twice), and the printed hub labels total "
        "3m^2n^2 + (m/2)n^2 - 2mn instead of the printed centre sum 3m^2n^2; "
        "the centre sum together with bijectivity onto {1..4mn} forces the "
        "replacement, which fills the odd labels of (3mn, 4mn] in descending "
        "blocks exactly as the printed ordering observations require"
    ),
    "i!=1, i odd",
    br("i!=1, i even", "(4m-i)n + 2j - 1"),
    "i=1, n odd", "i=1, n even",
)

F.define("wheel.meven.rim_close_vj", br("always", "j"))
F.define("wheel.meven.rim_close_jv", br("always", "mn + j"))

F.define(
    "wheel.meven.rim_jv",
    br("i odd", "in + j"),
    br("i even", "n(2m-i) + j"),
)

F.define(
    "wheel.meven.rim_vj",
    br("i odd", "n(2m-i) + j"),
    br("i even", "in + j"),
)

F.define(
    "wheel.meven.center",
    br("i=2, n odd", "2mn + 2j"),
    br("i=2, n even", "2mn + 2j - 1"),
    br("i even, 4<=i<=2fl(m/4)", "n(2m+i-2) + 2j"),
    br("i=m", "n(2m+2fl(m/4)) + 2j"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "n(2m+i) + 2j"),
    br("i odd, 2cl(m/4)+1<=i<=m-1", "n(4m-1-i) + 2j"),
    br("i=1", "n(4m-2cl(m/4)) + 2j"),
    br("i odd, 3<=i<=2cl(m/4)-1", "n(4m+1-i) + 2j"),
)

F.define(
    "wheel.meven.sum_center",
    br("n odd", "3m^2n^2"),
    br("n even", "3m^2n^2 + n"),
)

F.define(
    "wheel.meven.sum_rim_leaf",
    br("i!=1, i odd", "(2m+3i-2)n + 4j - 1"),
    br("i!=1, i even", "(8m-3i+2)n + 4j - 5"),
    br("i=1, n odd", "(2m+3i-2)n + 4j - 1"),
    br("i=1, n even", "(2m+3i-2)n + 4j"),
)
F.patch(
    "wheel.meven.sum_rim_leaf",
    "even-i branch replaced by (8m-3i+1)n+4j-1",
    (
        "forced by the patched hub-spoke labels together with the rim labels "
        "as printed: the three labels incident to w_i^j for even i total "
        "(8m-3i+1)n+4j-1; the printed value (8m-3i+2)n+4j-5 matches only at "
        "n=4 and contradicts the handshake identity elsewhere"
    ),
    "i!=1, i odd",
    br("i!=1, i even", "(8m-3i+1)n + 4j - 1"),
    "i=1, n odd", "i=1, n even",
)

F.define(
    "wheel.meven.sum_rim_hub",
    br("i=2, n odd", "n^2(2m+5) + 2n"),
    br("i=2, n even", "n^2(2m+5) + n"),
    br("i even, 4<=i<=2fl(m/4)", "n^2(3i+2m-1) + 2n"),
    br("i=m", "n^2(3m+1+2fl(m/4)) + 2n"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "n^2(3i+2m+1) + 2n"),
    br("i=1", "n^2(7m+1-2cl(m/4)) + 2n"),
    br("i odd, 3<=i<=2cl(m/4)-1", "n^2(8m-3i+4) + 2n"),
    br("i odd, m-1<=i<=2cl(m/4)-1", "n^2(8m-3i+2) + 2n"),
)
F.patch(
    "wheel.meven.sum_rim_hub",
    "window of the n^2(8m-3i+2)+2n branch read as 2cl(m/4)+1<=i<=m-1",
    (
        "the printed window m-1<=i<=2cl(m/4)-1 is empty for every even m>=4, "
        "leaving the high odd rows uncovered; the matching centre-spoke label "
        "branch uses 2cl(m/4)+1<=i<=m-1 and that reading reproduces the sums "
        "of the verified labeling elementwise"
    ),
    "i=2, n odd", "i=2, n even", "i even, 4<=i<=2fl(m/4)", "i=m", "i even, 2fl(m/4)+2<=i<=m-2",
    "i=1", "i odd, 3<=i<=2cl(m/4)-1",
    br("i odd, 2cl(m/4)+1<=i<=m-1", "n^2(8m-3i+2) + 2n"),
)

F.define(
    "wheel.meven.sum_center_leaf",
    br("n odd", "(3mn+2j-n)m"),
    br("n even", "(3mn+2j-n)m - 1"),
)

# ---------------------------------------------------------------------------


def _scheme(m: int, n: int) -> Scheme:
    """The scheme at (m, n): its prefix, and its edge and vertex rows in evaluation order."""
    check_mn(m, n)
    return Scheme(
        "wheel.modd" if odd(m) else "wheel.meven",
        ("hub", "rim_jv", "rim_vj", "rim_close_vj", "rim_close_jv", "center"),
        ("sum_center", "sum_rim_leaf", "sum_rim_hub", "sum_center_leaf"),
    )


def wheel_labels(m: int, n: int, variant: Variant = Variant.ERRATA):
    """Evaluate the scheme over all cells, keeping coverage problems as data."""
    return evaluate_edge_families(_scheme(m, n), m, n, variant)


def wheel_expected(m: int, n: int, variant: Variant = Variant.ERRATA):
    """The proof's closed-form vertex sums, with coverage problems kept as data."""
    return evaluate_vertex_families(_scheme(m, n), m, n, variant)


def wheel_conformance(m: int, n: int) -> list[ConformanceReport]:
    """One report per variant: bijectivity, distinctness, oracle agreement."""
    graph = product_graph("wheel", m, n)
    scheme = _scheme(m, n)
    return [
        build_report(scheme, m, n, variant, graph,
                     wheel_labels(m, n, variant), wheel_expected(m, n, variant))
        for variant in VARIANTS
    ]
