"""Labelings of flower-star tensor products, built over the helm schemes.

Flower graphs add hub-to-outer edges to the helm, so the product gains
two edge families, (w00, w_{m+i}^j) and (w_{m+i}^0, w_0^j), for 8mn
edges in all.  Wherever the source defines these labelings as offsets of
the helm functions they are citing branches, whose offsets are read from
their labels, never re-transcribed; cells whose cited helm formula does
not exist surface as coverage errors rather than guesses.  The case split is the same as the
helm's.
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
from .helm import helm_case_class


# ---------------------------------------------------------------------------
# n = 1, over the helm n=1 labeling

F.define("flower.n1.hub", br("2m + cited hub", "helm.n1.hub"))
F.define("flower.n1.hub_outer", br("2m + cited pendant - 1", "helm.n1.pend_vj"))

# The source cites the leaf-leaf rim family (w_i^1, w_{i+1}^1) here, which
# has no edges and no formula; as printed these cells are indeterminate.
F.define("flower.n1.rim_jv", br("2m + cited leaf-leaf rim", "helm.n1.rim_leaf_pair"))
F.patch(
    "flower.n1.rim_jv",
    "cited family read as the matching mixed rim family (w_i^1, w_{i+1}^0)",
    (
        "the cited leaf-leaf rim pair is not an edge of the product and the "
        "n=1 helm labeling defines no such family; reading the citation as "
        "the family of the edge being labeled is the only defined reading, "
        "and under it the labels are a bijection with distinct sums"
    ),
    br("2m + mixed rim", "helm.n1.rim_jv"),
)

F.define("flower.n1.rim_vj", br("2m + cited leaf-leaf rim", "helm.n1.rim_leaf_pair"))
F.patch(
    "flower.n1.rim_vj",
    "cited family read as the matching mixed rim family (w_i^0, w_{i+1}^1)",
    (
        "same indeterminate citation as the sibling rim family; the matching "
        "mixed family is the only defined reading and verifies"
    ),
    br("2m + mixed rim", "helm.n1.rim_vj"),
)

# Printed with a free rim index on the cited label, so no determined value.
F.define("flower.n1.rim_close_A")
F.patch(
    "flower.n1.rim_close_A",
    "cited label read at the closing edge itself: 2m + (2m+3)",
    (
        "the printed right-hand side leaves the rim index free; binding it "
        "to the edge being labeled, as every other row does, gives 4m+3, "
        "which completes the bijection"
    ),
    br("2m + closing rim", "helm.n1.rim_close_A"),
)

F.define("flower.n1.rim_close_B", br("always", "8m - 3"))
F.define("flower.n1.pend_jv", br("always", "2i"))
F.define("flower.n1.pend_vj", br("cited pendant - 1", "helm.n1.pend_vj"))
F.define("flower.n1.spoke_outer", br("always", "2m + 2i"))
F.define("flower.n1.spoke", br("2m + cited spoke", "helm.n1.spoke"))

# The n=1 oracle is partial: only the degree-2 outer vertices have printed
# expectations (their sums are their two incident labels).
F.define(
    "flower.n1.sum_outer_leaf",
    br("its two labels", "flower.n1.hub_outer + flower.n1.pend_vj"),
)
F.define(
    "flower.n1.sum_outer_hub",
    br("its two labels", "flower.n1.pend_jv + flower.n1.spoke_outer"),
)

# ---------------------------------------------------------------------------
# m odd, n >= 2: base class over the helm base labeling

F.define("flower.modd.base.hub", br("2mn + helm hub", "helm.modd.base.hub"))

F.define(
    "flower.modd.base.hub_outer",
    br("i even", "(i-2)n + 2j - 1"),
    br("i=m", "n(m-1) + 2j - 1"),
    br("i odd", "n(m-1) + 2n + 2j - 1 + (i-1)n"),
)
F.patch(
    "flower.modd.base.hub_outer",
    "the odd-i row excludes i=m",
    (
        "m is odd, so i=m satisfies both the printed i=m row and the printed "
        "odd-i row; keeping both leaves every (m, j) cell ambiguous, and only "
        "the i=m value n(m-1)+2j-1 stays inside the block the bijection needs "
        "(the odd-i value would reach 2mn+2j-1, colliding with the pendants)"
    ),
    "i even", "i=m",
    br("i odd, i!=m", "n(m-1) + 2n + 2j - 1 + (i-1)n"),
)

F.define("flower.modd.base.pend_in", br("2mn + helm row", "helm.modd.base.pend_in"))
F.define("flower.modd.base.pend_out", br("2mn + helm row", "helm.modd.base.pend_out"))
F.define("flower.modd.base.rim_vj", br("2mn + helm row", "helm.modd.base.rim_vj"))
F.define("flower.modd.base.rim_jv", br("2mn + helm row", "helm.modd.base.rim_jv"))
F.define("flower.modd.base.rim_close_A", br("always", "4mn + j"))
F.define("flower.modd.base.rim_close_B", br("always", "5mn + j"))
F.define("flower.modd.base.spoke", br("2mn + helm row", "helm.modd.base.spoke"))
F.define(
    "flower.modd.base.spoke_outer",
    br("i odd", "(i-1)n + 2j"),
    br("i even", "mn + n + (i-2)n + 2j"),
)

F.define("flower.modd.base.sum_center", br("always", "8m^2n^2 + mn"))
F.define("flower.modd.base.sum_rim_leaf", br("8mn + helm row", "helm.modd.base.sum_rim_leaf"))
F.define(
    "flower.modd.base.sum_outer_leaf",
    br("i even", "2mn + 4j - 1 + 2(i-2)n"),
    br("i=m", "2(m-1)n + 4j + 2mn - 1"),
    br("i odd", "2n(m+i) + 4j - 1 + 2mn"),
)
F.patch(
    "flower.modd.base.sum_outer_leaf",
    "the odd-i row excludes i=m",
    (
        "same double coverage of i=m as the hub-to-outer labels; the i=m row "
        "is the sum of that vertex's two labels under the corrected scheme"
    ),
    "i even", "i=m",
    br("i odd, i!=m", "2n(m+i) + 4j - 1 + 2mn"),
)
F.define("flower.modd.base.sum_rim_hub", br("8mn^2 + helm row", "helm.modd.base.sum_rim_hub"))
F.define(
    "flower.modd.base.sum_outer_hub",
    br("i odd", "2mn^2 + in^2 + n(n+1) + n^2(i-1)"),
    br("i even", "2mn^2 + 2n^2(m+i) + n"),
)
F.define("flower.modd.base.sum_center_leaf", br("always", "8m^2n - 2mn + m(4j-1)"))

# m odd: shifted class

F.define("flower.modd.large-star.hub", br("base - 1", "flower.modd.base.hub"))
F.define("flower.modd.large-star.hub_outer", br("base + 1", "flower.modd.base.hub_outer"))
F.define("flower.modd.large-star.pend_in", br("base + 4mn + 1", "flower.modd.base.pend_in"))
F.define("flower.modd.large-star.pend_out", br("base - 1", "flower.modd.base.pend_out"))
F.define("flower.modd.large-star.rim_vj", br("= base", "flower.modd.base.rim_vj"))
F.define("flower.modd.large-star.rim_jv", br("= base", "flower.modd.base.rim_jv"))
F.define("flower.modd.large-star.rim_close_A", br("= base", "flower.modd.base.rim_close_A"))
F.define("flower.modd.large-star.rim_close_B", br("= base", "flower.modd.base.rim_close_B"))
F.define("flower.modd.large-star.spoke", br("base - 6mn", "flower.modd.base.spoke"))
F.define("flower.modd.large-star.spoke_outer", br("base + 2mn", "flower.modd.base.spoke_outer"))

F.define("flower.modd.large-star.sum_center", br("always", "8m^2n^2 + mn"))
F.define("flower.modd.large-star.sum_rim_leaf", br("base + 4mn", "flower.modd.base.sum_rim_leaf"))
F.define("flower.modd.large-star.sum_outer_leaf", br("= base", "flower.modd.base.sum_outer_leaf"))
F.define("flower.modd.large-star.sum_rim_hub",
         br("base - 6mn^2 - n", "flower.modd.base.sum_rim_hub"))
F.define("flower.modd.large-star.sum_outer_hub",
         br("base + 6mn^2 + n", "flower.modd.base.sum_outer_hub"))
F.define("flower.modd.large-star.sum_center_leaf",
         br("base + 4m^2n", "flower.modd.base.sum_center_leaf"))
F.patch(
    "flower.modd.large-star.sum_center_leaf",
    "the 4m^2n shift is subtracted, not added",
    (
        "this class lowers each of the m centre spokes at w_0^j by 6mn and "
        "raises each of the m outer spokes by 2mn, a net -4m^2n, so the "
        "printed +4m^2n contradicts the class's own label rows, the verified "
        "labeling and the handshake identity"
    ),
    br("base - 4m^2n", "flower.modd.base.sum_center_leaf"),
)

# m odd: even-star class

F.define(
    "flower.modd.even-star.hub",
    br("m>=5: base", "flower.modd.base.hub"),
    br("m=3: base - 1", "flower.modd.base.hub"),
)
F.define(
    "flower.modd.even-star.hub_outer",
    br("m>=5: base", "flower.modd.base.hub_outer"),
    br("i=2, m=3", "2j"),
    br("i!=2, m=3: base", "flower.modd.base.hub_outer"),
)
F.define(
    "flower.modd.even-star.pend_in",
    br("m>=5: base", "flower.modd.base.pend_in"),
    br("m=3: base + 4mn + 1", "flower.modd.base.pend_in"),
)
F.define(
    "flower.modd.even-star.pend_out",
    br("m>=5: base", "flower.modd.base.pend_out"),
    br("i=2, m=3", "2mn + 2j"),
    br("i!=2, m=3: base - 1", "flower.modd.base.pend_out"),
)
F.define("flower.modd.even-star.rim_vj", br("= base", "flower.modd.base.rim_vj"))
F.define("flower.modd.even-star.rim_jv", br("= base", "flower.modd.base.rim_jv"))
F.define("flower.modd.even-star.rim_close_A", br("= base", "flower.modd.base.rim_close_A"))
F.define("flower.modd.even-star.rim_close_B", br("= base", "flower.modd.base.rim_close_B"))

# The two m=3 rows are printed with the same guard (i != 2), leaving i=2
# uncovered and every other cell doubly covered.
F.define(
    "flower.modd.even-star.spoke",
    br("m>=5: base", "flower.modd.base.spoke"),
    br("i!=2, m=3: base - 6mn", "flower.modd.base.spoke"),
    br("i!=2, m=3: base - 6mn + 1", "flower.modd.base.spoke"),
)
F.patch(
    "flower.modd.even-star.spoke",
    "first duplicated m=3 row read as i=2",
    (
        "the two m=3 rows carry the identical guard i!=2, so i=2 has no row "
        "and every other cell two; reading the first as i=2 is the unique "
        "reassignment under which the m=3 labels form a bijection with "
        "distinct sums, confirmed cell by cell by the verifier"
    ),
    "m>=5: base",
    br("i=2, m=3: base - 6mn", "flower.modd.base.spoke"),
    "i!=2, m=3: base - 6mn + 1",
)
F.define(
    "flower.modd.even-star.spoke_outer",
    br("m>=5: base", "flower.modd.base.spoke_outer"),
    br("i=1, m=3: base + 2mn - 1", "flower.modd.base.spoke_outer"),
    br("i!=1, m=3: base + 2mn", "flower.modd.base.spoke_outer"),
)

F.define(
    "flower.modd.even-star.sum_center",
    br("m>=5: base", "flower.modd.base.sum_center"),
    br("m=3: base - mn + n", "flower.modd.base.sum_center"),
)
F.define(
    "flower.modd.even-star.sum_rim_leaf",
    br("m>=5: base", "flower.modd.base.sum_rim_leaf"),
    br("m=3: base + 4mn", "flower.modd.base.sum_rim_leaf"),
)
# The last row is printed against the rim-leaf sum of w_i^j, not the outer
# vertex the equation is about.
F.define(
    "flower.modd.even-star.sum_outer_leaf",
    br("m>=5: base", "flower.modd.base.sum_outer_leaf"),
    br("i=2, m=3: base + 1", "flower.modd.base.sum_outer_leaf"),
    br("i!=2, m=3: rim-leaf row + 4mn", "flower.modd.base.sum_rim_leaf"),
)
F.patch(
    "flower.modd.even-star.sum_outer_leaf",
    "i!=2, m=3 row corrected to the base row minus 1",
    (
        "the printed row cites the rim-leaf sum of w_i^j plus 4mn, a "
        "different vertex family; under the m=3 rows the hub-to-outer label "
        "is unchanged and the pendant-out label drops by one, so the two "
        "labels meeting w_{m+i}^j total the base row minus one (verified "
        "cell by cell, and required by the handshake identity)"
    ),
    "m>=5: base", "i=2, m=3: base + 1",
    br("i!=2, m=3: base - 1", "flower.modd.base.sum_outer_leaf"),
)
F.define(
    "flower.modd.even-star.sum_rim_hub",
    br("m>=5: base", "flower.modd.base.sum_rim_hub"),
    br("m=3: base - 6mn^2", "flower.modd.base.sum_rim_hub"),
)
F.define(
    "flower.modd.even-star.sum_outer_hub",
    br("m>=5: base", "flower.modd.base.sum_outer_hub"),
    br("i=1, m=3: base + 6mn^2", "flower.modd.base.sum_outer_hub"),
    br("i!=1, m=3: base + 6mn^2 + n", "flower.modd.base.sum_outer_hub"),
)
# Printed twice against the shifted class; the second block is read as this
# class's row.
F.define(
    "flower.modd.even-star.sum_center_leaf",
    br("m>=5: base", "flower.modd.base.sum_center_leaf"),
    br("m=3: base - 4m^2n + 1", "flower.modd.base.sum_center_leaf"),
)

# ---------------------------------------------------------------------------
# m even, n >= 2: base class over the helm base labeling

F.define("flower.meven.base.hub", br("2mn + helm row", "helm.meven.base.hub"))

F.define(
    "flower.meven.base.hub_outer",
    br("i even, 2<=i<=2fl(m/4)", "2j - 1 + n(i-2)"),
    br("i=m", "2fl(m/4)n + 2j - 1"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "ni + 2j - 1"),
    br("i=1, m!=4", "2mn - 2cl(m/4)n + 2j - 1"),
    br("i=1, m=4", "4n + 2j - 1"),
    br("i=3, m=4", "6n + 2j - 1"),
    br("i odd, 2cl(m/4)+1<=i<=m-1", "n(2m-1-i) + 2j - 1"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "3mn - 4cl(m/4)n + (3-i)n + 2j - 1"),
)
F.patch(
    "flower.meven.base.hub_outer",
    "high odd window excludes m=4; low odd row replaced by n(2m+1-i)+2j-1",
    (
        "this family repeats the helm pendant-out rows, and inherits both of "
        "their defects: at m=4 the high odd window double-covers i=3 against "
        "the explicit m=4 row, and for m divisible by 4 the low odd row "
        "escapes its block (m=8, i=3 reaches 2mn) instead of following the "
        "descending form the bijection needs"
    ),
    "i even, 2<=i<=2fl(m/4)", "i=m", "i even, 2fl(m/4)+2<=i<=m-2", "i=1, m!=4", "i=1, m=4",
    "i=3, m=4",
    br("i odd, 2cl(m/4)+1<=i<=m-1, m!=4", "n(2m-1-i) + 2j - 1"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "n(2m+1-i) + 2j - 1"),
)

F.define("flower.meven.base.pend_in", br("2mn + helm row", "helm.meven.base.pend_in"))
F.define("flower.meven.base.pend_out", br("2mn + helm row", "helm.meven.base.pend_out"))
F.define("flower.meven.base.rim_close_A", br("always", "4mn + j"))
F.define("flower.meven.base.rim_close_B", br("always", "5mn + j"))
F.define(
    "flower.meven.base.rim_jv",
    br("i odd", "2mn + (2m+i)n + j"),
    br("i even", "2mn + (4m-i)n + j"),
)
F.define(
    "flower.meven.base.rim_vj",
    br("i odd", "2mn + (4m-i)n + j"),
    br("i even", "2mn + (2m+i)n + j"),
)
F.define("flower.meven.base.spoke", br("2mn + helm row", "helm.meven.base.spoke"))
F.define(
    "flower.meven.base.spoke_outer",
    br("i odd", "2j + (i-1)n"),
    br("i even", "mn + 2j + (m-i)n"),
)

F.define("flower.meven.base.sum_center", br("always", "8m^2n^2 + mn"))
F.define("flower.meven.base.sum_rim_leaf", br("8mn + helm row", "helm.meven.base.sum_rim_leaf"))

F.define(
    "flower.meven.base.sum_outer_leaf",
    br("i even, 2<=i<=2fl(m/4)", "4j - 2 + 2n(i-2) + 2mn"),
    br("i=m", "4fl(m/4)n + 4j - 2 + 2mn"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "2mn + 2ni + 4j - 2"),
    br("i=1, m!=4", "6mn - 4cl(m/4)n + 4j - 2"),
    br("i=1, m=4", "2mn + 8n + 4j - 2"),
    br("i=3, m=4", "2mn + 12n + 4j - 2"),
    br("i odd, 2cl(m/4)+1<=i<=m-1", "6mn - 2ni + 4j - 2n - 2"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "8mn - 8cl(m/4)n + 2(3-i)n + 4j - 2"),
)
F.patch(
    "flower.meven.base.sum_outer_leaf",
    "high odd window excludes m=4; low odd row replaced by 6mn-2(i-1)n+4j-2",
    (
        "these sums are twice the pendant-out rows plus 2mn, so they inherit "
        "the same two defects; the corrected low odd row is the sum of the "
        "vertex's two corrected labels"
    ),
    "i even, 2<=i<=2fl(m/4)", "i=m", "i even, 2fl(m/4)+2<=i<=m-2", "i=1, m!=4", "i=1, m=4",
    "i=3, m=4",
    br("i odd, 2cl(m/4)+1<=i<=m-1, m!=4", "6mn - 2ni + 4j - 2n - 2"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "6mn - 2(i-1)n + 4j - 2"),
)

F.define("flower.meven.base.sum_rim_hub", br("8mn^2 + helm row", "helm.meven.base.sum_rim_hub"))
F.define(
    "flower.meven.base.sum_outer_hub",
    br("2mn^2 + 2 * helm row", "2mn^2 + 2 * helm.meven.base.sum_outer_hub"),
)
F.define("flower.meven.base.sum_center_leaf", br("always", "8m^2n - 2mn + 4jm - m"))

# m even: shifted class

F.define("flower.meven.large-star.hub", br("base - 1", "flower.meven.base.hub"))
F.define("flower.meven.large-star.hub_outer", br("base + 2mn + 1", "flower.meven.base.hub_outer"))
F.define("flower.meven.large-star.pend_in", br("base + 4mn", "flower.meven.base.pend_in"))
F.define(
    "flower.meven.large-star.pend_out",
    br("i=2", "2j"),
    br("i!=2: base", "flower.meven.base.pend_out"),
)
F.define("flower.meven.large-star.rim_jv", br("= base", "flower.meven.base.rim_jv"))
F.define("flower.meven.large-star.rim_vj", br("= base", "flower.meven.base.rim_vj"))
F.define("flower.meven.large-star.rim_close_A", br("= base", "flower.meven.base.rim_close_A"))
F.define("flower.meven.large-star.rim_close_B", br("= base", "flower.meven.base.rim_close_B"))
F.define(
    "flower.meven.large-star.spoke",
    br("i=2", "2j - 1"),
    br("i!=2: base - 6mn + 1", "flower.meven.base.spoke"),
)
F.define("flower.meven.large-star.spoke_outer",
         br("base + 2mn - 1", "flower.meven.base.spoke_outer"))

F.define("flower.meven.large-star.sum_center", br("always", "8m^2n^2 + mn"))
F.define("flower.meven.large-star.sum_rim_leaf",
         br("base + 4mn - 1", "flower.meven.base.sum_rim_leaf"))
# Printed against the pendant-out label of the same cell.
F.define(
    "flower.meven.large-star.sum_outer_leaf",
    br("i=2: pendant label + 1 + 2j", "flower.meven.base.pend_out + 1 + 2j"),
    br("i!=2: 2 * pendant label + 1 - 2mn", "2 * flower.meven.base.pend_out + 1 - 2mn"),
)
F.define("flower.meven.large-star.sum_rim_hub",
         br("base - 8mn^2 + n", "flower.meven.base.sum_rim_hub"))
F.define(
    "flower.meven.large-star.sum_outer_hub",
    br("i odd: base + 6mn^2 - n", "flower.meven.base.sum_outer_hub"),
    br("i even: base + 8mn^2 - n", "flower.meven.base.sum_outer_hub"),
)
F.define("flower.meven.large-star.sum_center_leaf",
         br("base - 4m^2n - 1", "flower.meven.base.sum_center_leaf"))

# m even: even-star class

F.define("flower.meven.even-star.hub", br("= base", "flower.meven.base.hub"))
F.define(
    "flower.meven.even-star.hub_outer",
    br("i=2, n=2", "2j - 1"),
    br("i=2, n!=2", "2j"),
    br("otherwise: base", "flower.meven.base.hub_outer"),
)
F.define("flower.meven.even-star.pend_in", br("base - 1", "flower.meven.base.pend_in"))
F.define("flower.meven.even-star.pend_out", br("base + 1", "flower.meven.base.pend_out"))
F.define("flower.meven.even-star.rim_jv", br("= base", "flower.meven.base.rim_jv"))
F.define("flower.meven.even-star.rim_vj", br("= base", "flower.meven.base.rim_vj"))
F.define("flower.meven.even-star.rim_close_A", br("= base", "flower.meven.base.rim_close_A"))
F.define("flower.meven.even-star.rim_close_B", br("= base", "flower.meven.base.rim_close_B"))
F.define("flower.meven.even-star.spoke", br("= base", "flower.meven.base.spoke"))
F.define(
    "flower.meven.even-star.spoke_outer",
    br("i=1, n!=2", "2j - 1"),
    br("i=1, n=2", "2j"),
    br("otherwise: base", "flower.meven.base.spoke_outer"),
)

F.define(
    "flower.meven.even-star.sum_center",
    br("n=2: base", "flower.meven.base.sum_center"),
    br("n>2: base + n", "flower.meven.base.sum_center"),
)
F.define("flower.meven.even-star.sum_rim_leaf", br("base - 1", "flower.meven.base.sum_rim_leaf"))
F.define(
    "flower.meven.even-star.sum_outer_leaf",
    br("n=2: 2 * hub-outer label + 2mn + 1", "2 * flower.meven.base.hub_outer + 2mn + 1"),
    br("n>2, i=2: 2 * hub-outer label + 2mn + 2", "2 * flower.meven.base.hub_outer + 2mn + 2"),
    br("n>2, i!=2: 2 * hub-outer label + 2mn + 1", "2 * flower.meven.base.hub_outer + 2mn + 1"),
)
F.define("flower.meven.even-star.sum_rim_hub", br("base + n", "flower.meven.base.sum_rim_hub"))
F.define(
    "flower.meven.even-star.sum_outer_hub",
    br("n=2, i odd", "2mn^2 + 2in^2 + n"),
    br("n=2, i even", "6mn^2 + 2n^2 - 2in^2 + n"),
    br("n!=2, i=1", "2mn^2 + 2in^2"),
    br("n!=2, i odd", "2mn^2 + 2in^2 + n"),
    br("n!=2, i even", "6mn^2 + 2n^2 - 2in^2 + n"),
)
F.patch(
    "flower.meven.even-star.sum_outer_hub",
    "the odd-i row for n!=2 excludes i=1",
    (
        "i=1 satisfies both its explicit row and the odd-i row, which differ "
        "by n; the explicit row matches the verified labeling"
    ),
    "n=2, i odd", "n=2, i even", "n!=2, i=1",
    br("n!=2, i odd, i!=1", "2mn^2 + 2in^2 + n"),
    "n!=2, i even",
)
F.define(
    "flower.meven.even-star.sum_center_leaf",
    br("n=2: base", "flower.meven.base.sum_center_leaf"),
    br("n!=2: base - 1", "flower.meven.base.sum_center_leaf"),
)

# ---------------------------------------------------------------------------


def _scheme(m: int, n: int) -> Scheme:
    """The scheme at (m, n): its prefix, and its edge and vertex rows in evaluation order.

    The n=1 oracle is partial: only the degree-2 outer vertices have rows.
    The n=1 proof also prints their 2m sums as exactly {2m+2, 2m+4, .., 6m},
    which ``printed_sums`` hands to :func:`conformance.build_report`.
    """
    check_mn(m, n)
    if n == 1:
        edges = ("hub", "hub_outer", "rim_jv", "rim_close_A", "rim_close_B", "rim_vj", "pend_jv",
                 "pend_vj", "spoke_outer", "spoke")
        return Scheme("flower.n1", edges, ("sum_outer_leaf", "sum_outer_hub"),
                      printed_sums=range(2 * m + 2, 6 * m + 1, 2))
    prefix = f"flower.{'modd' if odd(m) else 'meven'}.{helm_case_class(m, n)}"
    edges = ("hub", "hub_outer", "pend_in", "pend_out", "rim_vj", "rim_jv", "rim_close_A",
             "rim_close_B", "spoke", "spoke_outer")
    vertices = ("sum_center", "sum_rim_leaf", "sum_outer_leaf", "sum_rim_hub", "sum_outer_hub",
                "sum_center_leaf")
    return Scheme(prefix, edges, vertices)


def flower_labels(m: int, n: int, variant: Variant = Variant.ERRATA):
    return evaluate_edge_families(_scheme(m, n), m, n, variant)


def flower_expected(m: int, n: int, variant: Variant = Variant.ERRATA):
    """Expected sums; for n=1 only the degree-2 outer vertices are printed."""
    return evaluate_vertex_families(_scheme(m, n), m, n, variant)


def flower_conformance(m: int, n: int) -> list[ConformanceReport]:
    graph = product_graph("flower", m, n)
    scheme = _scheme(m, n)
    return [
        build_report(scheme, m, n, variant, graph,
                     flower_labels(m, n, variant), flower_expected(m, n, variant))
        for variant in VARIANTS
    ]
