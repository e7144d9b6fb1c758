"""Labelings of helm-star tensor products: the n=1 scheme and the three
case-split schemes for n >= 2, with their printed sum oracles.

For n >= 2 the product falls into one of three classes, each with its
own labeling: the base class (n odd, n <= m), a shifted class whose
pendant labels move up by 4mn (n odd, n > m), and an even-star class of
parity adjustments (n even).  The shifted and even-star formulas are
declared as offsets/overrides of the base exactly where the source
writes them that way, so shared subformulas have a single transcription.
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
from .formula import Variant, VARIANTS, br, even, odd
from .graphs import check_mn, product_graph


def helm_case_class(m: int, n: int) -> str:
    """Which n >= 2 labeling applies to (m, n): "base" (n odd and n <= m),
    "large-star" (n odd and n > m) or "even-star" (n even); n = 1 is served
    by its own scheme."""
    if n < 2:
        raise ValueError("the case split starts at n = 2; n = 1 has a dedicated labeling")
    if even(n):
        return "even-star"
    return "base" if m >= n else "large-star"


# ---------------------------------------------------------------------------
# n = 1

F.define("helm.n1.hub", br("always", "2m + 2i"))

F.define(
    "helm.n1.rim_jv",
    br("i=1", "2m + 1"),
    br("2<=i<=m-1", "2m + 4i - 1"),
)
F.define("helm.n1.rim_close_A", br("always", "2m + 3"))
F.define("helm.n1.rim_close_B", br("always", "3(2m-1)"))
F.define(
    "helm.n1.rim_vj",
    br("1<=i<=m-2", "2m + 4i + 1"),
    br("i=m-1", "6m - 1"),
)
F.define("helm.n1.pend_jv", br("always", "2i - 1"))

F.define(
    "helm.n1.pend_vj",
    br("i=1, m even", "m + 2"),
    br("i=1, m odd", "m + 3"),
    br("2<=i<=cl((m-1)/2)", "2(i-1)"),
    br("i=(m+1)/2, m odd", "m + 1"),
    br("fl((m+3)/2)<=i<=m-1", "2(i+1)"),
    br("i=m, m odd", "m - 1"),
    br("i=m, m even", "m"),
)

F.define(
    "helm.n1.spoke",
    br("i=1, m even", "5m + 2"),
    br("i=1, m odd", "5m + 3"),
    br("2<=i<=cl((m-1)/2)", "4m + 2(i-1)"),
    br("i=(m+1)/2, m odd", "5m + 1"),
    br("fl((m+3)/2)<=i<=m-1", "2i + 4m + 2"),
    br("i=m, m odd", "5m - 1"),
    br("i=m, m even", "5m"),
)

# The n=1 rim formulas are only ever defined on mixed leaf/hub pairs; the
# flower scheme cites a leaf-leaf rim family that has no edges and hence
# no formula.  Keeping an empty formula makes that citation a reportable
# coverage error instead of a silent guess.
F.define("helm.n1.rim_leaf_pair")

F.define("helm.n1.sum_center", br("always", "3m^2 + m"))
F.define("helm.n1.sum_rim_leaf", br("always", "6m + 12i - 5"))
F.define("helm.n1.sum_outer_leaf", br("label of its one edge", "helm.n1.pend_vj"))
F.define("helm.n1.sum_outer_hub", br("label of its one edge", "helm.n1.pend_jv"))
F.define("helm.n1.sum_center_leaf", br("always", "5m^2 + m"))

F.define(
    "helm.n1.sum_rim_hub",
    br("i=1, m odd", "14m + 8"),
    br("i=1, m even", "14m + 6"),
    br("i=2", "8m + 14"),
    br("3<=i<=cl((m-1)/2)", "8m + 12i - 8"),
    br("i=(m+1)/2, m odd", "9m + 8i - 3"),
    br("fl((m+3)/2)<=i<=m-2", "8m + 12i"),
    br("i=m-1", "10(2m-1)"),
    br("i=m, m odd", "14m - 4"),
    br("i=m, m even", "14m - 2"),
)
F.patch(
    "helm.n1.sum_rim_hub",
    "middle row corrected to 10m+8i-2; guards disambiguated at m=3 and m odd",
    (
        "the four labels incident to w_i^0 at i=(m+1)/2 under the printed "
        "labeling (which verifies as a bijection with distinct sums) total "
        "10m+8i-2, not the printed 9m+8i-3 (m=5, i=3: 72 vs 66); at m=3 the "
        "printed list routes i=2 into three branches worth 38, 40 and 50 "
        "while the verified sum is 44, the corrected middle row"
    ),
    "i=1, m odd", "i=1, m even",
    br("i=2, m!=3", "8m + 14"),
    "3<=i<=cl((m-1)/2)",
    br("i=(m+1)/2, m odd", "10m + 8i - 2"),
    "fl((m+3)/2)<=i<=m-2",
    br("i=m-1, i!=(m+1)/2", "10(2m-1)"),
    "i=m, m odd", "i=m, m even",
)

# ---------------------------------------------------------------------------
# m odd, n >= 2: base class

F.define(
    "helm.modd.base.hub",
    br("i odd", "4mn + (i-1)n + 2j"),
    br("i even", "5mn + (i-1)n + 2j"),
)
F.define(
    "helm.modd.base.pend_in",
    br("i odd", "(i-1)n + 2j - 1"),
    br("i even", "(m-1)n + in + 2j - 1"),
)
F.define(
    "helm.modd.base.pend_out",
    br("i odd, i!=m", "n(m+i) + 2j"),
    br("i even", "(i-2)n + 2j"),
    br("i=m", "(m-1)n + 2j"),
)
F.define(
    "helm.modd.base.rim_vj",
    br("i odd", "3mn + in + j"),
    br("i even", "2mn + in + j"),
)
F.define(
    "helm.modd.base.rim_jv",
    br("i even", "3mn + in + j"),
    br("i odd", "2mn + in + j"),
)
F.define("helm.modd.base.rim_close_A", br("always", "2mn + j"))
F.define("helm.modd.base.rim_close_B", br("always", "3mn + j"))
F.define(
    "helm.modd.base.spoke",
    br("i even", "4mn + (i-2)n + 2j - 1"),
    br("i=m", "5mn - n + 2j - 1"),
    br("i odd, i!=m", "5mn + in + 2j - 1"),
)

F.define("helm.modd.base.sum_center", br("always", "5m^2n^2 + mn"))
F.define(
    "helm.modd.base.sum_rim_leaf",
    br("i odd", "8mn + 6j + 4in - 3n - 1"),
    br("i even", "12mn + 4in - 3n + 6j - 1"),
)
F.define("helm.modd.base.sum_outer_leaf", br("label of its one edge", "helm.modd.base.pend_out"))
F.define(
    "helm.modd.base.sum_rim_hub",
    br("i odd, i!=m", "12mn^2 + 4in^2 + 2n^2 + 2n"),
    br("i even", "8mn^2 + 4in^2 - 2n^2 + 2n"),
    br("i=m", "12mn^2 + 2n"),
)
F.define(
    "helm.modd.base.sum_outer_hub",
    br("i odd", "in^2"),
    br("i even", "(m+i)n^2"),
)
F.define("helm.modd.base.sum_center_leaf", br("always", "5m^2n - mn + (2j-1)m"))

# m odd: shifted class (pendant-in and centre-spoke regions swap by 4mn)

F.define("helm.modd.large-star.hub", br("= base", "helm.modd.base.hub"))
F.define("helm.modd.large-star.pend_in", br("base + 4mn", "helm.modd.base.pend_in"))
F.define("helm.modd.large-star.pend_out", br("= base", "helm.modd.base.pend_out"))
F.define("helm.modd.large-star.rim_vj", br("= base", "helm.modd.base.rim_vj"))
F.define("helm.modd.large-star.rim_jv", br("= base", "helm.modd.base.rim_jv"))
F.define("helm.modd.large-star.rim_close_A", br("= base", "helm.modd.base.rim_close_A"))
F.define("helm.modd.large-star.rim_close_B", br("= base", "helm.modd.base.rim_close_B"))
F.define("helm.modd.large-star.spoke", br("base - 4mn", "helm.modd.base.spoke"))

F.define("helm.modd.large-star.sum_center", br("always", "5m^2n^2 + mn"))
F.define("helm.modd.large-star.sum_rim_leaf", br("base + 4mn", "helm.modd.base.sum_rim_leaf"))
F.define("helm.modd.large-star.sum_outer_leaf",
         br("label of its one edge", "helm.modd.large-star.pend_out"))
F.define("helm.modd.large-star.sum_rim_hub", br("base - 4mn^2", "helm.modd.base.sum_rim_hub"))
F.define("helm.modd.large-star.sum_outer_hub", br("base + 4mn^2", "helm.modd.base.sum_outer_hub"))
F.define("helm.modd.large-star.sum_center_leaf",
         br("base - 4m^2n", "helm.modd.base.sum_center_leaf"))

# m odd: even-star class

F.define(
    "helm.modd.even-star.hub",
    br("i=1", "4mn + 2j"),
    br("i!=1: base - 1", "helm.modd.base.hub"),
)
F.define(
    "helm.modd.even-star.pend_in",
    br("n=2, i=1", "2j"),
    br("n=2, i!=1: base + 1", "helm.modd.base.pend_in"),
    br("n>=3, i=1, m=3", "4mn + 2j - 1"),
    br("n>=3, i=1, m>=5", "2j - 1"),
    br("n>=3, i!=1, m=3: base + 4mn + 1", "helm.modd.base.pend_in"),
    br("n>=3, i!=1, m>=5: base + 1", "helm.modd.base.pend_in"),
)
F.define(
    "helm.modd.even-star.pend_out",
    br("n=2, i=2", "2j - 1"),
    br("n=2, i!=2: base - 1", "helm.modd.base.pend_out"),
    br("n>=3, i=2", "2j"),
    br("n>=3, i!=2: base - 1", "helm.modd.base.pend_out"),
)
F.define("helm.modd.even-star.rim_vj", br("= base", "helm.modd.base.rim_vj"))
F.define("helm.modd.even-star.rim_jv", br("= base", "helm.modd.base.rim_jv"))
F.define("helm.modd.even-star.rim_close_A", br("= base", "helm.modd.base.rim_close_A"))
F.define("helm.modd.even-star.rim_close_B", br("= base", "helm.modd.base.rim_close_B"))
F.define(
    "helm.modd.even-star.spoke",
    br("i=2, m=3", "2j - 1"),
    br("i=2, m>=5", "4mn + 2j - 1"),
    br("i!=2, m=3: base + 1 - 4mn", "helm.modd.base.spoke"),
    br("i!=2, m>=5: base + 1", "helm.modd.base.spoke"),
)
F.patch(
    "helm.modd.even-star.spoke",
    "m=3 down-shift rows restricted to n>=3; n=2 uses the m>=5 rows for every m",
    (
        "the m=3 rows move the centre spokes down by 4mn, which presupposes "
        "the pendant-in rows vacating that block, and those only do so when "
        "n>=3; at m=3, n=2 the printed rows assign 1 and 3 to both a pendant "
        "and a spoke while 25, 27, 30, 32 stay unused, and the printed n=2 "
        "sums (w_i^0 keeps its base value off by at most n) hold exactly "
        "under the undisplaced reading"
    ),
    br("i=2, m=3, n>=3", "2j - 1"),
    br("i=2, m>=5 or n=2", "4mn + 2j - 1"),
    br("i!=2, m=3, n>=3: base + 1 - 4mn", "helm.modd.base.spoke"),
    br("i!=2, m>=5 or n=2: base + 1", "helm.modd.base.spoke"),
)

F.define("helm.modd.even-star.sum_center", br("always", "5m^2n^2 + n"))
F.define(
    "helm.modd.even-star.sum_rim_leaf",
    br("n=2, i=1: base + 1", "helm.modd.base.sum_rim_leaf"),
    br("n=2, i!=1: base", "helm.modd.base.sum_rim_leaf"),
    br("n>=3, m=3: base + 4mn", "helm.modd.base.sum_rim_leaf"),
    br("n>=3, i=1, m>=5", "8mn + 6j + n - 1"),
    br("n>=3, i!=1, m>=5: base", "helm.modd.base.sum_rim_leaf"),
)
F.define("helm.modd.even-star.sum_outer_leaf",
         br("label of its one edge", "helm.modd.even-star.pend_out"))
F.define(
    "helm.modd.even-star.sum_rim_hub",
    br("n=2, i=2: base - n", "helm.modd.base.sum_rim_hub"),
    br("n=2, i!=2: base", "helm.modd.base.sum_rim_hub"),
    br("n>=3, m=3: base", "helm.modd.base.sum_rim_hub"),
    br("n>=3, i=2, m>=5", "8mn^2 + 6n^2 + 3n"),
    br("n>=3, i!=2, m>=5: base", "helm.modd.base.sum_rim_hub"),
)
F.patch(
    "helm.modd.even-star.sum_rim_hub",
    "i=2 row for n>=3 corrected to 8mn^2+6n^2+2n; m=3 row for n>=3 drops 4mn^2",
    (
        "with the corrected spokes the labels incident to w_2^0 for n>=3, "
        "m>=5 total the base value 8mn^2+6n^2+2n (the pendant and spoke "
        "adjustments cancel), not +3n, and at m=3 the n>=3 region swap "
        "removes 4mn from each of the n centre spokes; both corrections are "
        "what the verified bijective labeling and the handshake identity give"
    ),
    "n=2, i=2: base - n", "n=2, i!=2: base",
    br("n>=3, m=3: base - 4mn^2", "helm.modd.base.sum_rim_hub"),
    br("n>=3, i=2, m>=5", "8mn^2 + 6n^2 + 2n"),
    "n>=3, i!=2, m>=5: base",
)
F.define(
    "helm.modd.even-star.sum_outer_hub",
    br("n=2, i=1", "n(n+1)"),
    br("n=2, i!=1: base", "helm.modd.base.sum_outer_hub"),
    br("n>=3, i=1, m>=5", "n^2"),
    br("n>=3, i!=1, m>=5: base", "helm.modd.base.sum_outer_hub"),
    br("n>=3, i=1, m=3", "4mn^2 + n^2"),
    br("n>=3, i!=1, m=3: base + 4mn^2 + n", "helm.modd.base.sum_outer_hub"),
)
F.patch(
    "helm.modd.even-star.sum_outer_hub",
    "i!=1 rows gain +n (for n=2 and for m>=5)",
    (
        "the pendant-in rows read 'base + 1' away from i=1, which adds one "
        "to each of the n labels meeting w_{m+i}^0, so its sum is the base "
        "value plus n (m=5, n=2: w_7^0 sums to 30, printed 28); the printed "
        "m=3 row already carries the +n"
    ),
    "n=2, i=1",
    br("n=2, i!=1: base + n", "helm.modd.base.sum_outer_hub"),
    "n>=3, i=1, m>=5",
    br("n>=3, i!=1, m>=5: base + n", "helm.modd.base.sum_outer_hub"),
    "n>=3, i=1, m=3", "n>=3, i!=1, m=3: base + 4mn^2 + n",
)
F.define(
    "helm.modd.even-star.sum_center_leaf",
    br("m=3: base - 4mn^2 + m - 1", "helm.modd.base.sum_center_leaf"),
    br("m>=5: base + m - 1", "helm.modd.base.sum_center_leaf"),
)
F.patch(
    "helm.modd.even-star.sum_center_leaf",
    "m=3 row applies only for n>=3 and its shift is -4m^2n, not -4mn^2",
    (
        "each of the m centre spokes meeting w_0^j drops by 4mn in the n>=3 "
        "m=3 region swap, a total of -4m^2n (the printed -4mn^2 transposes "
        "the exponents), and for n=2 no swap happens so every m keeps the "
        "undisplaced value base + m - 1"
    ),
    br("m=3, n>=3: base - 4m^2n + m - 1", "helm.modd.base.sum_center_leaf"),
    br("m>=5 or n=2: base + m - 1", "helm.modd.base.sum_center_leaf"),
)

# ---------------------------------------------------------------------------
# m even, n >= 2: base class

F.define(
    "helm.meven.base.hub",
    br("i odd", "4mn + (i-1)n + 2j"),
    br("i even", "5mn + (m-i)n + 2j"),
)
F.define(
    "helm.meven.base.pend_in",
    br("i odd", "2j + n(i-1)"),
    br("i even", "2j + n(2m-i)"),
)

F.define(
    "helm.meven.base.pend_out",
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
    "helm.meven.base.pend_out",
    "high odd window excludes m=4; low odd row replaced by n(2m+1-i)+2j-1",
    (
        "printed, the high odd window also captures i=3 at m=4 where an "
        "explicit branch already assigns 6n+2j-1, and the low odd row "
        "3mn-4n*cl(m/4)+(3-i)n+2j-1 equals the descending form n(2m+1-i)+2j-1 "
        "only when m = 2 (mod 4); for m divisible by 4 (m=8: base 2mn at i=3) "
        "it leaves the pendant block and collides with the closing rim labels, "
        "so bijectivity and the centre-spoke analogue 6mn-(i-1)n+2j-1 force "
        "the descending form"
    ),
    "i even, 2<=i<=2fl(m/4)", "i=m", "i even, 2fl(m/4)+2<=i<=m-2", "i=1, m!=4", "i=1, m=4",
    "i=3, m=4",
    br("i odd, 2cl(m/4)+1<=i<=m-1, m!=4", "n(2m-1-i) + 2j - 1"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "n(2m+1-i) + 2j - 1"),
)

F.define(
    "helm.meven.base.rim_jv",
    br("i odd", "(2m+i)n + j"),
    br("i even", "(4m-i)n + j"),
)
F.define(
    "helm.meven.base.rim_vj",
    br("i odd", "(4m-i)n + j"),
    br("i even", "(2m+i)n + j"),
)
# The closing rim family is printed with a free rim index; the only rim
# edges left are (w_1^j, w_m^0) and (w_m^j, w_1^0), so the family is read
# at i = 1 like its m-odd analogue.
F.define("helm.meven.base.rim_close_A", br("always", "2mn + j"))
F.define("helm.meven.base.rim_close_B", br("always", "3mn + j"))

F.define(
    "helm.meven.base.spoke",
    br("i even, 2<=i<=2fl(m/4)", "4mn + (i-2)n + 2j - 1"),
    br("i=m", "4mn + 2fl(m/4)n + 2j - 1"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "4mn + ni + 2j - 1"),
    br("i=1, m!=4", "6mn - 2cl(m/4)n + 2j - 1"),
    br("i=1, m=4", "4mn + 4n + 2j - 1"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "6mn + n - 1 + 2j - ni"),
    br("i=3, m=4", "4mn + 6n + 2j - 1"),
    br("i odd, 2cl(m/4)+1<=i<=m-1", "6mn - n(i+1) + 2j - 1"),
)
F.patch(
    "helm.meven.base.spoke",
    "high odd window excludes m=4",
    (
        "at m=4 the high odd window also captures i=3, which the explicit "
        "m=4 branch already labels 4mn+6n+2j-1; keeping both would assign "
        "i=3 twice, and the window value 6mn-4n+2j-1 collides with the i=1 "
        "block, so the window carries the same m!=4 qualifier as the low "
        "odd row"
    ),
    "i even, 2<=i<=2fl(m/4)", "i=m", "i even, 2fl(m/4)+2<=i<=m-2", "i=1, m!=4", "i=1, m=4",
    "i odd, 3<=i<=2cl(m/4)-1, m!=4", "i=3, m=4",
    br("i odd, 2cl(m/4)+1<=i<=m-1, m!=4", "6mn - n(i+1) + 2j - 1"),
)

F.define("helm.meven.base.sum_center", br("always", "5m^2n^2 + mn"))
F.define(
    "helm.meven.base.sum_rim_leaf",
    br("i odd", "8mn + 4in - 3n + 6j"),
    br("i even", "16mn - 4in + 6j + n"),
)
F.define("helm.meven.base.sum_outer_leaf", br("label of its one edge", "helm.meven.base.pend_out"))

F.define(
    "helm.meven.base.sum_rim_hub",
    br("i=1, m=4", "13mn^2 + 2n^2 + n"),
    br("i=3, m=4", "13mn^2 + 6n^2 + n"),
    br("i even, 2<=i<=2fl(m/4)", "8mn^2 + 4in^2 - 2n^2 + n"),
    br("i even, 2fl(m/4)+2<=i<=m-2", "8mn^2 + 4in^2 + 2n^2 + n"),
    br("i odd, 2cl(m/4)+1<=i<=m-1", "16mn^2 - 4in^2 + 2n^2 + n"),
    br("i=m", "9mn^2 + 2n^2 + 4fl(m/4)n^2 + n"),
    br("i=1, m!=4", "15mn^2 - 2n^2 + n - 2cl(m/4)n^2"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "16mn^2 + 4n^2 - 6n^2i + 4cl(m/4)n^2 + n"),
)
F.patch(
    "helm.meven.base.sum_rim_hub",
    "i=1 row replaced by (15m+2-4cl(m/4))n^2+n; low odd rows by (16m-4i+6)n^2+n; "
    "high odd window excludes m=4",
    (
        "summing the four incident labels of the corrected scheme gives "
        "(15m+2-4cl(m/4))n^2+n at i=1 and (16m-4i+6)n^2+n on the low odd "
        "window; the printed rows agree only when cl(m/4)=2 respectively "
        "i=2cl(m/4)-1, and the high odd window must exclude m=4 where the "
        "explicit i=3 row already applies"
    ),
    "i=1, m=4", "i=3, m=4", "i even, 2<=i<=2fl(m/4)", "i even, 2fl(m/4)+2<=i<=m-2",
    br("i odd, 2cl(m/4)+1<=i<=m-1, m!=4", "16mn^2 - 4in^2 + 2n^2 + n"),
    "i=m",
    br("i=1, m!=4", "(15m+2-4cl(m/4))n^2 + n"),
    br("i odd, 3<=i<=2cl(m/4)-1, m!=4", "(16m-4i+6)n^2 + n"),
)

F.define(
    "helm.meven.base.sum_outer_hub",
    br("i odd", "(i-1)n^2 + n(n+1)"),
    br("i even", "mn^2 + (m-i)n^2 + n(n+1)"),
)
F.define("helm.meven.base.sum_center_leaf", br("always", "5m^2n - mn + (2j-1)m"))

# m even: shifted class

F.define("helm.meven.large-star.hub", br("= base", "helm.meven.base.hub"))
F.define("helm.meven.large-star.pend_in", br("base + 4mn - 1", "helm.meven.base.pend_in"))
F.define(
    "helm.meven.large-star.pend_out",
    br("i=2", "2j - 1"),
    br("i!=2: base + 1", "helm.meven.base.pend_out"),
)
F.define("helm.meven.large-star.rim_jv", br("= base", "helm.meven.base.rim_jv"))
F.define("helm.meven.large-star.rim_vj", br("= base", "helm.meven.base.rim_vj"))
F.define("helm.meven.large-star.rim_close_A", br("= base", "helm.meven.base.rim_close_A"))
F.define("helm.meven.large-star.rim_close_B", br("= base", "helm.meven.base.rim_close_B"))
F.define(
    "helm.meven.large-star.spoke",
    br("i=2", "2j"),
    br("i!=2: base - 4mn", "helm.meven.base.spoke"),
)

F.define("helm.meven.large-star.sum_center", br("always", "5m^2n^2 + mn"))
F.define("helm.meven.large-star.sum_rim_leaf", br("base + 4mn - 1", "helm.meven.base.sum_rim_leaf"))
F.define("helm.meven.large-star.sum_outer_leaf",
         br("label of its one edge", "helm.meven.large-star.pend_out"))
F.define(
    "helm.meven.large-star.sum_rim_hub",
    br("i=2", "4mn^2 + 2in^2 + 2n^2 + 2n"),
    br("i!=2: base - 4mn^2 + n", "helm.meven.base.sum_rim_hub"),
)
F.define("helm.meven.large-star.sum_outer_hub",
         br("base + 4mn^2 - n", "helm.meven.base.sum_outer_hub"))
F.define("helm.meven.large-star.sum_center_leaf",
         br("base - 4m^2n + 1", "helm.meven.base.sum_center_leaf"))

# m even: even-star class

F.define(
    "helm.meven.even-star.hub",
    br("i=1", "4mn + 2j"),
    br("i!=1: base - 1", "helm.meven.base.hub"),
)
F.define(
    "helm.meven.even-star.pend_in",
    br("i=1, n!=2", "2j - 1"),
    br("i=1, n=2", "2j"),
    br("i!=1: base", "helm.meven.base.pend_in"),
)
F.define(
    "helm.meven.even-star.pend_out",
    br("i=2, n!=2", "2j"),
    br("i=2, n=2", "2j - 1"),
    br("i!=2: base", "helm.meven.base.pend_out"),
)
F.define("helm.meven.even-star.rim_jv", br("= base", "helm.meven.base.rim_jv"))
F.define("helm.meven.even-star.rim_vj", br("= base", "helm.meven.base.rim_vj"))
F.define("helm.meven.even-star.rim_close_A", br("= base", "helm.meven.base.rim_close_A"))
F.define("helm.meven.even-star.rim_close_B", br("= base", "helm.meven.base.rim_close_B"))
F.define(
    "helm.meven.even-star.spoke",
    br("i=2", "4mn + 2j - 1"),
    br("i!=2: base + 1", "helm.meven.base.spoke"),
)

F.define("helm.meven.even-star.sum_center", br("always", "5m^2n^2 + n"))
F.define(
    "helm.meven.even-star.sum_rim_leaf",
    br("n=2, i=1: base", "helm.meven.base.sum_rim_leaf"),
    br("n=2, i!=1: base - 1", "helm.meven.base.sum_rim_leaf"),
    br("n!=2: base - 1", "helm.meven.base.sum_rim_leaf"),
)
F.define("helm.meven.even-star.sum_outer_leaf",
         br("label of its one edge", "helm.meven.even-star.pend_out"))
F.define(
    "helm.meven.even-star.sum_rim_hub",
    br("n=2, i=2: base", "helm.meven.base.sum_rim_hub"),
    br("n=2, i!=2: base + n", "helm.meven.base.sum_rim_hub"),
    br("n!=2: base + n", "helm.meven.base.sum_rim_hub"),
)
F.define(
    "helm.meven.even-star.sum_outer_hub",
    br("i=1, n!=2", "n^2"),
    br("i=1, n=2", "n(n+1)"),
    br("i!=1: base", "helm.meven.base.sum_outer_hub"),
)
F.define("helm.meven.even-star.sum_center_leaf",
         br("base + m - 1", "helm.meven.base.sum_center_leaf"))

# ---------------------------------------------------------------------------


def _scheme(m: int, n: int) -> Scheme:
    """The scheme at (m, n): its prefix, its rows in evaluation order, and its notes."""
    check_mn(m, n)
    vertices = ("sum_center", "sum_rim_leaf", "sum_outer_leaf", "sum_rim_hub", "sum_outer_hub",
                "sum_center_leaf")
    if n == 1:
        edges = ("hub", "rim_jv", "rim_close_A", "rim_close_B", "rim_vj", "pend_jv", "pend_vj",
                 "spoke")
        return Scheme("helm.n1", edges, vertices)
    edges = ("hub", "pend_in", "pend_out", "rim_vj", "rim_jv", "rim_close_A", "rim_close_B",
             "spoke")
    notes = ("closing rim family read at i=1, the only remaining rim edge",) if even(m) else ()
    prefix = f"helm.{'modd' if odd(m) else 'meven'}.{helm_case_class(m, n)}"
    return Scheme(prefix, edges, vertices, notes)


def helm_labels(m: int, n: int, variant: Variant = Variant.ERRATA):
    return evaluate_edge_families(_scheme(m, n), m, n, variant)


def helm_expected(m: int, n: int, variant: Variant = Variant.ERRATA):
    return evaluate_vertex_families(_scheme(m, n), m, n, variant)


def helm_conformance(m: int, n: int) -> list[ConformanceReport]:
    graph = product_graph("helm", m, n)
    scheme = _scheme(m, n)
    return [
        build_report(scheme, m, n, variant, graph,
                     helm_labels(m, n, variant), helm_expected(m, n, variant))
        for variant in VARIANTS
    ]
