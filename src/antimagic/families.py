"""The wheel, helm and flower schemes by family name, for callers given the name as text;
the cross-check of each scheme against the searcher, as the record the sweep writes; and
the erratum ledger of all three."""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import flower, graphs, helm, wheel
from .conformance import FormulaCoverageError
from .formula import _PATCHES, Patch, Variant
from .labeling import verify_antimagic
from .search import SearchConfig, Strategy, search_antimagic


class Family(NamedTuple):
    label: Callable  # (m, n, variant) -> EdgeLabeling; coverage gaps raise
    conformance: Callable  # (m, n) -> one ConformanceReport per variant


FAMILIES = {
    "wheel": Family(wheel.label_wheel_product, wheel.wheel_conformance),
    "helm": Family(helm.label_helm_product, helm.helm_conformance),
    "flower": Family(flower.label_flower_product, flower.flower_conformance),
}

# The searcher that :func:`cross_validate` runs beside each scheme.
CROSS_VALIDATION_SEARCH = SearchConfig(strategy=Strategy.LOCAL_SEARCH, max_iterations=2000, seed=7)


def grid_records(family: str, ms: range, ns: range) -> list[dict]:
    """The conformance records of every cell of ``ms`` x ``ns``, in (m, n, variant) order.

    A grid whose products have more than ``MAX_EDGES`` edges in all raises
    :class:`CapacityError` before any cell is built.
    """
    conformance = FAMILIES[family].conformance
    if ms and ns:  # an index out of range is a usage error first, as for one product
        graphs.check_mn(ms[0], ns[0])
        graphs.check_mn(ms[-1], ns[-1])
    # q = 2bmn and p = (am + 1)(n + 1) each factor into a term in m times one in n
    q = graphs.product_size(family, sum(ms), sum(ns))[1]
    if q > graphs.MAX_EDGES:
        p = sum(graphs.product_size(family, m, 0)[0] for m in ms) * sum(n + 1 for n in ns)
        raise graphs.CapacityError(
            f"the {family} grid m={ms.start}..{ms.stop - 1}, n={ns.start}..{ns.stop - 1} has"
            f" p={p} vertices and q={q} edges in all; the budget is {graphs.MAX_EDGES} edges"
        )
    return [r.to_json_dict() for m in ms for n in ns for r in conformance(m, n)]


def cross_validate(m: int, n: int, family: str) -> dict:
    """Run the published scheme (errata reading) and the searcher side by side.

    The record is the one the sweep writes.  The two need not agree on the
    labeling, only both be checked by the same verifier.
    """
    g = graphs.product_graph(family, m, n)
    try:
        labeling = FAMILIES[family].label(m, n, Variant.ERRATA)
    except FormulaCoverageError:
        scheme_ok = False
    else:
        scheme_ok = verify_antimagic(g, labeling).antimagic
    result = search_antimagic(g, CROSS_VALIDATION_SEARCH)
    stats = result.stats.to_json_dict()
    # measured, so it would make identical runs write different records
    del stats["wall_time_ms"]
    return {
        "family": family,
        "m": m,
        "n": n,
        "scheme_antimagic": scheme_ok,
        "search_status": result.status.value,
        "search_stats": stats,
    }


def errata(prefix: str = "") -> list[Patch]:
    """The erratum ledger of all three schemes, optionally narrowed to one formula-id prefix.

    Each scheme module records its patches when it is imported, and this
    module imports all three, so the ledger is whole.
    """
    return [p for fid, p in sorted(_PATCHES.items()) if fid.startswith(prefix)]
