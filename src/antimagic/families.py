"""The wheel, helm and flower schemes by family name, for callers given the name as text."""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import flower, graphs, helm, wheel


class Family(NamedTuple):
    label: Callable  # (m, n, variant) -> EdgeLabeling; coverage gaps raise
    conformance: Callable  # (m, n) -> one ConformanceReport per variant


FAMILIES = {
    "wheel": Family(wheel.label_wheel_product, wheel.wheel_conformance),
    "helm": Family(helm.label_helm_product, helm.helm_conformance),
    "flower": Family(flower.label_flower_product, flower.flower_conformance),
}


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
