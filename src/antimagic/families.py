"""The wheel, helm and flower schemes by family name, for callers given the name as text."""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import flower, helm, wheel


class Family(NamedTuple):
    label: Callable  # (m, n, variant) -> EdgeLabeling; coverage gaps raise
    conformance: Callable  # (m, n) -> one ConformanceReport per variant


FAMILIES = {
    "wheel": Family(wheel.label_wheel_product, wheel.wheel_conformance),
    "helm": Family(helm.label_helm_product, helm.helm_conformance),
    "flower": Family(flower.label_flower_product, flower.flower_conformance),
}


def grid_records(family: str, ms: range, ns: range) -> list[dict]:
    """The conformance records of every cell of ``ms`` x ``ns``, in (m, n, variant) order."""
    conformance = FAMILIES[family].conformance
    return [r.to_json_dict() for m in ms for n in ns for r in conformance(m, n)]
