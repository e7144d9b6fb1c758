"""Antimagic labelings of wheel/helm/flower-star tensor products.

Construction of the graph families and their tensor products, the
published closed-form edge labelings (verbatim and with a documented
erratum ledger), an independent antimagic verifier, exhaustive and
local-search oracles, and a conformance harness tying them together.
"""

from .conformance import ConformanceReport, FormulaCoverageError
from .families import AgreementRecord, cross_validate
from .flower import flower_conformance, label_flower_product
from .formula import Variant, errata
from .graphs import (
    CapacityError,
    Graph,
    Vertex,
    build_cycle,
    build_flower,
    build_helm,
    build_path,
    build_star,
    build_wheel,
    is_bipartite,
    is_connected,
    product_graph,
    tensor_product,
    weichsel_connected,
)
from .helm import CaseClass, helm_case_class, helm_conformance, label_helm_product
from .labeling import EdgeLabeling, VerificationReport, verify_antimagic, vertex_sums
from .search import SearchConfig, SearchResult, Status, Strategy, search_antimagic
from .wheel import label_wheel_product, wheel_conformance

__all__ = [
    "AgreementRecord",
    "CapacityError",
    "CaseClass",
    "ConformanceReport",
    "EdgeLabeling",
    "FormulaCoverageError",
    "Graph",
    "SearchConfig",
    "SearchResult",
    "Status",
    "Strategy",
    "VerificationReport",
    "Variant",
    "Vertex",
    "build_cycle",
    "build_flower",
    "build_helm",
    "build_path",
    "build_star",
    "build_wheel",
    "cross_validate",
    "errata",
    "flower_conformance",
    "helm_case_class",
    "helm_conformance",
    "is_bipartite",
    "is_connected",
    "label_flower_product",
    "label_helm_product",
    "label_wheel_product",
    "product_graph",
    "search_antimagic",
    "tensor_product",
    "verify_antimagic",
    "vertex_sums",
    "weichsel_connected",
    "wheel_conformance",
]
