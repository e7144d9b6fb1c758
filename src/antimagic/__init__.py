"""Antimagic labelings of wheel/helm/flower-star tensor products.

Construction of the graph families and their tensor products, the
published closed-form edge labelings (verbatim and with a documented
erratum ledger), an independent antimagic verifier, exhaustive and
local-search oracles, and a conformance harness tying them together.

The package re-exports nothing: import each name from the module that
defines it, so a caller loads only the layers it uses.
"""
