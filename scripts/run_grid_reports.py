#!/usr/bin/env python3
"""Regenerate the conformance sweep and cross-validation records.

Writes one JSONL report per family under reports/ (both variants per
cell) plus a cross-validation table at n=1, and prints a verdict
summary.  Reruns write byte-identical conformance reports; the
cross-validation rows carry the search's measured ``wall_time_ms``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from antimagic.families import FAMILIES
from antimagic.search import cross_validate

GRIDS = {
    "wheel": (range(3, 11), range(1, 6)),
    "helm": (range(3, 9), range(1, 5)),
    "flower": (range(3, 9), range(1, 5)),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--skip-cross-validate", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tally = {}
    for family, (ms, ns) in GRIDS.items():
        records = []
        for m in ms:
            for n in ns:
                for report in FAMILIES[family].conformance(m, n):
                    records.append(report.to_json_dict())
        path = out_dir / f"{family}_conformance.jsonl"
        path.write_text(
            "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n"
        )
        passed = sum(1 for r in records if r["passed"])
        tally[family] = (passed, len(records))
        print(f"{family:7s} {passed}/{len(records)} cells pass -> {path}")

    if not args.skip_cross_validate:
        rows = []
        for family in GRIDS:
            for m in range(3, 7):
                rows.append(cross_validate(m, 1, family).to_json_dict())
        path = out_dir / "cross_validation.jsonl"
        path.write_text(
            "\n".join(json.dumps(r, separators=(",", ":")) for r in rows) + "\n"
        )
        agree = sum(1 for r in rows if r["scheme_antimagic"] and r["search_status"] == "found")
        print(f"cross-validation: {agree}/{len(rows)} cells agree -> {path}")

    for family, (passed, total) in tally.items():
        failing = total - passed
        if failing:
            print(f"note: {family} has {failing} non-passing rows "
                  "(as-printed defects and known open rows; see the JSONL evidence)")


if __name__ == "__main__":
    main()
