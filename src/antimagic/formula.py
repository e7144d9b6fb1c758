"""Piecewise integer formulas with explicit branch guards and an erratum ledger.

Every labeling scheme in this project is a collection of piecewise
formulas over cells (m, n, i, j).  A cell must satisfy exactly one
branch guard: zero or several matching branches is a coverage
violation, reported rather than silently resolved, because the branch
conditions are the riskiest part of the printed schemes.

Corrections live in an append-only ledger of :class:`Patch` entries.
Each patch names the formula it replaces, the replacement branches and
the evidence that forces the change, so the corrected and uncorrected
readings stay inspectable side by side.  ``Variant.AS_PRINTED``
evaluates the formulas verbatim; ``Variant.ERRATA`` applies the ledger.
Only exact integer arithmetic is used (floors and ceilings included).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable


class Variant(Enum):
    AS_PRINTED = "as-printed"
    ERRATA = "errata"

    @classmethod
    def parse(cls, text: str) -> Variant:
        for v in cls:
            if v.value == text:
                return v
        raise ValueError(f"unknown variant {text!r}; expected 'as-printed' or 'errata'")


VARIANTS = (Variant.AS_PRINTED, Variant.ERRATA)

Guard = Callable[[int, int, int, int], bool]
# Value callables receive the cell plus a resolver for referencing other
# formulas at the same variant: ref(fid, m, n, i, j) -> int.
Value = Callable[[int, int, int, int, Callable], int]


def odd(x: int) -> bool:
    return x % 2 == 1


def even(x: int) -> bool:
    return x % 2 == 0


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def fl4(m: int) -> int:
    """fl(m/4), the floor the printed window guards use."""
    return m // 4


def cl4(m: int) -> int:
    """cl(m/4), the ceiling the printed window guards use."""
    return ceil_div(m, 4)


class CoverageError(Exception):
    """A cell matched no branch, or several, of a piecewise formula."""

    def __init__(self, fid: str, cell: tuple[int, int, int, int], matched: list[str]):
        self.fid = fid
        self.cell = cell
        self.matched = matched
        m, n, i, j = cell
        where = f"{fid} at (m={m}, n={n}, i={i}, j={j})"
        if matched:
            detail = "branches overlap: " + "; ".join(repr(b) for b in matched)
        else:
            detail = "no branch matches"
        super().__init__(f"{where}: {detail}")


@dataclass(frozen=True)
class Branch:
    label: str
    guard: Guard
    value: Value


def br(label: str, guard: Guard, value: Value) -> Branch:
    return Branch(label, guard, value)


ALWAYS: Guard = lambda m, n, i, j: True


def ref_value(fid: str, offset=None) -> Value:
    """Value callable: another formula at the same cell, plus an offset.

    ``offset`` may be an int or a callable (m, n, i, j) -> int; schemes
    use this for the pervasive 'other labeling plus 4mn'-style rows.
    """
    if offset is None:
        return lambda m, n, i, j, g: g(fid, m, n, i, j)
    if isinstance(offset, int):
        return lambda m, n, i, j, g: g(fid, m, n, i, j) + offset
    return lambda m, n, i, j, g: g(fid, m, n, i, j) + offset(m, n, i, j)


@dataclass(frozen=True)
class Piecewise:
    fid: str
    branches: tuple[Branch, ...]

    def matching(self, m: int, n: int, i: int, j: int) -> list[Branch]:
        return [b for b in self.branches if b.guard(m, n, i, j)]

    def evaluate(self, m: int, n: int, i: int, j: int, ref: Callable) -> tuple[int, str]:
        hits = self.matching(m, n, i, j)
        if len(hits) != 1:
            raise CoverageError(self.fid, (m, n, i, j), [b.label for b in hits])
        return hits[0].value(m, n, i, j, ref), hits[0].label


@dataclass(frozen=True)
class Patch:
    """One erratum: the formula it replaces, the fix, and why it is forced."""

    fid: str
    note: str
    evidence: str
    replacement: Piecewise


_PRINTED: dict[str, Piecewise] = {}
_PATCHES: dict[str, Patch] = {}


def define(fid: str, *branches: Branch) -> None:
    if fid in _PRINTED:
        raise ValueError(f"formula {fid} already defined")
    _PRINTED[fid] = Piecewise(fid, tuple(branches))


def patch(fid: str, note: str, evidence: str, *branches: Branch) -> None:
    if fid not in _PRINTED:
        raise ValueError(f"cannot patch unknown formula {fid}")
    if fid in _PATCHES:
        raise ValueError(f"formula {fid} already patched; the ledger is append-only")
    _PATCHES[fid] = Patch(fid, note, evidence, Piecewise(fid, tuple(branches)))


def resolve(fid: str, variant: Variant) -> Piecewise:
    if fid not in _PRINTED:
        raise KeyError(f"unknown formula {fid}")
    if variant is Variant.ERRATA and fid in _PATCHES:
        return _PATCHES[fid].replacement
    return _PRINTED[fid]


def evaluate(fid: str, variant: Variant, m: int, n: int, i: int, j: int,
             hits=None) -> tuple[int, str]:
    """Evaluate a formula at a cell; references resolve at the same variant.

    When ``hits`` (a Counter) is given, every branch taken is recorded,
    including branches of cited formulas, so reports can account for
    which rows a cell actually exercised.
    """

    def ref(fid2: str, m2: int, n2: int, i2: int, j2: int) -> int:
        return evaluate(fid2, variant, m2, n2, i2, j2, hits)[0]

    value, label = resolve(fid, variant).evaluate(m, n, i, j, ref)
    if hits is not None:
        hits[f"{fid}[{label}]"] += 1
    return value, label


def errata(prefix: str = "") -> list[Patch]:
    """The erratum ledger, optionally narrowed to one formula-id prefix."""
    return [p for fid, p in sorted(_PATCHES.items()) if fid.startswith(prefix)]
