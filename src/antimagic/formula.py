"""Piecewise integer formulas whose branch guards are read from their
labels and whose values are text, and an erratum ledger.

Every labeling scheme in this project is a collection of piecewise
formulas over cells (m, n, i, j).  A cell must satisfy exactly one
branch guard: zero or several matching branches is a coverage
violation, reported rather than silently resolved, because the branch
conditions are the riskiest part of the printed schemes.

A branch states its condition once, in its label, the way the paper
prints it, and :func:`br` compiles the guard from that text.  A label
reads ``[conditions ":"] description``:

- conditions are separated by commas, which mean "and"; a condition is
  ``x odd`` or ``x even`` for x one of m, n, i, or a chain of
  ``= != < > <= >=`` over integer expressions in m, n and i, and
  conditions joined by `` or `` bind tighter than the comma:
  ``i=2, m>=5 or n=2``;
- an expression may use implicit products (``2fl(m/4)``, ``mn``), powers
  ``x^k``, the floor ``fl(a/k)`` and ceiling ``cl(a/k)`` of a quotient by
  an integer, and a side of a chain may be an exact quotient such as
  ``(m+1)/2``; only ``fl`` and ``cl`` floor a quotient, and Python's
  ``//`` is refused;
- a label with no condition part (``= base``, ``base + 4mn``) holds
  always, and ``otherwise: ...`` holds where none of its siblings does.

A branch's value is text as well, compiled once per distinct text.  It
reads ``term {(+|-) term}``, with the signs between terms spaced and
those inside a term not.  A term is an integer expression as above that
may also read j (``2mn + (i-1)n + 2j - 1``, ``n^2(7m+1-2cl(m/4)) + 2n``)
but is no bare quotient, or a formula id with an optional integer
coefficient (``2 * flower.meven.base.hub_outer``): that formula's value
at the same cell.

Where the paper gives a labeling as an offset of one it printed already,
the value is the cited formula id alone, ``br(label, "<cited fid>")``,
and the offset is read from the label's description as ``[=] term
{(+|-) term}``: one term, added, is the citation phrase (letters and
hyphens: ``base``, ``helm row``), and every other term an integer
expression.  ``base - 4m^2n + m - 1`` is the cited formula's value at
the same cell minus 4m^2n plus m - 1, so a label cannot misstate its
offset.  Either way, a cited fid is a constant of the value's code.

A label whose head before ``:`` is not a list of conditions, or whose
conditions parse only in part, is refused, and so is a label without a
colon that holds a comparison anywhere but as its first character or
whose first word is m, n or i followed by another word: a mistyped
comparison or parity test does not turn a guard into "always".

Corrections live in an append-only ledger of :class:`Patch` entries.
Each patch names the formula it replaces, the replacement branches and
the evidence that forces the change, so the corrected and uncorrected
readings stay inspectable side by side; ``families.errata`` lists them
once every scheme module has recorded its patches.  A patch lists the
branches it changes and keeps the rest by label: a kept branch is the
printed object itself, and every branch spelled out in a patch is a
change.
``Variant.AS_PRINTED`` evaluates the formulas verbatim;
``Variant.ERRATA`` applies the ledger.  Only exact integer arithmetic
is used (floors, ceilings and quotients included).

One :class:`Resolver` evaluates formulas at one variant, cited formulas
included.  It picks a formula's branch once per row ``(fid, m, n, i)``
and reuses that choice for every ``j`` of the row, and it evaluates a
whole row as an arithmetic progression: the values at the row's first
two ``j`` give the start and the step of the rest.  Both are sound only
because no guard reads ``j`` and every value is affine in ``j``, which
tier-1 tests check on every printed and patch branch.  A row of one or
two cells, and a row that matches no branch or several, is evaluated the
same way as a long one: a failing row raises one :class:`CoverageError`,
from its first cell, and fails at every cell.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence


class Variant(Enum):
    AS_PRINTED = "as-printed"
    ERRATA = "errata"


VARIANTS = (Variant.AS_PRINTED, Variant.ERRATA)

Guard = Callable[[int, int, int, int], bool]
# A compiled value receives the cell plus a resolver for the formulas it
# cites at the same variant: g(fid, m, n, i, j) -> int.
Value = Callable[[int, int, int, int, Callable], int]


def odd(x: int) -> bool:
    return x % 2 == 1


def even(x: int) -> bool:
    return x % 2 == 0


class CoverageError(Exception):
    """A cell matched no branch, or several, of a piecewise formula."""

    def __init__(self, fid: str, cell: tuple[int, int, int, int], matched: list[str]):
        self.fid, self.matched = fid, matched
        m, n, i, j = cell
        where = f"{fid} at (m={m}, n={n}, i={i}, j={j})"
        if matched:
            detail = "branches overlap: " + "; ".join(repr(b) for b in matched)
        else:
            detail = "no branch matches"
        super().__init__(f"{where}: {detail}")


@dataclass(frozen=True)
class Branch:
    """One case of a piecewise formula: its label, the guard its label states, its value.

    ``guard`` is None only on an ``otherwise`` branch outside a formula;
    :func:`define` and :func:`patch` compile it from its siblings.
    """

    label: str
    guard: Guard | None
    value: Value


# An integer expression, once fl/cl, powers and implicit products are
# rewritten, holds only the cell's names, integer literals, + - * ( ) and
# floor division; a guard reads no j, and adds only comparisons, parity
# tests and and/or/not; a value adds only the calls of its citations.
_SIDE = re.compile(r"(?:[mni\d+\-*()]|//)+")
_VALUE = re.compile(r"(?:[mnij\d+\-*()]|//)+")
_COMPARISON = re.compile(r"(<=|>=|!=|=|<|>)")
_MISTYPED_PARITY = re.compile(r"[mni] \w")  # ``i od``: no description starts this way
_QUOTIENT = re.compile(r"(\([^()]*\)|[\dmni]+)/(\d+)")
_FLOOR = re.compile(r"(fl|cl)\(((?:[^()]|\([^()]*\))*)/(\d+)\)")
_POWER = re.compile(r"\^(\d+)")
_PRODUCT = re.compile(r"(?<=[\dmnij)])(?=[mnij(])")
_TERM = re.compile(r" ([+-]) ")
_FID = re.compile(r"[a-z][\w-]*(?:\.[\w-]+)+")  # ``flower.meven.large-star.hub``
_CITATION = re.compile(rf"((?:\d+ \* )?)({_FID.pattern})")  # ``2 * helm.n1.hub``
_PHRASE = re.compile(r"[a-z]+(?:[ -][a-z]+)*")  # ``base``, ``cited leaf-leaf rim``
_SOURCES: dict[str, str | None] = {}  # label -> the Python source of its guard
_COMPILED: dict[str, Callable] = {}  # a lambda's source -> the lambda


def _expression(text: str, names: re.Pattern = _SIDE) -> str | None:
    """An integer expression as Python, or None if ``text`` is none over ``names``."""
    if "//" in text:  # only fl and cl floor a quotient
        return None
    text = _FLOOR.sub(
        lambda f: f"(({f[2]})//{f[3]})" if f[1] == "fl" else f"(-(-({f[2]})//{f[3]}))", text
    )
    text = _PRODUCT.sub("*", _POWER.sub(r"**\1", text))
    return text if names.fullmatch(text) else None


def _condition(text: str) -> str | None:
    """One condition of a label as a Python expression, or None if ``text`` is none."""
    parity = re.fullmatch(r"([mni]) (odd|even)", text)
    if parity:
        return f"{parity[1]} % 2 == {int(parity[2] == 'odd')}"
    parts = _COMPARISON.split(text)
    if len(parts) < 3:
        return None
    sides = []
    for side in map(str.strip, parts[::2]):
        # a side that is an exact quotient a/k compares as a, the others times k
        quotient = _QUOTIENT.fullmatch(side)
        side, k = (quotient[1], int(quotient[2])) if quotient else (side, 1)
        side = _expression(side)
        if side is None:
            return None
        sides.append((side, k))
    scale = 1
    for _, k in sides:
        scale *= k
    python = [side if k == scale else f"({side}) * {scale // k}" for side, k in sides]
    ops = ["==" if op == "=" else op for op in parts[1::2]]
    return python[0] + "".join(f" {op} {side}" for op, side in zip(ops, python[1:]))


def _source(label: str) -> str | None:
    """The Python source of the guard ``label`` states; None for ``otherwise``."""
    head, colon, _ = label.partition(":")
    if colon and head == "otherwise":
        return None
    clauses = []
    for clause in head.split(","):
        alternatives = [_condition(text.strip()) for text in clause.split(" or ")]
        if None in alternatives:
            if clauses or alternatives[0] is not None:
                raise ValueError(f"label {label!r}: its conditions parse only in part")
            if colon or _COMPARISON.search(head, 1) or _MISTYPED_PARITY.match(head):
                raise ValueError(f"label {label!r}: {head!r} is not a list of conditions")
            return "True"  # a description alone holds always
        either = " or ".join(alternatives)
        clauses.append(f"({either})" if len(alternatives) > 1 else either)
    return " and ".join(clauses)


def _value_source(label: str, value: str) -> str:
    """The Python source of ``value``: a value text, or a cited fid plus the
    offset the description of ``label`` states."""
    text, fid = value, value if _FID.fullmatch(value) else None
    if fid:
        head, colon, text = label.partition(":")
        if not colon:
            if _SOURCES[label] != "True":
                raise ValueError(f"label {label!r}: it states conditions and no value")
            text = head
        text = text.strip().removeprefix("=").strip()
    parts = _TERM.split(text)
    python, phrases = [], 0
    for sign, term in zip(["+"] + parts[1::2], parts[::2]):
        expression = _expression(term, _VALUE)
        citation = None if fid else _CITATION.fullmatch(term)
        if expression is not None:
            python.append(f"{sign} {expression}")
        elif citation:
            python.append(f"{sign} {citation[1]}g({citation[2]!r}, m, n, i, j)")
        elif fid and sign == "+" and _PHRASE.fullmatch(term):
            phrases += 1
            python.append(f"+ g({fid!r}, m, n, i, j)")
        else:
            where = f"label {label!r}" if fid else f"value {value!r}"
            raise ValueError(f"{where}: {term!r} is no integer expression and no citation")
    if fid and phrases != 1:
        raise ValueError(f"label {label!r}: it cites {phrases} formulas, not one")
    return " ".join(python).removeprefix("+ ")


def _compile(source: str) -> Callable:
    compiled = _COMPILED.get(source)
    if compiled is None:
        # a guard's source holds integer expressions in m, n and i (what
        # _SIDE admits), comparisons and and/or/not; a value's, integer
        # expressions in m, n, i and j (_VALUE) and the calls of the fids it
        # cites, by value text or by label; both come from the package's
        # own tables
        compiled = _COMPILED[source] = eval(source, {})
    return compiled


def _guard(source: str) -> Guard:
    return _compile(f"lambda m, n, i, j: {source}")


def br(label: str, value: str) -> Branch:
    """The branch ``label`` of a formula: its guard compiled from the label,
    its value from ``value``.

    Each distinct condition compiles once, to a plain ``lambda m, n, i, j``
    of integer arithmetic and comparisons, and each distinct value to a
    ``lambda m, n, i, j, g`` that calls ``g(fid, m, n, i, j)`` for each
    formula it cites.  A ``value`` that is one formula id makes a citing
    branch, whose value is that formula's plus the offset the label's
    description states (``base - 4m^2n + m - 1``).  Any other ``value`` is
    a value text: terms joined by spaced signs, each an integer expression
    in m, n, i and j or a cited formula id with an optional integer
    coefficient (``2mn + (i-1)n + 2j - 1``, ``2 * helm.n1.hub + 1``); the
    module docstring states all three grammars.  Raises ValueError for a
    label whose head before ``:`` is no list of conditions, whose
    conditions parse only in part, or which has no ``:`` and holds a
    comparison it cannot parse or starts as a parity test it cannot parse
    (``i od``); for a value text with a term that is no integer expression
    and no citation; and for a citing label whose description has a term
    that is no integer expression and no added citation phrase, or not
    exactly one such phrase.
    """
    if label not in _SOURCES:
        _SOURCES[label] = _source(label)
    source = _SOURCES[label]
    try:
        guard = None if source is None else _guard(source)
        value = _compile(f"lambda m, n, i, j, g: {_value_source(label, value)}")
    except SyntaxError:
        raise ValueError(f"branch {label!r}: it holds no integer arithmetic") from None
    return Branch(label, guard, value)


@dataclass(frozen=True)
class Patch:
    """One erratum: the formula it replaces, the fix, and why it is forced."""

    fid: str
    note: str
    evidence: str
    replacement: tuple[Branch, ...]


_PRINTED: dict[str, tuple[Branch, ...]] = {}
_PATCHES: dict[str, Patch] = {}


def _settled(fid: str, branches: tuple[Branch, ...]) -> tuple[Branch, ...]:
    """``branches`` with each ``otherwise`` guard compiled as the complement of its siblings'."""
    # Branch hits are counted as fid[label] and patches keep branches by
    # label, so a label has to name one branch of its formula.
    labels = [b.label for b in branches]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"formula {fid} repeats the branch label {label!r}")
    settled = []
    for b in branches:
        if b.guard is None:  # otherwise: where none of its siblings holds
            siblings = " or ".join(f"({_SOURCES[s.label]})" for s in branches if s is not b)
            b = Branch(b.label, _guard(f"not ({siblings})"), b.value)
        settled.append(b)
    return tuple(settled)


def define(fid: str, *branches: Branch) -> None:
    if fid in _PRINTED:
        raise ValueError(f"formula {fid} already defined")
    _PRINTED[fid] = _settled(fid, branches)


def patch(fid: str, note: str, evidence: str, *branches: Branch | str) -> None:
    """Record the erratum for ``fid``: its replacement, in the order given.

    A patch lists the branches it changes; a branch it keeps is given as
    the label of a printed branch and resolves to that printed
    :class:`Branch` object itself.
    """
    if fid not in _PRINTED:
        raise ValueError(f"cannot patch unknown formula {fid}")
    if fid in _PATCHES:
        raise ValueError(f"formula {fid} already patched; the ledger is append-only")
    printed = {b.label: b for b in _PRINTED[fid]}
    for b in branches:
        if isinstance(b, str) and b not in printed:
            raise ValueError(f"patch of {fid} keeps {b!r}, which is no printed branch label")
    replacement = tuple(printed[b] if isinstance(b, str) else b for b in branches)
    _PATCHES[fid] = Patch(fid, note, evidence, _settled(fid, replacement))


def resolve(fid: str, variant: Variant) -> tuple[Branch, ...]:
    """The branches of ``fid`` at ``variant``: the patch's if it has one, else the printed."""
    if fid not in _PRINTED:
        raise KeyError(f"unknown formula {fid}")
    if variant is Variant.ERRATA and fid in _PATCHES:
        return _PATCHES[fid].replacement
    return _PRINTED[fid]


class Resolver:
    """Evaluates formulas at one variant and counts every branch it takes.

    The branch of ``fid`` is chosen once per row (m, n, i), with its hit
    key ``fid[label]``, and reused for every j of that row: no guard
    reads ``j``.  The resolver is also the ``ref`` every value callable
    receives, so cited formulas share the same choices and counts.
    :meth:`row` evaluates any row of consecutive j from the calls at its
    first two j, and counts the first call's hits once per cell of the row:
    every value is affine in ``j``, and a cell takes the same branches,
    cited ones included, at every j of its row.
    """

    def __init__(self, variant: Variant):
        self.variant = variant
        self.hits: Counter = Counter()
        # (fid, m, n, i) -> (value, hit key) of the branch taken, or the
        # labels of the branches matched when that is not one
        self._rows: dict[tuple[str, int, int, int], tuple[Value, str] | list[str]] = {}
        # the hits one call counts: the cells of the row :meth:`row` stands it for
        self._weight = 1

    def __call__(self, fid: str, m: int, n: int, i: int, j: int) -> int:
        """The value of ``fid`` at the cell."""
        row = self._rows.get((fid, m, n, i))
        if row is None:
            # a loop, not a comprehension: one would make m, n, i and j
            # closure cells on every call, cache hits included
            matched = []
            for b in resolve(fid, self.variant):
                if b.guard(m, n, i, j):
                    matched.append(b)
            if len(matched) == 1:
                b = matched[0]
                row = (b.value, f"{fid}[{b.label}]")
            else:
                row = [b.label for b in matched]
            self._rows[fid, m, n, i] = row
        if type(row) is list:
            raise CoverageError(fid, (m, n, i, j), row)
        value = row[0](m, n, i, j, self)
        self.hits[row[1]] += self._weight
        return value

    def row(self, fid: str, m: int, n: int, i: int, js: range) -> Sequence[int]:
        """The values of ``fid`` at (i, j) for each j of ``js``, a nonempty
        range of step 1.

        Every row, short, long or failing, is evaluated from its first two
        cells: the first counts each hit it takes once per cell of the row,
        the second counts none and gives the step of the progression the
        others continue.  A :class:`CoverageError` of the first cell
        propagates; the row's other cells take the same branches and fail
        the same way.
        """
        count = len(js)
        self._weight = count
        try:
            first = self(fid, m, n, i, js[0])
            if count == 1:
                return [first]
            self._weight = 0  # the second cell reuses the first's choices and keys
            step = self(fid, m, n, i, js[1]) - first
        finally:
            self._weight = 1
        if step:
            return range(first, first + step * count, step)
        return [first] * count
