"""Piecewise formula machinery: coverage semantics and the erratum ledger."""

import dis
import graphlib
import hashlib
import inspect
import re
import subprocess
import sys
import zlib
from collections import Counter
from fractions import Fraction
from math import ceil, floor
from types import CodeType, FunctionType

import pytest

from antimagic import flower, helm, wheel
from antimagic import formula as F
from antimagic.conformance import ROWS, _coverage_message
from antimagic.families import errata
from antimagic.formula import CoverageError, Variant, br
from antimagic.graphs import edge, vertex

from . import ROOT, src_env

SCHEMES = ("wheel.", "helm.", "flower.")


def _evaluate(fid, variant, m, n, i, j):
    """The value of ``fid`` at a cell, from a fresh resolver, and the label of its branch."""
    resolver = F.Resolver(variant)
    value = resolver(fid, m, n, i, j)
    (label,) = [key[len(fid) + 1:-1] for key in resolver.hits if key.startswith(f"{fid}[")]
    return value, label


def _pw(fid, *branches):
    """Register a printed formula and return a function evaluating it at a cell."""
    F.define(fid, *branches)
    return lambda m, n, i, j: _evaluate(fid, Variant.AS_PRINTED, m, n, i, j)


def test_single_branch_evaluates():
    pw = _pw("test.pw.single", br("always", lambda m, n, i, j, _: m + n + i + j))
    assert pw(1, 2, 3, 4) == (10, "always")


def test_gap_raises_coverage_error():
    pw = _pw("test.pw.gap", br("i odd", lambda m, n, i, j, _: 1))
    with pytest.raises(CoverageError, match="no branch matches"):
        pw(3, 1, 2, 1)


def test_overlap_raises_coverage_error():
    pw = _pw(
        "test.pw.overlap",
        br("first", lambda m, n, i, j, _: 1),
        br("i=2: second", lambda m, n, i, j, _: 2),
    )
    with pytest.raises(CoverageError, match="overlap"):
        pw(3, 1, 2, 1)


def test_zero_branch_formula_always_errors():
    pw = _pw("test.pw.empty")
    with pytest.raises(CoverageError):
        pw(3, 1, 1, 1)


def test_registry_variants_and_ledger():
    F.define("test.reg.demo", br("always", lambda m, n, i, j, _: 5))
    assert _evaluate("test.reg.demo", Variant.AS_PRINTED, 3, 1, 1, 1) == (5, "always")
    F.patch("test.reg.demo", "value is 6", "forced by the test",
            br("always", lambda m, n, i, j, _: 6))
    assert _evaluate("test.reg.demo", Variant.AS_PRINTED, 3, 1, 1, 1) == (5, "always")
    assert _evaluate("test.reg.demo", Variant.ERRATA, 3, 1, 1, 1) == (6, "always")
    ledger = errata("test.reg.")
    assert len(ledger) == 1
    assert ledger[0].note == "value is 6"
    assert ledger[0].evidence


def test_ledger_is_append_only():
    F.define("test.appendonly", br("always", lambda m, n, i, j, _: 1))
    F.patch("test.appendonly", "x", "y", br("always", lambda m, n, i, j, _: 2))
    with pytest.raises(ValueError, match="append-only"):
        F.patch("test.appendonly", "z", "w", br("always", lambda m, n, i, j, _: 3))


def test_duplicate_definition_rejected():
    F.define("test.dup", br("always", lambda m, n, i, j, _: 1))
    with pytest.raises(ValueError, match="already defined"):
        F.define("test.dup", br("always", lambda m, n, i, j, _: 1))


def test_every_scheme_erratum_has_evidence():
    scheme_entries = [entry for prefix in SCHEMES for entry in errata(prefix)]
    assert len(scheme_entries) >= 10
    for entry in scheme_entries:
        assert entry.note
        assert len(entry.evidence) > 40
        assert entry.replacement


def test_references_resolve_at_same_variant():
    F.define("test.refbase", br("always", lambda m, n, i, j, _: 10))
    F.patch("test.refbase", "now 20", "test", br("always", lambda m, n, i, j, _: 20))
    F.define("test.refuser", br("base + 1", "test.refbase"))
    assert _evaluate("test.refuser", Variant.AS_PRINTED, 3, 1, 1, 1)[0] == 11
    assert _evaluate("test.refuser", Variant.ERRATA, 3, 1, 1, 1)[0] == 21


def test_repeated_branch_label_rejected():
    # branch hits are counted per fid[label], and patches keep branches by label
    one = lambda m, n, i, j, _: 1
    with pytest.raises(ValueError, match=r"test\.repeat .*'x'"):
        F.define("test.repeat", br("x", one), br("x", one))
    F.define("test.repeat", br("i=1: x", one), br("i!=1: y", one))
    with pytest.raises(ValueError, match=r"test\.repeat .*'i=1: x'"):
        F.patch("test.repeat", "x twice", "test", "i=1: x", br("i=1: x", one))
    assert errata("test.repeat") == []


def test_patch_keeps_printed_branches_by_label():
    a = br("i=1: a", lambda m, n, i, j, _: 1)
    b = br("i=2: b", lambda m, n, i, j, _: 2)
    F.define("test.keep", a, b)
    with pytest.raises(ValueError, match=r"test\.keep .*'c'"):
        F.patch("test.keep", "c kept", "test", "i=1: a", "c")
    assert errata("test.keep") == []
    c = br("i=3: c", lambda m, n, i, j, _: 3)
    F.patch("test.keep", "a dropped, c added", "test", "i=2: b", c)
    kept, added = errata("test.keep")[0].replacement
    assert kept is b and added is c
    assert _evaluate("test.keep", Variant.ERRATA, 3, 1, 2, 1) == (2, "i=2: b")



# label -> when it holds, stated without the translator; fl, cl and the
# exact quotient as Fractions
LABEL_TRUTH = {
    "i odd": lambda m, n, i: i % 2 == 1,
    "n even: base + n": lambda m, n, i: n % 2 == 0,
    "i!=1, m=3, n>=3": lambda m, n, i: i != 1 and m == 3 and n >= 3,
    "2<=i<=m-1": lambda m, n, i: 2 <= i <= m - 1,
    "n>2, 1<i<m: x": lambda m, n, i: n > 2 and 1 < i < m,
    # " or " binds tighter than the comma
    "i!=2, m>=5 or n=2": lambda m, n, i: i != 2 and (m >= 5 or n == 2),
    "m>=5 or n=2, i!=2": lambda m, n, i: (m >= 5 or n == 2) and i != 2,
    "i=1 or i=m, n odd": lambda m, n, i: i in (1, m) and n % 2 == 1,
    # implicit products, floors and ceilings
    "mn>=12": lambda m, n, i: m * n >= 12,
    "i<=2mn-3m": lambda m, n, i: i <= 2 * m * n - 3 * m,
    "i even, 2fl(m/4)+2<=i<=m-2": lambda m, n, i: (
        i % 2 == 0 and 2 * floor(Fraction(m, 4)) + 2 <= i <= m - 2),
    "i odd, 3<=i<=2cl(m/4)-1": lambda m, n, i: (
        i % 2 == 1 and 3 <= i <= 2 * ceil(Fraction(m, 4)) - 1),
    "fl((m+3)/2)<=i<=m-1": lambda m, n, i: floor(Fraction(m + 3, 2)) <= i <= m - 1,
    "2<=i<=cl((m-1)/2)": lambda m, n, i: 2 <= i <= ceil(Fraction(m - 1, 2)),
    # an exact quotient
    "i=(m+1)/2": lambda m, n, i: i == Fraction(m + 1, 2),
    "i=m-1, i!=(m+1)/2": lambda m, n, i: i == m - 1 and i != Fraction(m + 1, 2),
    # a description alone holds always
    "= base": lambda m, n, i: True,
    "base + 4mn^2 - n": lambda m, n, i: True,
    "label of its one edge": lambda m, n, i: True,
}
LABEL_CELLS = [(m, n, i) for m in range(3, 14) for n in range(1, 6) for i in range(-1, m + 3)]


@pytest.mark.parametrize("label", LABEL_TRUTH)
def test_a_label_compiles_to_the_condition_it_states(label):
    guard, truth = br(label, None).guard, LABEL_TRUTH[label]
    assert [c for c in LABEL_CELLS if guard(*c, 1) != truth(*c)] == []


def test_an_exact_quotient_matches_no_even_m():
    guard = br("i=(m+1)/2", None).guard
    even_m = [(m, n, i) for m in range(4, 40, 2) for n in (1, 2) for i in range(-2, m + 3)]
    assert not any(guard(*cell, 1) for cell in even_m)
    assert [i for i in range(-2, 12) if guard(9, 1, i, 1)] == [5]


def test_otherwise_is_the_complement_of_its_siblings():
    value = lambda m, n, i, j, _: 0
    assert br("otherwise: c", value).guard is None  # compiled once it has siblings
    F.define("test.otherwise", br("i=2, n=2: a", value), br("i=1 or i=m: b", value),
             br("otherwise: c", value))
    F.patch("test.otherwise", "b dropped", "test", "i=2, n=2: a", br("otherwise: c", value))
    for variant in F.VARIANTS:
        *siblings, rest = F.resolve("test.otherwise", variant)
        assert rest.label == "otherwise: c"
        assert [c for c in LABEL_CELLS
                if rest.guard(*c, 1) == any(s.guard(*c, 1) for s in siblings)] == []


@pytest.mark.parametrize("label, refusal", [
    ("i=1, i od: x", "parse only in part"),
    ("i=1, i od", "parse only in part"),
    ("n=2 or foo, i=1: x", "parse only in part"),
    ("foo: base", "not a list of conditions"),
    ("i==2: x", "not a list of conditions"),
    ("i==2", "not a list of conditions"),
    ("i = 2x", "not a list of conditions"),
    ("i od", "not a list of conditions"),
    ("i=m+: x", "no integer arithmetic"),
])
def test_a_label_that_states_no_condition_is_refused(label, refusal):
    with pytest.raises(ValueError, match=refusal):
        br(label, None)


# citing label -> the offset it adds to the formula it cites
CITING_LABELS = {
    "= base": lambda m, n, i: 0,
    "base - 1": lambda m, n, i: -1,
    "2m + cited pendant - 1": lambda m, n, i: 2 * m - 1,
    "base - 4m^2n + m - 1": lambda m, n, i: -4 * m * m * n + m - 1,
    "8mn^2 + helm row": lambda m, n, i: 8 * m * n * n,
    "m=3: base + 4mn": lambda m, n, i: 4 * m * n,
    "otherwise: base": lambda m, n, i: 0,
    "label of its one edge": lambda m, n, i: 0,
    "2fl(m/4) + base - i": lambda m, n, i: 2 * (m // 4) - i,
}


@pytest.mark.parametrize("label", CITING_LABELS)
def test_a_citing_label_compiles_to_the_offset_it_states(label):
    value, offset = br(label, "test.cited").value, CITING_LABELS[label]
    assert "test.cited" in value.__code__.co_consts
    cells = [(*c, j) for c in LABEL_CELLS for j in (1, 2)]
    assert [c for c in cells if value(*c, _cited) != _cited("test.cited", *c) + offset(*c[:3])] == []


def test_an_otherwise_label_cites_where_its_siblings_do_not():
    F.define("test.cite.base", br("always", lambda m, n, i, j, _: 10 * i))
    F.define("test.cite.rest", br("i=1: base + 1", "test.cite.base"),
             br("otherwise: base", "test.cite.base"))
    assert _evaluate("test.cite.rest", Variant.AS_PRINTED, 3, 1, 1, 1) == (11, "i=1: base + 1")
    assert _evaluate("test.cite.rest", Variant.AS_PRINTED, 3, 1, 2, 1) == (20, "otherwise: base")


@pytest.mark.parametrize("label, refusal", [
    ("4mn + 1", "cites 0 formulas"),
    ("base + helm row", "cites 2 formulas"),
    ("base + 4mx", "'4mx' is no integer expression and no citation"),
    ("base + m/2", "'m/2' is no integer expression and no citation"),  # no comparison to scale
    ("4mn - base", "'base' is no integer expression and no citation"),
    ("i odd", "states conditions and no value"),
    ("base + m+", "no integer arithmetic"),
])
def test_a_citing_label_that_states_no_offset_is_refused(label, refusal):
    with pytest.raises(ValueError, match=refusal):
        br(label, "test.cited")


def _inexact(guard) -> list:
    """The true divisions and the float constants in a guard's bytecode."""
    code = guard.__code__
    return [
        ins.argrepr for ins in dis.get_instructions(code)
        if ins.opname == "BINARY_TRUE_DIVIDE" or ins.argrepr in ("/", "/=")
    ] + [c for c in code.co_consts if isinstance(c, float)]


def test_guards_use_only_exact_integer_arithmetic():
    assert _inexact(lambda m, n, i, j: 2 * i == m / 2) == ["/"]
    assert _inexact(lambda m, n, i, j: i < 1 / 2) == [0.5]
    assert _inexact(lambda m, n, i, j: i <= m // 2) == []
    branches = _scheme_branches()
    assert len(branches) == 463
    assert [f"{fid}[{b.label}]" for fid, b in branches if _inexact(b.guard)] == []

def _shape(fn):
    """What a guard or value computes: bytecode, constants, names and
    closure values, followed into closed-over callables.  Line numbers
    are left out."""
    if not isinstance(fn, FunctionType):
        return fn
    return _code_shape(fn.__code__), tuple(_shape(c.cell_contents) for c in fn.__closure__ or ())


def _code_shape(code):
    consts = tuple(_code_shape(c) if isinstance(c, CodeType) else c for c in code.co_consts)
    return code.co_code, consts, code.co_names


def _computes(branch):
    return _shape(branch.guard), _shape(branch.value)


def test_patches_spell_out_only_changed_branches():
    # a branch a patch keeps is named by label and is the printed object;
    # an explicit branch that computes what the printed one does is a copy
    # that could drift from it
    restated = []
    for entry in (e for prefix in SCHEMES for e in errata(prefix)):
        printed = {b.label: b for b in F.resolve(entry.fid, Variant.AS_PRINTED)}
        for b in entry.replacement:
            old = printed.get(b.label)
            if old is not None and old is not b and _computes(old) == _computes(b):
                restated.append(f"{entry.fid}[{b.label}]")
    assert restated == []


def _citations() -> tuple[dict[str, set[str]], set[str]]:
    """The formulas each scheme formula cites at either variant, and those
    that citing labels cite.

    A value cites a formula by calling the resolver with its id, so the
    ids are the strings among its code's constants.  A citing label's value
    is compiled from the label; a hand-written value may also call the
    resolver itself: ``g("fid", m, n, i, j)``.
    """
    graph: dict[str, set[str]] = {}
    by_label = set()
    for fid in (fid for fid in F._PRINTED if fid.startswith(SCHEMES)):
        for v in F.VARIANTS:
            for b in F.resolve(fid, v):
                cited = {c for c in b.value.__code__.co_consts if isinstance(c, str)}
                graph.setdefault(fid, set()).update(cited)
                if b.value.__code__.co_filename == "<string>":  # br compiled it from the label
                    by_label |= cited
    return graph, by_label


def test_every_cited_formula_is_defined():
    graph, by_label = _citations()
    assert len(by_label) == 67  # the printed schemes' citing labels cite 67 formulas
    assert sorted(set().union(*graph.values()) - set(F._PRINTED)) == []


def test_citations_have_no_cycle():
    # a cycle would recurse in Resolver.__call__ until RecursionError,
    # which the conformance sweep does not turn into a coverage message
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter({"a": {"b"}, "b": {"a"}}).prepare()
    graph, _ = _citations()
    graphlib.TopologicalSorter(graph).prepare()


def _reads_j(guard) -> bool:
    """Whether a guard can read its fourth argument, ``j``.

    Anything but a plain function of four named parameters counts as
    reading it.  Otherwise the guard reads ``j`` when its code, or a code
    object nested in it, loads a local, cell or free variable of that name:
    a nested function sees ``j`` only through a closure the guard makes,
    and a closed-over callable only through an argument the guard loads.
    """
    if not isinstance(guard, FunctionType):
        return True
    code = guard.__code__
    if code.co_argcount != 4 or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS):
        return True
    return _loads(code, code.co_varnames[3])


def _loads(code: CodeType, name: str) -> bool:
    for ins in dis.get_instructions(code):
        local = any(k in ins.opname for k in ("FAST", "DEREF", "CLOSURE"))
        names = ins.argval if isinstance(ins.argval, tuple) else (ins.argval,)
        if ins.opname.startswith("LOAD") and local and name in names:
            return True
    return any(_loads(c, name) for c in code.co_consts if isinstance(c, CodeType))


def test_no_guard_reads_j():
    # A Resolver picks a formula's branch once per row (fid, m, n, i) and
    # reuses it for every j of the row; that is sound only while no guard
    # of any printed or patch branch reads j.
    def nested(m, n, i, j):
        return (lambda: j > 1)()

    def calls(f):
        return lambda m, n, i, j: f(m, n, i, j)

    def row(k):
        return lambda m, n, i, j: i == k

    assert _reads_j(lambda m, n, i, j: j == 1)
    assert _reads_j(nested)
    assert _reads_j(lambda *cell: cell[3] == 1)
    assert _reads_j(calls(lambda m, n, i, j: True))
    assert not _reads_j(lambda m, n, i, j: i == m and n > 1)
    assert not _reads_j(row(2))

    branches = _scheme_branches()
    assert len(branches) == 463
    assert [f"{fid}[{b.label}]" for fid, b in branches if _reads_j(b.guard)] == []


def _scheme_branches():
    """(fid, branch) for every distinct printed and patch branch of the three schemes."""
    return list({
        id(b): (fid, b)
        for fid in F._PRINTED if fid.startswith(SCHEMES)
        for v in F.VARIANTS for b in F.resolve(fid, v)
    }.values())


TRUTH_CELLS = [(m, n, i) for m in range(3, 21) for n in range(1, 7) for i in range(m + 2)]


def test_guard_truth_tables_are_pinned():
    # Each (variant, fid[label]) guard's truth on m 3..20 x n 1..6 x i 0..m+1,
    # hashed in fid order; the digest was computed from the hand-written
    # guards that the labels' compiled conditions replaced.
    digest = hashlib.sha256()
    tables: dict = {}
    pairs = 0
    for fid in sorted(fid for fid in F._PRINTED if fid.startswith(SCHEMES)):
        for v in F.VARIANTS:
            for b in F.resolve(fid, v):
                bits = tables.get(b.guard)
                if bits is None:
                    bits = tables[b.guard] = bytes([b.guard(m, n, i, 1) for m, n, i in TRUTH_CELLS])
                digest.update(f"{v.value} {fid}[{b.label}]\n".encode() + bits)
                pairs += 1
    assert pairs == 853
    assert digest.hexdigest() == "09b5606c2e2946c17ff1aa3fc28b7bf02d791fea2df33d6624c548bc2aebdfa2"


VALUE_CELLS = [(m, n, i, j) for m in range(3, 11) for n in range(1, 4) for i in range(m + 2)
               for j in (1, 2)]


def _cited(fid, m, n, i, j):
    """A stand-in for a cited formula's value that depends on the fid and the cell."""
    return zlib.crc32(f"{fid} {m} {n} {i} {j}".encode())


def test_branch_values_are_pinned():
    # Each (variant, fid[label]) value on m 3..10 x n 1..3 x i 0..m+1 x j 1..2,
    # a cited formula standing as a checksum of its fid and cell, hashed in
    # fid order; the digest was computed from the parent's offset closures.
    digest = hashlib.sha256()
    tables: dict = {}
    pairs = 0
    for fid in sorted(fid for fid in F._PRINTED if fid.startswith(SCHEMES)):
        for v in F.VARIANTS:
            for b in F.resolve(fid, v):
                values = tables.get(b.value)
                if values is None:
                    values = tables[b.value] = " ".join(
                        str(b.value(*cell, _cited)) for cell in VALUE_CELLS).encode()
                digest.update(f"{v.value} {fid}[{b.label}]\n".encode() + values)
                pairs += 1
    assert pairs == 853
    assert digest.hexdigest() == "aaaf1f188e2a329677516341e6d440a77de72810967b296f1a2fa1ac0bbba67b"


def _degree_in_j(value) -> int | None:
    """The degree in ``j`` of a value callable on symbols, with each cited formula
    standing as a_f + b_f j' (a_f, b_f depend on the cited row, j' is the cited j);
    None when the value is no polynomial in ``j``."""
    sympy = pytest.importorskip("sympy")
    m, n, i, j = sympy.symbols("m n i j", integer=True, positive=True)

    def ref(fid, *cell):
        *row, cited_j = cell
        return sympy.Function(f"a[{fid}]")(*row) + sympy.Function(f"b[{fid}]")(*row) * cited_j

    poly = sympy.sympify(value(m, n, i, j, ref)).as_poly(j)
    return None if poly is None else poly.degree()


def test_every_value_is_affine_in_j():
    # Evaluating a row at two j and the rest as an arithmetic progression
    # is sound only while every value is affine in j.
    assert _degree_in_j(lambda m, n, i, j, g: 4 * m * n - j + g("x", m, n, i + 1, n - j)) == 1
    assert _degree_in_j(lambda m, n, i, j, g: m // 4 + i) == 0
    assert _degree_in_j(lambda m, n, i, j, g: j * j) == 2
    assert _degree_in_j(lambda m, n, i, j, g: g("x", m, n, i, j) * j) == 2
    assert _degree_in_j(lambda m, n, i, j, g: j // 2) is None
    assert _degree_in_j(lambda m, n, i, j, g: g("x", m, n, j, 1)) is None  # j picks the row

    degrees = [(f"{fid}[{b.label}]", _degree_in_j(b.value)) for fid, b in _scheme_branches()]
    assert len(degrees) == 463
    assert [(key, d) for key, d in degrees if d is None or d > 1] == []


MODULES = {"wheel": wheel, "helm": helm, "flower": flower}


def _rows(family, m, n):
    """(what, fid, cells) of every edge and vertex row of the scheme at (m, n).

    ``cells`` lists (i, j, key) for each cell of the row, the key built by
    :func:`graphs.edge` from the vertices the row's ends name.
    """
    scheme = MODULES[family]._scheme(m, n)
    found = []
    for what, names in (("labels", scheme.edges), ("expected", scheme.vertices)):
        for name in names:
            rows, ends = ROWS[name]
            i_s, js = rows(m, n)
            cells = []
            for i in i_s:
                a, c = ends(m, i)
                for j in js:
                    key = vertex(a, j) if c is None else edge(vertex(a, j), vertex(c, 0))
                    cells.append((i, j, key))
            found.append((what, f"{scheme.prefix}.{name}", cells))
    return found


# The cells the sweep and the benchmark check (the standard grids and the
# large-star class), and a 20x20 cell of each family, whose rows are long.
# As printed, helm 3x1 has an oracle overlap, flower 3x1 label coverage
# errors, and helm 4x3 and flower 4x4 both, on rows of more than one j.
AS_PRINTED_FAILS = [("helm", 3, 1), ("flower", 3, 1), ("helm", 4, 3), ("flower", 4, 4)]
EQUIVALENCE_CELLS = AS_PRINTED_FAILS + [
    cell for cell in (
        [("wheel", m, n) for m in range(3, 11) for n in range(1, 6)]
        + [(f, m, n) for f in ("helm", "flower") for m in range(3, 9) for n in range(1, 5)]
        + [(f, m, n) for f in ("helm", "flower") for m in range(3, 11)
           for n in range(m + 1, m + 6) if n % 2 == 1]
        + [(f, 20, 20) for f in ("wheel", "helm", "flower")]
    )
    if cell not in AS_PRINTED_FAILS
]


@pytest.mark.parametrize("family, m, n", EQUIVALENCE_CELLS)
@pytest.mark.parametrize("variant", F.VARIANTS, ids=lambda v: v.value)
def test_row_choice_equals_a_choice_per_cell(family, m, n, variant):
    # Every cell evaluated on its own resolver, as if it were its own row:
    # the evaluator's progressions must give the same values, hits and
    # coverage messages, in the same order.
    per_cell = {what: ({}, Counter(), []) for what in ("labels", "expected")}
    for what, fid, cells in _rows(family, m, n):
        values, hits, messages = per_cell[what]
        row_hits: dict[int, list[Counter]] = {}
        row_errors: dict[int, list[int]] = {}
        for i, j, key in cells:
            resolver = F.Resolver(variant)
            try:
                values[key] = resolver(fid, m, n, i, j)
            except CoverageError as exc:
                message = _coverage_message(fid, m, n, i, j, exc)
                assert message.startswith(f"{fid} at (m={m}, n={n}, i={i}, j={j}): ")
                messages.append(message)
                row_errors.setdefault(i, []).append(j)
            hits.update(resolver.hits)
            row_hits.setdefault(i, []).append(resolver.hits)
        for i, per_j in row_hits.items():
            # a row's hits are one cell's hits times the row length
            assert per_j == [per_j[0]] * len(per_j)
            # a failing row fails at each of its cells
            assert row_errors.get(i, []) in ([], [j for ii, j, _k in cells if ii == i])
    module = MODULES[family]
    scheme = getattr(module, f"{family}_labels")(m, n, variant)
    oracle = getattr(module, f"{family}_expected")(m, n, variant)
    labels, label_hits, label_messages = per_cell["labels"]
    sums, sum_hits, sum_messages = per_cell["expected"]
    assert list(scheme.labels.items()) == list(labels.items())
    assert (scheme.branch_hits, scheme.coverage) == (label_hits, label_messages)
    assert list(oracle.sums.items()) == list(sums.items())
    assert (oracle.branch_hits, oracle.coverage) == (sum_hits, sum_messages)
    if variant is Variant.AS_PRINTED and (family, m, n) in AS_PRINTED_FAILS:
        assert scheme.coverage or oracle.coverage


def test_a_row_constant_in_j_repeats_its_first_value():
    # a step of 0: every cell takes the first value and counts one hit per
    # branch it takes, the cited formula's included
    F.define("test.row.cited", br("always", lambda m, n, i, j, _: m + i))
    F.define("test.row.flat", br("base + 1", "test.row.cited"))
    resolver = F.Resolver(Variant.AS_PRINTED)
    values, failed = resolver.row("test.row.flat", 3, 1, 2, range(1, 5))
    assert (list(values), failed) == ([6, 6, 6, 6], [])
    assert resolver.hits == {"test.row.flat[base + 1]": 4, "test.row.cited[always]": 4}


def test_a_row_costs_the_resolver_calls_of_two_cells(monkeypatch):
    # Evaluated cell by cell, flower 100x100 calls the resolver 199,800
    # times, about 2.5 per cell; as progressions, a row of 100 cells costs
    # the calls of its first two.
    calls = 0
    call = F.Resolver.__call__

    def counted(self, *cell):
        nonlocal calls
        calls += 1
        return call(self, *cell)

    monkeypatch.setattr(F.Resolver, "__call__", counted)
    labels = flower.flower_labels(100, 100, Variant.ERRATA)
    assert len(labels.labels) == 80_000 and labels.total
    assert calls < 0.05 * 80_000


def test_readme_ledger_snippet_lists_every_patch():
    (snippet,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    # the ledger of a fresh interpreter: this one also holds the tests' patches
    scheme_fids = sorted(p.fid for prefix in SCHEMES for p in errata(prefix))
    assert len(scheme_fids) == 23
    assert [line.split(" -- ")[0] for line in proc.stdout.splitlines()] == scheme_fids


def test_a_fresh_interpreter_reads_the_whole_ledger():
    # each scheme module records its patches when imported, and families imports all three
    proc = subprocess.run(
        [sys.executable, "-c", "from antimagic.families import errata; print(len(errata()))"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "23\n"
