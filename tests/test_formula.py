"""Piecewise formula machinery: coverage semantics and the erratum ledger."""

import inspect
from types import CodeType, FunctionType

import pytest

from antimagic import formula as F
from antimagic.formula import ALWAYS, CoverageError, Piecewise, Variant, br

SCHEMES = ("wheel.", "helm.", "flower.")


def _pw(*branches):
    return Piecewise("test.pw", tuple(branches))


def _ref(fid, m, n, i, j):
    raise AssertionError("no references expected")


def test_single_branch_evaluates():
    pw = _pw(br("always", ALWAYS, lambda m, n, i, j, _: m + n + i + j))
    value, label = pw.evaluate(1, 2, 3, 4, _ref)
    assert (value, label) == (10, "always")


def test_gap_raises_coverage_error():
    pw = _pw(br("i odd", lambda m, n, i, j: i % 2 == 1, lambda m, n, i, j, _: 1))
    with pytest.raises(CoverageError, match="no branch matches"):
        pw.evaluate(3, 1, 2, 1, _ref)


def test_overlap_raises_coverage_error():
    pw = _pw(
        br("first", ALWAYS, lambda m, n, i, j, _: 1),
        br("second", lambda m, n, i, j: i == 2, lambda m, n, i, j, _: 2),
    )
    with pytest.raises(CoverageError, match="overlap"):
        pw.evaluate(3, 1, 2, 1, _ref)


def test_zero_branch_formula_always_errors():
    pw = Piecewise("test.empty", ())
    with pytest.raises(CoverageError):
        pw.evaluate(3, 1, 1, 1, _ref)


def test_registry_variants_and_ledger():
    F.define("test.reg.demo", br("always", ALWAYS, lambda m, n, i, j, _: 5))
    assert F.evaluate("test.reg.demo", Variant.AS_PRINTED, 3, 1, 1, 1) == (5, "always")
    F.patch("test.reg.demo", "value is 6", "forced by the test",
            br("always", ALWAYS, lambda m, n, i, j, _: 6))
    assert F.evaluate("test.reg.demo", Variant.AS_PRINTED, 3, 1, 1, 1) == (5, "always")
    assert F.evaluate("test.reg.demo", Variant.ERRATA, 3, 1, 1, 1) == (6, "always")
    ledger = F.errata("test.reg.")
    assert len(ledger) == 1
    assert ledger[0].note == "value is 6"
    assert ledger[0].evidence


def test_ledger_is_append_only():
    F.define("test.appendonly", br("always", ALWAYS, lambda m, n, i, j, _: 1))
    F.patch("test.appendonly", "x", "y", br("always", ALWAYS, lambda m, n, i, j, _: 2))
    with pytest.raises(ValueError, match="append-only"):
        F.patch("test.appendonly", "z", "w", br("always", ALWAYS, lambda m, n, i, j, _: 3))


def test_duplicate_definition_rejected():
    F.define("test.dup", br("always", ALWAYS, lambda m, n, i, j, _: 1))
    with pytest.raises(ValueError, match="already defined"):
        F.define("test.dup", br("always", ALWAYS, lambda m, n, i, j, _: 1))


def test_every_scheme_erratum_has_evidence():
    scheme_entries = [entry for prefix in SCHEMES for entry in F.errata(prefix)]
    assert len(scheme_entries) >= 10
    for entry in scheme_entries:
        assert entry.note
        assert len(entry.evidence) > 40
        assert entry.replacement.branches


def test_references_resolve_at_same_variant():
    F.define("test.refbase", br("always", ALWAYS, lambda m, n, i, j, _: 10))
    F.patch("test.refbase", "now 20", "test", br("always", ALWAYS, lambda m, n, i, j, _: 20))
    F.define("test.refuser",
             br("always", ALWAYS, F.ref_value("test.refbase", 1)))
    assert F.evaluate("test.refuser", Variant.AS_PRINTED, 3, 1, 1, 1)[0] == 11
    assert F.evaluate("test.refuser", Variant.ERRATA, 3, 1, 1, 1)[0] == 21


def test_repeated_branch_label_rejected():
    # branch hits are counted per fid[label], and patches keep branches by label
    one = lambda m, n, i, j, _: 1
    with pytest.raises(ValueError, match=r"test\.repeat .*'x'"):
        F.define("test.repeat", br("x", ALWAYS, one), br("x", ALWAYS, one))
    F.define("test.repeat", br("x", lambda m, n, i, j: i == 1, one),
             br("y", lambda m, n, i, j: i != 1, one))
    with pytest.raises(ValueError, match=r"test\.repeat .*'x'"):
        F.patch("test.repeat", "x twice", "test", "x", br("x", ALWAYS, one))
    assert F.errata("test.repeat") == []


def test_patch_keeps_printed_branches_by_label():
    a = br("a", lambda m, n, i, j: i == 1, lambda m, n, i, j, _: 1)
    b = br("b", lambda m, n, i, j: i == 2, lambda m, n, i, j, _: 2)
    F.define("test.keep", a, b)
    with pytest.raises(ValueError, match=r"test\.keep .*'c'"):
        F.patch("test.keep", "c kept", "test", "a", "c")
    assert F.errata("test.keep") == []
    c = br("c", lambda m, n, i, j: i == 3, lambda m, n, i, j, _: 3)
    F.patch("test.keep", "a dropped, c added", "test", "b", c)
    kept, added = F.errata("test.keep")[0].replacement.branches
    assert kept is b and added is c
    assert F.evaluate("test.keep", Variant.ERRATA, 3, 1, 2, 1) == (2, "b")


def _shape(fn):
    """What a guard or value computes: bytecode, constants, names and
    closure values, followed into closed-over callables such as the
    offsets of ``ref_value``.  Line numbers are left out."""
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
    for entry in (e for prefix in SCHEMES for e in F.errata(prefix)):
        printed = {b.label: b for b in F.resolve(entry.fid, Variant.AS_PRINTED).branches}
        for b in entry.replacement.branches:
            old = printed.get(b.label)
            if old is not None and old is not b and _computes(old) == _computes(b):
                restated.append(f"{entry.fid}[{b.label}]")
    assert restated == []


def test_every_cited_formula_is_defined():
    fids = [fid for fid in F._PRINTED if fid.startswith(SCHEMES)]
    branches = [b for fid in fids for v in F.VARIANTS for b in F.resolve(fid, v).branches]
    ref_targets = set()
    direct = set()  # values that call the resolver themselves: g("fid", m, n, i, j)
    for b in branches:
        if b.value.__qualname__.startswith("ref_value."):
            ref_targets.add(inspect.getclosurevars(b.value).nonlocals["fid"])
        direct |= {c for c in b.value.__code__.co_consts if isinstance(c, str)}
    assert len(ref_targets) == 67  # the printed schemes cite 67 formulas this way
    assert sorted((ref_targets | direct) - set(F._PRINTED)) == []
