"""The batch front door: round trips through serialized formats only."""

import argparse
import ast
import hashlib
import inspect
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antimagic import cli, families, graphs
from antimagic.cli import main
from antimagic.conformance import FormulaCoverageError, scheme_labeling
from antimagic.flower import flower_labels
from antimagic.formula import Variant
from antimagic.labeling import EdgeLabeling, parse_labeled_edge_list

from . import src_env

CLI = [sys.executable, "-m", "antimagic.cli"]


def run_cli(args, tmp_path=None, input_text=None):
    proc = subprocess.run(
        CLI + args, capture_output=True, text=True, input=input_text, env=src_env()
    )
    return proc


def test_label_wheel_3_1_errata(tmp_path):
    out = tmp_path / "w31.txt"
    assert main(["label", "--family", "wheel", "--m", "3", "--n", "1",
                 "--variant", "errata", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "8 12"
    assert len(lines) == 13
    labels = sorted(int(ln.split()[2]) for ln in lines[1:])
    assert labels == list(range(1, 13))


def test_round_trip_construct_label_verify(tmp_path):
    graph_file = tmp_path / "g.txt"
    label_file = tmp_path / "lab.txt"
    report_file = tmp_path / "rep.json"
    assert main(["construct", "--family", "helm", "--m", "4", "--n", "2",
                 "--out", str(graph_file)]) == 0
    assert main(["label", "--family", "helm", "--m", "4", "--n", "2",
                 "--out", str(label_file)]) == 0
    # the labeled file contains the same edge set the construct emitted
    graph_edges = graph_file.read_text().splitlines()[1:]
    label_edges = [" ".join(ln.split()[:2]) for ln in label_file.read_text().splitlines()[1:]]
    assert graph_edges == label_edges
    code = main(["verify", "--in", str(label_file), "--out", str(report_file)])
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["antimagic"] is True
    # and the verdict equals in-process verification
    from antimagic.graphs import product_graph
    from antimagic.labeling import verify_antimagic

    g = product_graph("helm", 4, 2)
    assert verify_antimagic(g, scheme_labeling("helm", 4, 2)).antimagic is True


def test_verify_failure_exit_code(tmp_path):
    label_file = tmp_path / "bad.txt"
    assert main(["label", "--family", "wheel", "--m", "3", "--n", "1",
                 "--variant", "as-printed", "--out", str(label_file)]) == 0
    assert main(["verify", "--in", str(label_file), "--out", str(tmp_path / "r.json")]) == 1


def test_sums_output(tmp_path):
    label_file = tmp_path / "lab.txt"
    main(["label", "--family", "wheel", "--m", "3", "--n", "1", "--out", str(label_file)])
    sums_file = tmp_path / "sums.txt"
    assert main(["sums", "--in", str(label_file), "--out", str(sums_file)]) == 0
    sums = dict(ln.split() for ln in sums_file.read_text().splitlines())
    assert sums["w0_0"] == "27"
    assert sums["w0_1"] == "30"


def test_grid_report_cardinality_and_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["grid-report", "--family", "wheel", "--m", "3..9", "--n", "1..4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(ln) for ln in a.read_text().splitlines()]
    assert len(records) == 7 * 4 * 2
    # canonical record order: (m, n, variant)
    keys = [(r["m"], r["n"], r["variant"]) for r in records]
    assert keys == sorted(keys)


def test_search_cli_runs_with_its_defaults():
    # wheel 3x2 has q = 24, over the exhaustive budget, so local search runs
    proc = run_cli(["search", "--family", "wheel", "--m", "3", "--n", "2"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["strategy"], payload["status"]) == ("local-search", "found")
    # the options that decided nothing are gone
    proc = run_cli(["search", "--family", "wheel", "--m", "3", "--n", "2",
                    "--strategy", "exhaustive"])
    assert proc.returncode == 2
    proc = run_cli(["export", "--family", "wheel", "--m", "3", "--n", "1", "--format", "dot"])
    assert proc.returncode == 2


def test_every_option_is_read_by_its_verb():
    # an option its verb never reads decides nothing
    actions = cli.build_parser()._actions
    (verbs,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for verb, parser in verbs.choices.items():
        tree = ast.parse(inspect.getsource(cli._COMMANDS[verb]))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        unread += [f"{verb} {a.option_strings[0]}" for a in parser._actions
                   if a.dest != "help" and a.dest not in read]
    assert unread == []


def test_search_cli_local(tmp_path):
    out = tmp_path / "s.json"
    assert main(["search", "--family", "wheel", "--m", "3", "--n", "1",
                 "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["strategy"], payload["status"]) == ("local-search", "found")
    assert payload["stats"]["iterations"] >= 0


def test_usage_errors():
    proc = run_cli(["label", "--family", "pyramid", "--m", "3", "--n", "1"])
    assert proc.returncode == 2
    proc = run_cli(["grid-report", "--family", "wheel", "--m", "9..3", "--n", "1"])
    assert proc.returncode == 2
    proc = run_cli(["label", "--family", "wheel", "--m", "2", "--n", "1"])
    assert proc.returncode == 2
    # int() would read these as wheel 10 x 1 and the grid m = 3..3
    proc = run_cli(["label", "--family", "wheel", "--m", "1_0", "--n", "1"])
    assert proc.returncode == 2
    proc = run_cli(["grid-report", "--family", "wheel", "--m", "3..", "--n", "1"])
    assert proc.returncode == 2
    # negative budgets: no iteration would run, or every instance be refused
    proc = run_cli(["search", "--family", "wheel", "--m", "3", "--n", "1",
                    "--max-iterations", "-5"])
    assert proc.returncode == 2
    proc = run_cli(["search", "--family", "wheel", "--m", "3", "--n", "1",
                    "--max-exhaustive-edges", "-1"])
    assert proc.returncode == 2


# Runs verify, sums, construct and search through cli.main in one process
# and prints their exit codes and the package modules then loaded.
_VERBS_WITHOUT_TABLES = """
import json, sys
from antimagic.cli import main
out = sys.argv[1]
with open(out + "/p3.txt", "w") as fh:
    fh.write("3 2\\nu0 u1 1\\nu1 u2 2\\n")
codes = [
    main(["verify", "--in", out + "/p3.txt", "--out", out + "/report.json"]),
    main(["sums", "--in", out + "/p3.txt", "--out", out + "/sums.txt"]),
    main(["construct", "--family", "flower", "--m", "3", "--n", "1", "--out", out + "/g.txt"]),
    main(["search", "--family", "helm", "--m", "3", "--n", "1", "--out", out + "/search.json"]),
]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("antimagic"))]))
"""


def test_verbs_without_a_scheme_load_no_formula_table(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _VERBS_WITHOUT_TABLES, str(tmp_path)],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0]
    tables = {"antimagic.wheel", "antimagic.helm", "antimagic.flower", "antimagic.families"}
    assert tables.isdisjoint(loaded)
    assert "antimagic.search" in loaded  # the check sees what the verbs ran


# Runs label and export of one product of the family argv[2] through cli.main
# in one process and prints their exit codes and the package modules then loaded.
_FAMILY_VERBS = """
import json, sys
from antimagic.cli import main
out, family = sys.argv[1:]
codes = [
    main(["label", "--family", family, "--m", "3", "--n", "1", "--out", out + "/l.txt"]),
    main(["export", "--family", family, "--m", "3", "--n", "1", "--out", out + "/l.dot"]),
]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("antimagic"))]))
"""


@pytest.mark.parametrize("family, tables", [
    ("wheel", {"wheel"}),
    ("helm", {"helm"}),
    ("flower", {"flower", "helm"}),  # flower's citing branches cite helm's formulas
], ids=["wheel", "helm", "flower"])
def test_label_and_export_load_only_their_family_table(family, tables, tmp_path):
    proc = subprocess.run([sys.executable, "-c", _FAMILY_VERBS, str(tmp_path), family],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    scheme_modules = {"antimagic.wheel", "antimagic.helm", "antimagic.flower",
                      "antimagic.families"}
    assert scheme_modules & set(loaded) == {f"antimagic.{t}" for t in tables}


def test_family_choices_are_the_scheme_families():
    # --family is offered from the graph builders, the schemes are looked up by name
    assert sorted(graphs._FAMILY_BUILDERS) == sorted(families.CONFORMANCE)


@pytest.mark.parametrize("verb", ["construct", "label", "export", "search", "grid-report"])
def test_oversized_product_exits_3_before_construction(verb, monkeypatch, capsys):
    # q = 8 * 10^8 lies within MAX_INDEX but far over the edge budget
    def build(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(graphs, "build_family", build)
    monkeypatch.setattr(graphs, "build_star", build)
    assert main([verb, "--family", "flower", "--m", "10000", "--n", "10000"]) == 3
    err = capsys.readouterr().err
    assert "p=200030001" in err and "q=800000000" in err
    assert main([verb, "--family", "flower", "--m", "10001", "--n", "1"]) == 2


def test_oversized_grid_exits_3_before_any_cell(monkeypatch, capsys):
    # the grid's total is checked: m 3..10000 by n 1..10000 is 10^8 cells
    def conformance(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setitem(families.CONFORMANCE, "flower", conformance)
    args = ["grid-report", "--family", "flower", "--n", "1..10000"]
    assert main(args + ["--m", "3..10000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "p=5002499899880000 vertices and q=20003998999880000 edges in all" in err
    # an index out of range is still a usage error
    assert main(args + ["--m", "2..10000"]) == 2
    # the budget holds for the total: at it the cells run, one edge less refuses
    monkeypatch.setattr(graphs, "MAX_EDGES", 8 * 7 * 3)  # flower q = 8mn, m 3..4, n 1..2
    with pytest.raises(AssertionError, match="a cell was built"):
        main(["grid-report", "--family", "flower", "--m", "3..4", "--n", "1..2"])
    monkeypatch.setattr(graphs, "MAX_EDGES", 8 * 7 * 3 - 1)
    assert main(["grid-report", "--family", "flower", "--m", "3..4", "--n", "1..2"]) == 3


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export", "--family", "wheel", "--m", "3", "--n", "1",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph antimagic {")
    assert '"w0_0" [label="w0_0\\nsum=27"];' in text
    assert '[label="7"]' in text  # the hub spoke w0_0 -- w1_1
    # identical invocations are byte-identical
    out2 = tmp_path / "g2.dot"
    main(["export", "--family", "wheel", "--m", "3", "--n", "1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_label_coverage_exit_code(tmp_path):
    # the as-printed flower n=1 scheme has indeterminate cells
    proc = run_cli(["label", "--family", "flower", "--m", "3", "--n", "1",
                    "--variant", "as-printed"])
    assert proc.returncode == 3


def test_scheme_labeling_names_every_coverage_gap(capsys):
    gaps = "; ".join(flower_labels(3, 1, Variant.AS_PRINTED).coverage)
    assert gaps
    with pytest.raises(FormulaCoverageError) as exc:
        scheme_labeling("flower", 3, 1, Variant.AS_PRINTED)
    assert str(exc.value) == gaps
    assert main(["label", "--family", "flower", "--m", "3", "--n", "1",
                 "--variant", "as-printed"]) == 3
    assert capsys.readouterr() == ("", f"error: {gaps}\n")


def test_verify_reads_stdin():
    proc1 = run_cli(["label", "--family", "wheel", "--m", "3", "--n", "1"])
    assert proc1.returncode == 0
    proc2 = run_cli(["verify", "--in", "-"], input_text=proc1.stdout)
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["antimagic"] is True


def test_repeated_edge_line_is_a_usage_error(tmp_path):
    # the third edge line repeats the first; it must not parse into a
    # labeling that then fails verification for a duplicate label
    bad = tmp_path / "dup.txt"
    bad.write_text("3 2\nu0 u1 1\nu1 u2 2\nu0 u1 2\n")
    for verb in ("verify", "sums"):
        proc = run_cli([verb, "--in", str(bad)])
        assert proc.returncode == 2
        assert "line 4" in proc.stderr


@pytest.mark.parametrize("text, line", [
    pytest.param("3 2\nu0 u1 1\nu1 u2 1_0\n", 3, id="underscore-label"),
    pytest.param("3 2\nu0 u1 \uff12\nu1 u2 1\n", 2, id="full-width-label"),
    pytest.param("3 0_2\nu0 u1 1\nu1 u2 2\n", 1, id="underscore-header"),
])
def test_integers_not_written_by_str_are_usage_errors(tmp_path, capsys, text, line):
    # int() would read each as a valid labeling of the path u0-u1-u2
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    for verb in ("verify", "sums"):
        assert main([verb, "--in", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"line {line}:" in capsys.readouterr().err


def test_out_of_range_labels_are_evidence_not_errors(tmp_path):
    lab = tmp_path / "lab.txt"
    lab.write_text("3 2\nu0 u1 0\nu1 u2 -3\n")
    sums = tmp_path / "sums.txt"
    assert main(["sums", "--in", str(lab), "--out", str(sums)]) == 0
    assert sums.read_text() == "u0 0\nu1 -3\nu2 -3\n"
    report = tmp_path / "report.json"
    assert main(["verify", "--in", str(lab), "--out", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload["out_of_range_labels"] == [
        {"label": -3, "edge": "u1-u2"}, {"label": 0, "edge": "u0-u1"},
    ]


# Lines of tokens near the edge-list grammar, so that most examples get
# past the header and reach the edge and label checks.
_TOKENS = st.sampled_from(
    ["3", "2", "1", "0", "-3", "01", "1_0", "\uff12", "u0", "u1", "u2", "w1_0", "u1_0", "x", ""]
)
_NEAR_EDGE_LISTS = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=5).map(
    lambda lines: "\n".join(lines) + "\n"
)


@given(data=st.one_of(_NEAR_EDGE_LISTS, st.text(), st.binary()))
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_input_file_gives_an_exit_code(tmp_path, data):
    path = tmp_path / "in.txt"
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)
    for verb in ("verify", "sums"):
        assert main([verb, "--in", str(path), "--out", str(tmp_path / "out")]) in (0, 1, 2, 3)


# Command lines for the verbs that take a product: a small valid cell or
# grid (m <= 12, n <= 6), with at most one option replaced by a bad value.
_BAD = {
    "--family": ["pyramid", "Wheel"],
    "--m": ["2", "03", "1_0", "-3", "x", "10001"],
    "--n": ["0", "01", "-1", ""],
    "--variant": ["verbatim"],
}
_BAD_RANGE = {"--m": ["9..3", "3..", "2..4", "1_0..12"], "--n": ["2..1", "0..2", "..2"]}


@st.composite
def _product_argv(draw):
    verb = draw(st.sampled_from(["construct", "label", "export", "grid-report"]))
    options = {"--family": draw(st.sampled_from(["wheel", "helm", "flower"]))}
    m, n = draw(st.integers(3, 12)), draw(st.integers(1, 6))
    if verb == "grid-report":
        options["--m"] = f"{m}..{draw(st.integers(m, min(m + 3, 12)))}"
        options["--n"] = f"{n}..{draw(st.integers(n, min(n + 2, 6)))}"
    else:
        options["--m"], options["--n"] = str(m), str(n)
    if verb in ("label", "export"):
        options["--variant"] = draw(st.sampled_from(["errata", "as-printed"]))
    bad = draw(st.none() | st.sampled_from(list(options)))
    if bad is not None:
        pool = _BAD_RANGE if verb == "grid-report" and bad in _BAD_RANGE else _BAD
        options[bad] = draw(st.sampled_from(pool[bad]))
    return [verb, *(token for option in options.items() for token in option)]


@given(argv=_product_argv())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_any_product_command_gives_an_exit_code_and_output_that_reads_back(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code != 0:
        return
    text = out.getvalue()
    if argv[0] == "construct":
        # the labeled text of the same product, with each line's label dropped
        options = dict(zip(argv[1::2], argv[2::2]))
        g = graphs.product_graph(options["--family"], int(options["--m"]), int(options["--n"]))
        labeled = EdgeLabeling(dict(zip(g.edges, range(1, g.q + 1)))).to_text(g)
        assert text == "".join(" ".join(ln.split()[:2]) + "\n" for ln in labeled.splitlines())
    elif argv[0] == "label":
        g, labeling = parse_labeled_edge_list(text)
        assert labeling.to_text(g) == text
    elif argv[0] == "grid-report":
        records = [json.loads(line) for line in text.splitlines()]
        assert records and {r["family"] for r in records} == {argv[2]}
    else:
        assert text.startswith("graph antimagic {\n") and text.endswith("}\n")


# A hand-written labeled file mixing u and w vertices: label 0, label 9 > q,
# label 2 twice, labels 4..6 missing, and u1, w2_0, w10_0 sharing the sum 3,
# whose pairs name w2_0 before w10_0 (canonical order, not string order).
_MIXED = "7 6\nu0 u1 3\nu0 w2_0 2\nw2_0 w10_0 1\nw10_0 w1_1 2\nw1_1 u2 0\nu2 w3_0 9\n"

# sha256 of each invocation's stdout; a change that means to alter CLI
# output updates these and says so in CHANGES.md.
CLI_DIGESTS = {
    "construct": "412273fe150885ce652a32c1cd309c42812a08941fd6b378a266bee669a05588",
    "label": "dc8234184c564641d5801380e5f438c3bb67073d8183cd9add8f55fca5a7283c",
    "export": "71c44388e46741e90a22570b2e425387ffa3980ac53c258105637e43dcb414a1",
    "grid-report": "3c7c85c2d76456d2a3a5e555d8d1b8b49650802f60f82e835e392bd7d8ac201d",
    "verify": "5e1dd0203649b07fecb8fbe07d4b4985308dd09ed06761dcefee1bcc06f7fc57",
    "sums": "6253d54311368e99200fd9d0504ef4f0832870c80ee11b87dcf7d64b536bef0e",
    "verify-mixed": "3fb76182385f88d66a88d6241fdc046ded395e5ec24dd0412f3965fef60318b6",
    "search": "4a2cb80a99947b1a9ac15c7aecd37b0e21166a8aac58361621881e573b41bf55",
}


def test_cli_stdout_is_pinned(tmp_path, capsys):
    def run(argv, code):
        assert main(argv) == code
        return capsys.readouterr().out

    def product(verb, family, m, n):
        return [verb, "--family", family, "--m", str(m), "--n", str(n)]

    outputs = {
        "construct": run(product("construct", "helm", 5, 3), 0),
        "label": run(product("label", "flower", 4, 5), 0),
        "export": run(product("export", "wheel", 5, 2), 0),
        "grid-report": run(["grid-report", "--family", "flower", "--m", "3..6",
                            "--n", "1..5"], 0),
    }
    # flower 4x5 is the large-star even-m FAIL, with duplicate-label evidence
    labeled = tmp_path / "flower-4-5.txt"
    labeled.write_text(outputs["label"])
    outputs["verify"] = run(["verify", "--in", str(labeled)], 1)
    outputs["sums"] = run(["sums", "--in", str(labeled)], 0)
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(_MIXED)
    outputs["verify-mixed"] = run(["verify", "--in", str(mixed)], 1)
    outputs["search"] = run(product("search", "helm", 3, 1) + ["--seed", "3"], 0)
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}
    assert digests == CLI_DIGESTS
