"""The batch front door: round trips through serialized formats only."""

import json
import subprocess
import sys

from antimagic.cli import main

CLI = [sys.executable, "-m", "antimagic.cli"]


def run_cli(args, tmp_path=None, input_text=None):
    proc = subprocess.run(
        CLI + args, capture_output=True, text=True, input=input_text
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
    from antimagic.helm import label_helm_product
    from antimagic.labeling import verify_antimagic

    g = product_graph("helm", 4, 2)
    assert verify_antimagic(g, label_helm_product(4, 2)).antimagic is True


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


def test_search_cli_capacity_error():
    proc = run_cli(["search", "--family", "wheel", "--m", "3", "--n", "2",
                    "--strategy", "exhaustive"])
    assert proc.returncode == 3
    assert "local-search" in proc.stderr


def test_search_cli_local(tmp_path):
    out = tmp_path / "s.json"
    assert main(["search", "--family", "wheel", "--m", "3", "--n", "1",
                 "--strategy", "local-search", "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "found"
    assert payload["stats"]["iterations"] >= 0


def test_usage_errors():
    proc = run_cli(["label", "--family", "pyramid", "--m", "3", "--n", "1"])
    assert proc.returncode == 2
    proc = run_cli(["grid-report", "--family", "wheel", "--m", "9..3", "--n", "1"])
    assert proc.returncode == 2
    proc = run_cli(["label", "--family", "wheel", "--m", "2", "--n", "1"])
    assert proc.returncode == 2


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export", "--family", "wheel", "--m", "3", "--n", "1",
                 "--format", "dot", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph antimagic {")
    assert '"w0_0" [label="w0_0\\nsum=27"];' in text
    assert '[label="7"]' in text  # the hub spoke w0_0 -- w1_1
    # identical invocations are byte-identical
    out2 = tmp_path / "g2.dot"
    main(["export", "--family", "wheel", "--m", "3", "--n", "1",
          "--format", "dot", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_label_coverage_exit_code(tmp_path):
    # the as-printed flower n=1 scheme has indeterminate cells
    proc = run_cli(["label", "--family", "flower", "--m", "3", "--n", "1",
                    "--variant", "as-printed"])
    assert proc.returncode == 3


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
