"""Command-line behavior: exit codes, JSON shapes, and byte-stable output."""

import dataclasses
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import orientcorr
from orientcorr import (
    Triple,
    count_events,
    cycle_correlation,
    emit_graph6,
    exact_correlation,
    graph_from_edges,
    mc_estimate,
    parse_dyadic,
    path_graph,
    table_row,
)
from orientcorr import complete, dyadic
from orientcorr.closed_form import CycleTriple
from orientcorr.cli import _table_cells, build_parser, main
from support import diamond, ref_fraction_to_decimal, run_cli
from test_complete_graph import GOLDEN_ROWS

K4_G6 = "C~"
DIAMOND_EDGES = "4\n0 2\n0 3\n1 2\n1 3\n2 3\n"


# ---------------------------------------------------------------------------
# Exit codes

def test_usage_errors(capsys):
    assert run_cli(capsys, ["kn", "--n", "1"])[0] == 2
    assert run_cli(capsys, ["table", "--max-n", "1"])[0] == 2
    assert run_cli(capsys, ["cycle", "--n", "5", "--c", "0", "--d", "2"])[0] == 2
    assert run_cli(capsys, ["cycle", "--n", "5"])[0] == 2
    assert run_cli(capsys, ["cycle", "--n", "5", "--c", "1", "--a", "0"])[0] == 2
    assert run_cli(capsys, ["cycle", "--n", "5", "--a", "0"]) == (
        2, "", "cycle: all of --a/--s/--b are required\n")


def test_mc_zero_samples_exits_2(capsys, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_EDGES)
    code, _, err = run_cli(capsys, ["mc", "--edges", str(path), "--a", "0", "--s", "2",
                                    "--b", "1", "--samples", "0", "--seed", "1"])
    assert code == 2
    assert "--samples" in err


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kn"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, ["exact", "--graph6", "!!bad",
                                    "--a", "0", "--s", "1", "--b", "2"])
    assert code == 3
    assert "error:" in err
    assert run_cli(capsys, ["classify", "--graph6", "~~~"])[0] == 3


def test_over_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, ["--cap", "3", "exact", "--graph6", K4_G6,
                                    "--a", "0", "--s", "1", "--b", "2"])
    assert code == 4
    assert "Monte Carlo" in err


def test_forest_on_cyclic_graph_exits_2(capsys):
    code, _, err = run_cli(capsys, ["forest", "--graph6", "Bw",
                                    "--a", "0", "--s", "1", "--b", "2"])
    assert code == 2
    assert "cycle" in err


def test_classify_disconnected_needs_flag(capsys, monkeypatch):
    g6 = emit_graph6(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert run_cli(capsys, ["classify", "--graph6", g6])[0] == 2
    code, out, _ = run_cli(capsys, ["classify", "--graph6", g6, "--allow-disconnected"])
    assert code == 0
    assert "disconnected" in out
    # A stream always skips disconnected graphs, so there the flag is
    # refused, before any line is read, rather than ignored.
    monkeypatch.setattr(sys, "stdin", io.StringIO(g6 + "\n"))
    code, out, err = run_cli(capsys, ["classify", "--stream", "-", "--allow-disconnected"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "--allow-disconnected applies to --graph6 only" in err


def test_outerplanar_probe_cap_exits_4(capsys):
    # The probe has no vertex cap of its own: the 11-vertex path, once
    # refused with exit 4, gets a verdict.  Exit 4 on an outerplanarity
    # query now comes from the enumeration cap alone.
    g6 = emit_graph6(path_graph(11))
    code, out, err = run_cli(capsys, ["classify", "--graph6", g6, "--outerplanar"])
    assert (code, err) == (0, "")
    assert out.endswith("outerplanar: True\n")
    code, out, err = run_cli(capsys, ["--cap", "3", "classify", "--graph6", K4_G6,
                                      "--outerplanar"])
    assert (code, out) == (4, "")
    assert "enumeration cap" in err


def test_outerplanar_probe_cap_is_checked_before_the_census(capsys, monkeypatch):
    # The one cap left on `classify --outerplanar` is the census's own; a
    # graph over it stops there, before any outerplanarity work.
    def probe(*args, **kwargs):
        raise AssertionError("the probe ran on a graph over the enumeration cap")

    monkeypatch.setattr("orientcorr.cli.is_outerplanar", probe)
    g6 = emit_graph6(graph_from_edges(11, [(v, (v + 1) % 11) for v in range(11)]))
    code, out, err = run_cli(capsys, ["--cap", "10", "classify", "--graph6", g6,
                                      "--outerplanar"])
    assert (code, out) == (4, "")
    assert "enumeration cap of 10" in err


def test_outerplanar_probe_runs_past_ten_vertices(capsys):
    # JhCGGC@?G?_ is an 11-vertex tree, past the minor search's 10-vertex limit.
    code, out, err = run_cli(capsys, ["classify", "--graph6", "JhCGGC@?G?_",
                                      "--outerplanar"])
    assert (code, err) == (0, "")
    assert out.endswith("outerplanar: True\n")


@pytest.mark.parametrize("argv, code", [
    (["exact", "--edges", "{edges}", "--a", "0", "--s", "2", "--b", "1"], 0),
    (["mc", "--edges", "{edges}", "--a", "0", "--s", "2", "--b", "1",
      "--samples", "10", "--seed", "1"], 0),
    (["classify", "--stream", "{stream}"], 0),
    # The cap is checked before any file is opened.
    (["classify", "--stream", "{stream}", "--cap", "63"], 2),
    # A malformed edge file fails while it is open.
    (["exact", "--edges", "{bad_edges}", "--a", "0", "--s", "2", "--b", "1"], 3),
], ids=["exact-edges", "mc-edges", "classify-stream", "classify-stream-error",
        "exact-edges-error"])
def test_input_files_are_closed(capsys, tmp_path, monkeypatch, argv, code):
    edges = tmp_path / "diamond.txt"
    edges.write_text(DIAMOND_EDGES)
    stream = tmp_path / "graphs.g6"
    stream.write_text(K4_G6 + "\n")
    bad_edges = tmp_path / "bad.txt"
    bad_edges.write_text("4\n0 2\n0 x\n")
    # A file freed while open warns from its destructor; as an error there,
    # the warning goes to sys.unraisablehook rather than to the caller.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        got = run_cli(capsys, [a.format(edges=edges, stream=stream, bad_edges=bad_edges)
                               for a in argv])[0]
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []
    assert got == code


def test_missing_edge_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["exact", "--edges", "/no/such/file",
                                    "--a", "0", "--s", "1", "--b", "2"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# JSON output

def test_kn_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["--json", "kn", "--n", "5"])
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["scaled_single"] == "150"
    assert rec["scaled_joint"] == "26"
    assert rec["rel_cov"] == "0.154898"
    row = table_row(5)
    assert parse_dyadic(rec["p_single"]["exact"]) == row.p_single
    assert parse_dyadic(rec["p_joint"]["exact"]) == row.p_joint


def test_exact_integers_print_in_full_past_the_digit_limit(capsys):
    # Both values have about 6,000 digits, past the interpreter's default
    # 4,300-digit limit on int-to-str conversion (Python 3.10.7 and later).
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run_cli(capsys, ["kn", "--n", "200", "--json"])
    assert (code, err) == (0, "")
    assert get_limit() == limit  # restored when main returns
    scaled_single = json.loads(out)["scaled_single"]
    code, out, err = run_cli(capsys, ["--json", "cycle", "--n", "20000", "--c", "3", "--d", "4"])
    assert (code, err) == (0, "")
    p_c = json.loads(out)["p_c"]["exact"]
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert scaled_single == str(table_row(200).scaled_single)
        assert parse_dyadic(p_c) == cycle_correlation(CycleTriple(20000, 3, 4)).p_c
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, code", [
    (["kn", "--n", "1"], 2),
    (["exact", "--graph6", "!!bad", "--a", "0", "--s", "1", "--b", "2"], 3),
    (["--cap", "3", "exact", "--graph6", K4_G6, "--a", "0", "--s", "1", "--b", "2"], 4),
], ids=["usage", "parse", "over-cap"])
def test_digit_limit_is_restored_on_error_exits(capsys, argv, code):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    assert run_cli(capsys, argv)[0] == code
    assert get_limit() == limit


def test_kn_json_smallest_case(capsys):
    _, out, _ = run_cli(capsys, ["--json", "kn", "--n", "2"])
    rec = json.loads(out)
    assert rec["scaled_single"] == "1"
    assert rec["p_joint"] is None
    assert rec["scaled_joint"] is None
    assert rec["rel_cov"] is None


def test_table_json_matches_goldens(capsys):
    _, out, _ = run_cli(capsys, ["--json", "table", "--max-n", "13"])
    rec = json.loads(out)
    assert [r["n"] for r in rec["rows"]] == list(range(2, 14))
    for r in rec["rows"]:
        single, joint, rel = GOLDEN_ROWS[r["n"]]
        assert int(r["scaled_single"]) == single
        assert (int(r["scaled_joint"]) if r["scaled_joint"] is not None else None) == joint
        assert r["rel_cov"] == rel


def test_table_human_output(capsys):
    _, out, _ = run_cli(capsys, ["table", "--max-n", "13"])
    lines = out.splitlines()
    assert len(lines) == 13  # header + rows for n = 2..13
    assert lines[0].split() == ["n", "scaled_single", "p_single",
                                "scaled_joint", "p_joint", "rel_cov"]
    assert "148346259329909191680" in lines[-1]
    assert "0.339426" in lines[-1]


def test_exact_json_fields(capsys):
    g = diamond()
    t = Triple(0, 2, 1)
    _, out, _ = run_cli(capsys, ["--json", "exact", "--graph6", emit_graph6(g),
                                 "--a", "0", "--s", "2", "--b", "1"])
    rec = json.loads(out)
    counts = count_events(g, t)
    cor = exact_correlation(g, t)
    assert (rec["n_c"], rec["n_d"], rec["n_cd"]) == (counts.n_c, counts.n_d, counts.n_cd)
    assert parse_dyadic(rec["p_cd"]["exact"]) == cor.p_cd
    assert rec["cov"]["sign"] == 1
    assert rec["cov"]["magnitude"] == str(cor.cov.magnitude)
    assert rec["cov"]["float"] == pytest.approx(7 / 1024)


def test_cycle_json_fields(capsys):
    _, out, _ = run_cli(capsys, ["--json", "cycle", "--n", "5", "--c", "1", "--d", "1"])
    rec = json.loads(out)
    cor = cycle_correlation(CycleTriple(5, 1, 1))
    assert (rec["n"], rec["c"], rec["d"]) == (5, 1, 1)
    assert parse_dyadic(rec["p_c"]["exact"]) == cor.p_c
    assert rec["cov"]["sign"] == -1
    assert rec["cov"]["magnitude"] == "1/2^10"


def test_cycle_labels_below_three_vertices_exit_2(capsys):
    code, out, err = run_cli(capsys, ["cycle", "--n", "0", "--a", "0", "--s", "1", "--b", "2"])
    assert (code, out) == (2, "")
    assert err == "cycle: cycle needs at least 3 vertices, got 0\n"


def test_cycle_labels_out_of_range_exit_2(capsys):
    # Labels are checked as `exact` checks its triple, not reduced mod n.
    code, out, err = run_cli(capsys, ["cycle", "--n", "5", "--a", "7", "--s", "1", "--b", "3"])
    assert (code, out) == (2, "")
    assert err == "cycle: vertex 7 out of range for n=5\n"


def test_cycle_labeled_form(capsys):
    _, arcs, _ = run_cli(capsys, ["cycle", "--n", "6", "--c", "2", "--d", "1"])
    _, labels, _ = run_cli(capsys, ["cycle", "--n", "6", "--a", "0", "--s", "2", "--b", "3"])
    assert arcs == labels


def test_forest_json_fields(capsys):
    g6 = emit_graph6(path_graph(4))
    _, out, _ = run_cli(capsys, ["--json", "forest", "--graph6", g6,
                                 "--a", "0", "--s", "2", "--b", "3"])
    rec = json.loads(out)
    assert rec["kind"] == "independent"
    assert rec["p_c"]["exact"] == "1/2^2"
    assert rec["cov"]["sign"] == 0


def test_classify_json_fields(capsys):
    _, out, _ = run_cli(capsys, ["--json", "classify", "--graph6", K4_G6])
    rec = json.loads(out)
    assert rec["command"] == "classify"
    assert (rec["neg_triples"], rec["zero_triples"], rec["pos_triples"]) == (0, 24, 0)
    assert rec["class_i"] and rec["class_ii"] and rec["class_iii"]
    assert rec["disconnected"] is False


def test_classify_outerplanar_json(capsys):
    _, out, _ = run_cli(capsys, ["--json", "classify", "--graph6", K4_G6, "--outerplanar"])
    assert json.loads(out)["outerplanar"] is False


def test_mc_json_matches_library(capsys, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_EDGES)
    _, out, _ = run_cli(capsys, ["--json", "mc", "--edges", str(path),
                                 "--a", "0", "--s", "2", "--b", "1",
                                 "--samples", "2000", "--seed", "17"])
    rec = json.loads(out)
    est = mc_estimate(diamond(), Triple(0, 2, 1), 2000, 17)
    assert rec["count_c"] == est.count_c
    assert rec["count_neither"] == est.count_neither
    assert rec["count_neither"] == 2000 - rec["count_c"] - rec["count_d"] + rec["count_cd"]
    assert rec["cov_hat"] == pytest.approx(est.cov_hat)


def test_mc_graph6_equals_edges(capsys, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_EDGES)
    argv_tail = ["--a", "0", "--s", "2", "--b", "1", "--samples", "3000", "--seed", "5"]
    code_edges, by_edges, _ = run_cli(capsys, ["--json", "mc", "--edges", str(path)] + argv_tail)
    code_g6, by_g6, _ = run_cli(capsys, ["--json", "mc", "--graph6", emit_graph6(diamond())] + argv_tail)
    assert code_edges == code_g6 == 0
    assert by_g6 == by_edges
    assert json.loads(by_g6)["count_c"] == mc_estimate(diamond(), Triple(0, 2, 1), 3000, 5).count_c


def test_bounds_json(capsys):
    _, out, _ = run_cli(capsys, ["--json", "bounds", "--max-n", "8"])
    rec = json.loads(out)
    assert rec["all_ok"] is True
    rows = {r["n"]: r for r in rec["rows"]}
    assert rows[2]["joint_lower_ok"] is None
    assert rows[7]["margin_below_5"] is False
    assert rows[8]["margin_below_5"] is True


def test_bounds_failed_check_exits_5(capsys, monkeypatch):
    real = complete.bound_report

    def one_row_fails(n_max):
        rows = real(n_max)
        rows[3] = dataclasses.replace(rows[3], sum3_bound_ok=False)
        return rows

    assert run_cli(capsys, ["bounds", "--max-n", "8"])[0] == 0
    monkeypatch.setattr(complete, "bound_report", one_row_fails)
    code, out, err = run_cli(capsys, ["bounds", "--max-n", "8"])
    assert code == 5
    assert "FAIL" in out
    assert "at least one check failed" in err
    code, out, err = run_cli(capsys, ["--json", "bounds", "--max-n", "8"])
    assert code == 5
    assert err == "bounds: at least one check failed\n"
    rec = json.loads(out)
    assert rec["all_ok"] is False
    assert rec["rows"][3]["sum3_bound_ok"] is False


def test_cap_over_62_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["exact", "--graph6", K4_G6, "--a", "0", "--s", "1",
                                      "--b", "2", "--cap", "63"])
    assert code == 2
    assert out == ""
    assert "62" in err
    path = tmp_path / "graphs.g6"
    path.write_text("not-a-graph\nC~\n")
    code, out, err = run_cli(capsys, ["classify", "--stream", str(path), "--cap", "63"])
    assert code == 2
    assert out == ""
    assert "62" in err


@pytest.mark.parametrize("argv", [
    ["kn", "--n", "3"],
    ["table", "--max-n", "3"],
    ["bounds", "--max-n", "3"],
    ["cycle", "--n", "5", "--c", "1", "--d", "1"],
    ["forest", "--graph6", "Bg", "--a", "0", "--s", "1", "--b", "2"],
    ["exact", "--graph6", K4_G6, "--a", "0", "--s", "1", "--b", "2"],
    ["mc", "--graph6", K4_G6, "--a", "0", "--s", "1", "--b", "2",
     "--samples", "10", "--seed", "1"],
    ["classify", "--graph6", K4_G6],
], ids=lambda a: a[0])
@pytest.mark.parametrize("flag, value, message", [
    ("--threads", "-1", "error: thread count must be >= 0, got -1\n"),
    ("--cap", "63", "error: enumeration cap 63 is over the maximum of 62: counts of a walk "
                    "over more than 2^62 orientations overflow 64-bit integers\n"),
    ("--cap", "-1", "error: enumeration cap must be >= 0, got -1\n"),
], ids=["threads", "cap", "negative-cap"])
def test_bad_global_flags_exit_2_on_every_subcommand(capsys, argv, flag, value, message):
    # Subcommands that never walk or spawn threads still reject the flags.
    for where in ([flag, value] + argv, argv + [flag, value]):
        assert run_cli(capsys, where) == (2, "", message)


# ---------------------------------------------------------------------------
# Flag placement, stdin

def test_global_flags_work_on_either_side(capsys):
    _, before, _ = run_cli(capsys, ["--json", "kn", "--n", "4"])
    _, after, _ = run_cli(capsys, ["kn", "--n", "4", "--json"])
    assert before == after


def test_classify_stream_stdin(capsys, monkeypatch):
    stream = "Bw\nnot-a-graph\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    code, out, _ = run_cli(capsys, ["--json", "classify", "--stream", "-"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["type"] for r in records] == ["graph", "error", "summary"]
    assert all(r["schema_version"] == "1" for r in records[:-1])
    assert "schema_version" not in records[-1]
    assert records[-1]["graphs"] == 1


def test_classify_stream_file(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nC~\n")
    code, out, _ = run_cli(capsys, ["classify", "--stream", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("#0 Bw:")
    assert "classes=I" in lines[0]
    assert lines[2].startswith("summary:")


def test_classify_stream_separates_class_names(capsys, monkeypatch):
    # The path P3 and the star K1,4 are trees, in classes I and II; every
    # triple of K4 is independent, so it is in all three.
    monkeypatch.setattr(sys, "stdin", io.StringIO("BW\nD?{\nC~\n"))
    code, out, _ = run_cli(capsys, ["classify", "--stream", "-"])
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines()[:3]] == [
        "classes=I,II", "classes=I,II", "classes=I,II,III"]


def test_edges_stdin_equals_graph6(capsys, monkeypatch):
    argv_tail = ["--a", "0", "--s", "2", "--b", "1"]
    _, by_g6, _ = run_cli(capsys, ["exact", "--graph6", emit_graph6(diamond())] + argv_tail)
    monkeypatch.setattr(sys, "stdin", io.StringIO(DIAMOND_EDGES))
    _, by_edges, _ = run_cli(capsys, ["exact", "--edges", "-"] + argv_tail)
    assert by_g6 == by_edges


# ---------------------------------------------------------------------------
# Byte-stable output

STABLE_COMMANDS = [
    ["table", "--max-n", "10"],
    ["--json", "table", "--max-n", "10"],
    ["kn", "--n", "9"],
    ["exact", "--graph6", K4_G6, "--a", "0", "--s", "1", "--b", "2"],
    ["cycle", "--n", "8", "--c", "2", "--d", "3"],
    ["--json", "bounds", "--max-n", "12"],
    ["--json", "classify", "--graph6", "D?{"],
]


@pytest.mark.parametrize("argv", STABLE_COMMANDS, ids=lambda a: " ".join(a))
def test_consecutive_runs_are_identical(capsys, argv):
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


# sha256 of the stdout of the large K_n commands, as the Fraction-based
# code printed it.  The K_n values are computed in integers on every
# interpreter, so each Python the CI runs must print the same bytes.
KN_DIGESTS = {
    ("table", "--max-n", "200"): "0ff44283e86139c5e029f1940fc51b20c443c336b87c6c835abab4f3e50b58b5",
    ("table", "--max-n", "200", "--json"): "637a266c6e7f522f212501dd3a38f5c27ad9cefda92fbf7d455ded2701567bbd",
    ("bounds", "--max-n", "120"): "aa320d51e3774a9b7d4ab50a14c713540a7e34372060f0ebaf0aad66e4d3f56b",
    ("bounds", "--max-n", "120", "--json"): "cb030893c10c5dff43d0ecdce722b69517bbe8bc5e1f6c5f5f3395f0f6586a6d",
    ("kn", "--n", "300"): "9ec4530f70aa61d99a0ab0e6843bc4fd62d2cddf0503f69a7750d28e4936c1b6",
    ("kn", "--n", "300", "--json"): "78a5f13fc379cf98b20e09cc164f9b6e91a35c84fb4bd8db5902562214658404",
}


@pytest.mark.parametrize("argv", sorted(KN_DIGESTS), ids=" ".join)
def test_large_kn_output_is_pinned_by_digest(capsys, argv):
    code, out, err = run_cli(capsys, list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == KN_DIGESTS[argv]


@pytest.mark.parametrize("argv", [["bounds", "--max-n", "40"], ["table", "--max-n", "70"]],
                         ids=" ".join)
def test_kn_commands_build_no_fraction(capsys, monkeypatch, argv):
    # Every verdict and decimal of `bounds` and `table` is an integer
    # comparison or division; a Fraction would reduce by gcd for nothing.
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for module in (complete, dyadic):
        monkeypatch.setattr(module, "Fraction", counting)
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert built == []


def test_table_cells_match_the_fraction_rendering():
    # Row n = 300 prints integers of about 13,500 digits, past the
    # interpreter's default int-to-str limit, which main() lifts too.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for row in complete.table_rows(300):
            joint = row.p_joint is not None
            assert _table_cells(row) == (
                row.n,
                str(row.scaled_single),
                ref_fraction_to_decimal(row.p_single.as_fraction(), 4),
                str(row.scaled_joint) if joint else None,
                ref_fraction_to_decimal(row.p_joint.as_fraction(), 7) if joint else None,
                ref_fraction_to_decimal(Fraction(*row.rel_cov_ratio()), 6) if joint else None,
            ), row.n
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _triple_argv(*flags: str) -> list[str]:
    return ["exact", "--graph6", K4_G6, "--a", "0", "--s", "1", "--b", "2", *flags]


# Each global flag before and after the subcommand, each classify flag
# followed by the same command without it, and two argparse exits.  A
# `--cap 3` left over from an earlier call would make the plain `exact`
# exit 4.
IN_PROCESS_SEQUENCE = [
    _triple_argv(),
    ["--json", *_triple_argv()],
    _triple_argv("--json"),
    ["--cap", "3", *_triple_argv()],
    _triple_argv("--cap", "3"),
    ["--threads", "2", *_triple_argv()],
    _triple_argv("--threads", "2"),
    ["classify", "--graph6", K4_G6, "--outerplanar"],
    ["classify", "--graph6", K4_G6],
    ["classify", "--graph6", "C`", "--allow-disconnected"],
    ["classify", "--graph6", "C`"],
    ["kn"],
    ["--help"],
    _triple_argv(),
]


def _run_or_exit(capsys, argv: list[str]) -> tuple:
    """run_cli, with an argparse exit recorded as ("SystemExit", code)."""
    try:
        return run_cli(capsys, argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return ("SystemExit", exc.code), out.out, out.err


def test_no_state_crosses_in_process_calls(capsys):
    assert build_parser() is build_parser()
    first = {}
    for argv in IN_PROCESS_SEQUENCE + IN_PROCESS_SEQUENCE[::-1]:
        result = _run_or_exit(capsys, argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    codes = [first[tuple(argv)][0] for argv in IN_PROCESS_SEQUENCE]
    assert codes == [0, 0, 0, 4, 4, 0, 0, 0, 0, 0, 2,
                     ("SystemExit", 2), ("SystemExit", 0), 0]


# tests/data/cli_golden.json holds the stdout, stderr and exit code of each
# case as the CLI printed them before its records were built from the result
# dataclasses.  It pins the text and JSON output byte for byte, so it is
# never regenerated from the code it checks.  The two "classify outerplanar
# over 10 vertices" cases were rewritten when the probe lost its 10-vertex
# cap: the census lines of the uncapped command, as printed before, plus
# the verdict of an independent outerplanarity search.  In the two human
# "classify stream" cases only the `classes=` tokens were rewritten, when
# the roman names gained their `,` separator: before it, classes I and II
# printed as `III`, the name of the third class.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_matches_frozen_snapshot(capsys, monkeypatch, case):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"] or ""))
    assert run_cli(capsys, case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [
    ["exact", "--graph6", "D~{", "--a", "0", "--s", "1", "--b", "2"],
    ["--json", "classify", "--graph6", "C~"],
], ids=lambda a: " ".join(a))
def test_thread_count_does_not_change_output(capsys, argv):
    single = run_cli(capsys, argv + ["--threads", "1"])
    for threads in ("8", "0"):
        assert run_cli(capsys, argv + ["--threads", threads]) == single


def test_mc_thread_count_stable(capsys, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_EDGES)
    argv = ["--json", "mc", "--edges", str(path), "--a", "0", "--s", "2", "--b", "1",
            "--samples", "10001", "--seed", "3"]
    single = run_cli(capsys, argv + ["--threads", "1"])
    pooled = run_cli(capsys, argv + ["--threads", "8"])
    assert single == pooled


def _child_command() -> tuple[list[str], dict]:
    """The command line and environment that run the CLI in a child process.

    The declared entry point is the function `python -m orientcorr` runs, so
    a checkout without the installed wrapper still exercises the same code.
    The child imports the same copy of the package as this test.
    """
    script = shutil.which("orientcorr")
    command = [script] if script else [sys.executable, "-m", "orientcorr"]
    package_root = str(Path(orientcorr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return command, env


def test_console_script_smoke():
    # Plain text, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'orientcorr = "orientcorr.cli:main"' in scripts.splitlines()

    command, env = _child_command()
    proc = subprocess.run(command + ["kn", "--n", "3"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "p_single" in proc.stdout


def test_reader_closing_the_pipe_exits_141_quietly():
    # The reader takes the header line and goes.  The rest of the table,
    # about 290 KB and so past any pipe buffer, then meets a closed pipe.
    command, env = _child_command()
    with subprocess.Popen(command + ["table", "--max-n", "100"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split()[0] == b"n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def _child_stdout(argv: list[str], stdin: str | None = None) -> str:
    """The stdout of one whole CLI process, which must exit 0 and write no stderr."""
    command, env = _child_command()
    proc = subprocess.run(command + argv, env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    return proc.stdout


# numpy loads on a process's first kernel call.  In these runs that call
# also starts a pool of two threads.
@pytest.mark.parametrize("argv", [
    # K7: 16 sweep batches of 2,048 words.
    ["classify", "--graph6", "F~~~w", "--json"],
    # K5: 4 sample batches of 1,024 words.
    ["mc", "--graph6", "D~{", "--a", "0", "--s", "1", "--b", "2", "--samples", "200000", "--seed", "5"],
], ids=["classify K7", "mc K5"])
def test_first_kernel_call_of_a_process_can_start_the_pool(argv):
    assert _child_stdout(argv + ["--threads", "2"]) == _child_stdout(argv + ["--threads", "1"])


@pytest.mark.parametrize("name", ["exact edges stdin", "mc graph6 --json", "mc edges stdin",
                                  "classify outerplanar K5 --json"])
def test_first_kernel_call_of_a_process_matches_the_snapshot(name):
    [case] = [case for case in GOLDEN if case["name"] == name]
    assert _child_stdout(case["argv"] + ["--threads", "2"], case["stdin"]) == case["stdout"]
