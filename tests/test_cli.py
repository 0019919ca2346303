"""Command-line interface: every subcommand end to end on small inputs."""

import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nishigraph
from nishigraph import (Embedding, FeatureTable, LinearModel, SparseSym,
                        accuracy, predict_labels, qc, stratified_split,
                        synthetic_features, train_linear,
                        write_matrix_market)
from nishigraph.cli import main

from util import random_regular


def data_path(name):
    return str(resources.files("nishigraph").joinpath("data", name))


def run_cli(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse's refusal of the command line
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_lift_writes_matrices_and_summary(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "lift", data_path("h1.exp"), "--out",
                         str(tmp_path))
    assert rc == 0
    info = json.loads(out)
    assert info["n_checks"] == 14
    assert info["n_vars"] == 21
    assert info["n_edges"] == 42
    assert info["family"] == "toroidal"
    assert info["girth"] == 12
    assert info["check_degree_hist"] == {"3": 14}
    assert info["var_degree_hist"] == {"2": 21}
    assert (tmp_path / "A.mtx").exists()
    assert (tmp_path / "D.mtx").exists()


def test_cycles_on_short_girth_code(tmp_path, capsys):
    exp = tmp_path / "tiny.exp"
    exp.write_text("L=2\n0 0\n0 0\n")
    rc, out, _ = run_cli(capsys, "cycles", str(exp), "--max-len", "4")
    assert rc == 0
    info = json.loads(out)
    assert info["girth"] == 4
    assert info["count_by_length"] == {"4": 2}
    assert info["ace_by_length"] == {"4": {"0": 2}}


def test_cycles_census_of_h2_is_pinned(capsys):
    # the census as the unbounded DFS gave it, counts and ACE per length
    rc, out, _ = run_cli(capsys, "cycles", data_path("h2.exp"),
                         "--max-len", "10")
    assert rc == 0
    info = json.loads(out)
    assert info["girth"] == 4
    assert info["count_by_length"] == {"4": 41, "6": 164, "8": 656,
                                       "10": 4387}
    assert info["ace_by_length"] == {
        "4": {"3": 41},
        "6": {"3": 41, "6": 82, "9": 41},
        "8": {"3": 41, "6": 123, "9": 246, "12": 246},
        "10": {"6": 205, "9": 984, "12": 2132, "15": 1066}}


def test_ts_table_golden_comparison_is_advisory_clean(tmp_path, capsys):
    files = [data_path(n) for n in ("ts_4_2.txt", "ts_4_6.txt", "ts_9_2.txt")]
    rc, out, _ = run_cli(capsys, "ts-table", *files, "--golden", "--out",
                         str(tmp_path))
    assert rc == 0
    rows = json.loads(out)
    assert [r["label"] for r in rows] == ["TS(4,2)", "TS(4,6)", "TS(9,2)"]
    statuses = {c["status"] for r in rows for c in r["golden"]}
    assert "FAIL" not in statuses
    assert "ok" in statuses
    assert "advisory-mismatch" in statuses
    table = (tmp_path / "ts_table.csv").read_text().splitlines()
    assert table[0].startswith("file,label,rho,")
    assert len(table) == 4
    # every label holds a comma, so the CSV quotes it and still parses
    with open(tmp_path / "ts_table.csv", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert [len(row) for row in parsed] == [len(parsed[0])] * 4
    assert parsed[1][:2] == [files[0], "TS(4,2)"]


def test_ts_table_golden_marks_a_set_absent_from_the_panel(tmp_path, capsys):
    path = tmp_path / "ts_1_1.txt"
    path.write_text("1\n")
    rc, out, _ = run_cli(capsys, "ts-table", str(path), "--golden", "--out",
                         str(tmp_path))
    assert rc == 0
    [row] = json.loads(out)
    assert row["label"] == "TS(1,1)"
    assert row["golden"] == [{"cell": "*", "status": "no-reference"}]


def test_ts_table_reports_per_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    rc, out, _ = run_cli(capsys, "ts-table", str(bad))
    assert rc == 1
    rows = json.loads(out)
    assert "error" in rows[0]


def test_ts_table_error_row_names_the_file_and_line(tmp_path, capsys):
    good = data_path("ts_4_2.txt")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0 0\n1 1\n")
    rc, out, _ = run_cli(capsys, "ts-table", good, str(ragged))
    assert rc == 1
    rows = json.loads(out)
    assert rows[0]["label"] == "TS(4,2)"
    assert rows[1]["error"] == f"{ragged}: line 2: 2 cells, expected 3"


def test_beta_on_complete_graph_matrix(tmp_path, capsys):
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    rc, out, _ = run_cli(capsys, "beta", str(path), "--beta-lower", "1.5",
                         "--beta-upper", "3")
    assert rc == 0
    info = json.loads(out)
    assert info["quadratic_newton"]["beta_N"] == pytest.approx(2.0, abs=1e-4)
    assert info["quadratic_newton"]["converged"]
    assert info["bisection"]["beta_N"] == pytest.approx(2.0, abs=1e-4)
    assert info["call_ratio"] >= 3.0
    assert info["bracket"] == [1.5, 3.0]


def test_beta_default_brackets(tmp_path, capsys):
    # without bounds the bracket ladder starts an exponent file from
    # 1 + 1e-6 to twice the square root of its largest degree and a weighted
    # matrix from [0.05, 1]; both finders search that window and reach the
    # same root in either (on K4, where tanh(beta) (d - 1) = 1)
    rc, out, _ = run_cli(capsys, "beta", data_path("h2.exp"))
    assert rc == 0
    unweighted = json.loads(out)
    assert unweighted["bracket"] == [1 + 1e-6, 2 * math.sqrt(6)]
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    rc, out, _ = run_cli(capsys, "beta", str(path), "--weighted")
    assert rc == 0
    weighted = json.loads(out)
    assert weighted["bracket"] == [0.05, 1.0]
    for info, root in [(unweighted, 2.94116), (weighted, math.atanh(1 / 2))]:
        for method in ("quadratic_newton", "bisection"):
            assert info[method]["converged"]
            assert info[method]["beta_N"] == pytest.approx(root, abs=1e-5)
            assert info[method]["bracket"] == info["bracket"]
        assert info["call_ratio"] > 1


def test_beta_climbs_past_the_default_window_on_h3(capsys):
    # h3 lifts to a 15-regular graph, whose root rho(B) = 14 lies above the
    # starting window's 2 sqrt(15): the bracket ladder climbs to it, and
    # both finders reach it, each counting the ladder's four solves
    rc, out, _ = run_cli(capsys, "beta", data_path("h3.exp"))
    assert rc == 0
    info = json.loads(out)
    lo, hi = info["bracket"]
    assert 2 * math.sqrt(15) < lo < 14 < hi
    for method in ("quadratic_newton", "bisection"):
        assert info[method]["converged"]
        assert info[method]["beta_N"] == pytest.approx(14, abs=1e-5)
        assert info[method]["bracket"] == [lo, hi]
    assert (info["quadratic_newton"]["eigensolver_calls"],
            info["bisection"]["eigensolver_calls"]) == (6, 27)


def test_beta_finds_the_nontrivial_root_of_h1_without_a_window(capsys):
    # lambda_min at the window's lower end 1 + 1e-6 lies within eps of 0
    # (H(1) is the Laplacian), but the ends change sign: the root inside,
    # sqrt(2), wins over the trivial one
    rc, out, _ = run_cli(capsys, "beta", data_path("h1.exp"))
    assert rc == 0
    info = json.loads(out)
    assert info["bracket"][0] == 1 + 1e-6
    qn, bis = info["quadratic_newton"], info["bisection"]
    assert qn["converged"] and abs(qn["beta_N"] - math.sqrt(2)) <= 1e-6
    assert bis["converged"] and bis["beta_N"] == pytest.approx(math.sqrt(2),
                                                               abs=1e-5)


def test_beta_on_a_regular_graph_whose_root_maps_the_start_to_zero(tmp_path,
                                                                    capsys):
    # on a 3-regular graph on 450 vertices H(2) = 6I - 2A maps the all-ones
    # Lanczos start to zero; the solve restarts and both finders reach 2
    A = SparseSym(450, [(i, j, 1.0) for i, j in random_regular(450, 3, 0)])
    path = tmp_path / "reg450.mtx"
    write_matrix_market(A, str(path))
    rc, out, err = run_cli(capsys, "beta", str(path), "--beta-lower", "1.5",
                           "--beta-upper", "2.5")
    assert (rc, err) == (0, "")
    info = json.loads(out)
    for method in ("quadratic_newton", "bisection"):
        assert info[method]["converged"]
        assert info[method]["beta_N"] == pytest.approx(2.0, abs=1e-6)


def test_lift_reports_the_girth_of_a_large_lift(tmp_path, capsys,
                                               monkeypatch):
    # the 5,200-vertex, 39,000-edge h3 lift: the girth comes from the walk
    # DP, with no BFS over the lift (which takes over a minute)
    monkeypatch.setattr(qc, "girth", None)
    rc, out, _ = run_cli(capsys, "lift", data_path("h3.exp"), "--out",
                         str(tmp_path))
    assert rc == 0
    assert json.loads(out)["girth"] == 6


@pytest.mark.parametrize("flags, message", [
    (["--synthetic", "10,100,1280"], "--synthetic K,per_class,dim,separation"),
    ([], "--features or --synthetic required"),
])
def test_pipeline_without_usable_input_is_a_clean_error(tmp_path, capsys,
                                                         flags, message):
    rc, out, err = run_cli(capsys, "pipeline", *flags, "--out", str(tmp_path))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_beta_reports_missing_bracket(tmp_path, capsys):
    # a path graph stays positive definite: explicit bracket has no root
    A = SparseSym(3, [(0, 1, 1.0), (1, 2, 1.0)])
    path = tmp_path / "p3.mtx"
    write_matrix_market(A, str(path))
    rc, out, err = run_cli(capsys, "beta", str(path), "--weighted",
                           "--beta-lower", "0.1", "--beta-upper", "0.2")
    assert rc == 1
    assert err.startswith("error:")


def test_beta_without_a_sign_change_on_the_ladder_is_a_clean_error(tmp_path,
                                                                    capsys):
    # a unit-coupling path stays positive definite until its couplings
    # saturate, and an unweighted forest lift for every beta the ladder's
    # growth steps reach: with no window the ladder finds no sign change,
    # and neither finder's trace is printed
    A = SparseSym(5, [(k, k + 1, 1.0) for k in range(4)])
    path = tmp_path / "p5.mtx"
    write_matrix_market(A, str(path))
    forest = tmp_path / "forest.exp"
    forest.write_text("L=5\n0 -1\n-1 0\n")
    for argv in ([str(path), "--weighted"], [str(forest)]):
        rc, out, err = run_cli(capsys, "beta", *argv)
        assert (rc, out) == (1, "")
        assert err == ("error: no sign change of lambda_min on the bracket "
                       "ladder\n")


_EPS = "eps must be positive and finite"
_WINDOW = "need 0 < beta_lower < beta_upper < inf"
_GAMMA = "gamma must be positive and finite"
_SPLIT = "test_fraction must be in (0, 1)"
_SEPARATION = "separation must be finite"


@pytest.mark.parametrize("argv, message", [
    (["beta", data_path("h2.exp"), "--eps", "nan"], _EPS),
    (["beta", data_path("h2.exp"), "--eps", "inf"], _EPS),
    (["beta", data_path("h2.exp"), "--beta-lower", "1.5", "--beta-upper",
      "inf"], _WINDOW),
    (["beta", data_path("h2.exp"), "--beta-lower", "nan", "--beta-upper",
      "3"], _WINDOW),
    (["embed", "FEATURES", "-r", "5", "--gamma", "nan"], _GAMMA),
    (["embed", "FEATURES", "-r", "5", "--gamma", "inf"], _GAMMA),
    (["embed", "FEATURES", "-r", "5", "--beta-lower", "0.05", "--beta-upper",
      "0.5", "--eps", "nan"], _EPS),
    (["pipeline", "--synthetic", "3,10,8,8.0", "-r", "5", "--test-fraction",
      "1.5"], _SPLIT),
    (["pipeline", "--synthetic", "3,10,8,8.0", "-r", "5", "--test-fraction",
      "-0.5"], _SPLIT),
    (["pipeline", "--synthetic", "3,10,8,8.0", "-r", "5", "--test-fraction",
      "nan"], _SPLIT),
    (["pipeline", "--synthetic", "0,20,32,8"],
     "n_classes must be >= 1 and an integer, got 0"),
    (["pipeline", "--synthetic", "3,0,32,8"],
     "per_class must be >= 1 and an integer, got 0"),
    (["pipeline", "--synthetic", "3.7,20,32,8"],
     "--synthetic K,per_class,dim,separation"),
    (["pipeline", "--synthetic", "3,20,32,nan"], _SEPARATION),
    (["pipeline", "--synthetic", "3,20,32,inf"], _SEPARATION)])
def test_malformed_input_is_a_clean_error(tmp_path, capsys, argv, message):
    # a NaN or infinite tolerance, window, kernel width, split fraction or
    # separation, and a count that is not a positive integer, each stop the
    # command with one line naming it, before any output
    feat = tmp_path / "features.csv"
    synthetic_features(3, 10, 8, separation=8.0, seed=5).to_csv(str(feat))
    argv = [str(feat) if a == "FEATURES" else a for a in argv]
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["zeta", "K4P", "--u", "0.1,nan"], "u = nan is not finite"),
    (["zeta", "K4P", "--j0", "nan"], "J0 = nan is not finite"),
    (["beta", data_path("h2.exp"), "--weighted"],
     "--weighted needs a .mtx file of couplings; an exponent file's lift "
     "has none"),
    (["beta", "K4D", "--weighted"], "self-loop (0,0) not allowed"),
    (["pipeline", "--synthetic", "3,20,32,8", "-r", "5", "--arbiter"],
     "unrecognized arguments: --arbiter"),
    (["beta", "EMPTY", "--weighted"], "empty matrix has no eigenvalues"),
    (["cycles", data_path("h2.exp"), "--max-len", "-2"],
     "max_len must be >= 0 and an integer, got -2"),
    *((["--config", name, "cycles", data_path("h2.exp")], f"DIR/{name}: {m}")
      for name, m in (("LIST", "not a JSON object"),
                      ("STRING", "not a JSON object"),
                      ("BAD", "Expecting property name enclosed in double "
                              "quotes: line 1 column 2 (char 1)"),
                      ("STRAY", "no option takes the key 'gama'"),
                      ("THRESHOLD", "no option takes the key 'threshold'"),
                      ("ARBITER", "no option takes the key 'arbiter'"))),
    (["ensemble", "E0.csv", "E1.csv", "E2.csv", "--labels", "L.txt",
      "--threshold", "0.2"], "unrecognized arguments: --threshold 0.2")])
def test_refused_value_or_flag_is_a_clean_error(tmp_path, capsys, argv,
                                                message):
    # a NaN evaluation point or J0, --weighted on an exponent file, which
    # has no couplings to weigh, a weighted diagonal entry, a 0 x 0 coupling
    # matrix, a negative cycle length, and a config that is not a JSON
    # object or holds a key no option takes, each stop the command with one
    # line, before any output; a flag no option takes is argparse's to
    # refuse, after its usage and with exit status 2
    k4 = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    files = {"K4P": SparseSym(5, k4 + [(3, 4, 1.0)]),
             "K4D": SparseSym(4, k4 + [(0, 0, 5.0)]),
             "EMPTY": SparseSym(0, [])}
    for name, A in files.items():
        write_matrix_market(A, str(tmp_path / f"{name}.mtx"))
    configs = {"LIST": "[1, 2]", "STRING": '"x"', "BAD": "{gamma: 1}",
               "STRAY": '{"gamma": 1.0, "gama": 1}',
               "THRESHOLD": '{"threshold": 0.2}',
               "ARBITER": '{"arbiter": true}'}
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / f"{a}.mtx") if a in files
            else str(tmp_path / a) if a in configs else a for a in argv]
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    message = message.replace("DIR", str(tmp_path))
    status = 1
    if message.startswith("unrecognized arguments: "):
        usage, _, err = err.rpartition("nishigraph: ")
        assert usage.startswith("usage: nishigraph ")
        status = 2
    assert (rc, out, err) == (status, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("beta", ["--beta-lower", "1.5"]),
    ("beta", ["--beta-upper", "3"]),
    ("embed", ["--beta-lower", "0.01"]),
    ("embed", ["--beta-upper", "3"]),
    ("embed", ["--eps", "1e-12"])])
def test_flag_that_would_be_ignored_is_a_clean_error(tmp_path, capsys,
                                                     command, flags):
    # a lone bound, or embed's --eps without both bounds, would change
    # nothing: it is refused instead
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    feat = tmp_path / "features.csv"
    synthetic_features(3, 10, 8, separation=8.0, seed=5).to_csv(str(feat))
    rc, out, err = run_cli(capsys, command,
                           str(path if command == "beta" else feat), *flags,
                           "--out", str(tmp_path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1
    assert not (tmp_path / "embedding.csv").exists()


@pytest.mark.parametrize("command", ["classify", "ensemble"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_label_count_mismatch_is_a_clean_error(tmp_path, capsys, command,
                                               extra):
    emb = tmp_path / "emb.csv"
    Embedding(np.random.default_rng(0).standard_normal((12, 3)), 1.0).to_csv(
        str(emb))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{k % 2}\n" for k in range(12 + extra)))
    argv = ([str(emb), str(labels)] if command == "classify"
            else [str(emb)] * 3 + ["--labels", str(labels)])
    rc, out, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: {labels}: {12 + extra} labels for 12 rows\n"


@pytest.mark.parametrize("rows", [57, 63])
def test_embeddings_of_different_lengths_are_a_clean_error(tmp_path, capsys,
                                                           monkeypatch, rows):
    # refused before any training, naming every file and its row count
    def train(*args):
        raise AssertionError("trained on embeddings of different lengths")

    monkeypatch.setattr(nishigraph.cli, "evaluate_ensemble", train)
    rng = np.random.default_rng(0)
    embs = [tmp_path / f"E{k}.csv" for k in range(3)]
    for emb, n in zip(embs, (60, 60, rows)):
        Embedding(rng.standard_normal((n, 3)), 1.0).to_csv(str(emb))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{k % 2}\n" for k in range(60)))
    rc, out, err = run_cli(capsys, "ensemble", *map(str, embs),
                           "--labels", str(labels))
    assert (rc, out) == (1, "")
    assert err == (f"error: embeddings differ in row count: {embs[0]} has 60, "
                   f"{embs[1]} has 60, {embs[2]} has {rows}\n")


@pytest.mark.parametrize("command", ["classify", "ensemble"])
def test_label_that_is_not_an_integer_is_a_clean_error(tmp_path, capsys,
                                                       command):
    emb = tmp_path / "emb.csv"
    Embedding(np.random.default_rng(0).standard_normal((4, 3)), 1.0).to_csv(
        str(emb))
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n\n x \n1\n")
    argv = ([str(emb), str(labels)] if command == "classify"
            else [str(emb)] * 3 + ["--labels", str(labels)])
    rc, out, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert out == ""
    assert err == (f"error: {labels}: line 4: expected an integer label, "
                   "found 'x'\n")


@pytest.mark.parametrize("command", ["classify", "ensemble", "pipeline"])
@pytest.mark.parametrize("bad", ["-1", str(2 ** 70)])
def test_label_out_of_range_is_a_clean_error(tmp_path, capsys, command, bad):
    ft, labels = unlabelled_features(tmp_path)
    lines = labels.read_text().splitlines()
    lines[2] = bad
    labels.write_text("\n".join(lines) + "\n")
    if command == "pipeline":
        features = tmp_path / "f.csv"
        ft.to_csv(str(features))
        argv = ["--features", str(features), "--labels", str(labels), "-r",
                "5", "--out", str(tmp_path)]
    else:
        emb = tmp_path / "emb.csv"
        Embedding(ft.X[:, :3], 1.0).to_csv(str(emb))
        argv = ([str(emb), str(labels)] if command == "classify"
                else [str(emb)] * 3 + ["--labels", str(labels)])
    rc, out, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert out == ""
    assert err == (f"error: {labels}: line 3: label {bad} is not in "
                   "[0, 2**63)\n")


def unlabelled_features(tmp_path):
    """Three separated classes without labels, and their label file."""
    ft = synthetic_features(3, 20, 32, separation=8.0, seed=5)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{int(y)}\n" for y in ft.labels))
    return FeatureTable(ft.X), labels


def test_pipeline_on_a_non_finite_raw_cell_is_a_clean_error(tmp_path,
                                                           capsys):
    ft, labels = unlabelled_features(tmp_path)
    X = ft.X.copy()
    X[7, 3] = np.nan
    raw = tmp_path / "x.raw"
    # written by hand, as FeatureTable itself refuses the cell
    raw.write_bytes(X.astype("<f4").tobytes())
    (tmp_path / "x.raw.json").write_text(json.dumps({"rows": len(X),
                                                     "cols": X.shape[1]}))
    rc, out, err = run_cli(capsys, "pipeline", "--features", str(raw),
                           "--labels", str(labels), "-r", "5", "--out",
                           str(tmp_path))
    assert rc == 1
    assert out == ""
    assert err == f"error: {raw}: row 8: non-finite value\n"
    ft.to_raw(str(raw))
    rc, out, _ = run_cli(capsys, "pipeline", "--features", str(raw),
                         "--labels", str(labels), "-r", "5", "--out",
                         str(tmp_path))
    assert rc == 0
    assert json.loads(out)["ensemble_accuracy"] >= 0.9


def test_pipeline_without_labels_is_a_clean_error(tmp_path, capsys):
    ft, _ = unlabelled_features(tmp_path)
    features = tmp_path / "f.csv"
    ft.to_csv(str(features))
    rc, out, err = run_cli(capsys, "pipeline", "--features", str(features),
                           "-r", "5", "--out", str(tmp_path))
    assert rc == 1
    assert out == ""
    assert err == (f"error: {features}: the file holds no labels; give them "
                   "with --labels\n")


def test_beta_on_truncated_matrix_is_a_clean_error(tmp_path, capsys):
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    lines = path.read_text().splitlines()
    # cut the file inside its last entry line (line 8 of 8)
    path.write_text("\n".join(lines[:-1] + [lines[-1].split()[0]]) + "\n")
    rc, out, err = run_cli(capsys, "beta", str(path), "--beta-lower", "1.5",
                           "--beta-upper", "3")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "line 8" in err


@pytest.mark.parametrize("command", ["beta", "zeta"])
def test_non_finite_matrix_entry_is_a_clean_error(tmp_path, capsys, command):
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 2\n2 1 1.0\n3 2 nan\n")
    rc, out, err = run_cli(capsys, command, str(path))
    assert rc == 1
    assert out == ""
    assert err == f"error: {path}: line 4: entry (3,2) value nan is not finite\n"


def test_zeta_on_a_byte_that_is_not_utf8_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "c.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                     b"% caf\xe9\n2 2 1\n2 1 1.0\n")
    rc, out, err = run_cli(capsys, "zeta", str(path))
    assert rc == 1
    assert out == ""
    assert err == f"error: {path}: line 2: byte 0xe9 is not UTF-8\n"


def test_zeta_square_cycle(tmp_path, capsys):
    A = SparseSym(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    path = tmp_path / "c4.mtx"
    write_matrix_market(A, str(path))
    rc, out, _ = run_cli(capsys, "zeta", str(path), "--u", "0.1,0.3")
    assert rc == 0
    info = json.loads(out)
    assert len(info["poles"]) == 4
    assert all(abs(math.hypot(re, im) - 1.0) < 1e-9
               for re, im in info["poles"])
    assert all(r < 1e-9 for r in info["residuals"].values())
    assert info["no_crossing"] is True


def test_zeta_on_an_empty_graph(tmp_path, capsys):
    # a 0 x 0 matrix has no pole and no crossing, and both sides of each
    # identity are the empty determinant, 1
    path = tmp_path / "empty.mtx"
    write_matrix_market(SparseSym(0, []), str(path))
    rc, out, _ = run_cli(capsys, "zeta", str(path), "--u", "0.3")
    assert rc == 0
    assert json.loads(out) == {"poles": [], "residuals": {"0.3": 0.0},
                               "loose_form_residuals": {"0.3": 0.0},
                               "crossings": [], "no_crossing": True}


def test_zeta_reports_solves_per_crossing(tmp_path, capsys):
    # K4 is 3-regular: det H changes sign at the Perron pole u = 1/2
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    rc, out, _ = run_cli(capsys, "zeta", str(path))
    assert rc == 0
    crossings = json.loads(out)["crossings"]
    assert [c["u"] for c in crossings] == pytest.approx([0.5], abs=1e-12)
    assert all(c["solves"] > 0 for c in crossings)


def test_embed_classify_round_trip(tmp_path, capsys):
    ft = synthetic_features(3, 20, 32, separation=8.0, seed=5)
    feat = tmp_path / "features.csv"
    ft.to_csv(str(feat))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{int(y)}\n" for y in ft.labels))
    rc, out, _ = run_cli(capsys, "embed", str(feat), "--gamma", "2.0", "--p",
                         "6", "-r", "5", "--out", str(tmp_path))
    assert rc == 0
    info = json.loads(out)
    assert info["rows"] == 60 and info["r"] == 5
    emb_path = tmp_path / "embedding.csv"
    assert emb_path.exists()
    rc, out, _ = run_cli(capsys, "classify", str(emb_path), str(labels),
                         "--out", str(tmp_path / "model"))
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["test_accuracy"] >= 0.9
    assert set(metrics["per_class"]) == {"0", "1", "2"}
    # --out writes the trained model: read back, it predicts what the
    # command's model predicts, and scores its reported test accuracy
    model = LinearModel.from_json((tmp_path / "model" / "model.json").read_text())
    coords = Embedding.from_csv(str(emb_path)).coords
    y = np.array([int(v) for v in ft.labels])
    train_idx, test_idx = stratified_split(y, 0.25, 0)
    pred = predict_labels(model, coords)
    assert np.array_equal(pred, predict_labels(
        train_linear(coords[train_idx], y[train_idx], seed=0), coords))
    assert accuracy(y[test_idx], pred[test_idx]) == metrics["test_accuracy"]


@pytest.mark.parametrize("text, line", [
    ("", 1),                                     # empty file
    ("e0,e1\n1,2\n3\n", 3),                     # short row
    ("e0,e1\n1,2\n\n3,x\n", 4),                  # non-numeric cell
    ("e0,e1\n1,2\n\n3,4\nnan,1\n", 5)])          # non-finite cell
@pytest.mark.parametrize("command", ["embed", "classify"])
def test_malformed_csv_is_a_clean_error(tmp_path, capsys, command, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    argv = [str(path)] if command == "embed" else [str(path), str(labels)]
    rc, out, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{path}: line {line}:" in err


@pytest.mark.parametrize("sidecar", ['{"rows": 2}', '[2, 2]', "not json",
                                     '{"rows": Infinity, "cols": 1}',
                                     '{"rows": -2, "cols": -2}'])
def test_bad_raw_sidecar_is_a_clean_error(tmp_path, capsys, sidecar):
    path = tmp_path / "x.raw"
    path.write_bytes(b"\x00" * 16)
    (tmp_path / "x.raw.json").write_text(sidecar)
    rc, out, err = run_cli(capsys, "embed", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{path}.json:" in err


def test_pipeline_and_ensemble_commands(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc, out, _ = run_cli(capsys, "pipeline", "--synthetic", "3,20,32,8.0",
                         "--seed", "5", "-r", "5", "--out", str(out_dir))
    assert rc == 0
    result = json.loads(out)
    assert result["ensemble_accuracy"] >= 0.9
    assert (out_dir / "confusion.csv").exists()
    assert (out_dir / "metrics_table.csv").exists()
    embs = sorted(p.name for p in out_dir.glob("embedding_*.csv"))
    assert embs == ["embedding_graph0.csv", "embedding_graph1.csv",
                    "embedding_graph2.csv"]
    ft = synthetic_features(3, 20, 32, separation=8.0, seed=5)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{int(y)}\n" for y in ft.labels))
    rc, out, _ = run_cli(capsys, "ensemble",
                         str(out_dir / "embedding_graph0.csv"),
                         str(out_dir / "embedding_graph1.csv"),
                         str(out_dir / "embedding_graph2.csv"),
                         "--labels", str(labels))
    assert rc == 0
    ens = json.loads(out)
    assert ens["ensemble_accuracy"] >= 0.9
    assert len(ens["per_graph_accuracy"]) == 3


@pytest.mark.parametrize("mode", ["majority", "soft"])
def test_ensemble_command_reproduces_the_pipeline(tmp_path, capsys, mode):
    # overlapping classes, so that accuracies below 1 are compared
    spec, seed = "4,25,32,2.0", "3"
    rc, out, _ = run_cli(capsys, "pipeline", "--synthetic", spec, "--seed",
                         seed, "-r", "5", "--mode", mode, "--out",
                         str(tmp_path))
    assert rc == 0
    result = json.loads(out)
    assert result["ensemble_accuracy"] < 1
    ft = synthetic_features(4, 25, 32, separation=2.0, seed=3)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{int(y)}\n" for y in ft.labels))
    rc, out, _ = run_cli(capsys, "ensemble",
                         *[str(tmp_path / f"embedding_graph{k}.csv")
                           for k in range(3)],
                         "--labels", str(labels), "--seed", seed, "--mode", mode)
    assert rc == 0
    ens = json.loads(out)
    assert ens == {k: result[k] for k in ("per_graph_accuracy",
                                          "ensemble_accuracy", "mode")}


def test_ensemble_command_takes_embeddings_of_three_widths(tmp_path, capsys):
    # 3, 4 and 5 columns train as three stacks of one; each model is the
    # one-set train_linear call seeded seed + k
    rng = np.random.default_rng(2)
    y = np.repeat([0, 1, 2], 20)
    centers = np.eye(3, 5)
    coords = [rng.standard_normal((60, w)) + 1.2 * centers[y, :w]
              for w in (3, 4, 5)]
    paths = [str(tmp_path / f"emb{k}.csv") for k in range(3)]
    for X, path in zip(coords, paths):
        Embedding(X, 1.0).to_csv(path)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{c}\n" for c in y))
    rc, out, _ = run_cli(capsys, "ensemble", *paths, "--labels", str(labels),
                         "--seed", "4")
    assert rc == 0
    train_idx, test_idx = stratified_split(y, 0.25, 4)
    expected = [accuracy(y[test_idx], predict_labels(
        train_linear(X[train_idx], y[train_idx], seed=4 + k), X[test_idx]))
        for k, X in enumerate(coords)]
    assert json.loads(out)["per_graph_accuracy"] == expected
    assert min(expected) < 1


def test_config_file_overrides_defaults(tmp_path, capsys):
    ft = synthetic_features(2, 12, 16, separation=8.0, seed=1)
    feat = tmp_path / "f.csv"
    ft.to_csv(str(feat))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"r": 4, "p": 5}')
    rc, out, _ = run_cli(capsys, "embed", str(feat), "--config", str(cfg),
                         "--out", str(tmp_path))
    assert rc == 0
    assert json.loads(out)["r"] == 4
    # one config serves every subcommand: cycles' max_len is no stray key
    cfg.write_text('{"r": 4, "p": 5, "max_len": 6}')
    rc, out, _ = run_cli(capsys, "embed", str(feat), "--config", str(cfg),
                         "--out", str(tmp_path))
    assert rc == 0


@pytest.mark.parametrize("config, argv, status, message", [
    ('{"max_len": 8.0}', ["cycles", data_path("h2.exp")], 2,
     "argument --max-len: invalid int value: '8.0'"),
    ('{"seed": 1.5}', ["pipeline", "--synthetic", "3,10,8,8.0"], 2,
     "argument --seed: invalid int value: '1.5'"),
    ('{"test_fraction": [1]}', ["pipeline", "--synthetic", "3,10,8,8.0"], 1,
     "CFG: the key 'test_fraction' takes a number or a string, got [1]"),
    ('{"r": true}', ["pipeline", "--synthetic", "3,10,8,8.0"], 1,
     "CFG: the key 'r' takes a number or a string, got true"),
    ('{"golden": 1}', ["cycles", data_path("h2.exp")], 1,
     "CFG: the key 'golden' takes true or false, got 1"),
    ('{"files": "ts_4_2.txt"}', ["ts-table"], 1,
     'CFG: the key \'files\' takes a list of strings, got "ts_4_2.txt"')])
def test_config_value_is_refused_as_command_line_text_is(tmp_path, capsys,
                                                         config, argv, status,
                                                         message):
    # argparse converts only a string default, so a config value goes in as
    # text: a value the option's type refuses gets the usage line and exit
    # status 2, as on the command line, and a value of the wrong JSON kind
    # is refused in one line naming the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    rc, out, err = run_cli(capsys, "--config", str(cfg), *argv, "--out",
                           str(tmp_path / "out"))
    if status == 2:
        usage, _, err = err.rpartition(": error: ")
        assert usage.startswith("usage: nishigraph")
        err = "error: " + err
    assert (rc, out, err) == (status, "",
                              f"error: {message.replace('CFG', str(cfg))}\n")
    assert not (tmp_path / "out").exists()


def test_config_values_of_other_json_kinds_act_as_their_text(tmp_path, capsys):
    A = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.mtx"
    write_matrix_market(A, str(path))
    cfg = tmp_path / "cfg.json"
    files = [data_path(n) for n in ("ts_4_2.txt", "ts_4_6.txt")]
    for config, argv, flags in (
            ({"u": 0.25}, ["zeta", str(path)], ["--u", "0.25"]),
            ({"max_len": 6}, ["cycles", data_path("h2.exp")],
             ["--max-len", "6"]),
            ({"files": files, "golden": True}, ["ts-table"],
             [*files, "--golden"])):
        cfg.write_text(json.dumps(config))
        expected = run_cli(capsys, *argv, *flags)
        assert expected[0] == 0
        assert run_cli(capsys, "--config", str(cfg), *argv) == expected


def test_missing_input_file_is_a_clean_error(capsys):
    rc, _, err = run_cli(capsys, "lift", "/nonexistent/file.exp")
    assert rc == 1
    assert err.startswith("error:")


def test_python_dash_m_runs_the_cli_from_a_source_tree(tmp_path):
    src = str(Path(nishigraph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "nishigraph", "pipeline", "--synthetic",
         "3,20,32,8.0", "-r", "5", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["ensemble_accuracy"] >= 0.9
    assert (tmp_path / "confusion.csv").exists()
