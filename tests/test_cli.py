"""Command-line interface: every subcommand end to end on small inputs."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from nishigraph import SparseSym, synthetic_features, write_matrix_market
from nishigraph.cli import main


def data_path(name):
    return str(resources.files("nishigraph").joinpath("data", name))


def run_cli(capsys, *argv):
    rc = main(list(argv))
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


def test_beta_reports_missing_bracket(tmp_path, capsys):
    # a path graph stays positive definite: explicit bracket has no root
    A = SparseSym(3, [(0, 1, 1.0), (1, 2, 1.0)])
    path = tmp_path / "p3.mtx"
    write_matrix_market(A, str(path))
    rc, out, err = run_cli(capsys, "beta", str(path), "--weighted",
                           "--beta-lower", "0.1", "--beta-upper", "0.2")
    assert rc == 1
    assert err.startswith("error:")


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
    rc, out, _ = run_cli(capsys, "classify", str(emb_path), str(labels))
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["test_accuracy"] >= 0.9
    assert set(metrics["per_class"]) == {"0", "1", "2"}


@pytest.mark.parametrize("text, line", [
    ("", 1),                                     # empty file
    ("e0,e1\n1,2\n3\n", 3),                     # short row
    ("e0,e1\n1,2\n\n3,x\n", 4)])                 # non-numeric cell
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


@pytest.mark.parametrize("sidecar", ['{"rows": 2}', '[2, 2]'])
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


def test_missing_input_file_is_a_clean_error(capsys):
    rc, _, err = run_cli(capsys, "lift", "/nonexistent/file.exp")
    assert rc == 1
    assert err.startswith("error:")
