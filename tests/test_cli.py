import json
import math
import os

import pytest

from kzsim import cli, smallmat
from kzsim.errors import UsageError, ValidationError


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


def test_parse_defaults():
    cfg = cli.parse_args(["scan", "--bx", "0.1", "--k", "1"])
    assert cfg.command == "scan"
    assert cfg.params["b0"] == -1.5
    assert cfg.params["bz_end"] == -0.2
    assert cfg.params["delta_b"] == 0.1
    assert cfg.params["backend"] == "reference"
    assert cfg.params["j_hz"] == 215.0
    assert cfg.out == "scan.csv"


def test_parse_figure_dispatch():
    cfg = cli.parse_args(["figure", "fig3"])
    assert cfg.command == "figure"
    assert cfg.params == {"figure_id": "fig3"}
    assert cfg.out == "fig3.csv"


def test_parse_rejects_zero_rate():
    with pytest.raises(ValidationError):
        cli.parse_args(["scan", "--k", "0"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        cli.parse_args(["scan", "--frequency", "3"])


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["scan", "--k", "0"]) == 3
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["scan", "--nope"]) == 2
    for argv in (["scan", "--delta-b", "0"], ["schedule", "--delta-b", "0"],
                 ["scan", "--delta-b", "nan"], ["scan", "--b0", "nan"],
                 ["scan", "--j-hz", "nan", "--t2", "2,0.2"],
                 ["scan", "--k", "1e-6"], ["scan", "--bz-end", "1e6"],
                 ["lz-check", "--k", "1e-6"], ["lz-check", "--bx", "nan"]):
        assert cli.main(argv) == 3, argv


def test_unbounded_work_refused_with_count(tmp_path, monkeypatch, capsys):
    for argv, count in ((["scan", "--k", "1e-6"], "130000013 propagator steps"),
                        (["scan", "--bz-end", "1e6"], "100000150 propagator steps"),
                        (["lz-check", "--k", "1e-6"], "282842713 substeps")):
        assert run(argv, tmp_path, monkeypatch) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and count in err, err
        assert "1000000" in err
    assert not list(tmp_path.iterdir())


def test_jacobi_non_convergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(smallmat, "_JACOBI_MAX_SWEEPS", 1)
    assert run(["lz-check"], tmp_path, monkeypatch) == 3
    assert capsys.readouterr().err.startswith("error: Jacobi iteration")


def test_scan_writes_trace(tmp_path, monkeypatch):
    assert run(["scan", "--bx", "0.1", "--k", "1", "--out", "t.csv"],
               tmp_path, monkeypatch) == 0
    lines = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert lines[0] == "t,bz,defect,overlap,a0,a1,a2,concurrence"
    assert len(lines) == 15  # 13 segments + boundary 0 + header


def test_scan_deterministic(tmp_path, monkeypatch):
    run(["scan", "--out", "a.csv"], tmp_path, monkeypatch)
    run(["scan", "--out", "b.csv"], tmp_path, monkeypatch)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_figure_byte_identical(tmp_path, monkeypatch):
    run(["figure", "fig1a", "--out", "x.csv"], tmp_path, monkeypatch)
    run(["figure", "fig1a", "--out", "y.csv"], tmp_path, monkeypatch)
    x = (tmp_path / "x.csv").read_bytes()
    assert x == (tmp_path / "y.csv").read_bytes()
    assert x.startswith(b"# fig1a:")


def test_fit_json(tmp_path, monkeypatch):
    code = run(["fit", "--bx", "0.1", "--k-grid", "1,0.5", "--backend",
                "trotter", "--out", "f.json"], tmp_path, monkeypatch)
    assert code == 0
    record = json.loads((tmp_path / "f.json").read_text())
    assert set(record) == {"alpha_hat", "r", "n_points", "bx_values", "backend"}
    assert record["n_points"] == 2
    assert record["backend"] == "trotter"


def test_sweep_csv(tmp_path, monkeypatch):
    code = run(["sweep", "--bx", "0.2", "--k-grid", "experiment",
                "--backend", "trotter", "--out", "s.csv"], tmp_path, monkeypatch)
    assert code == 0
    lines = (tmp_path / "s.csv").read_text().strip().split("\n")
    assert lines[1] == "tau_ratio,defect"
    assert len(lines) == 6


def test_schedule_output(tmp_path, monkeypatch):
    code = run(["schedule", "--bx", "0.1", "--k", "1", "--j", "15",
                "--out", "sched.txt"], tmp_path, monkeypatch)
    assert code == 0
    text = (tmp_path / "sched.txt").read_text()
    d = 2 * 0.1 / (math.pi * 215.0)
    assert f"DELAY {format(d, '.12g')}" in text
    assert text.count("CRUSH") == 1
    assert "OFFSET -150.5" in text


def test_lz_check_output(tmp_path, monkeypatch):
    code = run(["lz-check", "--bx", "0.1", "--k", "1", "--out", "lz.json"],
               tmp_path, monkeypatch)
    assert code == 0
    record = json.loads((tmp_path / "lz.json").read_text())
    assert abs(record["p_numeric"] - record["p_formula"]) <= 0.01


def test_io_error_exit_code(tmp_path, monkeypatch):
    code = run(["scan", "--out", os.path.join("no", "such", "dir", "x.csv")],
               tmp_path, monkeypatch)
    assert code == 4


def test_normalized_config_stable():
    a = cli.parse_args(["scan", "--bx", "0.2", "--k", "0.5"]).normalized()
    b = cli.parse_args(["scan", "--k", "0.5", "--bx", "0.2"]).normalized()
    assert a == b
    assert json.loads(a)["params"]["bx"] == 0.2


def test_print_config(capsys):
    with pytest.raises(SystemExit):
        cli.parse_args(["scan", "--print-config"])
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "scan"
