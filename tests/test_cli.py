import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kzsim import cli, evolve, protocol
from kzsim.errors import InvalidConfiguration, IoError, UsageError

# parseable numbers, the float edges among them; bx = 0 with b0 = -1 starts
# on a degenerate ground state
NUMBERS = ("nan", "inf", "-0.0", "0", "-1", "0.5", "1e-320", "5e-309", "1e308", "1e200", "-1e9")
UNREADABLE = ("", "x", "1,2,3", "-1,1")
# each flag's values, mostly readable ones; a flag not listed takes a number
VALUES = {
    None: ("fig1a", "fig1b", "fig9"),
    "--backend": ("reference", "trotter", "x"),
    "--t2": ("2,0.2", "0,1", "none", *UNREADABLE),
    "--k-grid": ("1,0.5", "experiment", "-1,1", "1e-320,1", "x"),
    "--j": ("0", "1", "5", "-1", "x"),
    "--out": ("a.csv", "", ".", "no/dir/x.csv"),
}
_MODEL = ("--bx", "--k", "--b0", "--delta-b", "--j-hz", "--out")
_GRID = ("--bx", "--k-grid", "--b0", "--bz-end", "--backend", "--t2", "--j-hz", "--out")
# a number token that is not finite, as repr, format or json writes it
_NONFINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)
# the stderr prefixes of each nonzero exit code
PREFIXES = {2: ("usage error: ",), 3: ("error: ", "invalid configuration: "), 4: ("i/o error: ",)}
# subcommand: (argv that keeps a valid draw cheap, flags that take a value;
# None stands for a positional argument)
FUZZ = {
    "scan": ((), (*_MODEL, "--bz-end", "--backend", "--t2")),
    "sweep": (("--k-grid", "1,0.5", "--backend", "trotter"), _GRID),
    "fit": (("--k-grid", "1,0.5", "--backend", "trotter"), _GRID),
    "figure": (("fig1b",), (None, "--out")),
    "schedule": ((), (*_MODEL, "--j")),
    "lz-check": ((), ("--bx", "--k", "--out")),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ)))
    base, flags = FUZZ[command]
    argv = [command, *base]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(flags))
        value = draw(st.sampled_from(VALUES.get(flag, NUMBERS + UNREADABLE)))
        argv += [value] if flag is None else [flag, value]
    if draw(st.booleans()) and draw(st.booleans()):  # a quarter of the draws
        argv.append("--print-config")
    return argv


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


def _no_propagator(*args, **kwargs):
    raise AssertionError("a refused argv built a propagator")


def refuse_propagators(monkeypatch):
    """Fail at the first propagator: a refusal comes before any, so a lost
    one fails here in milliseconds instead of running a huge scan."""
    monkeypatch.setattr(evolve, "_segment_unitaries", _no_propagator)


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


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["scan", "--nope"]) == 2
    with monkeypatch.context() as refused:
        refuse_propagators(refused)
        for argv in (["scan", "--k", "0"], ["scan", "--delta-b", "0"], ["schedule", "--delta-b", "0"],
                     ["scan", "--delta-b", "nan"], ["scan", "--b0", "nan"],
                     ["scan", "--j-hz", "nan", "--t2", "2,0.2"],
                     ["scan", "--k", "1e-6"], ["scan", "--bz-end", "1e6"],
                     ["lz-check", "--k", "1e-6"], ["lz-check", "--bx", "nan"],
                     ["scan", "--delta-b", "1e-320"], ["lz-check", "--k", "1e-320"],
                     ["scan", "--b0", "1e308"], ["scan", "--bz-end", "1e308", "--delta-b", "1e308"],
                     ["scan", "--backend", "trotter", "--k", "1e-300", "--bx", "1e10"],
                     ["sweep", "--k-grid", "1e-300", "--backend", "trotter", "--bx", "1e10"],
                     ["sweep", "--k-grid", "1e-300", "--backend", "trotter", "--bx", "1e10", "--t2", "2,0.2"],
                     ["scan", "--bx", "1e308"], ["scan", "--bx", "1e200"], ["schedule", "--bx", "1e308"],
                     ["lz-check", "--bx", "1e200", "--k", "1e300"],
                     ["fit", "--backend", "trotter", "--bx", "1e4", "--k-grid", "1e-300,1e-299"],
                     ["lz-check", "--bx", "1e-11"], ["lz-check", "--bx", "1e-320"],
                     ["schedule", "--bx", "1e150", "--k", "1e-159", "--j", "1"],
                     ["schedule", "--b0", "0", "--k", "1e-310", "--delta-b", "0.01", "--j", "2"],
                     ["schedule", "--j-hz", "1e-310"], ["schedule", "--j-hz", "2.5e-308"],
                     ["schedule", "--j-hz", "1e308", "--b0", "1e10", "--j", "1"],
                     ["scan", "--b0", "-1e9"], ["scan", "--k", "-1e-3"],
                     ["scan", "--backend", "trotter", "--b0=-1e9", "--bz-end=-999999999.65"]):
            assert cli.main(argv) == 3, argv
        # scans, fits and the overlap window draw on that one propagator source
        with pytest.raises(AssertionError, match="built a propagator"):
            protocol.protocol_overlap(evolve.SweepConfig.from_rate(0.1, 1.0, backend="trotter"), 3)
    # a command the parser cannot produce is still refused by execute
    with pytest.raises(UsageError, match="unknown command 'nonsense'"):
        cli.execute(cli.RunConfig("nonsense", {}, "nonsense.csv"))
    assert not list(tmp_path.iterdir())
    assert cli.main(["lz-check", "--bx", "1e-10"]) == 0


def test_refusals_name_their_cause(tmp_path, monkeypatch, capsys):
    # fit_scaling can judge a point set only once its scans have run, so the
    # ten-equal-rates row alone may build propagators
    ten_equal_rates = ["fit", "--k-grid", ",".join(["1"] * 10)]
    for argv, cause in (
            (["fit", "--backend", "trotter", "--bx", "1e4", "--k-grid", "1e-300,1e-299"],
             "tau_q/tau_0 = 4 bx^2/k overflows at bx=10000.0, k=1e-300"),
            (["lz-check", "--bx", "1e-11"], "within DEGENERACY_TOL of each other at bx=1e-11"),
            # the mean of ten equal rates rounds off them: a nonzero spread
            (ten_equal_rates, "degenerate point set for the fit"),
            (["schedule", "--delta-b", "0"], "delta_b must be positive and finite"),
            (["schedule", "--j-hz", "1e-310"],
             "schedule entry ('delay', inf) is not finite at J = 1e-310 Hz"),
            (["scan", "--k", "-1e-3"], "k must be positive and finite, got -0.001"),
            (["schedule", "--k", "0"], "k must be positive and finite, got 0.0"),
            (["schedule", "--k", "nan"], "k must be positive and finite, got nan"),
            (["fit", "--k-grid", "-1,1"], "k must be positive and finite, got -1.0"),
            (["scan", "--bz-end", "-2"], "scan window [-1.5, -2.0] is empty"),
            (["scan", "--bz-end", "-1.5"], "scan window [-1.5, -1.5] is empty"),
            (["scan", "--t2", "0,1"], "T2 must be two positive finite times, got (0.0, 1.0)"),
            (["lz-check", "--k", "1e-320"],
             "the crossing window lasts 20 sqrt(2) bx / k = inf time units at bx=0.1, k=1e-320"),
            (["lz-check", "--bx", "1e308"], "lasts 20 sqrt(2) bx / k = inf time units at bx=1e+308"),
            (["lz-check", "--bx", "1e-200", "--k", "1e300"], "the crossing window lasts 20 sqrt(2)"
             " bx / k = 0.0 time units at bx=1e-200, k=1e+300; use a smaller k or a larger bx"),
            (["scan", "--k", "1e-320"],
             "the segment duration delta_b / k overflows at k = 1e-320, delta_b = 0.1"),
            (["fit", "--k-grid", "1e-320,1"],
             "the segment duration delta_b / k overflows at k = 1e-320, delta_b = 0.1"),
            (["schedule", "--k", "1e300", "--delta-b", "1e-300", "--j", "1"],
             "the segment duration delta_b / k underflows at k = 1e+300, delta_b = 1e-300")):
        with monkeypatch.context() as refused:
            if argv != ten_equal_rates:
                refuse_propagators(refused)
            assert run(argv, tmp_path, monkeypatch) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and cause in err, err
    # a degenerate start is refused by the computation, under exit 3's other prefix
    with monkeypatch.context() as refused:
        refuse_propagators(refused)
        assert run(["scan", "--bx", "0", "--b0", "-1"], tmp_path, monkeypatch) == 3
    assert capsys.readouterr().err == "error: ground state degenerate at bx=0.0, bz=-1.0 (gap 0.00e+00)\n"
    assert not list(tmp_path.iterdir())


def test_overflowing_scan_time_refused(tmp_path, monkeypatch, capsys):
    # 13 segments of delta = 0.1/5e-309 ~ 2e307 end past the largest float
    for argv in (["scan", "--backend", "trotter", "--k", "5e-309"],
                 ["sweep", "--backend", "trotter", "--k-grid", "5e-309", "--bx", "0.1"],
                 ["schedule", "--k", "5e-309", "--j", "13"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv, tmp_path, monkeypatch) == 3, argv
        err = capsys.readouterr().err
        assert err == "invalid configuration: scan time t = 13 x delta = 2.0000000000000002e+307 overflows\n", err
    assert not list(tmp_path.iterdir())


def test_edge_windows_give_finite_output(tmp_path, monkeypatch):
    # a start or an end in |11> (bx = 0, bz > 1), and a schedule of no segments
    for argv in (["scan", "--bx", "0", "--b0", "1.5", "--bz-end", "2", "--out", "a"],
                 ["schedule", "--bx", "0", "--b0", "0.5", "--out", "b"],
                 ["schedule", "--j", "0", "--out", "c"]):
        assert run(argv, tmp_path, monkeypatch) == 0, argv
    assert "nan" not in (tmp_path / "a").read_text()
    for name in ("b", "c"):
        text = (tmp_path / name).read_text()
        assert "nan" not in text and text.count("CRUSH") == 1, name
    assert "DELAY" in (tmp_path / "c").read_text()  # the two preparation delays


def test_negative_float_literals_are_values(tmp_path, monkeypatch):
    assert cli.parse_args(["scan", "--b0", "-1.5"]).params["b0"] == -1.5
    assert cli.parse_args(["scan", "--b0", "-1e9", "--bz-end", "-.5"]).params["bz_end"] == -0.5
    # a window far from zero, whose width carries an error of ulp(1e9)
    argv = ["scan", "--backend", "trotter", "--b0", "-1e9", "--bz-end", "-999999999.7"]
    assert run([*argv, "--out", "far.csv"], tmp_path, monkeypatch) == 0
    rows = (tmp_path / "far.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and not any(_NONFINITE.search(row) for row in rows)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
@example(argv=["scan", "--delta-b", "1e-320"])
@example(argv=["lz-check", "--bx", "1e308"])
@example(argv=["fit", "--k-grid", "1,0.5", "--backend", "trotter", "--bx", "1e308"])
@example(argv=["scan", "--bx", "0", "--b0", "-1"])
def test_fuzzed_argv_exits_with_a_code(tmp_path, monkeypatch, capsys, argv):
    # a run writes its one artifact, with finite numbers; a refusal writes
    # nothing and names its exit path on stderr
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    files = list(workdir.rglob("*"))
    assert not list(tmp_path.glob(".kzsim-tmp-*")), argv
    if code == 0:
        assert err == "", argv
        if "--print-config" not in argv:
            assert len(files) == 1, (argv, files)
            texts = [out, files[0].read_text()]
            assert not any(_NONFINITE.search(text) for text in texts), argv
            return
    else:
        assert err.startswith(PREFIXES[code]), (argv, err)
    assert not files, (argv, files)


def test_grid_work_refused_before_any_scan(tmp_path, monkeypatch, capsys):
    # each scan is under the limit (130000 steps); the grid is 2000 of them
    grid = ",".join(["0.001"] * 2000)

    def no_scan(cfg):
        raise AssertionError("a scan ran before the grid was refused")

    monkeypatch.setattr(evolve, "scan", no_scan)
    start = time.perf_counter()
    assert run(["fit", "--k-grid", grid], tmp_path, monkeypatch) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: grid of 2000 scans needs 260000000")
    assert not list(tmp_path.iterdir())


def test_unbounded_work_refused_with_count(tmp_path, monkeypatch, capsys):
    for argv, count in ((["scan", "--k", "1e-6"], "130000013 propagator steps"),
                        (["scan", "--b0", "-1e9"], "99999999980 propagator steps"),
                        (["scan", "--bz-end", "1e6"], "100000150 propagator steps"),
                        (["lz-check", "--k", "1e-6"], "282842713 propagator steps (1 segments x 282842713)"),
                        # counts from 1e15 on are a float's ceiling: 4 digits, not 300
                        (["scan", "--k", "1e-300"],
                         "1.300e+302 propagator steps (13 segments x 1.000e+301)"),
                        (["lz-check", "--k", "1e-300"], "2.828e+302 propagator steps")):
        assert run(argv, tmp_path, monkeypatch) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and count in err, err
        assert "1000000" in err and len(err) < 200, err
    assert not list(tmp_path.iterdir())


def test_jacobi_non_convergence_exit_code(tmp_path, monkeypatch, capsys):
    def raising(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", raising)
    assert run(["lz-check"], tmp_path, monkeypatch) == 3
    assert capsys.readouterr().err.startswith("error: eigendecomposition of a 2x2 matrix failed")


def test_scan_writes_trace(tmp_path, monkeypatch):
    assert run(["scan", "--bx", "0.1", "--k", "1", "--out", "t.csv"],
               tmp_path, monkeypatch) == 0
    lines = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert lines[0] == "t,bz,defect,overlap,a0,a1,a2,concurrence"
    assert len(lines) == 15  # 13 segments + boundary 0 + header


def test_figure_byte_identical(tmp_path, monkeypatch):
    # and each artifact's mode follows the umask, as a new file's does
    for out, umask in (("x.csv", 0o022), ("y.csv", 0o077)):
        previous = os.umask(umask)
        try:
            run(["figure", "fig1a", "--out", out], tmp_path, monkeypatch)
        finally:
            os.umask(previous)
        assert (tmp_path / out).stat().st_mode & 0o777 == 0o666 & ~umask
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
    # tau_q / tau_0 = 4 bx^2 / k over the experimental rates, in ascending order
    assert [float(row.split(",")[0]) for row in lines[2:]] == pytest.approx([0.16, 0.32, 0.48, 0.64])


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


def test_io_error_exit_code(tmp_path, monkeypatch, capsys):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    unwritable = ((os.path.join("no", "dir", "x.csv"), "No such file or directory"),
                  ("adir", "Is a directory"), (os.path.join("afile", "x.csv"), "Not a directory"))
    # a write that fails after the target check is refused with the same words
    monkeypatch.chdir(tmp_path)
    for out, reason in unwritable:
        with pytest.raises(IoError, match=f"^cannot write {re.escape(out)}: {reason}$"):
            cli._atomic_write(out, "x\n")
    assert not list(tmp_path.rglob(".kzsim-tmp-*"))
    # a target that cannot be written is refused before any work and any write
    writes = []
    monkeypatch.setattr(cli, "_atomic_write", lambda path, text: writes.append(path))
    refuse_propagators(monkeypatch)
    for out, reason in (*unwritable, (".", "Is a directory"), ("", "No such file or directory")):
        for figure in ("fig1a", "fig5"):
            assert run(["figure", figure, "--out", out], tmp_path, monkeypatch) == 4
            assert capsys.readouterr().err == f"i/o error: cannot write {out or repr(out)}: {reason}\n"
    assert writes == []


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
    # it echoes the parsed invocation and runs no layer's check
    for flag, key in (("--delta-b", "delta_b"), ("--k", "k")):
        assert cli.main(["scan", flag, "0", "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["params"][key] == 0.0


# valid argv, usage errors and unreadable values, for the parser-reuse tests
REUSE = (["scan", "--bx", "0.2", "--k", "0.5", "--t2", "2,0.2"], ["sweep", "--bx", "0.1"],
         ["sweep", "--bx", "0.1", "--bx", "0.2", "--k-grid", "1,0.5"],
         ["fit", "--k-grid", "experiment", "--backend", "trotter"], ["figure", "fig3"],
         ["schedule", "--j", "3", "--b0=-1e9"], ["lz-check", "--bx", "0.2", "--k", "0.25"],
         [], ["scan", "--nope"], ["figure", "fig9"], ["sweep", "--bx"],
         ["scan", "--backend", "magic"], ["scan", "--k", "0"], ["sweep", "--bx", "-0.1"],
         ["fit", "--k-grid", "x"], ["scan", "--t2", "1"], ["schedule", "--j", "-1"])


def _parsed(argv):
    try:
        return cli.parse_args(argv).normalized()
    except (InvalidConfiguration, UsageError) as exc:
        return type(exc).__name__, str(exc)


def test_parser_reuse_cannot_be_observed(capsys):
    def outcome(argv):
        try:
            return _parsed(argv)
        except SystemExit as exc:
            return exc.code, capsys.readouterr().out

    mixed = [*REUSE, ["scan", "--print-config"], ["sweep", "--bx", "0.3", "--print-config"]]
    fresh = {}
    for argv in mixed:
        cli._new_parser.cache_clear()
        fresh[tuple(argv)] = outcome(argv)
    assert cli.build_parser() is cli.build_parser()
    order = list(mixed)
    for _ in range(2):
        order.reverse()
        assert {tuple(argv): outcome(argv) for argv in order} == fresh
    assert sum(isinstance(v, str) for v in fresh.values()) == 11
    assert {v[0] for v in fresh.values() if isinstance(v, tuple)} == {
        "InvalidConfiguration", "UsageError", 0}


def test_append_does_not_accumulate():
    for _ in range(2):
        assert cli.parse_args(["sweep", "--bx", "0.1"]).params["bx_values"] == (0.1,)


def test_concurrent_parses_match_sequential():
    sequential = [_parsed(argv) for argv in REUSE]
    cli._new_parser.cache_clear()  # the threads race to build it
    start = threading.Barrier(4)

    def job():
        start.wait(timeout=10)
        return [_parsed(argv) for argv in REUSE]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [run.result(timeout=60) for run in [pool.submit(job) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(parsed == sequential for parsed in results)


def test_import_builds_no_parser():
    # in a fresh process: no parser at import, one on the first parse_args
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import kzsim.cli as c;"
            " assert c._new_parser.cache_info().misses == 0; c.parse_args(['figure', 'fig3']);"
            " assert c._new_parser.cache_info().misses == 1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
