"""Command-line front end.

Subcommands cover the full analysis surface: single scans, scaling sweeps,
fits, figure datasets, pulse schedules and the two-level crossing check.
All computations are deterministic, each artifact is written once and
atomically (temp file plus rename), and floats by ``evolve._number``, so
identical invocations produce byte-identical files.  The argument parser is
built once per process, on the first ``parse_args``, and cached: parsing
reads it and never changes it, so ``parse_args`` stays pure, its result a
function of its argv alone, whatever was parsed before.  It refuses only
text it cannot read: every range is refused by the layer that owns it.

Exit codes (stderr prefixes): 0 success, 2 usage error, 3 error or invalid configuration, 4 i/o error.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import stat
import sys
from dataclasses import dataclass

from . import evolve, kzm, protocol
from .errors import InvalidConfiguration, IoError, KzsimError, UsageError

# the model and sweep flags that several commands share, with their settings
_FLAGS = {
    "--bx": dict(type=float, default=0.1),
    "--k": dict(type=float, default=1.0),
    "--b0": dict(type=float, default=evolve.B0),
    "--bz-end": dict(type=float, default=evolve.BZ_END),
    "--delta-b": dict(type=float, default=evolve.DELTA_B),
    "--j-hz": dict(type=float, default=evolve.J_HZ),
    "--backend": dict(choices=evolve.BACKENDS, default="reference"),
    "--t2": dict(help="T2 pair in seconds, e.g. 2,0.2"),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed description of one CLI invocation."""

    command: str
    params: dict
    out: str

    def normalized(self) -> str:
        """Canonical JSON form; identical configs serialize identically."""
        payload = {"command": self.command, "out": self.out, "params": self.params}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts like a negative number (-1e9, -.5, -1,1) is a value,
        # not an option; _negative_number_matcher is a private argparse attribute
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _floats(flag: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidConfiguration(f"cannot parse {flag} {text!r}: {exc}") from None


def _parse_t2(text: str | None) -> tuple[float, ...] | None:
    if text is None or text.lower() == "none":
        return None
    return _floats("--t2", text)


def _parse_k_values(text: str) -> tuple[float, ...]:
    if text == "ideal":
        return kzm.IDEAL_K_VALUES
    if text == "experiment":
        return kzm.EXPERIMENT_K_VALUES
    return _floats("--k-grid", text)


def build_parser() -> _Parser:
    """The process's parser; a plain function, which the bench tracer wraps."""
    return _new_parser()


@functools.cache
def _new_parser() -> _Parser:
    parser = _Parser(prog="kzsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    p = sub.add_parser("scan", help="single sweep, trace CSV")
    add_flags(p, "--bx", "--k", "--b0", "--bz-end", "--delta-b", "--j-hz", "--backend", "--t2")
    p.add_argument("--out", default="scan.csv")

    for name, text, out in (("sweep", "defect scaling points, CSV", "sweep.csv"),
                            ("fit", "scaling sweep plus linear fit, JSON", "fit.json")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--bx", type=float, action="append", dest="bx_values")
        p.add_argument("--k-grid", dest="k_values", metavar="K_GRID", default="ideal",
                       help="'ideal', 'experiment' or comma-separated rates")
        add_flags(p, "--b0", "--bz-end", "--backend", "--t2", "--j-hz")
        p.add_argument("--out", default=out)

    p = sub.add_parser("figure", help="reproduce a published dataset, CSV")
    p.add_argument("figure_id", choices=list(kzm.FIGURE_IDS))
    p.add_argument("--out", default=None)

    p = sub.add_parser("schedule", help="pulse program for one protocol run")
    add_flags(p, "--bx", "--k", "--b0", "--delta-b", "--j-hz")
    p.add_argument("--j", type=int, default=15, help="number of sweep segments")
    p.add_argument("--out", default="schedule.txt")

    p = sub.add_parser("lz-check", help="two-level sweep vs crossing formula, JSON")
    add_flags(p, "--bx", "--k")
    p.add_argument("--out", default="lz-check.json")

    for p in sub.choices.values():
        p.add_argument("--print-config", action="store_true")
    return parser


def parse_args(argv) -> RunConfig:
    # every dest but these three is a parameter of the command
    params = vars(build_parser().parse_args(argv))
    command, out, print_config = (params.pop(key) for key in ("command", "out", "print_config"))
    if command in ("sweep", "fit"):
        params["bx_values"] = tuple(params["bx_values"] or (_FLAGS["--bx"]["default"],))
    elif command == "figure" and out is None:
        out = f"{params['figure_id']}.csv"
    for key, parse in (("k_values", _parse_k_values), ("t2", _parse_t2)):
        if key in params:
            params[key] = parse(params[key])
    cfg = RunConfig(command=command, params=params, out=out)
    if print_config:
        sys.stdout.write(cfg.normalized())
        raise SystemExit(0)
    return cfg


def _check_target(path: str) -> None:
    """Refuse, with the words ``open`` would use, a name that cannot become a
    file: empty, a directory, or in a directory that is missing or a file."""
    reason = None if path else errno.ENOENT
    if path:
        try:
            parent = os.stat(os.path.dirname(os.path.abspath(path))).st_mode
        except OSError as exc:  # missing, or a file on the way to it
            reason = exc.errno
        else:
            if not stat.S_ISDIR(parent):
                reason = errno.ENOTDIR
            elif os.path.isdir(path):
                reason = errno.EISDIR
    if reason:
        raise IoError(f"cannot write {path or repr(path)}: {os.strerror(reason)}")


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    # open() creates a fresh name with mode 0o666, so the artifact follows the umask
    tmp = os.path.join(os.path.dirname(target), f".kzsim-tmp-{os.urandom(6).hex()}")
    try:
        try:
            with open(tmp, "x", newline="") as fh:
                fh.write(text)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror}") from exc


def execute(cfg: RunConfig) -> int:
    """Run one parsed command: compute its artifact text and summary line, write
    the artifact once, atomically, then any summary; its layers refuse bad values,
    and a target that cannot be written is refused before any of them runs."""
    _check_target(cfg.out)
    p, num, summary = cfg.params, evolve._number, ""
    if cfg.command == "scan":
        text = evolve.scan(evolve.SweepConfig.from_rate(**p)).to_csv()
    elif cfg.command in ("sweep", "figure"):
        if cfg.command == "sweep":
            note = f"scaling sweep: bx={list(p['bx_values'])}, backend={p['backend']}"
            header, rows = ("tau_ratio", "defect"), kzm.run_scaling_sweep(**p)[0]
        else:
            note, header, rows = kzm.reproduce_figure(p["figure_id"])
            note = f"{p['figure_id']}: {note}"
        # one template per table, as ScanTrace.to_csv: a column's type is its first row's
        row = ",".join(evolve._DIGITS if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
        text = "\n".join([f"# {note}", ",".join(header), *(row % r for r in rows)]) + "\n"
    elif cfg.command == "fit":
        points, alpha_hat, r = kzm.run_scaling_sweep(**p)
        record = {"alpha_hat": alpha_hat, "r": r, "n_points": len(points),
                  "bx_values": list(p["bx_values"]), "backend": p["backend"]}
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        summary = f"alpha_hat={num(alpha_hat)} r={num(r)} n={len(points)}\n"
    elif cfg.command == "schedule":
        sched = protocol.nmr_schedule(evolve.SweepConfig(
            p["bx"], p["k"], delta=evolve._delta(p["k"], p["delta_b"]), steps=p["j"], b0=p["b0"],
            backend="trotter", j_hz=p["j_hz"]))
        text = sched.to_text()
        summary = f"schedule with {p['j']} segments, total delay {num(sched.total_duration())} s\n"
    elif cfg.command == "lz-check":
        p_num, p_form = kzm.lz_check(p["bx"], p["k"])
        record = {"p_numeric": p_num, "p_formula": p_form, "bx": p["bx"], "k": p["k"]}
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        summary = f"p_numeric={num(p_num)} p_formula={num(p_form)}\n"
    else:
        raise UsageError(f"unknown command {cfg.command!r}")
    _atomic_write(cfg.out, text)
    if summary:
        sys.stdout.write(summary)
    return 0


def main(argv=None) -> int:
    try:
        return execute(parse_args(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except KzsimError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
