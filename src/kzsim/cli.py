"""Command-line front end.

Subcommands cover the full analysis surface: single scans, scaling sweeps,
fits, figure datasets, pulse schedules and the two-level crossing check.
All computations are deterministic, outputs are written atomically (temp
file plus rename) and floats are serialized at 12 significant digits, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from . import evolve, kzm, protocol
from .errors import IoError, KzsimError, UsageError, ValidationError

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
    """Validated description of one CLI invocation."""

    command: str
    params: dict
    out: str

    def normalized(self) -> str:
        """Canonical JSON form; identical configs serialize identically."""
        payload = {"command": self.command, "out": self.out, "params": self.params}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _parse_t2(text: str | None) -> tuple[float, float] | None:
    if text is None or text.lower() == "none":
        return None
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --t2 {text!r}: {exc}") from None
    if len(parts) != 2:
        raise ValidationError("--t2 expects two comma-separated seconds, e.g. 2,0.2")
    return (parts[0], parts[1])


def _parse_k_values(text: str) -> tuple[float, ...]:
    if text == "ideal":
        return kzm.IDEAL_K_VALUES
    if text == "experiment":
        return kzm.EXPERIMENT_K_VALUES
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse --k-grid {text!r}: {exc}") from None
    if not values:
        raise ValidationError("--k-grid must name at least one rate")
    if any(k <= 0 for k in values):
        raise ValidationError("scan rates must be positive")
    return values


def build_parser() -> _Parser:
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
    if command in ("scan", "schedule", "lz-check"):
        if params["k"] <= 0:
            raise ValidationError(f"--k must be positive, got {params['k']}")
        if params["bx"] < 0:
            raise ValidationError(f"--bx must be >= 0, got {params['bx']}")
    if command in ("sweep", "fit"):
        params["bx_values"] = tuple(params["bx_values"] or (_FLAGS["--bx"]["default"],))
        if any(b <= 0 for b in params["bx_values"]):
            raise ValidationError("--bx values must be positive for scaling sweeps")
    elif command == "figure" and out is None:
        out = f"{params['figure_id']}.csv"
    elif command == "schedule" and params["j"] < 0:
        raise ValidationError(f"--j must be >= 0, got {params['j']}")
    for key, parse in (("k_values", _parse_k_values), ("t2", _parse_t2)):
        if key in params:
            params[key] = parse(params[key])
    cfg = RunConfig(command=command, params=params, out=out)
    if print_config:
        sys.stdout.write(cfg.normalized())
        raise SystemExit(0)
    return cfg


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kzsim-tmp-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _rows_to_csv(note: str, header, rows) -> str:
    lines = [f"# {note}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def execute(cfg: RunConfig) -> int:
    """Run one validated command and write its artifact."""
    if cfg.command == "scan":
        trace = evolve.scan(evolve.SweepConfig.from_rate(**cfg.params))
        _atomic_write(cfg.out, trace.to_csv())
    elif cfg.command == "sweep":
        fit = kzm.run_scaling_sweep(**cfg.params)
        body = _rows_to_csv(
            f"scaling sweep: bx={list(cfg.params['bx_values'])},"
            f" backend={cfg.params['backend']}",
            ("tau_ratio", "defect"),
            fit.points,
        )
        _atomic_write(cfg.out, body)
    elif cfg.command == "fit":
        fit = kzm.run_scaling_sweep(**cfg.params)
        _atomic_write(cfg.out, json.dumps(fit.to_record(), sort_keys=True, indent=2) + "\n")
        sys.stdout.write(
            f"alpha_hat={_fmt(fit.alpha_hat)} r={_fmt(fit.r)} n={fit.n_points}\n"
        )
    elif cfg.command == "figure":
        data = kzm.reproduce_figure(cfg.params["figure_id"])
        _atomic_write(cfg.out, _rows_to_csv(
            f"{data.figure_id}: {data.note}", data.header, data.rows))
    elif cfg.command == "schedule":
        p = cfg.params
        evolve._require(positive=True, delta_b=p["delta_b"])  # the flag, not delta, is named
        sched = protocol.nmr_schedule(evolve.SweepConfig(
            p["bx"], p["k"], delta=p["delta_b"] / p["k"], steps=p["j"], b0=p["b0"],
            backend="trotter", j_hz=p["j_hz"]))
        _atomic_write(cfg.out, sched.to_text())
        sys.stdout.write(
            f"schedule with {p['j']} segments, total delay"
            f" {_fmt(sched.total_duration())} s\n"
        )
    elif cfg.command == "lz-check":
        p_num, p_form = kzm.lz_check(cfg.params["bx"], cfg.params["k"])
        record = {"p_numeric": p_num, "p_formula": p_form,
                  "bx": cfg.params["bx"], "k": cfg.params["k"]}
        _atomic_write(cfg.out, json.dumps(record, sort_keys=True, indent=2) + "\n")
        sys.stdout.write(f"p_numeric={_fmt(p_num)} p_formula={_fmt(p_form)}\n")
    else:
        raise UsageError(f"unknown command {cfg.command!r}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_args(argv)
        return execute(cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except KzsimError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
