"""Workload definitions: the fixed job list each benchmark pass runs.

A job is a dict with an ``id``, a ``kind`` and, for ``cli`` jobs, the argv
handed to ``kzsim.cli.main``; ``{out}`` in the argv is replaced by the path
of the job's artifact.  The one ``api`` job calls
``kzsim.protocol.protocol_overlap`` directly, because the command line does
not expose the measured-overlap emulation.  Job order inside a pass is the
only thing the seed changes; no output depends on it.
"""
from __future__ import annotations

import random

EXPERIMENT_BX = ("0.1", "0.2")
# (label, rate as the CLI parses it); 1/3 is written as repr(1/3)
EXPERIMENT_K = (("1", "1"), ("1_2", "0.5"), ("1_3", repr(1.0 / 3.0)), ("1_4", "0.25"))
T2 = ("--t2", "2,0.2")


def _cli(job_id: str, ext: str, *argv: str) -> dict:
    return {"id": job_id, "kind": "cli", "ext": ext,
            "argv": [*argv, "--out", "{out}"]}


def _grid_fit(prefix: str, extra=()) -> dict:
    return _cli(f"{prefix}_fit", "json", "fit", "--bx", "0.1", "--bx", "0.2",
                "--k-grid", "experiment", "--backend", "trotter", *extra)


def _grid_scans(prefix: str, extra=()) -> list[dict]:
    return [
        _cli(f"{prefix}_scan_bx{bx}_k{label}", "csv", "scan", "--backend", "trotter",
             "--bx", bx, "--k", k, "--bz-end", "0", *extra)
        for bx in EXPERIMENT_BX for label, k in EXPERIMENT_K
    ]


def continuum() -> list[dict]:
    return [
        _cli("c_fit_ideal", "json", "fit", "--bx", "0.1", "--k-grid", "ideal"),
        _cli("c_scan_slow", "csv", "scan", "--bx", "0.2", "--k", repr(1.0 / 30.0),
             "--bz-end", "1.5"),
        _cli("c_scan_fast", "csv", "scan", "--bx", "0.1", "--k", "1"),
        _cli("c_lz_check", "json", "lz-check", "--bx", "0.2", "--k", "0.25"),
    ]


def protocol() -> list[dict]:
    return [
        _grid_fit("p"),
        *_grid_scans("p"),
        _cli("p_schedule_bx0.1", "txt", "schedule", "--bx", "0.1", "--k", "1",
             "--j", "15"),
        _cli("p_schedule_bx0.2", "txt", "schedule", "--bx", "0.2", "--k", "0.25",
             "--j", "15"),
        _cli("p_fig1a", "csv", "figure", "fig1a"),
        _cli("p_fig1b", "csv", "figure", "fig1b"),
        {"id": "p_overlap", "kind": "api", "ext": "csv",
         "settings": [[float(bx), float(k)] for bx in EXPERIMENT_BX
                      for _, k in EXPERIMENT_K],
         "b0": -1.5, "bz_end": 0.0},
    ]


def dephased() -> list[dict]:
    return [
        _grid_fit("d", T2),
        *_grid_scans("d", T2),
        _cli("d_scan_reference", "csv", "scan", "--backend", "reference", *T2,
             "--bx", "0.1", "--k", "0.25"),
    ]


WORKLOADS = {"continuum": continuum, "protocol": protocol, "dephased": dephased}


def pass_order(jobs: list[dict], seed: int, pass_index: int) -> list[dict]:
    """The job list of one pass, shuffled by (seed, pass_index)."""
    order = list(jobs)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
