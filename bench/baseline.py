"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 bench/baseline.py

Each run is ``bench/run.py --workload W --seed S --trace 0`` in a fresh
process, as any caller of the benchmark makes it, for seeds 1 to 10 and every
workload; workloads alternate within a seed so that a drift in machine load
touches all of them alike.  For every end-to-end metric the spread is
(q3 - q1) / median over the runs, checked against a third of the metric's
bound in ``BENCHMARK.json``.  One ``--trace 1`` run per workload adds the
layer table.  The result, with the machine description, goes to
``bench/baseline.json``.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import jobs as workloads
from run import BENCH, CHILD_ENV, ROOT

SEEDS = range(1, 11)
OUT = os.path.join(BENCH, "baseline.json")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return result


def machine() -> dict:
    import numpy

    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "child_blas_env": CHILD_ENV,
            "parent_blas_env": {k: os.environ.get(k) for k in CHILD_ENV}}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)
    names = list(workloads.WORKLOADS)
    seconds = listed["run_seconds"]

    values = {w: {m["name"]: [] for m in listed["end_to_end"]} for w in names}
    for seed in SEEDS:
        for w in names:
            result = _run(w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    report = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(SEEDS), "end_to_end": {}, "per_layer": {}}
    steady = True
    for w in names:
        report["end_to_end"][w] = {}
        for spec in listed["end_to_end"]:
            vals = values[w][spec["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spec["name"] == "setup_s" or spread < spec["bound"] / 3
            steady &= ok
            report["end_to_end"][w][spec["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": spec["bound"], "unit": spec["unit"], "values": vals}
            print(f"{w:10s} {spec['name']:13s} median {med:.6g} {spec['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  (bound/3 {spec['bound'] / 3:.4f}){'' if ok else '  WIDE'}")
        report["per_layer"][w] = {
            name: m["value"] for name, m in _run(w, 1, seconds, 1)["metrics"].items()}
    report["steady"] = steady
    with open(OUT, "w") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
