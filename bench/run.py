"""Layered benchmark for kzsim.

    python3 bench/run.py --workload continuum --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

Run from the root of a checkout.  Every sample is a fresh child process
(``bench/child.py``) that imports kzsim from the checkout's ``src`` and runs
the workload's job list once, in an order shuffled by the seed.  Every
artifact and every captured stdout is checked against ``bench/reference``.

``--trace 0`` measures the end-to-end metrics over untraced passes for
``--seconds`` seconds and reports medians.  ``--trace 1`` alternates
untraced and traced passes for ``--seconds`` (at least two pairs) and
reports the per-layer metrics from the spans, the tracing overhead (median
traced/untraced wall ratio of the pairs, minus 1), and whether the counts
repeated exactly across the traced passes.  The last line of stdout
is one JSON object with the metrics ``BENCHMARK.json`` lists for the mode.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import compare
import jobs as workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference")
# one child at a time, each held to one BLAS thread: two processes at most
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3          # untraced passes per --trace 0 run, however short
MIN_SETUPS = 15         # set-up samples per --trace 0 run
MIN_TRACED = 2          # traced passes per --trace 1 run; their counts must agree
RUN_DEADLINE_S = 165.0  # a run stops starting samples well inside 180 s
SWEEPS = ("evolve.propagate", "evolve.dephase_propagate")


def _read(path: str) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def resolve(jobs: list[dict], work: str, tag: str) -> list[dict]:
    """Jobs with their artifact paths filled in."""
    ordered = []
    for job in jobs:
        out = os.path.join(work, f"{tag}-{job['id']}.{job['ext']}")
        argv = [out if a == "{out}" else a for a in job.get("argv", ())]
        ordered.append({**job, "argv": argv, "out": out})
    return ordered


def spawn(jobs: list[dict], setup_from: list[dict], trace: bool, work: str,
          tag: str, deadline: float):
    """Run one child; returns (result, None) or (None, problem).

    ``setup_s`` runs from just before the spawn until the child has imported
    kzsim and parsed the first CLI argv of ``setup_from``.
    """
    spec = {"src": SRC, "jobs": jobs, "trace": trace,
            "setup_argv": next(j["argv"] for j in setup_from if j["kind"] == "cli"),
            "result": os.path.join(work, f"{tag}-result.json"),
            "spans": os.path.join(work, f"{tag}-spans.json")}
    spec_path = os.path.join(work, f"{tag}-spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, f"sample {tag} not started: run deadline passed"
    spawned = time.monotonic()
    # -E: no PYTHONPATH or other PYTHON* variable can put another kzsim first
    proc = subprocess.Popen(
        [sys.executable, "-E", "-s", os.path.join(BENCH, "child.py"), spec_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=work,
        env={**os.environ, **CHILD_ENV})
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"sample {tag} killed at the run deadline"
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        tail = err.decode(errors="replace")[-1500:]
        return None, f"sample {tag} exited {proc.returncode}: {tail}"
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_done"] - spawned
    if trace:
        with open(spec["spans"]) as fh:
            result["trace"] = json.load(fh)
    return result, None


class Runner:
    """Spawns the samples of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.seed = seed
        self.jobs = workloads.WORKLOADS[workload]()
        self.work = work
        self.deadline = deadline
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = {}
        for job in self.jobs:
            base = os.path.join(REFERENCE, workload, job["id"])
            self.reference[job["id"]] = (_read(f"{base}.{job['ext']}"),
                                         _read(f"{base}.stdout"))

    def sample(self, index: int, trace: bool = False, run_jobs: bool = True):
        """Run pass ``index`` in a fresh child; with ``run_jobs`` False the
        child only sets up (imports kzsim and parses the first argv)."""
        tag = f"s{self.spawned}"
        self.spawned += 1
        ordered = resolve(workloads.pass_order(self.jobs, self.seed, index),
                          self.work, tag)
        if run_jobs:
            self.attempted += len(ordered)
        result, problem = spawn(ordered if run_jobs else [], ordered, trace,
                                self.work, tag, self.deadline)
        if result is None:
            self.problems.append(problem)
            if run_jobs:
                self.failed += len(ordered)
            return None
        if run_jobs:
            self._check(result, ordered)
        for name in os.listdir(self.work):
            if name.startswith(f"{tag}-"):
                os.unlink(os.path.join(self.work, name))
        return result

    def _check(self, result: dict, ordered: list[dict]) -> None:
        """Mark failed jobs; add the artifact byte and identity counts."""
        bytes_out = identical = 0
        for job, run in zip(ordered, result["jobs"]):
            want_art, want_out = self.reference[job["id"]]
            problem = run["error"] and run["error"].strip().splitlines()[-1]
            art = _read(job["out"]) if os.path.exists(job["out"]) else None
            if problem is None and run["rc"] != 0:
                problem = f"exit code {run['rc']}: {run['stderr'].strip()}"
            if problem is None and art is None:
                problem = "no artifact written"
            if problem is None:
                problem = compare.mismatch(art, want_art)
            if problem is None:
                problem = compare.mismatch(run["stdout"], want_out)
                problem = problem and f"stdout {problem}"
            if art is not None:
                bytes_out += len(art.encode())
                identical += art == want_art
            bytes_out += len(run["stdout"].encode())
            if problem is not None:
                self.failed += 1
                self.problems.append(f"job {job['id']}: {problem}")
        result["bytes_out"] = bytes_out
        result["identical"] = identical


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    """Medians over untraced passes, plus extra set-up-only children."""
    runner.sample(0, run_jobs=False)  # warm-up: bytecode and file cache
    passes, setups = [], []
    start = time.monotonic()
    index = 0
    while index < MIN_PASSES or time.monotonic() - start < seconds:
        result = runner.sample(index)
        index += 1
        if result is None:
            break
        passes.append(result)
        setups.append(result["setup_s"])
    while passes and len(setups) < MIN_SETUPS:
        result = runner.sample(index, run_jobs=False)
        index += 1
        if result is None:
            break
        setups.append(result["setup_s"])
    if not passes:
        return {}
    series = {
        "wall_s": ([p["wall_s"] for p in passes], "s"),
        "cpu_s": ([p["cpu_s"] for p in passes], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([p["peak_rss_kb"] / 1024.0 for p in passes], "MB"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        q1, med, q3 = _quartiles(values)
        metrics[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(values)}
    ok = runner.attempted - runner.failed
    metrics["jobs_ok_frac"] = {"value": ok / runner.attempted, "unit": "frac"}
    metrics["error_rate"] = {"value": runner.failed / runner.attempted, "unit": "frac"}
    return metrics


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer (timing, count) metrics of one traced pass."""
    trace = result["trace"]
    names, spans = trace["names"], trace["spans"]
    layer_of = [n.split(".")[0] for n in names]
    duration = [s[3] - s[2] for s in spans]
    children = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]] += duration[i]
    # ancestor function sets, interned: ancestry[i] indexes anc_sets
    anc_sets, anc_layers, intern = [frozenset()], [frozenset()], {}
    ancestry = [0] * len(spans)
    times, counts = defaultdict(float), defaultdict(int)
    sweep_fids = {names.index(n) for n in SWEEPS if n in names}
    scaling = "kzm.run_scaling_sweep"
    scaling_fid = names.index(scaling) if scaling in names else None
    used = observed = 0
    for i, (fid, parent, _, _, probe) in enumerate(spans):
        if parent >= 0:
            key = (ancestry[parent], spans[parent][0])
            if key not in intern:
                intern[key] = len(anc_sets)
                fids = anc_sets[key[0]] | {key[1]}
                anc_sets.append(fids)
                anc_layers.append(frozenset(layer_of[f] for f in fids))
            ancestry[i] = intern[key]
        fids, layers = anc_sets[ancestry[i]], anc_layers[ancestry[i]]
        name, layer = names[fid], layer_of[fid]
        own = duration[i] - children[i]
        counts[f"{name}.calls"] += 1
        counts[f"{layer}.calls"] += 1
        times[f"{name}.self_s"] += own
        times[f"{layer}.self_s"] += own
        if fid not in fids:
            times[f"{name}.busy_s"] += duration[i]
        if layer not in layers:
            times[f"{layer}.busy_s"] += duration[i]
        if fid in sweep_fids:
            steps, nsub = probe
            counts["evolve.segments"] += steps
            counts["evolve.substeps"] += steps * nsub
            counts["evolve.boundaries"] += steps + 1
            observed += steps + 1
            used += 1 if scaling_fid in fids else steps + 1
    eig_calls = eig_distinct = 0
    for n in ("2", "3", "4"):
        calls, distinct = trace["eig"].get(n, (0, 0))
        counts[f"smallmat.eig_n{n}.calls"] = calls
        eig_calls += calls
        eig_distinct += distinct
    counts["smallmat.distinct_frac"] = eig_distinct / eig_calls if eig_calls else 0.0
    counts["kzm.observed_used_frac"] = used / observed if observed else 0.0
    counts["cli.bytes_out"] = result["bytes_out"]
    counts["cli.outputs_identical"] = result["identical"]
    # every timing also as a share of the traced pass wall
    for name in [n for n in times if n.endswith(("self_s", "busy_s"))]:
        times[name[:-2] + "_frac"] = times[name] / result["wall_s"]
    times["trace.wall_s"] = result["wall_s"]
    return dict(times), dict(counts)


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics from traced passes, each paired with an untraced
    pass run just before it; False when the counts disagree between passes."""
    runner.sample(0, run_jobs=False)
    traced, ratios = [], []
    start = time.monotonic()
    index = 0
    while len(traced) < MIN_TRACED or time.monotonic() - start < seconds:
        plain = runner.sample(index)
        result = plain and runner.sample(index + 1, trace=True)
        index += 2
        if result is None:
            return {}, False
        traced.append(layer_metrics(result))
        ratios.append(result["wall_s"] / plain["wall_s"])
    repeat = all(counts == traced[0][1] for _, counts in traced)
    if not repeat:
        runner.problems.append("derived counts differ between traced passes")
    values = dict(traced[0][1])
    for name in traced[0][0]:
        values[name] = statistics.median(t.get(name, 0.0) for t, _ in traced)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}, repeat


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_out") else "count"


def _print_table(workload: str, mode: str, metrics: dict) -> None:
    print(f"== {workload} ({mode})")
    for name in sorted(metrics):
        m = metrics[name]
        spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "q1" in m else ""
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{spread}")


def _missing(workload: str, metrics: dict, specs: list[dict]) -> list[str]:
    """Listed per-layer metrics that have no span on ``workload`` although the
    seed baseline has them nonzero there: the function was renamed, removed
    or is no longer called, and its 0 would read as a gain."""
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        seed = json.load(fh)["per_layer"].get(workload, {})
    return [f"listed metric {spec['name']} was measured as {seed[spec['name']]:.6g}"
            " on the seed but has no span now; update BENCHMARK.json and"
            " bench/tracer.py with the code"
            for spec in specs
            if spec["name"] not in metrics and seed.get(spec["name"], 0) != 0]


def run_one(workload: str, seed: int, seconds: float, trace: bool, listed: dict) -> dict:
    """One benchmark run; returns the result object the last line carries."""
    work = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}-{workload}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(workload, seed, work, time.monotonic() + RUN_DEADLINE_S)
        if trace:
            metrics, repeat = measure_layers(runner, seconds)
        else:
            metrics, repeat = measure_end_to_end(runner, seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_table(workload, "traced" if trace else "untraced", metrics)
    for problem in runner.problems[:20]:
        print(f"  FAIL {problem}")
    specs = listed["per_layer" if trace else "end_to_end"]
    if trace and metrics:
        for problem in _missing(workload, metrics, specs):
            print(f"  FAIL {problem}")
            runner.problems.append(problem)
    correct = bool(metrics) and repeat and runner.failed == 0 and not runner.problems
    # a function the workload never calls has no span: its metrics are 0
    out = {spec["name"]: {"value": metrics.get(spec["name"], {"value": 0})["value"],
                          "unit": spec["unit"]}
           for spec in specs}
    # a run that could not start a single pass counts as one failed attempt
    return {"correct": correct, "attempted": max(1, runner.attempted),
            "failed": runner.failed if runner.attempted else 1, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end, 1 per-layer (default: both)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kzsim", "cli.py")):
        print(f"no kzsim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)
    seconds = args.seconds if args.seconds is not None else listed["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in modes:
            results[f"{name}/{'trace' if trace else 'e2e'}"] = run_one(
                name, args.seed, seconds, trace, listed)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
