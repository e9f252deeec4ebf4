"""Regenerate ``bench/reference`` from the kzsim sources of this checkout.

    python3 bench/make_reference.py

Runs every workload's job list once, in a fresh child exactly as a
benchmark sample does, and stores each job's artifact as
``reference/<workload>/<job>.<ext>`` and its stdout as ``<job>.stdout``.
The stored files are the seed's outputs: regenerate them only in a change
that is allowed to move the outputs, and say so.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import jobs as workloads
from run import REFERENCE, ROOT, resolve, spawn


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        for workload, make_jobs in workloads.WORKLOADS.items():
            jobs = resolve(make_jobs(), work, workload)
            result, problem = spawn(jobs, jobs, False, work, workload,
                                    time.monotonic() + 600)
            if result is None:
                print(problem, file=sys.stderr)
                return 1
            target = os.path.join(REFERENCE, workload)
            os.makedirs(target, exist_ok=True)
            for job, run in zip(jobs, result["jobs"]):
                if run["error"] is not None or run["rc"] != 0:
                    print(f"{job['id']} failed: {run['error'] or run['stderr']}",
                          file=sys.stderr)
                    return 1
                base = os.path.join(target, job["id"])
                shutil.copyfile(job["out"], f"{base}.{job['ext']}")
                with open(f"{base}.stdout", "w", newline="") as fh:
                    fh.write(run["stdout"])
            print(f"{workload}: {len(jobs)} jobs, {result['wall_s']:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
