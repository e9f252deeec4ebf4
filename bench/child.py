"""One benchmark sample: a fresh process that runs a workload's job list once.

Usage: python3 bench/child.py SPEC.json

The spec names the checkout's ``src`` directory, the jobs (with resolved
output paths), the argv whose parse ends set-up, whether to trace, and where
to write the result.  Every job except the ``api`` one goes through
``kzsim.cli.main(argv)``.  Names are looked up on the modules at call time,
so a tracer installed after set-up sees every call.
"""
import sys
import time


def _overlap_job(job) -> int:
    import kzsim.evolve
    import kzsim.protocol

    lines = ["bx,k,j,overlap"]
    for bx, k in job["settings"]:
        cfg = kzsim.evolve.SweepConfig.from_rate(
            bx, k, b0=job["b0"], bz_end=job["bz_end"], backend="trotter")
        for j in range(cfg.steps + 1):
            f = kzsim.protocol.protocol_overlap(cfg, j)
            lines.append(f"{bx!r},{k!r},{j},{f!r}")
    with open(job["out"], "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _peak_rss_kb() -> int:
    """High-water resident memory of this process image.

    ``ru_maxrss`` is not used: after a vfork-based spawn it starts from the
    parent's peak, so a large parent would mask the child's own figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_job(job, cli) -> dict:
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job["argv"]) if job["kind"] == "cli" else _overlap_job(job)
        except Exception:  # a job that raises is a failed job; the pass goes on
            error = traceback.format_exc()
    return {"id": job["id"], "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def main() -> int:
    import json

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import kzsim.cli

    kzsim.cli.parse_args(spec["setup_argv"])
    setup_done = time.monotonic()
    if not kzsim.cli.__file__.startswith(spec["src"]):
        print(f"kzsim imported from {kzsim.cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    jobs = [_run_job(job, kzsim.cli) for job in spec["jobs"]]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {"setup_done": setup_done, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_kb": _peak_rss_kb(), "jobs": jobs}
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
