"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand.  It imports conesphere from the checkout's
src/, writes the seed's job files, and either stops there (``--setup-only``,
a set-up time sample) or runs the job list once, optionally traced, checks
every job's output, and writes what it measured to ``--result`` as JSON.
From its start to the end of the pass it samples the machine's speed, so
every time it reports comes as a work time too (speed.py).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import speed  # noqa: E402


def _blas_threads():
    """Thread count of each OpenBLAS library numpy and scipy ship."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _dir_bytes(path):
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*")) if os.path.isfile(p))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up work time counts from the spawn, as set-up time does
    t0 = args.t0 + (time.perf_counter() - time.monotonic())
    sampler = speed.Sampler()
    sampler.start()
    import conesphere
    import conesphere.cli
    import tracing
    import workloads

    jobs = workloads.write_jobs(args.workload, args.seed, os.path.join(args.out, "jobs"))
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - t0,
              "setup_work_s": speed.work_seconds(sampler.samples, t0, setup_end)}
    if args.setup_only:
        sampler.stop()
        result["environment"] = environment()
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    config_dir = os.path.join(args.out, "jobs")
    exit_codes, job_times, errors = {}, {}, {}
    pass_start = time.perf_counter()
    for name, cli_argv in jobs:
        out_dir = os.path.join(args.out, name)
        span = tracer.begin("job." + name) if tracer else None
        t = time.perf_counter()
        try:
            if cli_argv is None:
                code = workloads.run_kernel_gap(os.path.join(config_dir, "flagship.json"), out_dir)
            else:
                code = conesphere.cli.main(cli_argv + ["--out", out_dir])
        except conesphere.ConesphereError as exc:
            code = 1
            errors[name] = f"{type(exc).__name__}: {exc}"
        except Exception:  # a traceback is a failed job; keep running the rest
            code = "exception"
            errors[name] = traceback.format_exc()
        job_times[name] = (t, time.perf_counter())
        if tracer:
            tracer.end(span)
        exit_codes[name] = code
    pass_end = time.perf_counter()
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = {}
    for name, _ in jobs:
        out_dir = os.path.join(args.out, name)
        rec = workloads.check_job(args.workload, name, exit_codes[name], out_dir)
        if name in errors:
            rec["error"] = f"{rec['error']}: {errors[name]}"
        rec["bytes_written"] = _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
        records[name] = rec
    clock = speed.WorkClock(sampler.samples, pass_start)
    work_s = clock(pass_end)
    result.update({
        "wall_s": pass_end - pass_start,
        "work_s": work_s,
        "job_s": {name: clock(b) - clock(a) for name, (a, b) in job_times.items()},
        "job_wall_s": {name: b - a for name, (a, b) in job_times.items()},
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
        "speed_samples": len(sampler.samples),
    })
    if tracer:
        spans = tracer.spans
        # layer times are work times, like the end-to-end times
        work_spans = tracing.on_clock(spans, clock)
        layers = tracing.layer_metrics(work_spans)
        layers["cli.bytes_written"] = sum(r["bytes_written"] for r in records.values())
        layer_self, untraced = tracing.split_wall(work_spans, work_s)
        solves = [r for r in records.values() if "continuation_steps" in r]
        result["trace"] = {
            "layers": layers,
            "layer_self_s": layer_self,
            "untraced_s": untraced,
            "problems": tracing.consistency(spans, pass_start, pass_end, solves),
            "meshes": tracing.mesh_records(spans),
        }
        for name, fill in tracing.lu_fill_per_job(spans).items():
            records[name]["lu_fill"] = fill
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump([s.as_dict() for s in spans], fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
