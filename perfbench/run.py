"""The conesphere benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; conesphere is imported from its src/.
Each pass of the workload's job list runs in a fresh interpreter
(perfbench/worker.py), one at a time: a closed loop with one client.  Passes
repeat while the next one is expected to end within S seconds of the start;
there is always at least one.

--trace 0 measures the end-to-end metrics: work time of the job list, set-up
time and peak memory, as medians over the passes.  Work time is wall time
with the machine's speed held fixed (perfbench/speed.py); set-up time is
measured the same way and sampled in every pass and in extra set-up-only
interpreters, SETUP_SAMPLES in all.  The plain wall times, the accuracy
figures and the per-job times are printed too.
--trace 1 alternates a plain pass with a traced one and reports the
per-layer metrics of the traced passes, the tracing overhead (traced minus
plain work time) and the plain passes' per-job times, all as work times.

Every metric is printed by name with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  A job fails when
its exit code is not 0 or its output check fails; ``correct`` also requires
bit-identical reports in every pass of the run and, in a traced run, the
trace's self-checks.  Everything a run measured, with the environment and the
sha256 records of reports and meshes, goes to perfbench/out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {  # name -> unit; the metrics of an untraced run
    "work_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
DIAGNOSE_JOBS = ("gauss-bonnet", "spectrum", "symmetries", "example", "kernel-gap")


def unit_of(name):
    if name.endswith("_s") or name.startswith("job_s."):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {"solver.lu_fill": "nnz", "cli.bytes_written": "bytes"}.get(name, "count")


# the metrics of a traced run, in print order
PER_LAYER = [*tracing.layer_metrics([]), "cli.bytes_written",
             "trace.wall_s", "trace.overhead_s", "trace.untraced_s",
             *(f"job_s.{job}" for job in DIAGNOSE_JOBS)]


class Runner:
    """Spawns the worker interpreters of one run and keeps their results."""

    def __init__(self, run_dir, workload, seed, started):
        self.run_dir = run_dir
        self.workload = workload
        self.seed = seed
        self.started = started
        self.count = 0
        self.crashes = []

    def spawn(self, trace=False, setup_only=False):
        """Run one worker to completion; its result dict, or None if it died."""
        self.count += 1
        tag = f"{self.count:02d}-" + ("setup" if setup_only else "traced" if trace else "plain")
        out = os.path.join(self.run_dir, tag)
        os.makedirs(out)
        result_path = os.path.join(out, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--out", out,
               "--result", result_path, "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(5.0, TIME_LIMIT_S - (time.monotonic() - self.started))
        with open(os.path.join(out, "log.txt"), "w") as log:
            cmd += ["--t0", repr(time.monotonic())]
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            self.crashes.append(f"{tag}: worker exit {code}, see {out}/log.txt")
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        # the field dumps are large; the report hashes in result.json keep
        # what later comparisons need
        for path in glob.glob(os.path.join(out, "*", "*.csv")):
            os.remove(path)
        return result

    def elapsed(self):
        return time.monotonic() - self.started


def median(values):
    return statistics.median(values) if values else 0.0


def summarize_jobs(passes):
    """attempted, failed, per-job failure reasons, and report-hash mismatches."""
    attempted = failed = 0
    reasons, hashes = [], {}
    for k, res in enumerate(passes):
        for name, rec in res["jobs"].items():
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                reasons.append(f"pass {k} {name}: {rec['error']}")
            hashes.setdefault(name, set()).add(rec["report_sha256"])
    mismatched = sorted(name for name, h in hashes.items() if len(h) > 1)
    return attempted, failed, reasons, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the running worker is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "conesphere", "__init__.py")):
        print(f"no conesphere sources under {ROOT}/src: run from a conesphere checkout",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(run_dir, args.workload, args.seed, started)

    setups, plain, traced = [], [], []

    def spawn_into(bucket, **kind):
        res = runner.spawn(**kind)
        if res is not None:
            bucket.append(res)

    # set-up samples first: they also warm the file cache for the passes
    for _ in range(SETUP_SAMPLES - 2 if not args.trace else 1):
        spawn_into(setups, setup_only=True)
    while not runner.crashes:
        began = runner.elapsed()
        spawn_into(plain)
        if args.trace:
            spawn_into(traced, trace=True)
        now = runner.elapsed()
        if now + (now - began) > args.seconds:
            break
    while not args.trace and len(setups) + len(plain) < SETUP_SAMPLES and not runner.crashes:
        spawn_into(setups, setup_only=True)

    passes = plain + traced
    attempted, failed, reasons, mismatched = summarize_jobs(passes)
    if runner.crashes:  # a crashed pass counts all of its jobs as failed
        n_jobs = len(passes[0]["jobs"]) if passes else 1
        attempted += n_jobs * len(runner.crashes)
        failed += n_jobs * len(runner.crashes)
    problems = list(runner.crashes) + reasons
    problems += [f"report of {name} differs between passes" for name in mismatched]
    for k, res in enumerate(traced):
        problems += [f"traced pass {k}: {p}" for p in res["trace"]["problems"]]
    mesh_sets = {json.dumps(res["trace"]["meshes"]) for res in traced}
    if len(mesh_sets) > 1:
        problems.append("meshes differ between traced passes")

    env = setups[0]["environment"] if setups else {}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "rotation": workloads.rotation(args.workload, args.seed).tolist(),
              "problems": problems, "passes": passes,
              "setup_samples_s": [r["setup_work_s"] for r in setups + plain]}

    lines = []
    if not args.trace:
        metrics = end_to_end_metrics(plain, setups, attempted, failed, lines)
    else:
        metrics = per_layer_metrics(plain, traced, lines)
    detail["metrics"] = metrics
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  run {runner.elapsed():.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    records = passes[-1]["jobs"] if passes else {}
    for name, rec in records.items():
        extra = {k: rec[k] for k in ("nodes", "newton_iterations", "lu_fill") if k in rec}
        print(f"record {name} report_sha256 {rec['report_sha256']} {json.dumps(extra)}")
    for res in traced[-1:]:
        for m in res["trace"]["meshes"]:
            print(f"record mesh {m['job']} nodes {m['nodes']} "
                  f"vertices_sha256 {m['vertices_sha256']} faces_sha256 {m['faces_sha256']}")
    for p in problems:
        print(f"problem {p.splitlines()[0] if p else p}")
    print(f"details {os.path.relpath(os.path.join(run_dir, 'result.json'), ROOT)}")
    print(json.dumps({
        "correct": not problems and bool(passes),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(plain, setups, attempted, failed, lines):
    """The untraced run's metrics; every end-to-end figure is printed."""
    def med(key):
        return median([r[key] for r in plain])

    def from_jobs(key):
        return [rec[key] for r in plain for rec in r["jobs"].values() if key in rec]

    values = {
        "work_s": med("work_s"),
        "setup_s": median([r["setup_work_s"] for r in setups + plain]),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    # the same two times as the clock on the wall read them
    lines.append(f"metric wall_s {med('wall_s')!r} s")
    lines.append(f"metric setup_wall_s {median([r['setup_s'] for r in setups + plain])!r} s")
    lines.append(f"metric fail_ratio {failed / max(attempted, 1)} ratio "
                 f"({failed} of {attempted} jobs)")
    for k, v in values.items():
        lines.append(f"metric {k} {v!r} {END_TO_END[k]}")
    # deterministic for a seed but spread over seeds by far more than any
    # bound would allow, so they are gated by the output checks instead
    for key in ("gauss_bonnet_residual", "manufactured_error"):
        if from_jobs(key):
            lines.append(f"metric {key} {median(from_jobs(key))!r} ratio")
    for job in plain[0]["job_s"] if plain else ():
        lines.append(f"metric job_s.{job} {median([r['job_s'][job] for r in plain])!r} s")
    lines.append(f"samples work_s {len(plain)}  setup_s {len(setups) + len(plain)}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(plain, traced, lines):
    """The traced run's metrics: medians over its traced passes."""
    values = {name: median([r["trace"]["layers"][name] for r in traced])
              for name in traced[0]["trace"]["layers"]} if traced else {}
    plain_wall = median([r["wall_s"] for r in plain])
    values["trace.wall_s"] = median([r["wall_s"] for r in traced])
    # work times, which the host's load moves far less than wall times
    values["trace.overhead_s"] = (median([r["work_s"] for r in traced])
                                  - median([r["work_s"] for r in plain]))
    values["trace.untraced_s"] = median([r["trace"]["untraced_s"] for r in traced])
    for job in DIAGNOSE_JOBS:
        values[f"job_s.{job}"] = median([r["job_s"][job] for r in plain if job in r["job_s"]])
    lines.append(f"metric plain.wall_s {plain_wall!r} s")
    lines.append(f"metric trace.layer_self_s "
                 f"{median([r['trace']['layer_self_s'] for r in traced])!r} s")
    metrics = {}
    for name in PER_LAYER:
        unit = unit_of(name)
        value = values.get(name, 0)
        metrics[name] = {"value": value if unit in ("count", "bytes") else float(value), "unit": unit}
        lines.append(f"metric {name} {metrics[name]['value']!r} {unit}")
    lines.append(f"samples traced {len(traced)}  plain {len(plain)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
