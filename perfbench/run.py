"""nilframe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Writes the workload's inputs under
.perfbench-run/W/, measures set-up in fresh processes, runs the workload in
one more fresh process (perfbench/worker.py) for S seconds, and prints an
environment line, a report line and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Exits non-zero without a result when the
program's sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# fresh processes timed from spawn to "ready"; the worker itself adds one more
SETUP_PROBES = 9
BLAS_THREADS = 1
# headroom over --seconds for the pass that straddles the deadline and checks
GRACE_SECONDS = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cert_width_rel": "ratio",
    "sublevel_width_rel": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    for suffix, unit in ((".us_per_box", "us"), (".ns_per_eval", "ns"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_frac", "_fraction", "_defect", "_err", ".coverage")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_and_wait_ready(argv, env) -> tuple[subprocess.Popen, float]:
    """Start a process; return it with the seconds until it printed ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ended before set-up finished")
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")


def git_commit() -> str:
    # a checkout without .git has no commit; git would search the parent directories
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (ROOT / "src" / "nilframe" / "__init__.py").is_file():
        print(f"perfbench: no nilframe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-run" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = inputs.build_jobs(workload, seed, workdir)
    jobs_file = workdir / "jobs.json"
    jobs_file.write_text(json.dumps(jobs, indent=1) + "\n")

    env = child_env()
    worker = [sys.executable, str(WORKER), str(jobs_file)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, elapsed = start_and_wait_ready(worker + ["--setup-only"], env)
        finish(proc, GRACE_SECONDS)
        setups.append(elapsed)
    proc, elapsed = start_and_wait_ready(
        worker + ["--seconds", str(seconds), "--trace", str(trace)], env
    )
    finish(proc, seconds + GRACE_SECONDS)
    setups.append(elapsed)
    result = json.loads((workdir / "result.json").read_text())

    passes = result["passes"]
    walls = [p["wall"] for p in passes if not (p["traced"] or p["warmup"])]
    outcomes = result["outcomes"]
    attempted = len(passes) * len(jobs)
    failed = sum(p["failed"] for p in passes)
    correct = not any(p["incorrect"] for p in passes)

    def peak(key):
        return max(o["metrics"].get(key, 0.0) for o in outcomes)

    end_to_end = {
        # the mean over the run: the host's speed drifts between states for
        # seconds at a time, and a mean averages them where a median of
        # passes jumps between them
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "cert_width_rel": peak("cert_width_rel"),
        "sublevel_width_rel": peak("sublevel_width_rel"),
    }
    env_stamp = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "commit": git_commit(),
        "machine": platform.machine(),
    }
    report = {
        "workload": workload,
        "closed_loop": "one client, jobs back to back in one process",
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setups),
        "end_to_end": end_to_end,
        "fail_frac": failed / attempted,
        "jobs": [
            {
                "job": o["job"],
                "variant": job["variant"],
                "exit": o["exit"],
                "expected_exit": job["expect_exit"],
                "wall_s": quartiles(result["job_walls"][o["job"]]),
                "problems": o["problems"],
                "known_defect": o["known_defect"],
                "figures": o["metrics"],
            }
            for job, o in zip(jobs, outcomes)
        ],
    }
    if trace:
        report["layers"] = result["layers"]
        report["top_self_s_per_pass"] = result["top_spans"]
        report["traced_jobs"] = result["job_breakdown"]
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in result["layers"].items()
        }
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"env": env_stamp}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nilframe benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
