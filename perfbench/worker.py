"""Workload process: runs passes of CLI jobs in one process and checks them.

    python3 perfbench/worker.py WORKDIR/jobs.json [--setup-only]
        [--seconds S] [--trace 0|1]

It imports nilframe from the checkout's ``src/``, parses every generated
config, prints ``ready`` (the end of set-up), then calls
``nilframe.cli.main(argv)`` for each job, pass after pass, until the run
length is used up.  Each distinct output is kept (field documents under
WORKDIR/kept/) and checked once after the last pass, after peak RSS is read,
so the checks add neither time nor memory to the program's figures.  The
result goes to WORKDIR/result.json, spans to WORKDIR/trace.json.
The first pass is a warm-up: it is checked like the others, but its time
is not in the figures.  With --trace 1, the passes after it alternate
traced and untraced, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# jobs that fail today for a documented reason, and the only kind of problem
# they may have: they still count in `failed`, but do not make the run
# incorrect.  "frame" is exit 2 with a complete verification section whose
# tiling passed and whose frame ratios or fiber defect are out of tolerance.
KNOWN_DEFECTS = {
    "verify#1:example2": (
        "frame",
        "frame verifier under-reports the example2 frame energy (ROADMAP item 2)",
    ),
}
# spans whose self time is orchestration, not a named layer
ORCHESTRATION = ("cli.main", "cli.run_command")

SPAN_SECONDS = (
    "cli.main",
    "cli.run_command",
    "cli.canonical_json",
    "config.parse_config",
    "algebra.validate_class",
    "algebra.jump_indices",
    "polynomial.determinant",
    "spectral.pfaffian_identity_check",
    "spectral.sup_density",
    "spectral.measure",
    "spectral.sublevel",
    "lattice.design_params",
    "lattice.conditions",
    "lattice.fiber_lattice",
    "windows.synthesize_window",
    "windows.build_generator_field",
    "windows.field_to_document",
    "verify.window_tiling_check",
    "verify.fiber_parseval_defect",
    "verify.make_test_field",
    "verify.frame_energy_ratio",
    "verify.gram_orthonormality_check",
)
SPAN_CALLS = (
    "polynomial.determinant",
    "spectral.build_matrices",
    "spectral.density_polynomial",
    "spectral.sup_density",
    "lattice.fiber_lattice",
    "windows.synthesize_window",
)
SUMMED_COUNTERS = (
    "spectral.sup_density.boxes",
    "spectral.measure.boxes",
    "spectral.sublevel.boxes",
    "windows.pieces",
    "verify.gram_entries",
)
PEAK_COUNTERS = (
    "spectral.sup_density.depth",
    "spectral.measure.depth",
    "spectral.sublevel.depth",
    "windows.max_pieces",
    "verify.tail_fraction",
)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import nilframe.cli
    import nilframe.config

    expected = (ROOT / "src" / "nilframe").resolve()
    if Path(nilframe.__file__).resolve().parent != expected:
        raise SystemExit(f"perfbench: imported nilframe from {nilframe.__file__}, not {expected}")
    return nilframe.cli, nilframe.config.parse_config


def run_job(cli, job):
    """One CLI call; returns (exit code or None, captured stdout, traceback or None)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
    except SystemExit as exc:
        return exc.code, out.getvalue(), None
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def keep_output(kept: dict, idx, job, code, stdout, error) -> tuple:
    """Key of one job's output.  The first time a key occurs, its report text
    and field document are kept (the field moved under kept/) to be checked
    after the run."""
    report = Path(job["report"]) if "report" in job else None
    # a job that stops before writing its report leaves only its stdout
    report_text = report.read_text() if report is not None and report.exists() else stdout
    field = Path(job["field"]) if "field" in job else None
    field_digest = ""
    if field is not None and field.exists():
        with field.open("rb") as fh:
            field_digest = hashlib.file_digest(fh, "sha256").hexdigest()
    key = (idx, code, error, hashlib.sha256(report_text.encode()).hexdigest(), field_digest)
    if key not in kept:
        stored = None
        if field_digest:
            stored = Path("kept") / f"{len(kept)}-{field.name}"
            os.replace(field, stored)
        kept[key] = (report_text, stored)
    return key


class Checker:
    """Checks one job output against the references and collects its figures."""

    def __init__(self, jobs):
        import checks

        self.checks = checks
        self.jobs = jobs
        self.configs = [json.loads(Path(job["config"]).read_text()) for job in jobs]

    def judge(self, idx, code, error, report_text, field_path) -> dict:
        job = self.jobs[idx]
        config = self.configs[idx]
        problems = []
        metrics: dict = {}
        if error is not None:
            problems.append(("traceback", error.strip().splitlines()[-1]))
        try:
            report = json.loads(report_text)
        except json.JSONDecodeError:
            report = None
            problems.append(("check", "no JSON report"))
        if code != job["expect_exit"]:
            oracle = self.checks.frame_oracle_failure(config, report) if code == 2 and report else None
            if oracle:
                problems.append(("frame", f"exit 2, frame oracle out of tolerance: {oracle}"))
            else:
                problems.append(("exit", f"exit {code}, paper predicts {job['expect_exit']}"))
        if report is not None:
            problems += [("check", p) for p in self.checks.check_report(job, report)]
            metrics = self.checks.report_metrics(config, report)
        field_bytes = field_path.read_bytes() if field_path is not None else b""
        if field_bytes:
            doc = json.loads(field_bytes)
            grid = config["verification"]["lam_grid"]
            problems += [("check", p) for p in self.checks.check_field(job, doc, grid)]
        elif "field" in job and (code == 0 or job["expect_exit"] == 0):
            problems.append(("check", "no window field written"))
        metrics["output_bytes"] = len(report_text.encode()) + len(field_bytes)
        known = KNOWN_DEFECTS.get(job["name"])
        incorrect = [p for p in problems if known is None or p[0] != known[0]]
        return {
            "job": job["name"],
            "exit": code,
            "failed": bool(problems),
            "incorrect": bool(incorrect),
            "problems": [f"{kind}: {text}" for kind, text in problems],
            "known_defect": known[1] if known and problems else None,
            "metrics": metrics,
        }


def layer_metrics(tracer, traced_passes, outcomes, overhead, coverage) -> dict:
    """Per-pass figures of the traced passes, named as in BENCHMARK.json."""
    selfs = tracer.self_times()
    out = {}
    for name in SPAN_SECONDS:
        out[f"{name}.s"] = selfs.get(name, (0.0, 0))[0] / traced_passes
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = selfs.get(name, (0.0, 0))[1] / traced_passes
    for name in SUMMED_COUNTERS:
        out[name] = tracer.counters.get(name, 0) / traced_passes
    for name in PEAK_COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    boxes = out["spectral.measure.boxes"]
    out["spectral.measure.us_per_box"] = 1e6 * out["spectral.measure.s"] / boxes if boxes else 0.0

    def total(key):
        return sum(o["metrics"].get(key, 0) for o in outcomes)

    def peak(key):
        return max((o["metrics"].get(key, 0) for o in outcomes), default=0)

    out["cli.output_bytes"] = total("output_bytes")
    out["verify.tiling_probes"] = total("tiling_probes")
    out["verify.defect_evals"] = total("defect_evals")
    out["verify.ratio_evals"] = total("ratio_evals")
    evals = out["verify.ratio_evals"]
    out["verify.ratio.ns_per_eval"] = 1e9 * out["verify.frame_energy_ratio.s"] / evals if evals else 0.0
    out["verify.max_fiber_defect"] = peak("max_fiber_defect")
    out["verify.max_ratio_err"] = peak("max_ratio_err")
    out["trace.overhead_frac"] = overhead
    out["trace.coverage"] = coverage
    return out


def layer_seconds(selfs) -> float:
    """Self time held by named layer spans, not by orchestration."""
    return sum(s for name, (s, _) in selfs.items() if name not in ORCHESTRATION)


def job_breakdown(tracer, job_id, wall, name) -> dict:
    """Where one traced job's time went: its largest self times, the share of
    its wall time in named layer spans, and the share in orchestration self
    time (cli.main, cli.run_command, and the unwrapped helpers they call).
    The rest of the wall time is outside nilframe.cli.main."""
    selfs = tracer.self_times(job_id)
    orchestration = sum(selfs.get(k, (0.0, 0))[0] for k in ORCHESTRATION)
    top = sorted(((k, s) for k, (s, _) in selfs.items()), key=lambda kv: -kv[1])[:5]
    return {
        "job": name,
        "wall_s": wall,
        "layer_share": layer_seconds(selfs) / wall,
        "orchestration_share": orchestration / wall,
        "top_self_s": top,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs_file = Path(args.jobs).resolve()
    os.chdir(jobs_file.parent)

    cli, parse_config = _import_program()
    jobs = json.loads(jobs_file.read_text())
    for job in jobs:
        parse_config(job["config"])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # the benchmark's own modules load after "ready", outside set-up
    import resource

    import numpy
    from tracing import Tracer

    Path("kept").mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    passes = []
    pass_keys = []
    kept: dict = {}
    job_walls: dict = {job["name"]: [] for job in jobs}
    deadline = time.perf_counter() + args.seconds
    # a warm-up pass, then at least one timed pass of each kind
    min_passes = 3 if tracer else 2
    while len(passes) < min_passes or time.perf_counter() < deadline:
        warmup = not passes
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        results = []
        t_pass = time.perf_counter()
        for idx, job in enumerate(jobs):
            if traced:
                tracer.job = len(passes) * len(jobs) + idx
            for stale in (job.get("report"), job.get("field")):
                if stale:
                    Path(stale).unlink(missing_ok=True)
            t0 = time.perf_counter()
            code, stdout, error = run_job(cli, job)
            results.append((idx, code, stdout, error, time.perf_counter() - t0))
        wall = time.perf_counter() - t_pass
        if traced:
            tracer.uninstall()
            breakdown = [job_breakdown(tracer, len(passes) * len(jobs) + idx, job_wall, jobs[idx]["name"])
                         for idx, *_rest, job_wall in results]
        if not warmup:
            for idx, code, stdout, error, job_wall in results:
                job_walls[jobs[idx]["name"]].append(job_wall)
        pass_keys.append([keep_output(kept, idx, jobs[idx], code, stdout, error)
                          for idx, code, stdout, error, _ in results])
        passes.append({"wall": wall, "traced": traced, "warmup": warmup})

    # the program's peak: nothing has been checked yet
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker = Checker(jobs)
    verdicts = {key: checker.judge(*key[:3], text, stored) for key, (text, stored) in kept.items()}
    for p, keys in zip(passes, pass_keys):
        p["failed"] = sum(verdicts[k]["failed"] for k in keys)
        p["incorrect"] = sum(verdicts[k]["incorrect"] for k in keys)
    outcomes = [verdicts[k] for k in pass_keys[-1]]

    result = {
        "numpy": numpy.__version__,
        "passes": passes,
        "job_walls": job_walls,
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        untraced = [p["wall"] for p in passes if not (p["traced"] or p["warmup"])]
        traced_walls = [p["wall"] for p in passes if p["traced"]]
        overhead = statistics.median(traced_walls) / statistics.median(untraced) - 1.0
        coverage = layer_seconds(tracer.self_times()) / sum(traced_walls)
        result["job_breakdown"] = breakdown
        result["layers"] = layer_metrics(tracer, len(traced_walls), outcomes, overhead, coverage)
        result["top_spans"] = sorted(
            ((name, s / len(traced_walls)) for name, (s, _) in tracer.self_times().items()),
            key=lambda kv: -kv[1],
        )[:8]
        Path("trace.json").write_text(json.dumps({"spans": tracer.spans}) + "\n")
    Path("result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
