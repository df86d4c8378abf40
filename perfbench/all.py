"""Run every workload, untraced and traced, and print all metrics by name.

    python3 perfbench/all.py [--seeds 0,1,2] [--seconds 20] [--out FILE]

Each (workload, seed) gets one untraced run (end-to-end metrics) and one
traced run (per-layer metrics), each in fresh processes through run.py.
End-to-end metrics are summarised over the seeds as median, quartiles,
sample count and spread, (q3 - q1) / median.  --out writes the summary, the
untraced runs' figures and the full seed-0 reports as JSON, in the form of
baseline.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS
from run import quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=seconds + 900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr}")
    env, report, result = (json.loads(line) for line in out.stdout.splitlines()[-3:])
    return {"env": env["env"], "report": report["report"], "result": result}


def summarise(runs: list[dict]) -> dict:
    """Per metric: median, quartiles, sample count and spread over the runs."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        s = quartiles([r["result"]["metrics"][name]["value"] for r in runs])
        out[name] = dict(s, spread=(s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    doc: dict = {
        "about": (
            f"python3 perfbench/all.py --seeds {args.seeds} --seconds {args.seconds:g} --out FILE: "
            "one untraced and one traced run per workload and seed. "
            "spread = (q3 - q1) / median over the untraced runs."
        ),
        "environment": None,
        "summary": {},
        "untraced_runs": {},
        "seed0": {},
    }
    for workload in WORKLOADS:
        untraced = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = [run_once(workload, seed, args.seconds, 1) for seed in seeds]
        e2e = summarise(untraced)
        layers = summarise(traced)
        attempted = sum(r["result"]["attempted"] for r in untraced)
        failed = sum(r["result"]["failed"] for r in untraced)
        correct = all(r["result"]["correct"] for r in untraced + traced)
        doc["summary"][workload] = {
            "correct": correct,
            "fail_frac": failed / attempted,
            "end_to_end": e2e,
            "per_layer_median": {name: s["median"] for name, s in layers.items()},
        }
        doc["untraced_runs"][workload] = [
            {
                "seed": seed,
                **{k: r["result"][k] for k in ("correct", "attempted", "failed")},
                "passes": r["report"]["wall_s"]["n"],
                **{name: m["value"] for name, m in r["result"]["metrics"].items()},
            }
            for seed, r in zip(seeds, untraced)
        ]
        if 0 in seeds:
            at = seeds.index(0)
            traced_report = {k: v for k, v in traced[at]["report"].items() if k != "layers"}
            doc["seed0"][workload] = {"untraced": untraced[at]["report"], "traced": traced_report}
        env = {k: v for k, v in untraced[0]["env"].items() if k not in ("workload", "seed")}
        doc["environment"] = doc["environment"] or env

        print(f"== {workload}: correct={correct} fail_frac={failed}/{attempted}", flush=True)
        for name, s in e2e.items():
            unit = untraced[0]["result"]["metrics"][name]["unit"]
            print(f"  {name:36s} {s['median']:.6g} {unit} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"n={s['n']}, spread {s['spread']:.3f}]")
        for name, s in layers.items():
            unit = traced[0]["result"]["metrics"][name]["unit"]
            print(f"  {name:36s} {s['median']:.6g} {unit}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
