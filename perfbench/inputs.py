"""Seeded workload inputs: config documents, CLI jobs and their references.

Each workload is a fixed list of jobs per pass.  The seed picks, per job, a
variant from a small family that keeps the workload's character:

* the spectrum box is scaled uniformly by a rational s, with the
  tolerances (and, where fixed, the lattice densities) scaled to match, so
  the density's zero set stays at the same place inside the box, off the
  dyadic lines, and the certified routines refine the same boxes;
* each bracket key is written in either orientation ("X1,Y1" with v, or
  "Y1,X1" with -v), which names the same algebra.

Seed 0 reproduces the bundled fixture values.  References (det, sup,
measure, expected exit code) come from ``reference.py``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from reference import FAMILIES, coefficient_list, density, measure_reference, sup_reference

WORKLOADS = ("certify-d2", "certify-d3", "synthesize", "verify")

SCALES = (
    Fraction(2),
    Fraction(3, 2),
    Fraction(4, 3),
    Fraction(5, 3),
    Fraction(5, 4),
    Fraction(7, 4),
    Fraction(6, 5),
)

# example2 verify job: the fixture's truncation reduced to k = n = 1 and a
# coarser x-grid, so one pass fits the run length
VERIFY_POINTS_PER_CELL = 16
# synthesize job: a lambda-grid fine enough that cut-and-stack and the field
# writer dominate, small enough that a run holds many passes
SYNTH_GRID = [12, 18]


def _text(x: Fraction) -> str:
    return str(Fraction(x))


def algebra_doc(family: str, flips) -> dict:
    fam = FAMILIES[family]
    brackets = {}
    for (a, b, vec), flip in zip(fam["brackets"], flips):
        if flip:
            brackets[f"{b},{a}"] = [_text(-c) for c in vec]
        else:
            brackets[f"{a},{b}"] = [_text(c) for c in vec]
    return {"n": fam["n"], "d": fam["d"], "brackets": brackets}


class Variant:
    """One member of a family: scale and bracket-key orientations."""

    def __init__(self, family: str, scale: Fraction, flips: tuple[bool, ...]):
        self.family = family
        self.scale = scale
        self.flips = flips

    @classmethod
    def draw(cls, family: str, rng: random.Random | None) -> "Variant":
        count = len(FAMILIES[family]["brackets"])
        if rng is None:
            return cls(family, Fraction(1), (False,) * count)
        scale = rng.choice(SCALES)
        return cls(family, scale, tuple(rng.random() < 0.5 for _ in range(count)))

    def describe(self) -> dict:
        return {"family": self.family, "scale": _text(self.scale), "flips": list(self.flips)}


def _example2(var: Variant, measure_tol: float, lattice: dict, verification: dict) -> dict:
    s = var.scale
    sf = float(s)
    return {
        "label": "example2",
        "algebra": algebra_doc("example2", var.flips),
        "spectrum": {
            "a": [_text(2 * s), _text(3 * s)],
            "sup_tol": 1e-9 * sf**2,
            "measure_tol": measure_tol * sf**4,
            "sublevel_tol": 0.05 * sf**4,
        },
        "lattice": lattice,
        "verification": verification,
    }


def _example3(var: Variant) -> dict:
    # a = (t,t,t) with q = (t,t,t): the sublevel threshold prod(b q) = t^3
    # scales with the density, so the sublevel region keeps its shape
    t = var.scale
    tf = float(t)
    return {
        "label": "example3",
        "algebra": algebra_doc("example3", var.flips),
        "spectrum": {
            "a": [_text(t)] * 3,
            "sup_tol": 1e-6 * tf**3,
            "measure_tol": 0.01 * tf**6,
            "sublevel_tol": 0.05 * tf**6,
        },
        "lattice": {"q": [_text(t)] * 3, "b": ["1", "1", "1"]},
        "verification": {"lam_grid": [3, 3, 3]},
    }


def _heisenberg(var: Variant) -> dict:
    return {
        "label": "heisenberg",
        "algebra": algebra_doc("heisenberg", var.flips),
        "spectrum": {"a": ["1"], "sup_tol": 1e-9, "measure_tol": 1e-3},
        "lattice": {"q": ["1"], "b": ["1"], "onb_requested": True},
        "verification": {
            "lam_grid": [16],
            "points_per_cell": [52],
            "cells_before": [2],
            "cells_after": [3],
            "m_half": [32],
            "k_half": [16],
            "n_half": [16],
        },
    }


def _job_specs(workload: str, rng: random.Random | None):
    """(command, variant, config document) per job of one pass."""
    if workload == "certify-d2":
        var = Variant.draw("example2", rng)
        verification = {"lam_grid": [4, 6], "k_half": [4, 4], "n_half": [4, 4]}
        yield "design", var, _example2(var, 4e-8, {}, verification)
    elif workload == "certify-d3":
        for _ in range(3):
            var = Variant.draw("example3", rng)
            yield "design", var, _example3(var)
    elif workload == "synthesize":
        var = Variant.draw("example2", rng)
        s = _text(3 * var.scale)
        lattice = {"q": ["1", "1"], "b": [s, s]}
        yield "synthesize", var, _example2(var, 1e-3, lattice, {"lam_grid": SYNTH_GRID})
    elif workload == "verify":
        heis = Variant.draw("heisenberg", rng)
        heis.scale = Fraction(1)  # the d=1 job keeps the fixture box
        yield "verify", heis, _heisenberg(heis)
        var = Variant.draw("example2", rng)
        verification = {
            "lam_grid": [4, 6],
            "points_per_cell": [VERIFY_POINTS_PER_CELL] * 2,
            "k_half": [1, 1],
            "n_half": [1, 1],
        }
        yield "verify", var, _example2(var, 1e-3, {}, verification)
    else:
        raise KeyError(f"unknown workload {workload!r}")


def _params(doc: dict, sup: Fraction) -> dict:
    """Lattice densities the run must use: the config's, or the design rule
    (q = 1, b the d-th root of the sup; exact for these families)."""
    a = doc["spectrum"]["a"]
    lattice = doc["lattice"]
    if "b" in lattice:
        return {"a": a, "q": lattice["q"], "b": lattice["b"]}
    d = len(a)
    b = Fraction(round(sup.numerator ** (1 / d)), round(sup.denominator ** (1 / d)))
    if b**d != sup:
        raise ValueError(f"design reference needs an exact root of {sup}")
    return {"a": a, "q": ["1"] * d, "b": [_text(b)] * d}


def _expected_exit(params: dict, sup: Fraction) -> int:
    """Outcome the paper predicts: the density condition sup <= prod(b q)
    decides.  Every passing density condition has a Parseval window, so
    synthesis and the frame verifier are predicted to pass."""
    prod_bq = Fraction(1)
    for b, q in zip(params["b"], params["q"]):
        prod_bq *= Fraction(b) * Fraction(q)
    return 0 if sup <= prod_bq else 2


def build_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's config documents into workdir; return its jobs.

    File names in jobs and configs are relative to workdir, where the worker
    runs, so the same seed writes byte-identical documents anywhere.
    """
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for idx, (command, var, doc) in enumerate(_job_specs(workload, rng)):
        stem = f"job{idx}-{var.family}"
        config = f"{stem}.config.json"
        job = {"name": f"{workload}#{idx}:{var.family}", "command": command, "config": config}
        if command == "synthesize":
            job["field"] = f"{stem}.field.json"
            job["argv"] = [command, "--config", config, "--out", job["field"]]
        else:
            job["report"] = f"{stem}.report.json"
            job["argv"] = [command, "--config", config, "--out", job["report"]]
        if command == "verify":
            job["field"] = f"{stem}.field.json"
            doc["output"] = {"field_path": job["field"]}
        (workdir / config).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        a = [Fraction(x) for x in doc["spectrum"]["a"]]
        sup = sup_reference(var.family, a)
        job["variant"] = var.describe()
        params = _params(doc, sup)
        job["expect_exit"] = _expected_exit(params, sup)
        job["ref"] = {
            "params": params,
            "det": coefficient_list(density(var.family)),
            "sup": _text(sup),
            "measure": _text(measure_reference(var.family, a)),
        }
        jobs.append(job)
    return jobs
