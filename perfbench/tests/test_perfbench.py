"""Tests of the benchmark itself: seeded inputs, reference checks, determinism.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from run import layer_unit  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    jobs_a = inputs.build_jobs(workload, 7, tmp_path / "a")
    jobs_b = inputs.build_jobs(workload, 7, tmp_path / "b")
    assert jobs_a == jobs_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_changes_inputs(tmp_path, workload):
    inputs.build_jobs(workload, 1, tmp_path / "one")
    inputs.build_jobs(workload, 2, tmp_path / "two")
    inputs.build_jobs(workload, 0, tmp_path / "zero")
    assert _files(tmp_path / "one") != _files(tmp_path / "two")
    assert _files(tmp_path / "one") != _files(tmp_path / "zero")


def test_seed_zero_reproduces_the_fixture(tmp_path):
    (job,) = inputs.build_jobs("certify-d2", 0, tmp_path)
    fixture = json.loads((ROOT / "src/nilframe/fixtures/example2.json").read_text())
    assert json.loads((tmp_path / job["config"]).read_text()) == fixture
    assert job["ref"]["measure"] == "46/3" and job["ref"]["sup"] == "9"


def test_references_match_the_paper():
    assert reference.coefficient_list(reference.density("example2")) == [
        [[0, 2], "-1"],
        [[2, 0], "1"],
    ]
    assert reference.coefficient_list(reference.density("example3")) == [
        [[0, 0, 3], "-1"],
        [[0, 3, 0], "-1"],
        [[1, 1, 1], "3"],
        [[3, 0, 0], "-1"],
    ]
    assert reference.measure_reference("example2", [2, 3]) == Fraction(46, 3)
    assert reference.measure_reference("example3", [1, 1, 1]) == Fraction(3, 8)
    assert reference.sup_reference("example2", [2, 3]) == 9
    assert reference.sup_reference("example3", [1, 1, 1]) == 2


def _example2_report(job) -> dict:
    return {
        "spectral": {
            "det_b": job["ref"]["det"],
            "sup_density": {"lower": "9", "upper": "9"},
            "measure": {"lower": "15333333/1000000", "upper": "15333334/1000000"},
        },
        "design": {"params": job["ref"]["params"]},
    }


def test_checker_accepts_and_flags_tampered_certificates(tmp_path):
    (job,) = inputs.build_jobs("certify-d2", 0, tmp_path)
    report = _example2_report(job)
    assert checks.check_report(job, report) == []

    report["spectral"]["measure"] = {"lower": "15333334/1000000", "upper": "15333335/1000000"}
    (problem,) = checks.check_report(job, report)
    assert "excludes 46/3" in problem

    report = _example2_report(job)
    report["spectral"]["sup_density"] = {"lower": "8", "upper": "89999/10000"}
    assert any("excludes 9" in p for p in checks.check_report(job, report))

    report = _example2_report(job)
    report["spectral"]["det_b"] = [[[0, 2], "-1"], [[2, 0], "2"]]
    assert any("det_b" in p for p in checks.check_report(job, report))


def _nilframe(cwd: Path, argv: list[str]) -> int:
    """Exit code of the nilframe CLI run from the checkout's sources in cwd."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from nilframe.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        cwd=cwd,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True,
    ).returncode


def test_checker_flags_tampered_windows(tmp_path):
    (job,) = inputs.build_jobs("synthesize", 0, tmp_path)
    config = json.loads((tmp_path / job["config"]).read_text())
    config["verification"]["lam_grid"] = [4, 6]
    (tmp_path / job["config"]).write_text(json.dumps(config))
    assert _nilframe(tmp_path, job["argv"]) == 0
    doc = json.loads((tmp_path / job["field"]).read_text())
    assert checks.check_field(job, doc, [4, 6]) == []

    node = max(doc["nodes"], key=lambda n: len(n["pieces"]))
    assert len(node["pieces"]) > 1
    node["pieces"][-1] = dict(node["pieces"][0])
    assert any("coincide" in p for p in checks.check_field(job, doc, [4, 6]))

    node["pieces"].pop()
    assert any("support measure" in p for p in checks.check_field(job, doc, [4, 6]))


def test_known_defect_is_only_the_frame_oracle_failure(tmp_path, monkeypatch):
    jobs = inputs.build_jobs("verify", 0, tmp_path)
    idx = 1
    job = jobs[idx]
    assert job["name"] in worker.KNOWN_DEFECTS and job["expect_exit"] == 0
    assert _nilframe(tmp_path, job["argv"]) == 2
    report = json.loads((tmp_path / job["report"]).read_text())
    field = tmp_path / job["field"]
    monkeypatch.chdir(tmp_path)
    checker = worker.Checker(jobs)

    def judge(doc, code=2, field_path=field):
        return checker.judge(idx, code, None, json.dumps(doc), field_path)

    # today's failure: counted as failed, but the run stays correct
    outcome = judge(report)
    assert outcome["failed"] and not outcome["incorrect"]
    assert [p.split(":")[0] for p in outcome["problems"]] == ["frame"]

    # any other way to exit 2 makes the run incorrect
    no_verification = {k: v for k, v in report.items() if k != "verification"}
    assert judge(no_verification)["incorrect"]
    assert judge(dict(no_verification, synthesis={"refused": "density condition fails"}))["incorrect"]
    assert judge(dict(report, error={"type": "PieceOverflowError", "message": "too many pieces"}))["incorrect"]
    tiling_failed = copy.deepcopy(report)
    tiling_failed["verification"]["tiling"]["passed"] = False
    assert judge(tiling_failed)["incorrect"]
    within_tolerance = copy.deepcopy(report)
    within_tolerance["verification"]["fiber_defects"]["max"] = 0.0
    for ratio in within_tolerance["verification"]["frame_ratios"]:
        ratio["ratio"] = 1.0
    assert judge(within_tolerance)["incorrect"]
    assert judge(report, field_path=None)["incorrect"]


def _run_once(workload: str, seed: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_same_seed_gives_identical_deterministic_metrics():
    (report_a, result_a), (report_b, result_b) = _run_once("verify", 4), _run_once("verify", 4)
    timed = ("s", "us", "ns")
    counts_a = {k: v["value"] for k, v in result_a["metrics"].items() if v["unit"] not in timed}
    counts_b = {k: v["value"] for k, v in result_b["metrics"].items() if v["unit"] not in timed}
    for volatile in ("trace.overhead_frac", "trace.coverage"):
        counts_a.pop(volatile), counts_b.pop(volatile)
    assert counts_a == counts_b
    assert [j["figures"] for j in report_a["jobs"]] == [j["figures"] for j in report_b["jobs"]]
    assert counts_a["spectral.measure.boxes"] > 0 and counts_a["windows.pieces"] > 0
    # the example2 job fails today, and is counted
    assert result_a["failed"] == result_a["attempted"] // 2 and result_a["correct"]
    # warm-up, traced and untraced pass: only the untraced one is in wall_s
    assert result_a["attempted"] == 3 * 2 and report_a["wall_s"]["n"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, result = _run_once("certify-d3", 1)
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    for m in spec["per_layer"]:
        assert m["unit"] == layer_unit(m["name"])
