"""Config parsing, command dispatch, exit codes, report determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilframe.cli import (
    EXIT_CONDITION,
    EXIT_INPUT,
    EXIT_PASS,
    canonical_json,
    fixture_path,
    main,
    run_command,
)
from nilframe.config import parse_config
from nilframe.errors import SchemaError

from conftest import EXAMPLE2_DOC, HEISENBERG_DOC


def desk_config_doc(**overrides):
    doc = {
        "algebra": dict(HEISENBERG_DOC),
        "spectrum": {"a": ["1"]},
        "lattice": {"q": ["1"], "b": ["1"]},
        "verification": {"lam_grid": [16]},
    }
    doc.update(overrides)
    return doc


def heisenberg_sub_box(lo, hi):
    """The heisenberg fixture with its λ-grid on the sub-box [lo, hi]."""
    doc = json.loads(fixture_path("heisenberg.json").read_text())
    doc["spectrum"]["sub_boxes"] = [{"lo": [lo], "hi": [hi]}]
    return parse_config(doc)


class TestParseConfig:
    def test_bundled_fixture_is_valid(self):
        config = parse_config(fixture_path("heisenberg.json"))
        assert config.algebra.n == 3
        assert config.lattice.q == (1,)

    def test_missing_d_names_the_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"algebra": {"n": 3, "brackets": {}}}))
        with pytest.raises(SchemaError) as err:
            parse_config(p)
        assert "algebra.d" in str(err.value)

    def test_rational_string_parsed_exactly(self):
        from fractions import Fraction

        config = parse_config(desk_config_doc(lattice={"q": ["1/2"], "b": ["1"]}))
        assert config.lattice.q == (Fraction(1, 2),)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            parse_config(desk_config_doc(bogus=1))

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope}")
        with pytest.raises(SchemaError) as err:
            parse_config(p)
        assert "line" in str(err.value)

    def test_float_rejected_for_exact_field(self):
        with pytest.raises(SchemaError):
            parse_config(desk_config_doc(spectrum={"a": [1.5]}))

    @pytest.mark.parametrize(
        "algebra, a, kn",
        [(HEISENBERG_DOC, ["1"], (16,)), (EXAMPLE2_DOC, ["2", "3"], (4, 4))],
    )
    def test_verification_defaults_resolved_at_parse(self, algebra, a, kn):
        doc = {"algebra": algebra, "spectrum": {"a": a}}
        config = parse_config(doc)
        v, d = len(a), len(kn)
        ver = config.verification
        assert ver.lam_grid == (16,) * v
        assert ver.points_per_cell == (52,) * d
        assert (ver.cells_before, ver.cells_after) == ((2,) * d, (3,) * d)
        assert ver.m_half == (32,) * v
        assert ver.k_half == ver.n_half == kn
        assert config.raw == doc


class TestRunCommand:
    def test_validate_pass(self):
        config = parse_config(desk_config_doc())
        report, code = run_command("validate", config)
        assert code == EXIT_PASS
        assert report["validation"]["passed"]
        assert report["validation"]["jump_indices"] == [2, 3]

    def test_analyze_reports_spectral_data(self):
        config = parse_config(desk_config_doc())
        report, code = run_command("analyze", config)
        assert code == EXIT_PASS
        assert report["spectral"]["det_b"] == [[[1], "-1"]]
        assert report["spectral"]["pfaffian"]["passed"]
        assert abs(float(json.loads(json.dumps(report["spectral"]["sup_density"]["value"]))) - 1.0) < 1e-9

    def test_design_reports_conditions(self):
        config = parse_config(desk_config_doc(lattice={}))
        report, code = run_command("design", config)
        assert code == EXIT_PASS
        assert report["design"]["params"] == {"a": ["1"], "q": ["1"], "b": ["1"]}

    def test_design_with_onb_request_fails_with_conflict(self):
        config = parse_config(
            desk_config_doc(lattice={"q": ["1"], "b": ["1"], "onb_requested": True})
        )
        report, code = run_command("design", config)
        assert code == EXIT_CONDITION
        onb = next(
            c for c in report["design"]["conditions"] if c["condition"] == "orthonormal_basis"
        )
        assert onb["margins"]["required_uniform_q"] == "1/2"
        assert onb["margins"]["required_q_density_compatible"] is False

    def test_synthesize_rejects_density_violation_before_building(self, tmp_path):
        config = parse_config(desk_config_doc(lattice={"q": ["1/2"], "b": ["1"]}))
        out = tmp_path / "field.json"
        report, code = run_command("synthesize", config, out_path=str(out))
        assert code == EXIT_CONDITION
        assert not out.exists()
        assert "refused" in report["synthesis"]

    def test_synthesize_builds_spectral_matrices_once(self, tmp_path, monkeypatch):
        import nilframe.spectral as spectral

        calls = []
        original = spectral.build_matrices

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(spectral, "build_matrices", counting)
        config = parse_config(desk_config_doc())
        _, code = run_command("synthesize", config, out_path=str(tmp_path / "field.json"))
        assert code == EXIT_PASS
        assert len(calls) == 1

    def test_design_certifies_sup_once_and_reuses_det_b(self, monkeypatch):
        # a designed lattice reuses the sup certified by analyze, and the
        # Pfaffian check reuses the spec's det_b: one sup, and determinants
        # only for det_b and the jump block
        import nilframe.cli as cli
        import nilframe.lattice as lattice
        import nilframe.spectral as spectral

        calls = {"sup_density": 0, "determinant": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(cli, "sup_density")
        counting(lattice, "sup_density")
        counting(spectral, "determinant")
        config = parse_config(desk_config_doc(lattice={}))
        report, code = run_command("design", config)
        assert code == EXIT_PASS
        assert report["design"]["params"]["b"] == ["1"]
        assert calls == {"sup_density": 1, "determinant": 2}

    def test_synthesize_writes_field_document(self, tmp_path):
        config = parse_config(desk_config_doc())
        out = tmp_path / "field.json"
        report, code = run_command("synthesize", config, out_path=str(out))
        assert code == EXIT_PASS
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 16
        assert report["synthesis"]["nodes"] == 16

    def test_verify_passes_on_desk_config(self):
        config = parse_config(fixture_path("heisenberg.json"))
        report, code = run_command("verify", config)
        assert code == EXIT_PASS
        assert report["verification"]["passed"]
        assert report["verification"]["fiber_defects"]["max"] <= 1e-3
        for ratio in report["verification"]["frame_ratios"]:
            assert abs(ratio["ratio"] - 1.0) <= 1e-2

    def test_verify_csv_dump(self, tmp_path):
        import json as _json

        doc = _json.loads(fixture_path("heisenberg.json").read_text())
        csv_path = tmp_path / "defects.csv"
        doc["output"] = {"csv_path": str(csv_path)}
        config = parse_config(doc)
        _, code = run_command("verify", config)
        assert code == EXIT_PASS
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "lam,defect"
        assert len(lines) >= 2

    def test_verify_zero_truncation_fails(self):
        doc = desk_config_doc()
        doc["verification"] = {
            "lam_grid": [16],
            "m_half": [0],
            "k_half": [0],
            "n_half": [0],
        }
        config = parse_config(doc)
        report, code = run_command("verify", config)
        assert code == EXIT_CONDITION
        assert report["verification"]["frame_ratios"][0]["ratio"] < 1.0

    def test_verify_sub_box_grid_aliases_with_its_period(self):
        # 16 nodes on [1/4, 3/4] of the unit box step by 1/32: the central
        # indices alias with period 32, not 16, and every ratio closes to one
        report, code = run_command("verify", heisenberg_sub_box("1/4", "3/4"))
        assert code == EXIT_PASS
        for ratio in report["verification"]["frame_ratios"]:
            assert abs(ratio["ratio"] - 1.0) <= 1e-6

    def test_verify_fractional_alias_period_is_input_error(self):
        # 16 nodes on [0, 3/4]: the period 64/3 is not an integer
        report, code = run_command("verify", heisenberg_sub_box("0", "3/4"))
        assert code == EXIT_INPUT
        assert report["error"]["field"] == "verify"
        assert "axis 0" in report["error"]["message"]
        assert "64/3" in report["error"]["message"]

    def test_verify_bumps_centred_per_axis(self, monkeypatch):
        # example2's box is (0, 2) x (0, 3): test field i peaks at
        # (2, 3) * (45 + 7i)/100 with widths (0.2, 0.3), off the zero set l1 = l2
        import nilframe.cli as cli

        profiles = []
        real = cli.make_test_field

        def recording(*args, **kwargs):
            profiles.append(kwargs["spectral_profile"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "make_test_field", recording)
        doc = json.loads(fixture_path("example2.json").read_text())
        doc["verification"].update(points_per_cell=[8, 8], k_half=[1, 1], n_half=[1, 1])
        run_command("verify", parse_config(doc))
        assert len(profiles) == 3
        for i, profile in enumerate(profiles):
            centre = [2 * (45 + 7 * i) / 100, 3 * (45 + 7 * i) / 100]
            assert profile(np.array(centre)) == 1.0
            for axis, width in enumerate((0.2, 0.3)):
                off = list(centre)
                off[axis] += width
                assert profile(np.array(off)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_examples_all_match(self):
        report, code = run_command("examples", None)
        assert code == EXIT_PASS
        assert set(report["examples"]) == {"1", "2", "3"}
        assert all(ex["matches"] for ex in report["examples"].values())

    def test_report_determinism(self):
        config = parse_config(desk_config_doc())
        one, _ = run_command("analyze", config)
        two, _ = run_command("analyze", config)
        assert canonical_json(one) == canonical_json(two)

    def test_timing_optional(self):
        config = parse_config(desk_config_doc())
        plain, _ = run_command("analyze", config)
        timed, _ = run_command("analyze", config, timing=True)
        assert "timing" not in plain
        assert "timing" in timed


@pytest.mark.parametrize(
    "command, fixture, digest",
    [
        ("analyze", "heisenberg", "3196f3f5448643200801387b4d9b548c4ce58f178ae58ae3635f168ae01bc81a"),
        ("analyze", "example2", "38bc6052eb618cbac62ed7930b60cf0717f52ca7753f9e28439e0128fd3b25c2"),
        ("analyze", "example3", "6d9810582a13bf3274982a8b2f454fe9cfbec4f01f8025969ccc409023d9a187"),
        ("design", "heisenberg", "8e41f5f0da675d6165a68aaf8cc0f51d4b06f104d0a6abc5da60fd947a273f15"),
        ("design", "example2", "c1a71ae6ad27ace2f0ea159bec03c6c7e1c63a07a6824e6e448e5be662f9993c"),
        ("design", "example3", "9507de831b20c7ab4763d3437ad322e9b05e570a8f4d14da815cf9f1a58e17fa"),
        ("examples", None, "133add3dcb9344372baeb9872fddd568746baaa8260ea5d17c4ae095385adf5b"),
    ],
)
def test_fixture_reports_pinned(command, fixture, digest):
    # the canonical reports run only exact arithmetic and correctly rounded
    # floats, so a change to the exact kernels must leave them bit for bit
    config = parse_config(fixture_path(f"{fixture}.json")) if fixture else None
    report, _ = run_command(command, config)
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest


class TestMainEntry:
    def test_main_validate(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc()))
        code = main(["validate", "--config", str(cfg)])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert json.loads(out)["validation"]["passed"]

    def test_main_schema_error_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"algebra": {"n": 3, "brackets": {}}}))
        code = main(["validate", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert "algebra.d" in capsys.readouterr().out

    def test_main_oversized_integer_literal_exit_3(self, tmp_path, capsys):
        # past 4,300 digits json.loads raises a plain ValueError, not a JSONDecodeError
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc())[:-1] + ', "label": ' + "1" * 5000 + "}")
        code = main(["validate", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert json.loads(capsys.readouterr().out)["error"]["field"] == "config"

    def test_main_output_report_path_is_a_schema_error(self, tmp_path, capsys):
        # only --out sets a report path; the config key is rejected, not ignored
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc(output={"report_path": "r.json"})))
        code = main(["validate", "--config", str(cfg)])
        assert code == EXIT_INPUT
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "schema"
        assert error["field"] == "output"

    def test_main_report_to_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc()))
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_PASS
        assert json.loads(out.read_text())["command"] == "analyze"

    def test_main_trunc_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc()))
        code = main(["verify", "--config", str(cfg), "--trunc", "0,0,0"])
        assert code == EXIT_CONDITION

    def test_main_verify_without_usable_nodes_exit_3(self, tmp_path, capsys):
        # the one λ-node (1/2, 1/2) lies on the zero set of l1^2 - l2^2
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": EXAMPLE2_DOC,
                    "spectrum": {"a": ["1", "1"]},
                    "lattice": {"q": ["1", "1"], "b": ["1", "1"]},
                    "verification": {"lam_grid": [1, 1]},
                }
            )
        )
        code = main(["verify", "--config", str(cfg)])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["field"] == "verify"
        assert "Traceback" not in captured.err

    def test_main_stage_schema_error_keeps_the_report(self, tmp_path, capsys):
        # the zero-set config above: every stage before verify completes, and
        # the input error inside verify is reported beside their sections
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "algebra": EXAMPLE2_DOC,
                    "spectrum": {"a": ["1", "1"]},
                    "lattice": {"q": ["1", "1"], "b": ["1", "1"]},
                    "verification": {"lam_grid": [1, 1]},
                }
            )
        )
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INPUT
        report = json.loads(out.read_text())
        for section in ("validation", "spectral", "design", "synthesis"):
            assert section in report, section
        assert report["error"]["type"] == "schema"
        assert report["error"]["field"] == "verify"
        assert report["status"] == "fail"

    @pytest.mark.parametrize("flag, value", [("--grid", "4,x"), ("--trunc", "1,x,2")])
    def test_main_non_integer_override_exit_3(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc()))
        code = main(["analyze", "--config", str(cfg), flag, value])
        assert code == EXIT_INPUT
        assert json.loads(capsys.readouterr().out)["error"]["field"] == flag[2:]

    def test_main_b_without_q_fixes_the_lattice(self, tmp_path, capsys):
        # b = 1/2 alone is kept (q = 1) and fails the density condition
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc(lattice={"b": ["1/2"]})))
        out = tmp_path / "report.json"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONDITION
        assert json.loads(out.read_text())["design"]["params"]["b"] == ["1/2"]

    def test_main_examples_single(self, capsys):
        code = main(["examples", "--example", "1"])
        assert code == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["examples"]) == ["1"]

    def test_main_design_root_beyond_float_range(self, tmp_path, capsys):
        # b = sup**(1/3) rounded up at 200 digits: the scaled radicand is far
        # beyond float range, and the designed b must still pass the density
        # condition
        doc = json.loads(Path(fixture_path("example3.json")).read_text())
        doc["lattice"] = {"precision_digits": 200}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_PASS
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        b = Fraction(report["design"]["params"]["b"][0])
        sup = Fraction(report["spectral"]["sup_density"]["upper"])
        assert b.denominator == 10**200
        assert b**3 >= sup > (b - Fraction(1, 10**200)) ** 3

    def test_main_design_fixed_lattice_at_high_precision(self, tmp_path, capsys):
        # with b = q = 1 fixed, the density condition fails on the full
        # example3 box: exit 2, not a traceback
        doc = json.loads(Path(fixture_path("example3.json")).read_text())
        doc["lattice"]["precision_digits"] = 200
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = main(["design", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_CONDITION
        assert "Traceback" not in capsys.readouterr().err


# a path under a directory that does not exist, placed under the test's tmp_path
MISSING = "missing/out.json"


@pytest.mark.parametrize(
    "command, edit, extra, field",
    [
        ("verify", {}, ["--tol", "nan"], "spectrum.sup_tol"),
        ("verify", {}, ["--tol", "inf"], "spectrum.sup_tol"),
        ("verify", {}, ["--tol", "1e400"], "spectrum.sup_tol"),
        ("verify", {"verification": {"ratio_tol": math.nan}}, [], "verification.ratio_tol"),
        ("validate", {"output": 5}, [], "output"),
        ("validate", {"verification": []}, [], "verification"),
        ("validate", {"lattice": None}, [], "lattice"),
        ("validate", {"spectrum": {"sub_boxes": 5}}, [], "spectrum.sub_boxes"),
        ("validate", {"spectrum": {"a": ["1e10000000"]}}, [], "spectrum.a[0]"),
        ("synthesize", {"output": {"field_path": 5}}, [], "output.field_path"),
        ("verify", {"output": {"csv_path": 1}}, [], "output.csv_path"),
        ("analyze", {}, ["--out", MISSING], "out"),
        ("synthesize", {}, ["--out", MISSING], "out"),
        ("synthesize", {"output": {"field_path": MISSING}}, [], "output.field_path"),
        ("verify", {"output": {"csv_path": MISSING}}, [], "output.csv_path"),
    ],
    ids=[
        "tol-nan",
        "tol-inf",
        "tol-overflow",
        "ratio-tol-nan",
        "output-int",
        "verification-list",
        "lattice-null",
        "sub-boxes-int",
        "exponent-string",
        "field-path-int",
        "csv-path-int",
        "report-out-missing-dir",
        "field-out-missing-dir",
        "field-path-missing-dir",
        "csv-path-missing-dir",
    ],
)
def test_config_and_output_errors_exit_3(tmp_path, command, edit, extra, field):
    # each edit merges into a section of the heisenberg fixture, or replaces
    # a section that is not an object; a fresh interpreter, since a bad
    # output path can reach the process's own file descriptors
    missing = str(tmp_path / MISSING)
    doc = json.loads(fixture_path("heisenberg.json").read_text())
    for section, value in edit.items():
        if isinstance(value, dict):
            doc.setdefault(section, {}).update(
                {k: missing if v == MISSING else v for k, v in value.items()}
            )
        else:
            doc[section] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)] + [missing if a == MISSING else a for a in extra]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nilframe.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == EXIT_INPUT
    assert json.loads(proc.stdout)["error"]["field"] == field


_STARTUP_PROBE = """
import sys
from nilframe.cli import fixture_path, main

def numpy_loaded():
    return any(name.startswith("numpy.") for name in sys.modules)

example2 = str(fixture_path("example2.json"))
out = sys.argv[1]
for argv in (
    ["validate", "--config", example2, "--out", out],
    ["analyze", "--config", example2, "--out", out],
    ["design", "--config", example2, "--out", out],
    ["synthesize", "--config", example2, "--out", out],
    ["examples"],
):
    assert main(argv) == 0, argv
    assert not numpy_loaded(), argv
assert main(["verify", "--config", str(fixture_path("heisenberg.json")), "--out", out]) == 0
assert numpy_loaded()
"""


def test_certified_commands_start_without_numpy(tmp_path):
    # a fresh interpreter: this one has imported numpy already
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    import numpy

    import nilframe.verify

    assert nilframe.verify.np is sys.modules["numpy"] is numpy
