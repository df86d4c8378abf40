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
    EXIT_CERTIFICATION,
    EXIT_CONDITION,
    EXIT_INPUT,
    EXIT_PASS,
    canonical_json,
    error_exit,
    fixture_path,
    main,
    run_command,
)
from nilframe.config import VerificationConfig, parse_config
from nilframe.errors import (
    CertificationError,
    DegenerateFiberError,
    DensityViolationError,
    MisalignedGridError,
    PieceOverflowError,
    RankDeficiencyError,
    SchemaError,
)

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


HEISENBERG = str(fixture_path("heisenberg.json"))


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
        "algebra, a",
        [(HEISENBERG_DOC, ["1"]), (EXAMPLE2_DOC, ["2", "3"])],
    )
    def test_verification_defaults_resolved_at_parse(self, algebra, a):
        # lam_grid is the one verification value a command reads
        doc = {"algebra": algebra, "spectrum": {"a": a}}
        config = parse_config(doc)
        assert config.verification == VerificationConfig(lam_grid=(16,) * len(a))
        assert config.raw == doc

    @pytest.mark.parametrize("key", ["sup_tol", "measure_tol", "sublevel_tol"])
    def test_tolerance_rounding_to_zero_names_the_field(self, key):
        # certified widths are compared at denominator 10**18: 1e-300 is 0 there
        with pytest.raises(SchemaError) as err:
            parse_config(desk_config_doc(spectrum={"a": ["1"], key: 1e-300}))
        assert err.value.field == f"spectrum.{key}"


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
        import nilframe.spectral as spectral

        calls = {"sup_density": 0, "determinant": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(cli, "sup_density")
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

    def test_verify_zero_truncation_fails(self, monkeypatch):
        # zero truncations fail the library's truncated oracle (ratio < 1),
        # but the exact verify stage does not read them: it exits 0 with the
        # same report as the default run
        import nilframe.cli as cli
        from nilframe.verify import (
            TruncationSpec,
            bump_profile,
            frame_energy_ratio,
            gaussian_profile,
            make_aligned_grid,
            make_test_field,
        )

        base, _ = run_command("verify", parse_config(desk_config_doc()))
        fields = []
        real = cli.build_generator_field

        def capturing(*args, **kwargs):
            fields.append(real(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(cli, "build_generator_field", capturing)
        doc = desk_config_doc()
        doc["verification"].update(m_half=[0], k_half=[0], n_half=[0])
        config = parse_config(doc)
        report, code = run_command("verify", config)
        assert code == EXIT_PASS
        assert report["verification"] == base["verification"]

        # field 0 of the truncated oracle, at the config's truncations and
        # the x-grid the config used to default to
        field, = fields
        b = field.params.b
        x_grid = make_aligned_grid(b, [2], [3], [52])
        (lo, hi), = field.box.region()
        psi = make_test_field(
            field,
            x_grid,
            spectral_profile=bump_profile(
                [float(l + (h - l) * Fraction(45, 100)) for l, h in zip(lo, hi)],
                [0.1 * float(h - l) for l, h in zip(lo, hi)],
            ),
            space_profile=gaussian_profile([0.5 / float(x) for x in b], [0.08 / float(x) for x in b]),
        )
        trunc = TruncationSpec(m_half=(0,), k_half=(0,), n_half=(0,))
        assert frame_energy_ratio(psi, field, trunc).ratio < 1.0

    def test_verify_truncation_keys_still_range_check(self):
        # the x-grid and truncation keys size only the library's truncated
        # oracle: they still parse and range-check, but any in-range values
        # parse to the same verification config as leaving them out, and
        # their least values leave the verify report as the default run's
        base_config = parse_config(desk_config_doc())
        base, _ = run_command("verify", base_config)
        least_values = {
            "m_half": 0, "k_half": 0, "n_half": 0, "points_per_cell": 1, "cells_before": 0, "cells_after": 1
        }
        for offset in (0, 1, 7, 52):
            doc = desk_config_doc()
            doc["verification"].update({key: [least + offset] for key, least in least_values.items()})
            assert parse_config(doc).verification == base_config.verification
        doc = desk_config_doc()
        doc["verification"].update({key: [least] for key, least in least_values.items()})
        report, code = run_command("verify", parse_config(doc))
        assert code == EXIT_PASS
        assert report["verification"] == base["verification"]
        for key, least in least_values.items():
            bad = desk_config_doc()
            bad["verification"][key] = [least - 1]
            with pytest.raises(SchemaError) as err:
                parse_config(bad)
            assert err.value.field == f"verification.{key}"

    def test_verify_example2_passes(self):
        # the exact oracle sees the 20 example2 windows as Parseval: every
        # fiber of every test, and every frame ratio, within rounding of one
        report, code = run_command("verify", parse_config(fixture_path("example2.json")))
        assert code == EXIT_PASS
        verification = report["verification"]
        assert verification["tiling"]["passed"]
        assert verification["fiber_defects"]["probed_nodes"] == 20
        assert verification["fiber_defects"]["max"] <= 1e-12
        assert "worst" not in verification["fiber_defects"]
        for ratio in verification["frame_ratios"]:
            assert abs(ratio["ratio"] - 1.0) <= 1e-12
            assert ratio["tail_fraction"] == 0.0

    def test_verify_sample_budget_exit_4(self, monkeypatch):
        # a fiber whose sample set would pass the budget ends the stage in a
        # certification error, with the earlier sections kept
        import nilframe.verify as verify

        monkeypatch.setattr(verify, "FIBER_SAMPLE_LIMIT", 10)
        report, code = run_command("verify", parse_config(fixture_path("heisenberg.json")))
        assert code == EXIT_CERTIFICATION
        assert report["error"]["type"] == "certification"
        assert "over 10" in report["error"]["message"]
        assert "synthesis" in report and "verification" not in report

    @pytest.mark.parametrize(
        "fixture, b, what",
        [
            ("heisenberg", ["10000000000"], "10000000046 samples, over 1000000"),
            ("example2", ["30000000000"] * 2, "47434164976 sample lines, over 1000000"),
        ],
    )
    def test_verify_sample_budget_before_allocation(self, fixture, b, what):
        # at b near 10**10 the tests are so narrow that a sample set spans
        # about 10**10 steps of the sample lattice: the budget refuses it
        # before any array of that length is made
        doc = json.loads(fixture_path(f"{fixture}.json").read_text())
        doc["lattice"] = {"q": ["1"] * len(b), "b": b}
        report, code = run_command("verify", parse_config(doc))
        assert code == EXIT_CERTIFICATION
        assert report["error"]["message"].endswith(what)

    @pytest.mark.parametrize(
        "limit, what",
        [(2**4, "piece cells pass the int64 range"), (2**9, "(u, n) keys pass the int64 range")],
        ids=["piece-cells", "keys"],
    )
    def test_verify_int64_guards_exit_4(self, monkeypatch, limit, what):
        # the oracle's integer work is bounded before it is done: with the
        # bound lowered, each guard ends the stage in a certification error
        # (heisenberg's first fiber needs 2**6 for its cells, 2**11 for its
        # keys)
        import nilframe.verify as verify

        monkeypatch.setattr(verify, "_INT_LIMIT", limit)
        report, code = run_command("verify", parse_config(fixture_path("heisenberg.json")))
        assert code == EXIT_CERTIFICATION
        assert report["error"]["type"] == "certification"
        assert report["error"]["message"].endswith(what)
        assert "synthesis" in report and "verification" not in report

    def test_verify_names_the_worst_fiber(self, monkeypatch):
        # the 28-piece window at λ = (3/4, 11/4) loses its last piece: the
        # report names that fiber and the wide test, which sees the gap
        from dataclasses import replace

        import nilframe.cli as cli

        real = cli.build_generator_field

        def broken_field(*args, **kwargs):
            field = real(*args, **kwargs)
            nodes = tuple(
                replace(n, window=replace(n.window, offsets=n.window.offsets[:-1]))
                if n.lam == (Fraction(3, 4), Fraction(11, 4)) else n
                for n in field.nodes
            )
            return replace(field, nodes=nodes)

        monkeypatch.setattr(cli, "build_generator_field", broken_field)
        report, code = run_command("verify", parse_config(fixture_path("example2.json")))
        assert code == EXIT_CONDITION
        verification = report["verification"]
        assert not verification["tiling"]["passed"]
        worst = verification["fiber_defects"]["worst"]
        assert worst["lam"] == ["3/4", "11/4"]
        assert worst["test"] == "wide"
        assert worst["ratio"] == pytest.approx(0.9613, abs=1e-4)
        assert verification["fiber_defects"]["max"] == pytest.approx(1.0 - worst["ratio"], rel=1e-12)

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
        real = cli.bump_profile

        def recording(*args, **kwargs):
            profiles.append(real(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(cli, "bump_profile", recording)
        run_command("verify", parse_config(fixture_path("example2.json")))
        assert len(profiles) == 3
        for i, profile in enumerate(profiles):
            centre = [2 * (45 + 7 * i) / 100, 3 * (45 + 7 * i) / 100]
            assert profile(np.array(centre)) == 1.0
            for axis, width in enumerate((0.2, 0.3)):
                off = list(centre)
                off[axis] += width
                assert profile(np.array(off)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_touching_sub_boxes_measure_their_union(self):
        # [0, 1/2] and [1/2, 1] share a face: the measure of |λ| is 1/2
        doc = json.loads(fixture_path("heisenberg.json").read_text())
        doc["spectrum"]["sub_boxes"] = [{"lo": ["0"], "hi": ["1/2"]}, {"lo": ["1/2"], "hi": ["1"]}]
        report, code = run_command("design", parse_config(doc))
        assert code == EXIT_PASS
        measure = report["spectral"]["measure"]
        assert Fraction(measure["lower"]) <= Fraction(1, 2) <= Fraction(measure["upper"])

    def test_density_straddle_recertifies_at_the_configured_tolerance(self, monkeypatch):
        # prod(b q) = 1.2599211**3 ~ 2.00000024 lies inside example3's sup
        # bracket [2, 4194305/2097152] at sup_tol 1e-6, so the design stage
        # certifies once more, at sup_tol * 1e-3, before the density check
        import nilframe.cli as cli

        tols = []
        real = cli.sup_density

        def recording(*args, **kwargs):
            tols.append(kwargs["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "sup_density", recording)
        doc = json.loads(fixture_path("example3.json").read_text())
        doc["lattice"] = {"q": ["1"] * 3, "b": ["12599211/10000000"] * 3}
        report, code = run_command("design", parse_config(doc))
        assert code == EXIT_PASS
        assert tols == [pytest.approx(1e-6), pytest.approx(1e-9)]
        assert report["spectral"]["sup_density"]["upper"] == "4194305/2097152"

    @pytest.mark.parametrize(
        "fixture, spectrum, b",
        [("example2", {}, ["3", "3"]), ("heisenberg", {"a": ["2"]}, ["2"])],
    )
    def test_design_without_b_takes_the_root_of_the_sup(self, fixture, spectrum, b):
        # sup 9 on example2's box (2, 3) and 2 on heisenberg's (2)
        doc = json.loads(fixture_path(f"{fixture}.json").read_text())
        doc["spectrum"].update(spectrum)
        doc["lattice"] = {}
        report, code = run_command("design", parse_config(doc))
        assert code == EXIT_PASS
        assert report["design"]["params"]["b"] == b

    def test_density_straddle_recertifies_no_finer_than_1e_18(self):
        # at sup_tol 1e-16 the straddle would re-certify at 1e-19, which
        # rounds to 0; at 1e-18, b**3 - 2 ~ 1.3e-20 still straddles: exit 2
        doc = json.loads(fixture_path("example3.json").read_text())
        doc["spectrum"]["sup_tol"] = 1e-16
        doc["lattice"] = {"q": ["1"] * 3, "b": [f"125992104989487316477/{10**20}"] * 3}
        report, code = run_command("design", parse_config(doc))
        assert code == EXIT_CONDITION
        assert not report["design"]["conditions"][0]["passed"]

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


@pytest.mark.parametrize(
    "fixture, digest",
    [
        ("heisenberg", "6307b043593774ff1a34cd65f5a496bb72b991bd0094a068d2b5aeaecc4f014e"),
        ("example2", "b2336ab2f3433562f215fb90f6735505083d4d51cbc02176743f4d4ad61be599"),
    ],
)
def test_fixture_field_documents_pinned(tmp_path, fixture, digest):
    # the field document's floats come only from exact rationals and
    # math.sqrt, so the cut-and-stack kernel and the writer must leave the
    # file that `synthesize --out` writes bit for bit
    out = tmp_path / "field.json"
    _, code = run_command("synthesize", parse_config(fixture_path(f"{fixture}.json")), out_path=str(out))
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
        # the truncation half-widths are set in the config, the one source;
        # the exact verify stage reads none of them, so zero truncations
        # print the same verification section as the default config
        sections = []
        for trunc in ({}, {"m_half": [0], "k_half": [0], "n_half": [0]}):
            doc = desk_config_doc()
            doc["verification"].update(trunc)
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc))
            code = main(["verify", "--config", str(cfg)])
            assert code == EXIT_PASS
            sections.append(json.loads(capsys.readouterr().out)["verification"])
        assert sections[0] == sections[1]

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

    def test_main_b_without_q_fixes_the_lattice(self, tmp_path, capsys):
        # b = 1/2 alone is kept (q = 1) and fails the density condition
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(desk_config_doc(lattice={"b": ["1/2"]})))
        out = tmp_path / "report.json"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONDITION
        assert json.loads(out.read_text())["design"]["params"]["b"] == ["1/2"]

    def test_main_fixed_b_keeps_a_q_below_one(self, tmp_path, capsys):
        # beside a given b, q = 1/2 is no hint to reject: it is kept, and the
        # density condition fails (sup 2 > prod(b q) = 1)
        cfg = tmp_path / "c.json"
        doc = desk_config_doc(spectrum={"a": ["2"]}, lattice={"q": ["1/2"], "b": ["2"]})
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONDITION
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text())["design"]["params"]["q"] == ["1/2"]

    @pytest.mark.parametrize(
        "fixture, lattice",
        [
            ("heisenberg", {"q": ["1"], "b": [str(10**400)]}),
            ("heisenberg", {"q": [str(10**400)], "b": ["1"]}),
            ("heisenberg", {"q": ["1"], "b": [f"1/{10**400}"]}),
            ("example3", {"precision_digits": 1500}),
        ],
        ids=["b-1e400", "q-1e400", "b-1e-400", "digits-1500"],
    )
    def test_main_design_densities_out_of_range_exit_3(self, tmp_path, capsys, fixture, lattice):
        # prod(b q) = 10**±400 is past the float range; at 1500 digits the
        # covolume of example3's designed lattice has a 4,501-digit
        # denominator, past the int-to-str digit limit
        doc = json.loads(fixture_path(f"{fixture}.json").read_text())
        doc["lattice"] = lattice
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = main(["design", "--config", str(cfg)])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["error"]["field"] == "lattice"

    @pytest.mark.parametrize(
        "a, q, b",
        [("3", f"1/{10**400}", str(10**400)), (f"1/{10**10}", f"1/{10**300}", str(10**307))],
        ids=["b-1e400-q-1e-400", "a-1e-10-b-1e307"],
    )
    def test_main_design_cancelling_densities_out_of_range_exit_3(self, tmp_path, capsys, a, q, b):
        # prod(b q) is in range, but the basis check turns about
        # prod(a) prod(b) / measure into a float: prod(b) = 10**400 is past
        # the float range, and so is 2 10**317 for a = 10**-10, b = 10**307
        doc = json.loads(fixture_path("heisenberg.json").read_text())
        doc["spectrum"]["a"] = [a]
        doc["lattice"] = {"q": [q], "b": [b]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = main(["design", "--config", str(cfg)])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["error"]["field"] == "lattice"

    def test_main_examples_single(self, capsys):
        code = main(["examples", "--example", "1"])
        assert code == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["examples"]) == ["1"]

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["analyze"], "config"),
            (["frobnicate"], "argv"),
            (["examples", "--example", "7"], "argv"),
            (["validate", "--config", HEISENBERG, "--bogus"], "argv"),
            # the config is the one source of tolerances, grid and truncations
            (["analyze", "--config", HEISENBERG, "--tol", "1e-6"], "argv"),
            (["analyze", "--config", HEISENBERG, "--grid", "4"], "argv"),
            (["analyze", "--config", HEISENBERG, "--trunc", "0,0,0"], "argv"),
        ],
        ids=["no-config", "unknown-command", "example-7", "unknown-flag", "tol", "grid", "trunc"],
    )
    def test_main_usage_error_exit_3(self, capsys, argv, field):
        code = main(argv)
        assert code == EXIT_INPUT
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["type"], error["field"]) == ("schema", field)

    def test_main_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nilframe")

    def test_main_stage_error_keeps_the_report(self, capsys, monkeypatch):
        # an error type outside the schema, condition and budget classes,
        # raised by the last stage, still leaves the earlier sections
        import nilframe.cli as cli

        def misaligned(*args, **kwargs):
            raise MisalignedGridError("grid step does not divide the translations")

        monkeypatch.setattr(cli, "PeriodizedFiber", misaligned)
        code = main(["verify", "--config", HEISENBERG])
        assert code == EXIT_INPUT
        report = json.loads(capsys.readouterr().out)
        for section in ("validation", "spectral", "design", "synthesis"):
            assert section in report, section
        assert report["error"]["type"] == "MisalignedGridError"
        assert report["status"] == "fail"

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


@pytest.mark.parametrize(
    "exc, block_type, code",
    [
        (SchemaError("spectrum.a", "missing"), "schema", EXIT_INPUT),
        (CertificationError("budget"), "certification", EXIT_CERTIFICATION),
        (DensityViolationError("volume"), "DensityViolationError", EXIT_CONDITION),
        (PieceOverflowError("pieces"), "PieceOverflowError", EXIT_CONDITION),
        (MisalignedGridError("grid"), "MisalignedGridError", EXIT_INPUT),
        (DegenerateFiberError("fiber"), "DegenerateFiberError", EXIT_INPUT),
        (RankDeficiencyError("rank"), "RankDeficiencyError", EXIT_INPUT),
    ],
)
def test_error_exit_table(exc, block_type, code):
    block, got = error_exit(exc)
    assert (block["type"], block["message"], got) == (block_type, str(exc), code)


# a path under a directory that does not exist, placed under the test's tmp_path
MISSING = "missing/out.json"


@pytest.mark.parametrize(
    "command, edit, extra, field",
    [
        # NaN, infinity and an integer literal past the float range
        ("verify", {"spectrum": {"sup_tol": math.nan}}, [], "spectrum.sup_tol"),
        ("verify", {"spectrum": {"sup_tol": math.inf}}, [], "spectrum.sup_tol"),
        ("verify", {"spectrum": {"sup_tol": 10**400}}, [], "spectrum.sup_tol"),
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
        ("design", {"spectrum": {"sub_boxes": [{"lo": ["0"], "hi": ["1"]}] * 2}}, [],
         "spectrum.sub_boxes"),
        ("design", {"spectrum": {"sub_boxes": [{"lo": ["0"], "hi": ["1/2"]},
                                               {"lo": ["1/4"], "hi": ["1"]}]}}, [],
         "spectrum.sub_boxes"),
        ("analyze", {"spectrum": {"measure_tol": 1e-300}}, [], "spectrum.measure_tol"),
        ("analyze", {"spectrum": {"sup_tol": 4e-19}}, [], "spectrum.sup_tol"),
        ("analyze", {"verification": {"lam_grid": ["x"]}}, [], "verification.lam_grid"),
        # verification counts below their least value, named before any stage runs
        ("validate", {"verification": {"lam_grid": [0]}}, [], "verification.lam_grid"),
        ("validate", {"verification": {"points_per_cell": [0]}}, [], "verification.points_per_cell"),
        ("validate", {"verification": {"cells_after": [0]}}, [], "verification.cells_after"),
        ("validate", {"verification": {"cells_before": [-1]}}, [], "verification.cells_before"),
        ("validate", {"verification": {"m_half": [-2]}}, [], "verification.m_half"),
        ("validate", {"verification": {"k_half": [-1]}}, [], "verification.k_half"),
        ("validate", {"verification": {"n_half": [-1]}}, [], "verification.n_half"),
        ("analyze", {"spectrum": {"a": ["1" * 3000]}}, [], "spectrum.a"),
        ("analyze", {"spectrum": {"a": ["1" + "0" * 160]}}, [], "spectrum.a"),
        # keys removed from the schema, set to their former defaults
        ("validate", {"spectrum": {"eps_degenerate": 1e-12}}, [], "spectrum"),
        ("validate", {"verification": {"test_fields": 3}}, [], "verification"),
        ("validate", {"verification": {"piece_limit": 4096}}, [], "verification"),
        ("validate", {"output": {"timing": False}}, [], "output"),
        ("validate", {"verification": {"ratio_tol": 1e-2}}, [], "verification"),
        ("validate", {"verification": {"defect_tol": 1e-3}}, [], "verification"),
    ],
    ids=[
        "tol-nan",
        "tol-inf",
        "tol-overflow",
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
        "sub-boxes-duplicate",
        "sub-boxes-overlap",
        "measure-tol-floor",
        "tol-floor",
        "lam-grid-x",
        "lam-grid-zero",
        "points-per-cell-zero",
        "cells-after-zero",
        "cells-before-negative",
        "m-half-negative",
        "k-half-negative",
        "n-half-negative",
        "a-repunit",
        "a-1e160",
        "removed-eps-degenerate",
        "removed-test-fields",
        "removed-piece-limit",
        "removed-timing",
        "removed-ratio-tol",
        "removed-defect-tol",
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
