"""Command-line pipeline: validate, analyze, design, synthesize, verify, examples.

Reports are deterministic JSON (sorted keys, exact rationals as "p/q"
strings, binary64 values as shortest round-trip decimals).  Exit codes:
0 all requested checks pass, 2 a mathematical condition failed, 3 input
error, 4 a certification budget ran out before reaching tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebra import jump_indices, validate_class
from .config import ConfigDocument, parse_config, resolve_params
from .errors import (
    CertificationError,
    DensityViolationError,
    NilframeError,
    PieceOverflowError,
    SchemaError,
)
from .lattice import (
    QuasiLatticeParams,
    check_density_condition,
    check_onb_condition,
    check_wavelet_discretization,
    design_params,
)
from .rationals import format_rational
from .spectral import (
    MeasureResult,
    SupResult,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)
from .verify import (
    TruncationSpec,
    bump_profile,
    fiber_parseval_defect,
    frame_energy_ratio,
    gaussian_profile,
    gram_orthonormality_check,
    make_aligned_grid,
    make_test_field,
    window_tiling_check,
)
from .windows import FrameGeneratorField, build_generator_field, field_to_document

EXIT_PASS = 0
EXIT_CONDITION = 2
EXIT_INPUT = 3
EXIT_CERTIFICATION = 4

COMMANDS = ("validate", "analyze", "design", "synthesize", "verify", "examples")


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def _stage_validate(config: ConfigDocument, report: dict) -> bool:
    rep = validate_class(config.algebra)
    report["validation"] = rep.as_dict()
    if rep.passed:
        report["validation"]["jump_indices"] = list(jump_indices(config.algebra))
    return rep.passed


def _stage_analyze(
    config: ConfigDocument, report: dict
) -> tuple[bool, SupResult, MeasureResult]:
    mats = config.algebra.matrices
    pfaffian = pfaffian_identity_check(mats.jump_block, mats.det_b)
    sup = sup_density(mats.det_b, config.spectrum.box, tol=config.spectrum.sup_tol)
    mu = spectral_measure(mats.det_b, config.spectrum.box, tol=config.spectrum.measure_tol)
    report["spectral"] = {
        "det_b": mats.det_b.coefficient_list(),
        "pfaffian": pfaffian.as_dict(),
        "sup_density": sup.as_dict(),
        "measure": mu.as_dict(),
    }
    return pfaffian.passed, sup, mu


def _stage_design(
    config: ConfigDocument, report: dict, sup: SupResult, mu: MeasureResult
) -> tuple[bool, QuasiLatticeParams, bool]:
    """Returns (verdict, lattice parameters, density condition verdict)."""
    box = config.spectrum.box
    fixed = resolve_params(config)
    if fixed is not None:
        params = fixed
    else:
        params, sup = design_params(
            config.algebra,
            box,
            q_hint=config.lattice.q,
            precision_digits=config.lattice.precision_digits,
            sup_result=sup,
        )
    density = check_density_condition(config.algebra, params, box, sup_result=sup)
    onb = check_onb_condition(params, mu)
    wavelet = check_wavelet_discretization(
        config.algebra,
        params,
        box,
        measure_tol=config.spectrum.sublevel_tol,
    )
    predicted_norm_sq = mu.value / float(params.covolume)
    report["design"] = {
        "params": params.as_dict(),
        "predicted_generator_norm_sq": predicted_norm_sq,
        "conditions": [density.as_dict(), onb.as_dict(), wavelet.as_dict()],
    }
    ok = density.passed
    if config.lattice.onb_requested:
        ok = ok and onb.passed
    return ok, params, density.passed


def _stage_synthesize(
    config: ConfigDocument,
    report: dict,
    params: QuasiLatticeParams,
    mu: MeasureResult,
    out_path: str | None,
) -> FrameGeneratorField:
    field = build_generator_field(
        config.algebra,
        params,
        config.spectrum.box,
        grid_shape=config.verification.lam_grid,
        role="frame",
        mu_box=mu,
        eps_degenerate=config.spectrum.eps_degenerate,
        piece_limit=config.verification.piece_limit,
    )
    doc = field_to_document(field)
    target = out_path or config.output.field_path
    if target:
        write_output(target, canonical_json(doc), "out" if out_path else "output.field_path")
    report["synthesis"] = {
        "nodes": len(field.nodes),
        "skipped": len(field.skipped),
        "max_pieces": max((n.window.piece_count for n in field.nodes), default=0),
        "predicted_norm_sq": field.predicted_norm_sq,
        "grid_measured_norm_sq": field.grid_measured_norm_sq(),
        "field_path": target,
    }
    return field


def _stage_verify(config: ConfigDocument, report: dict, field: FrameGeneratorField) -> bool:
    if not field.nodes:
        raise SchemaError("verify", "generator field has no usable nodes")
    spec = config.algebra
    d = spec.d
    params = field.params
    ver = config.verification
    x_grid = make_aligned_grid(params.b, ver.cells_before, ver.cells_after, ver.points_per_cell)
    trunc = TruncationSpec(m_half=ver.m_half, k_half=ver.k_half, n_half=ver.n_half)

    tiling = window_tiling_check([(n.window, n.lattice) for n in field.nodes])

    # per-fiber defects with a Gaussian concentrated in the base cell; only
    # fibers in the top-density half are probed, since the truncated
    # modulation range cannot cover the test bandwidth on near-degenerate
    # fibers (their lattice spacing collapses with the density)
    mesh = x_grid.mesh()
    centers = [0.5 / float(params.b[k]) for k in range(d)]
    widths = [0.08 / float(params.b[k]) for k in range(d)]
    test = gaussian_profile(centers, widths)(mesh).astype(complex)
    eligible = sorted(field.nodes, key=lambda n: n.density, reverse=True)
    eligible = eligible[: max(1, len(eligible) // 2)]
    probe = sorted({0, len(eligible) // 2, len(eligible) - 1})
    defects = []
    for idx in probe:
        node = eligible[idx]
        rep = fiber_parseval_defect(params, node, [test], trunc, x_grid)
        defects.append((node.lam, rep.defect))
    defect_values = [dval for _, dval in defects]

    ratios = []
    (lo, hi), = field.box.region()
    lam_widths = [0.1 * float(h - l) for l, h in zip(lo, hi)]
    for i in range(ver.test_fields):
        lam_center = [float(l + (h - l) * Fraction(45 + 7 * i, 100)) for l, h in zip(lo, hi)]
        psi = make_test_field(
            field,
            x_grid,
            spectral_profile=bump_profile(lam_center, lam_widths),
            space_profile=gaussian_profile(
                [c - 0.02 * i for c in centers], [w * (1.0 + 0.15 * i) for w in widths]
            ),
        )
        ratios.append(frame_energy_ratio(psi, field, trunc))

    gram = None
    if config.lattice.onb_requested:
        small = TruncationSpec(
            m_half=(0,) * spec.center_dim, k_half=(1,) * d, n_half=(1,) * d
        )
        gram = gram_orthonormality_check(field, small)

    if config.output.csv_path:
        rows = "".join(
            f"\"{';'.join(format_rational(x) for x in lam)}\",{dval!r}\n" for lam, dval in defects
        )
        write_output(config.output.csv_path, "lam,defect\n" + rows, "output.csv_path")

    ratio_ok = all(abs(r.ratio - 1.0) <= ver.ratio_tol for r in ratios)
    defect_ok = max(defect_values) <= ver.defect_tol
    passed = tiling.passed and ratio_ok and defect_ok
    report["verification"] = {
        "tiling": tiling.as_dict(),
        "fiber_defects": {
            "max": max(defect_values),
            "mean": sum(defect_values) / len(defect_values),
            "probed_nodes": len(defects),
        },
        "frame_ratios": [r.as_dict() for r in ratios],
        "gram": gram.as_dict() if gram is not None else None,
        "passed": passed,
    }
    return passed


# ---------------------------------------------------------------------------
# bundled examples
# ---------------------------------------------------------------------------


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / name


_EX2_DET = [[[0, 2], "-1"], [[2, 0], "1"]]
_EX3_DET = [[[0, 0, 3], "-1"], [[0, 3, 0], "-1"], [[1, 1, 1], "3"], [[3, 0, 0], "-1"]]


def _run_example(label: str, checks_of, design_decides: bool = True) -> tuple[dict, bool]:
    """Run validate, analyze and design on the bundled fixture ``label`` and
    apply its checks ``checks_of(report, conditions, sup, mu)``."""
    config = parse_config(fixture_path(f"{label}.json"))
    report: dict = {}
    ok = _stage_validate(config, report)
    analyzed, sup, mu = _stage_analyze(config, report)
    designed, _, _ = _stage_design(config, report, sup, mu)
    ok = ok and analyzed and (designed or not design_decides)
    conditions = {c["condition"]: c for c in report["design"]["conditions"]}
    checks = checks_of(report, conditions, sup, mu)
    out = {
        "label": label,
        "checks": checks,
        "design": report["design"],
        "matches": all(checks.values()) and ok,
    }
    return out, out["matches"]


def _example_1_checks(report, conditions, sup, mu) -> dict:
    density = conditions["density"]
    onb = conditions["orthonormal_basis"]
    return {
        "density_passes_at_unit_q": density["passed"],
        "onb_fails": not onb["passed"],
        "onb_required_q": onb["margins"].get("required_uniform_q") == "1/2",
        "onb_q_conflicts_with_density": onb["margins"].get("required_q_density_compatible")
        is False,
    }


def _example_2_checks(report, conditions, sup, mu) -> dict:
    return {
        "det_b": report["spectral"]["det_b"] == _EX2_DET,
        "sup_is_nine": abs(sup.value - 9.0) <= 1e-9,
        "measure_46_3": mu.lower <= Fraction(46, 3) <= mu.upper
        and float(mu.upper - mu.lower) <= 1e-6,
        "designed_lattice": report["design"]["params"]
        == {"a": ["2", "3"], "q": ["1", "1"], "b": ["3", "3"]},
        "predicted_norm_sq": abs(
            report["design"]["predicted_generator_norm_sq"] - 23.0 / 81.0
        )
        <= 1e-9,
        "onb_fails_46_3_vs_54": not conditions["orthonormal_basis"]["passed"]
        and conditions["orthonormal_basis"]["margins"]["target"] == 54.0,
    }


def _example_3_checks(report, conditions, sup, mu) -> dict:
    wavelet = conditions["wavelet_discretization"]
    return {
        "det_b": report["spectral"]["det_b"] == _EX3_DET,
        "unit_product": wavelet["margins"]["product"] == "1",
        "sublevel_nonempty": wavelet["margins"]["sublevel_nonempty"] is True,
        "sublevel_measure_positive": wavelet["margins"]["sublevel_measure_lower"] > 0,
        "discretizable": wavelet["passed"],
    }


def run_examples(which: int | None = None) -> tuple[dict, int]:
    runners = {
        1: lambda: _run_example("heisenberg", _example_1_checks),
        2: lambda: _run_example("example2", _example_2_checks),
        # the uniform density condition fails on the full box here (sup = 2 > 1);
        # the wavelet construction lives on the sublevel region instead, so the
        # design stage verdict is informational for this fixture
        3: lambda: _run_example("example3", _example_3_checks, design_decides=False),
    }
    selected = [which] if which else [1, 2, 3]
    out = {}
    all_ok = True
    for idx in selected:
        result, ok = runners[idx]()
        out[str(idx)] = result
        all_ok = all_ok and ok
    return {"examples": out}, EXIT_PASS if all_ok else EXIT_CONDITION


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _run_stages(command: str, config: ConfigDocument, report: dict, out_path: str | None) -> bool:
    """Run the stages ``command`` needs, each fed the previous stage's results;
    True when every requested check passes."""
    ok = _stage_validate(config, report)
    if not ok or command == "validate":
        return ok
    ok, sup, mu = _stage_analyze(config, report)
    if not ok or command == "analyze":
        return ok
    ok, params, density_ok = _stage_design(config, report, sup, mu)
    if command == "design":
        return ok
    if not density_ok:
        report["synthesis"] = {"refused": "density condition fails; no Parseval window exists"}
        return False
    field = _stage_synthesize(
        config, report, params, mu, out_path if command == "synthesize" else None
    )
    return command == "synthesize" or _stage_verify(config, report, field)


def run_command(
    command: str,
    config: ConfigDocument | None,
    out_path: str | None = None,
    timing: bool = False,
    example: int | None = None,
) -> tuple[dict, int]:
    """Execute one pipeline command; returns (report document, exit code).

    Module errors surface as structured error blocks; partially completed
    stages stay in the report.
    """
    t0 = time.monotonic()
    if command == "examples":
        report, code = run_examples(example)
        report["command"] = "examples"
        report["version"] = __version__
        if timing:
            report["timing"] = {"seconds": time.monotonic() - t0}
        return report, code

    if config is None:
        raise SchemaError("config", f"command {command!r} requires --config")
    report: dict = {
        "version": __version__,
        "command": command,
        "config": config.raw,
    }
    try:
        code = EXIT_PASS if _run_stages(command, config, report, out_path) else EXIT_CONDITION
    except CertificationError as exc:
        report["error"] = {"type": "certification", "message": str(exc)}
        code = EXIT_CERTIFICATION
    except (DensityViolationError, PieceOverflowError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = EXIT_CONDITION
    except SchemaError as exc:
        report["error"] = {"type": "schema", "field": exc.field, "message": str(exc)}
        code = EXIT_INPUT

    report["status"] = "pass" if code == EXIT_PASS else "fail"
    if timing or (config is not None and config.output.timing):
        report["timing"] = {"seconds": time.monotonic() - t0}
    return report, code


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_output(path: str, text: str, field: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is an input error on ``field``."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SchemaError(field, f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilframe",
        description="Quasi-lattice Parseval frame design and verification pipeline",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--out", help="write the report (or field for synthesize) here")
    parser.add_argument("--tol", type=float, help="override sup/measure tolerances")
    parser.add_argument("--grid", help="lambda-grid node counts, comma separated")
    parser.add_argument("--trunc", help="truncation half-widths m,k,n")
    parser.add_argument("--example", type=int, choices=(1, 2, 3))
    parser.add_argument("--timing", action="store_true", help="include timing in the report")
    return parser


def _int_list(text: str, field: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SchemaError(field, f"expected comma-separated integers, got {text!r}") from None


def _apply_overrides(config: ConfigDocument, args) -> ConfigDocument:
    raw = dict(config.raw)
    if args.tol is not None:
        spectrum = dict(raw.get("spectrum", {}))
        spectrum["sup_tol"] = args.tol
        spectrum["measure_tol"] = args.tol
        raw["spectrum"] = spectrum
    if args.grid:
        verification = dict(raw.get("verification", {}))
        verification["lam_grid"] = _int_list(args.grid, "grid")
        raw["verification"] = verification
    if args.trunc:
        parts = _int_list(args.trunc, "trunc")
        if len(parts) != 3:
            raise SchemaError("trunc", "expected three integers m,k,n")
        verification = dict(raw.get("verification", {}))
        v = config.algebra.center_dim
        d = config.algebra.d
        verification["m_half"] = [parts[0]] * v
        verification["k_half"] = [parts[1]] * d
        verification["n_half"] = [parts[2]] * d
        raw["verification"] = verification
    if args.tol is not None or args.grid or args.trunc:
        return parse_config(raw)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = None
        if args.command != "examples":
            if not args.config:
                parser.error(f"command {args.command!r} requires --config")
            config = parse_config(args.config)
            config = _apply_overrides(config, args)
        report, code = run_command(
            args.command,
            config,
            out_path=args.out,
            timing=args.timing,
            example=args.example,
        )
        text = canonical_json(report)
        if args.out and args.command != "synthesize":
            write_output(args.out, text, "out")
    except SchemaError as exc:
        print(canonical_json({"error": {"type": "schema", "field": exc.field, "message": str(exc)}}))
        return EXIT_INPUT
    except NilframeError as exc:
        print(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INPUT
    if args.out and args.command != "synthesize":
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    print(f"nilframe {args.command}: {'pass' if code == EXIT_PASS else 'fail'} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
