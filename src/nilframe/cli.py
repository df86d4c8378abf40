"""Command-line pipeline: validate, analyze, design, synthesize, verify, examples.

Reports are deterministic JSON (sorted keys, exact rationals as "p/q"
strings, binary64 values as shortest round-trip decimals).  Exit codes:
0 all requested checks pass, 2 a mathematical condition failed, 3 input
error, 4 a certification budget ran out before reaching tolerance.  Every
failure gets its code and JSON error block from ``error_exit``: a usage
error is an input error on ``argv``, and a stage that fails leaves the
report sections already computed beside the block.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from . import __version__
from .algebra import jump_indices, validate_class
from .config import ConfigDocument, parse_config
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
from .rationals import format_rational, format_rational_vector
from .spectral import (
    MeasureResult,
    SupResult,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)
from .verify import (
    PeriodizedFiber,
    bump_profile,
    gram_orthonormality_check,
    periodized_frame_ratio,
    window_tiling_check,
)
from .windows import FrameGeneratorField, build_generator_field, field_to_document

EXIT_PASS = 0
EXIT_CONDITION = 2
EXIT_INPUT = 3
EXIT_CERTIFICATION = 4

COMMANDS = ("validate", "analyze", "design", "synthesize", "verify", "examples")

# frame-energy test fields per verify run: field i centres its spectral bump
# at (45 + 7i) % of each axis of the spectrum box
TEST_FIELDS = 3
# box budget of the sublevel measure behind the wavelet discretization check
SUBLEVEL_MAX_BOXES = 200_000
# verify passes when every |frame ratio - 1| and the largest fiber defect
# stay within these
RATIO_TOL = 1e-2
DEFECT_TOL = 1e-3


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
    """Returns (verdict, lattice parameters, density condition verdict).

    The stage certifies what the condition checks compare, at the config's
    tolerances: the sup once more when its bracket straddles prod(b q), and
    the sublevel measure below prod(b q).
    """
    spec, spectrum, lattice = config.algebra, config.spectrum, config.lattice
    det_b = spec.matrices.det_b
    params = design_params(spec, spectrum.box, sup, lattice.q, lattice.b, lattice.precision_digits)
    if sup.lower <= params.prod_bq < sup.upper:
        # tighten once before the verdict, but not below 1e-18, the smallest
        # positive ``certified_tol``
        sup = sup_density(det_b, spectrum.box, tol=max(spectrum.sup_tol * 1e-3, 1e-18))
    density = check_density_condition(params, sup)
    onb = check_onb_condition(params, mu)
    sublevel = spectral_measure(
        det_b,
        spectrum.box,
        tol=spectrum.sublevel_tol,
        threshold=params.prod_bq,
        max_boxes=SUBLEVEL_MAX_BOXES,
    )
    wavelet = check_wavelet_discretization(params, sublevel)
    predicted_norm_sq = mu.value / float(params.covolume)
    report["design"] = {
        "params": params.as_dict(),
        "predicted_generator_norm_sq": predicted_norm_sq,
        "conditions": [density.as_dict(), onb.as_dict(), wavelet.as_dict()],
    }
    ok = density.passed
    if lattice.onb_requested:
        ok = ok and onb.passed
    return ok, params, density.passed


def _stage_synthesize(
    config: ConfigDocument,
    report: dict,
    params: QuasiLatticeParams,
    out_path: str | None,
) -> FrameGeneratorField:
    field = build_generator_field(
        config.algebra,
        params,
        config.spectrum.box,
        grid_shape=config.verification.lam_grid,
        role="frame",
        predicted_norm_sq=report["design"]["predicted_generator_norm_sq"],
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
    """The tiling certificate, the exact (periodized) fiber ratios of every
    usable node, and the test fields' frame ratios built from them.  No
    ``verification`` key is read here (``lam_grid`` sized the field); the
    Gram check runs over k, n in {-1, 0, 1}^d."""
    if not field.nodes:
        raise SchemaError("verify", "generator field has no usable nodes")
    d = config.algebra.d
    b = field.params.b

    tiling = window_tiling_check([(n.window, n.lattice) for n in field.nodes])

    # test field i's x-Gaussian sits at 0.5/b - 0.02 i with widths
    # 0.08/b (1 + 0.15 i); field 0's is the narrow defect test, concentrated
    # in the base cell, and the wide one is as wide as the fiber's lattice
    centers = [0.5 / float(bk) for bk in b]
    widths = [0.08 / float(bk) for bk in b]
    x_tests = [
        ([c - 0.02 * i for c in centers], [w * (1.0 + 0.15 * i) for w in widths])
        for i in range(TEST_FIELDS)
    ]
    test_names = ["narrow", *(f"field {i}" for i in range(1, TEST_FIELDS)), "wide"]
    fiber_ratios = []  # per node: the x_tests' ratios, then the wide test's
    for node in field.nodes:
        fiber = PeriodizedFiber(node)
        wide = (centers, [fiber.wide_width] * d)
        fiber_ratios.append(fiber.ratios(x_tests)[0] + fiber.ratios([wide])[0])
    defects = [max(abs(r - 1.0) for r in node_ratios) for node_ratios in fiber_ratios]

    ratios = []
    (lo, hi), = field.box.region()
    lam_widths = [0.1 * float(h - l) for l, h in zip(lo, hi)]
    for i, (_, x_widths) in enumerate(x_tests):
        lam_center = [float(l + (h - l) * Fraction(45 + 7 * i, 100)) for l, h in zip(lo, hi)]
        bump = bump_profile(lam_center, lam_widths)
        ratios.append(periodized_frame_ratio(field, bump, x_widths, [r[i] for r in fiber_ratios]))

    gram = None
    if config.lattice.onb_requested:
        gram = gram_orthonormality_check(field, 1)

    if config.output.csv_path:
        rows = "".join(
            f"\"{';'.join(format_rational(x) for x in node.lam)}\",{dval!r}\n"
            for node, dval in zip(field.nodes, defects)
        )
        write_output(config.output.csv_path, "lam,defect\n" + rows, "output.csv_path")

    ratio_ok = all(abs(r.ratio - 1.0) <= RATIO_TOL for r in ratios)
    defect_ok = max(defects) <= DEFECT_TOL
    passed = tiling.passed and ratio_ok and defect_ok
    fiber_defects = {
        "max": max(defects),
        "mean": sum(defects) / len(defects),
        "probed_nodes": len(defects),
    }
    if not defect_ok:
        worst = max(range(len(defects)), key=defects.__getitem__)
        test = max(range(len(test_names)), key=lambda t: abs(fiber_ratios[worst][t] - 1.0))
        fiber_defects["worst"] = {
            "lam": format_rational_vector(field.nodes[worst].lam),
            "test": test_names[test],
            "ratio": fiber_ratios[worst][test],
        }
    report["verification"] = {
        "tiling": tiling.as_dict(),
        "fiber_defects": fiber_defects,
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


def _example_1_checks(report, conditions) -> dict:
    density = conditions["density"]
    onb = conditions["orthonormal_basis"]
    return {
        "density_passes_at_unit_q": density["passed"],
        "onb_fails": not onb["passed"],
        "onb_required_q": onb["margins"].get("required_uniform_q") == "1/2",
        "onb_q_conflicts_with_density": onb["margins"].get("required_q_density_compatible")
        is False,
    }


def _example_2_checks(report, conditions) -> dict:
    spectral = report["spectral"]
    mu_lower, mu_upper = (Fraction(spectral["measure"][end]) for end in ("lower", "upper"))
    return {
        "det_b": spectral["det_b"] == _EX2_DET,
        "sup_is_nine": abs(spectral["sup_density"]["value"] - 9.0) <= 1e-9,
        "measure_46_3": mu_lower <= Fraction(46, 3) <= mu_upper
        and float(mu_upper - mu_lower) <= 1e-6,
        "designed_lattice": report["design"]["params"]
        == {"a": ["2", "3"], "q": ["1", "1"], "b": ["3", "3"]},
        "predicted_norm_sq": abs(
            report["design"]["predicted_generator_norm_sq"] - 23.0 / 81.0
        )
        <= 1e-9,
        "onb_fails_46_3_vs_54": not conditions["orthonormal_basis"]["passed"]
        and conditions["orthonormal_basis"]["margins"]["target"] == 54.0,
    }


def _example_3_checks(report, conditions) -> dict:
    wavelet = conditions["wavelet_discretization"]
    return {
        "det_b": report["spectral"]["det_b"] == _EX3_DET,
        "unit_product": wavelet["margins"]["product"] == "1",
        "sublevel_nonempty": wavelet["margins"]["sublevel_nonempty"] is True,
        "sublevel_measure_positive": wavelet["margins"]["sublevel_measure_lower"] > 0,
        "discretizable": wavelet["passed"],
    }


# example number: (bundled fixture, its checks, whether the design verdict counts)
EXAMPLES = {
    1: ("heisenberg", _example_1_checks, True),
    2: ("example2", _example_2_checks, True),
    # the uniform density condition fails on the full box here (sup = 2 > 1);
    # the wavelet construction lives on the sublevel region instead, so the
    # design stage verdict is informational for this fixture
    3: ("example3", _example_3_checks, False),
}


def run_examples(which: int | None = None) -> tuple[dict, int]:
    """Run the design chain on each selected bundled fixture and apply its
    checks; an example matches when every check, validation, the Pfaffian
    identity and (where it counts) the design verdict pass."""
    out = {}
    for idx in [which] if which else sorted(EXAMPLES):
        label, checks_of, design_counts = EXAMPLES[idx]
        report: dict = {}
        designed = _run_stages("design", parse_config(fixture_path(f"{label}.json")), report, None)
        conditions = {c["condition"]: c for c in report["design"]["conditions"]}
        checks = checks_of(report, conditions)
        # the chain reaches design only once validation and the Pfaffian identity pass
        out[str(idx)] = {
            "label": label,
            "checks": checks,
            "design": report["design"],
            "matches": all(checks.values()) and (designed or not design_counts),
        }
    all_ok = all(ex["matches"] for ex in out.values())
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
    field = _stage_synthesize(config, report, params, out_path if command == "synthesize" else None)
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
    report: dict = {"version": __version__, "command": command}
    if command == "examples":
        examples, code = run_examples(example)
        report.update(examples)
    else:
        if config is None:
            raise SchemaError("config", f"command {command!r} requires --config")
        report["config"] = config.raw
        try:
            code = EXIT_PASS if _run_stages(command, config, report, out_path) else EXIT_CONDITION
        except NilframeError as exc:
            report["error"], code = error_exit(exc)
        report["status"] = "pass" if code == EXIT_PASS else "fail"
    if timing:
        report["timing"] = {"seconds": time.monotonic() - t0}
    return report, code


def error_exit(exc: NilframeError) -> tuple[dict, int]:
    """The error block and exit code of a failure: a certification budget
    that ran out is 4, a density violation or piece overflow (a condition of
    the construction) is 2, and every other error is an input error, 3."""
    if isinstance(exc, SchemaError):
        return {"type": "schema", "field": exc.field, "message": str(exc)}, EXIT_INPUT
    if isinstance(exc, CertificationError):
        return {"type": "certification", "message": str(exc)}, EXIT_CERTIFICATION
    code = EXIT_CONDITION if isinstance(exc, (DensityViolationError, PieceOverflowError)) else EXIT_INPUT
    return {"type": type(exc).__name__, "message": str(exc)}, code


def canonical_json(doc: dict) -> str:
    """The text of a report or field document: exactly the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``.

    json indents in pure Python, one small chunk per token; this writer
    appends the same text straight to one list.  The indent and separator
    strings are shared per depth, and a list of strings is joined at once,
    and only once per depth for a list object that the document shares
    (a window's shape, one list for all its pieces).
    Scalars print as json prints them (``int.__repr__``, ``float.__repr__``;
    NaN and the infinities raise ValueError), dictionaries go out sorted by
    key, and keys that are not strings are coerced as json coerces them.
    """
    parts: list[str] = []
    append = parts.append
    newlines = ["\n"]  # newlines[k]: a line break and the indent of depth k
    separators = [",\n"]  # separators[k]: the comma between items at depth k
    key_texts: dict[str, str] = {}
    # joined[k]: the joined items of each all-string list whose items sit at
    # depth k, by the list's id; the document is alive and unchanged while it
    # is written, so an id names one list
    joined: list[dict[int, str]] = [{}]

    def write(value, depth: int) -> None:
        if isinstance(value, str):
            append(_json_string(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, float):
            append(_json_float(value))
        elif not isinstance(value, (list, tuple, dict)):
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        elif not value:
            append("{}" if isinstance(value, dict) else "[]")
        else:
            inner = depth + 1
            if inner == len(newlines):
                newlines.append(newlines[-1] + "  ")
                separators.append("," + newlines[-1])
                joined.append({})
            separator = separators[inner]
            is_dict = isinstance(value, dict)
            append("{" if is_dict else "[")
            append(newlines[inner])
            if is_dict:
                for i, (key, item) in enumerate(sorted(value.items())):
                    if i:
                        append(separator)
                    if type(key) is str:
                        append(key_texts.get(key) or key_texts.setdefault(key, _json_string(key) + ": "))
                    else:
                        append(_json_string(_json_key(key)) + ": ")
                    write(item, inner)
            else:
                texts = joined[inner]
                text = texts.get(id(value))
                if text is None and all(isinstance(item, str) for item in value):
                    text = texts[id(value)] = separator.join(map(_json_string, value))
                if text is not None:
                    append(text)
                else:
                    for i, item in enumerate(value):
                        if i:
                            append(separator)
                        write(item, inner)
            append(newlines[depth])
            append("}" if is_dict else "]")

    try:
        write(doc, 0)
    finally:
        # write refers to itself through this cell: clearing it ends the
        # cycle, so the text parts go with the call, not with the cyclic GC
        del write
    append("\n")
    return "".join(parts)


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_key(key) -> str:
    """A dictionary key as json turns it into a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def write_output(path: str, text: str, field: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is an input error on ``field``."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SchemaError(field, f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors on ``argv``."""

    def error(self, message: str):
        raise SchemaError("argv", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilframe",
        description="Quasi-lattice Parseval frame design and verification pipeline",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--out", help="write the report (or field for synthesize) here")
    parser.add_argument("--example", type=int, choices=(1, 2, 3))
    parser.add_argument("--timing", action="store_true", help="include timing in the report")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = parse_config(args.config) if args.config and args.command != "examples" else None
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
    except NilframeError as exc:
        error, code = error_exit(exc)
        print(canonical_json({"error": error}))
        return code
    if args.out and args.command != "synthesize":
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    print(f"nilframe {args.command}: {'pass' if code == EXIT_PASS else 'fail'} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
