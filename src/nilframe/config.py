"""Config document schema: parsing, validation, defaults.

Configs are JSON with exact rationals written as integers or "p/q" strings.
Unknown keys are rejected so typos fail loudly; every error names the field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .algebra import LieAlgebraSpec, load_spec
from .errors import SchemaError
from .lattice import QuasiLatticeParams
from .rationals import parse_rational, parse_rational_vector
from .spectral import SpectrumBox


@dataclass(frozen=True)
class SpectrumConfig:
    box: SpectrumBox
    sup_tol: float
    measure_tol: float
    sublevel_tol: float
    eps_degenerate: float


@dataclass(frozen=True)
class LatticeConfig:
    q: tuple[Fraction, ...] | None
    b: tuple[Fraction, ...] | None
    onb_requested: bool
    precision_digits: int


@dataclass(frozen=True)
class VerificationConfig:
    """Verify-stage inputs, every default already resolved by ``parse_config``."""

    lam_grid: tuple[int, ...]
    points_per_cell: tuple[int, ...]
    cells_before: tuple[int, ...]
    cells_after: tuple[int, ...]
    m_half: tuple[int, ...]
    k_half: tuple[int, ...]
    n_half: tuple[int, ...]
    ratio_tol: float
    defect_tol: float
    test_fields: int
    piece_limit: int


@dataclass(frozen=True)
class OutputConfig:
    field_path: str | None
    csv_path: str | None
    timing: bool


@dataclass(frozen=True)
class ConfigDocument:
    algebra: LieAlgebraSpec
    spectrum: SpectrumConfig
    lattice: LatticeConfig
    verification: VerificationConfig
    output: OutputConfig
    raw: dict


def _check_keys(obj: Mapping, allowed: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")


def _section(doc: Mapping, name: str, allowed: set[str]) -> Mapping:
    """The object at ``doc[name]``, empty when absent, with its keys checked."""
    obj = doc.get(name, {})
    if not isinstance(obj, dict):
        raise SchemaError(name, f"expected an object, got {obj!r}")
    _check_keys(obj, allowed, name)
    return obj


def _get_float(obj: Mapping, key: str, default: float, path: str) -> float:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {v!r}")
    if not 0 < v <= sys.float_info.max:
        raise SchemaError(f"{path}.{key}", f"must be a positive finite number, got {v!r}")
    return float(v)


def _get_path(obj: Mapping, key: str, path: str) -> str | None:
    v = obj.get(key)
    if v is not None and not isinstance(v, str):
        raise SchemaError(f"{path}.{key}", f"expected a path string or null, got {v!r}")
    return v


def _get_int_vector(obj: Mapping, key: str, path: str, length: int, fill: int) -> tuple[int, ...]:
    """The integer list at ``key``, or ``fill`` repeated ``length`` times."""
    if key not in obj:
        return (fill,) * length
    v = obj[key]
    if not isinstance(v, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in v
    ):
        raise SchemaError(f"{path}.{key}", "expected a list of integers")
    if len(v) != length:
        raise SchemaError(f"{path}.{key}", f"expected {length} entries")
    return tuple(v)


def parse_config(source: str | Path | Mapping) -> ConfigDocument:
    """Load and validate a config document from a path, JSON text, or mapping."""
    if isinstance(source, Mapping):
        doc = dict(source)
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SchemaError("config", f"cannot read {path}: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # an integer literal past the int-to-str digit limit
            raise SchemaError("config", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("config", "top level must be an object")
    _check_keys(doc, {"algebra", "spectrum", "lattice", "verification", "output", "label"}, "config")
    if "algebra" not in doc:
        raise SchemaError("config.algebra", "missing")
    algebra = load_spec(doc["algebra"], label=str(doc.get("label", "")))

    spectrum_raw = _section(
        doc, "spectrum", {"a", "sub_boxes", "sup_tol", "measure_tol", "sublevel_tol", "eps_degenerate"}
    )
    if "a" not in spectrum_raw:
        raise SchemaError("spectrum.a", "missing")
    a = parse_rational_vector(spectrum_raw["a"], algebra.center_dim, "spectrum.a")
    sub_boxes_raw = spectrum_raw.get("sub_boxes", [])
    if not isinstance(sub_boxes_raw, list):
        raise SchemaError("spectrum.sub_boxes", f"expected a list, got {sub_boxes_raw!r}")
    sub_boxes = []
    for i, entry in enumerate(sub_boxes_raw):
        if not isinstance(entry, dict) or set(entry) != {"lo", "hi"}:
            raise SchemaError(f"spectrum.sub_boxes[{i}]", "expected an object with lo and hi")
        lo = parse_rational_vector(entry["lo"], algebra.center_dim, f"spectrum.sub_boxes[{i}].lo")
        hi = parse_rational_vector(entry["hi"], algebra.center_dim, f"spectrum.sub_boxes[{i}].hi")
        sub_boxes.append((lo, hi))
    box = SpectrumBox(a=a, sub_boxes=tuple(sub_boxes))
    spectrum = SpectrumConfig(
        box=box,
        sup_tol=_get_float(spectrum_raw, "sup_tol", 1e-9, "spectrum"),
        measure_tol=_get_float(spectrum_raw, "measure_tol", 1e-9, "spectrum"),
        sublevel_tol=_get_float(spectrum_raw, "sublevel_tol", 5e-2, "spectrum"),
        eps_degenerate=_get_float(spectrum_raw, "eps_degenerate", 1e-12, "spectrum"),
    )

    lattice_raw = _section(doc, "lattice", {"q", "b", "onb_requested", "precision_digits"})
    q = (
        parse_rational_vector(lattice_raw["q"], algebra.d, "lattice.q")
        if "q" in lattice_raw
        else None
    )
    b = (
        parse_rational_vector(lattice_raw["b"], algebra.d, "lattice.b")
        if "b" in lattice_raw
        else None
    )
    onb = lattice_raw.get("onb_requested", False)
    if not isinstance(onb, bool):
        raise SchemaError("lattice.onb_requested", "expected a boolean")
    digits = lattice_raw.get("precision_digits", 12)
    if not isinstance(digits, int) or isinstance(digits, bool) or digits < 1:
        raise SchemaError("lattice.precision_digits", "expected a positive integer")
    lattice = LatticeConfig(q=q, b=b, onb_requested=onb, precision_digits=digits)

    verification_raw = _section(
        doc,
        "verification",
        {
            "lam_grid",
            "points_per_cell",
            "cells_before",
            "cells_after",
            "m_half",
            "k_half",
            "n_half",
            "ratio_tol",
            "defect_tol",
            "test_fields",
            "piece_limit",
        },
    )
    test_fields = verification_raw.get("test_fields", 3)
    if not isinstance(test_fields, int) or isinstance(test_fields, bool) or test_fields < 1:
        raise SchemaError("verification.test_fields", "expected a positive integer")
    piece_limit = verification_raw.get("piece_limit", 4096)
    if not isinstance(piece_limit, int) or isinstance(piece_limit, bool) or piece_limit < 1:
        raise SchemaError("verification.piece_limit", "expected a positive integer")
    v, d = algebra.center_dim, algebra.d
    kn = 16 if d == 1 else 4  # the k, n range grows as (2 kn + 1)^(2d)
    verification = VerificationConfig(
        lam_grid=_get_int_vector(verification_raw, "lam_grid", "verification", v, 16),
        points_per_cell=_get_int_vector(verification_raw, "points_per_cell", "verification", d, 52),
        cells_before=_get_int_vector(verification_raw, "cells_before", "verification", d, 2),
        cells_after=_get_int_vector(verification_raw, "cells_after", "verification", d, 3),
        m_half=_get_int_vector(verification_raw, "m_half", "verification", v, 32),
        k_half=_get_int_vector(verification_raw, "k_half", "verification", d, kn),
        n_half=_get_int_vector(verification_raw, "n_half", "verification", d, kn),
        ratio_tol=_get_float(verification_raw, "ratio_tol", 1e-2, "verification"),
        defect_tol=_get_float(verification_raw, "defect_tol", 1e-3, "verification"),
        test_fields=test_fields,
        piece_limit=piece_limit,
    )

    output_raw = _section(doc, "output", {"field_path", "csv_path", "timing"})
    timing = output_raw.get("timing", False)
    if not isinstance(timing, bool):
        raise SchemaError("output.timing", "expected a boolean")
    output = OutputConfig(
        field_path=_get_path(output_raw, "field_path", "output"),
        csv_path=_get_path(output_raw, "csv_path", "output"),
        timing=timing,
    )
    return ConfigDocument(
        algebra=algebra,
        spectrum=spectrum,
        lattice=lattice,
        verification=verification,
        output=output,
        raw=doc,
    )


def resolve_params(config: ConfigDocument) -> QuasiLatticeParams | None:
    """Lattice parameters fixed by ``lattice.b``, with q all ones (the design
    default) when ``lattice.q`` is absent; None without b, where q is a hint."""
    b, q = config.lattice.b, config.lattice.q
    if b is None:
        return None
    q = q if q is not None else (Fraction(1),) * len(b)
    return QuasiLatticeParams(a=tuple(config.spectrum.box.a), q=q, b=b)
