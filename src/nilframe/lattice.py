"""Quasi-lattice parameters, fiber Gabor lattices, and the frame/basis
condition checks.

All verdicts are certified: rational arithmetic where the data is exact, and
bracketed branch-and-bound results where a supremum or measure enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import SchemaError
from .intlattice import mat_det
from .rationals import ceil_nth_root, format_rational
from .spectral import (
    MeasureResult,
    SpectrumBox,
    SupResult,
    spectral_measure,
    sup_density,
)


@dataclass(frozen=True)
class QuasiLatticeParams:
    """Densities of the quasi-lattice: central (a), modulation (q), translation (b)."""

    a: tuple[Fraction, ...]
    q: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        for name, vec in (("a", self.a), ("q", self.q), ("b", self.b)):
            if not vec or any(x <= 0 for x in vec):
                raise SchemaError(f"lattice.{name}", "entries must be positive rationals")
        if len(self.q) != len(self.b):
            raise SchemaError("lattice", "q and b must have equal length")

    @property
    def d(self) -> int:
        return len(self.b)

    @property
    def prod_a(self) -> Fraction:
        return math.prod(self.a)

    @property
    def prod_q(self) -> Fraction:
        return math.prod(self.q)

    @property
    def prod_b(self) -> Fraction:
        return math.prod(self.b)

    @property
    def prod_bq(self) -> Fraction:
        return self.prod_b * self.prod_q

    @property
    def covolume(self) -> Fraction:
        """prod(a) prod(b) prod(q); one for a discretizable wavelet."""
        return self.prod_a * self.prod_bq

    def as_dict(self) -> dict:
        return {
            "a": [format_rational(x) for x in self.a],
            "q": [format_rational(x) for x in self.q],
            "b": [format_rational(x) for x in self.b],
        }


@dataclass(frozen=True)
class FiberGaborLattice:
    """Separable time-frequency lattice of one fiber: translations along the
    diagonal matrix diag(1/b_i), modulations along (modulation matrix) * diag(1/q_i)."""

    lam: tuple[Fraction, ...]
    translation: tuple[tuple[Fraction, ...], ...]
    modulation: tuple[tuple[Fraction, ...], ...]
    det_b: Fraction
    volume: Fraction

    @property
    def d(self) -> int:
        return len(self.translation)

    def as_dict(self) -> dict:
        return {
            "lam": [format_rational(x) for x in self.lam],
            "translation": [[format_rational(x) for x in row] for row in self.translation],
            "modulation": [[format_rational(x) for x in row] for row in self.modulation],
            "volume": format_rational(self.volume),
        }


def fiber_lattice(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    lam: Sequence[Fraction],
) -> FiberGaborLattice:
    """Evaluate the fiber lattice at a rational spectral point.

    The volume identity |det translation * det modulation| = r(lam) / prod(b q)
    is cross-checked exactly; a mismatch would indicate a broken modulation
    matrix and raises AssertionError.
    """
    lam = tuple(Fraction(x) for x in lam)
    mats = spec.matrices
    d = spec.d
    mod = tuple(
        tuple(mats.modulation[i][j].evaluate(lam) / params.q[j] for j in range(d))
        for i in range(d)
    )
    trans = tuple(
        tuple(Fraction(1, 1) / params.b[i] if i == j else Fraction(0) for j in range(d))
        for i in range(d)
    )
    det_b_val = mats.det_b.evaluate(lam)
    volume = abs(det_b_val) / params.prod_bq
    cross = abs(mat_det(trans) * mat_det(mod))
    assert cross == volume, "fiber volume identity violated"
    return FiberGaborLattice(
        lam=lam, translation=trans, modulation=mod, det_b=det_b_val, volume=volume
    )


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------

# a measure bracket counts as equal to its basis target within this tolerance
BASIS_TOL = 1e-9
# certification tolerances of the per-piece sup and measure in the necessary bounds
BOUNDS_SUP_TOL = 1e-9
BOUNDS_MEASURE_TOL = 1e-7
# box budget of the sublevel measure in the wavelet discretization check
SUBLEVEL_MAX_BOXES = 200_000


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    margins: dict
    detail: str
    sub_reports: tuple["ConditionReport", ...] = ()

    def as_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "passed": self.passed,
            "margins": self.margins,
            "detail": self.detail,
        }
        if self.sub_reports:
            out["sub_reports"] = [r.as_dict() for r in self.sub_reports]
        return out


def check_density_condition(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    box: SpectrumBox,
    sup_result: SupResult | None = None,
    tol: float = 1e-9,
) -> ConditionReport:
    """Uniform density condition: certified sup of the Plancherel density over
    the box must not exceed prod(b_i q_i); ties count as satisfied."""
    det_b = spec.matrices.det_b
    if sup_result is None:
        sup_result = sup_density(det_b, box, tol=tol)
    bound = params.prod_bq
    passed = sup_result.upper <= bound
    if not passed and sup_result.lower <= bound:
        # bracket straddles the bound: tighten once before giving a verdict
        sup_result = sup_density(det_b, box, tol=tol * 1e-3)
        passed = sup_result.upper <= bound
    margin = float(sup_result.upper / bound)
    return ConditionReport(
        condition="density",
        passed=passed,
        margins={
            "sup_density": sup_result.value,
            "prod_bq": float(bound),
            "volume_ratio": margin,
        },
        detail=(
            f"sup r(lam) = {sup_result.value:.12g} vs prod(b q) = {float(bound):.12g}; "
            f"max fiber lattice volume {margin:.12g} {'<=' if passed else '>'} 1"
        ),
    )


def design_params(
    spec: LieAlgebraSpec,
    box: SpectrumBox,
    q_hint: Sequence[Fraction] | None = None,
    sup_tol: float = 1e-9,
    precision_digits: int = 12,
    sup_result: SupResult | None = None,
) -> tuple[QuasiLatticeParams, SupResult]:
    """Pick lattice densities from the certified supremum.

    a copies the box densities, every b_i is the smallest representable
    rational at the configured precision with b_i**d >= sup (rounding up
    shrinks fiber volumes, so the density condition survives the rounding),
    and q defaults to all ones.  A q hint with prod(1/q_i) > 1 would break
    the design guarantee and is rejected.  A ``sup_result`` already certified
    over the same box is used as is.
    """
    if sup_result is None:
        sup_result = sup_density(spec.matrices.det_b, box, tol=sup_tol)
    d = spec.d
    if q_hint is not None:
        q = tuple(Fraction(x) for x in q_hint)
        if len(q) != d:
            raise SchemaError("lattice.q", f"expected {d} entries")
        inv_prod = math.prod(1 / x for x in q)
        if inv_prod > 1:
            raise SchemaError(
                "lattice.q", f"hint violates prod(1/q_i) = {format_rational(inv_prod)} <= 1"
            )
    else:
        q = tuple(Fraction(1) for _ in range(d))
    b_val = ceil_nth_root(sup_result.upper, d, digits=precision_digits)
    b = tuple(b_val for _ in range(d))
    return QuasiLatticeParams(a=tuple(box.a), q=q, b=b), sup_result


def check_onb_condition(
    params: QuasiLatticeParams,
    mu_box: MeasureResult | Fraction,
) -> ConditionReport:
    """Basis criterion: the spectral measure of the box must equal
    prod(a) * prod(q b).  On failure, reports the uniform q that would close
    the equality with everything else held fixed, and whether that q is
    compatible with the density condition."""
    target = params.covolume
    if isinstance(mu_box, MeasureResult):
        mu_lo, mu_hi = mu_box.lower, mu_box.upper
        mu_val = mu_box.value
    else:
        mu_lo = mu_hi = Fraction(mu_box)
        mu_val = float(mu_box)
    tol_f = Fraction(str(BASIS_TOL))
    passed = (mu_lo - tol_f) <= target <= (mu_hi + tol_f)
    margins: dict = {
        "mu_box": mu_val,
        "target": float(target),
    }
    detail = (
        f"measure {mu_val:.12g} {'=' if passed else '!='} prod(a) prod(q b) = {float(target):.12g}"
    )
    required_q = None
    if not passed:
        # uniform q solving mu = prod(a) prod(b) q^d
        d = params.d
        ratio = (mu_lo + mu_hi) / 2 / (params.prod_a * params.prod_b)
        required_q = ceil_nth_root(ratio, d, digits=15)
        # exact d-th root detection keeps simple cases like 1/2 exact
        margins["required_uniform_q"] = format_rational(required_q)
        inv_prod = (Fraction(1) / required_q) ** d
        density_compatible = inv_prod <= 1
        margins["required_q_density_compatible"] = density_compatible
        margins["required_q_inverse_product"] = float(inv_prod)
        detail += (
            f"; uniform q = {format_rational(required_q)} would close the equality, "
            f"prod(1/q) = {float(inv_prod):.12g} "
            + ("(compatible with density)" if density_compatible else "(conflicts with density)")
        )
    return ConditionReport(
        condition="orthonormal_basis",
        passed=passed,
        margins=margins,
        detail=detail,
    )


@dataclass(frozen=True)
class StepMultiplicity:
    """Multiplicity as a step function on finitely many sub-boxes of the box."""

    pieces: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...], int], ...]

    @classmethod
    def constant(cls, box: SpectrumBox, m: int) -> "StepMultiplicity":
        zero = tuple(Fraction(0) for _ in box.a)
        return cls(pieces=((zero, tuple(box.a), m),))

    def __post_init__(self):
        for lo, hi, m in self.pieces:
            if m < 0:
                raise SchemaError("multiplicity", "values must be non-negative integers")


def check_necessary_bounds(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    mu_box: MeasureResult | Fraction,
    multiplicity: StepMultiplicity,
    box: SpectrumBox,
) -> ConditionReport:
    """Necessary conditions for a single Parseval generator and for wavelets.

    Sub-reports: total measure bound, superframe density bound, wavelet
    multiplicity bound, and the admissibility norm of the subspace.
    """
    det_b = spec.matrices.det_b
    subs: list[ConditionReport] = []

    mu_lo, mu_hi = (
        (mu_box.lower, mu_box.upper)
        if isinstance(mu_box, MeasureResult)
        else (Fraction(mu_box), Fraction(mu_box))
    )
    bound = params.covolume
    measure_ok = mu_hi <= bound
    subs.append(
        ConditionReport(
            condition="measure_bound",
            passed=measure_ok,
            margins={"mu_box": float((mu_lo + mu_hi) / 2), "bound": float(bound)},
            detail=f"measure {float((mu_lo + mu_hi) / 2):.12g} "
            f"{'<=' if measure_ok else '>'} prod(q) prod(b) prod(a) = {float(bound):.12g}",
        )
    )

    super_ok = True
    wavelet_ok = True
    super_margin = 0.0
    wavelet_margin = 0.0
    norm_sq = Fraction(0)
    norm_lo = Fraction(0)
    norm_hi = Fraction(0)
    inv_prod_a = Fraction(1) / params.prod_a
    for lo, hi, m in multiplicity.pieces:
        sub_box = SpectrumBox(a=tuple(box.a), sub_boxes=((lo, hi),))
        if m > 0:
            sup_piece = sup_density(det_b, sub_box, tol=BOUNDS_SUP_TOL)
            super_margin = max(super_margin, float(m * sup_piece.upper / params.prod_bq))
            if m * sup_piece.upper > params.prod_bq:
                super_ok = False
            wavelet_margin = max(wavelet_margin, float(m * sup_piece.upper * params.prod_a))
            if m * sup_piece.upper > inv_prod_a:
                wavelet_ok = False
            mu_piece = spectral_measure(det_b, sub_box, tol=BOUNDS_MEASURE_TOL)
            norm_lo += m * mu_piece.lower
            norm_hi += m * mu_piece.upper
    subs.append(
        ConditionReport(
            condition="superframe_density_bound",
            passed=super_ok,
            margins={"max_ratio": super_margin},
            detail=f"max m(lam) r(lam) / prod(b q) = {super_margin:.12g}",
        )
    )
    subs.append(
        ConditionReport(
            condition="wavelet_multiplicity_bound",
            passed=wavelet_ok,
            margins={"max_ratio": wavelet_margin},
            detail=f"max m(lam) r(lam) prod(a) = {wavelet_margin:.12g}",
        )
    )
    subs.append(
        ConditionReport(
            condition="admissibility_norm",
            passed=True,
            margins={"norm_sq": float((norm_lo + norm_hi) / 2)},
            detail=f"admissible vector norm^2 = integral of m dmu = "
            f"{float((norm_lo + norm_hi) / 2):.12g}",
        )
    )

    return ConditionReport(
        condition="necessary_bounds",
        passed=all(s.passed for s in subs),
        margins={},
        detail="; ".join(f"{s.condition}: {'pass' if s.passed else 'fail'}" for s in subs),
        sub_reports=tuple(subs),
    )


def check_wavelet_discretization(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    box: SpectrumBox,
    measure_tol: float = 5e-2,
) -> ConditionReport:
    """Discretizable-wavelet conditions.

    First verdict: prod(b) prod(q) prod(a) = 1 in exact rational arithmetic.
    Then the sublevel region where the fiber volume stays at most one is
    certified: a witness sub-box proves non-emptiness and the measure bracket
    bounds its spectral mass.  That bracket is second order: every box left
    open contributes the exact integrals of lower and upper models of the
    clipped density built on its linear Taylor model, and boxes are refined
    until their bracket widths sum to at most 0.6 measure_tol.  Second
    verdict: that mass equals one within BASIS_TOL (the basis case).
    """
    det_b = spec.matrices.det_b
    product = params.covolume
    product_ok = product == 1
    sub = spectral_measure(
        det_b,
        box,
        tol=measure_tol,
        threshold=params.prod_bq,
        max_boxes=SUBLEVEL_MAX_BOXES,
        strict=False,
    )
    nonempty = sub.witness_box is not None and sub.lower > 0
    basis_ok = abs(sub.value - 1.0) <= BASIS_TOL and float(sub.width) <= BASIS_TOL
    margins = {
        "product": format_rational(product),
        "sublevel_measure": sub.value,
        "sublevel_measure_lower": float(sub.lower),
        "sublevel_measure_upper": float(sub.upper),
        "sublevel_nonempty": nonempty,
    }
    detail = (
        f"prod(b q a) = {format_rational(product)} "
        f"({'= 1, discretizable' if product_ok else '!= 1'}); "
        f"mu(sublevel) in [{float(sub.lower):.6g}, {float(sub.upper):.6g}]"
    )
    return ConditionReport(
        condition="wavelet_discretization",
        passed=product_ok and nonempty,
        margins=margins,
        detail=detail,
        sub_reports=(
            ConditionReport(
                condition="unit_covolume_product",
                passed=product_ok,
                margins={"product": format_rational(product)},
                detail=f"prod(b) prod(q) prod(a) = {format_rational(product)}",
            ),
            ConditionReport(
                condition="sublevel_basis_case",
                passed=basis_ok,
                margins={"sublevel_measure": sub.value},
                detail=f"mu(sublevel) = {sub.value:.9g} vs 1",
            ),
        ),
    )
