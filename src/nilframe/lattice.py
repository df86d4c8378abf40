"""Quasi-lattice parameters, fiber Gabor lattices, and the frame/basis
condition checks.

All verdicts are certified: rational arithmetic where the data is exact, and
bracketed branch-and-bound results where a supremum or measure enters.  The
checks compare the certified results they are given and compute none; the
caller picks every tolerance and box budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import SchemaError
from .intlattice import mat_det
from .rationals import ceil_nth_root, format_rational
from .spectral import MeasureResult, SpectrumBox, SupResult


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


def check_density_condition(params: QuasiLatticeParams, sup: SupResult) -> ConditionReport:
    """Uniform density condition: the certified sup of the Plancherel density
    over the box must not exceed prod(b_i q_i); ties count as satisfied.

    The verdict reads the upper end of the bracket, so a bracket that
    straddles the bound fails: certify ``sup`` as tightly as the verdict
    needs before calling.
    """
    bound = params.prod_bq
    passed = sup.upper <= bound
    margin = float(sup.upper / bound)
    return ConditionReport(
        condition="density",
        passed=passed,
        margins={
            "sup_density": sup.value,
            "prod_bq": float(bound),
            "volume_ratio": margin,
        },
        detail=(
            f"sup r(lam) = {sup.value:.12g} vs prod(b q) = {float(bound):.12g}; "
            f"max fiber lattice volume {margin:.12g} {'<=' if passed else '>'} 1"
        ),
    )


def design_params(
    spec: LieAlgebraSpec,
    box: SpectrumBox,
    sup: SupResult,
    q: Sequence[Fraction] | None,
    b: Sequence[Fraction] | None,
    precision_digits: int,
) -> QuasiLatticeParams:
    """Lattice densities from the config's ``lattice.q`` and ``lattice.b`` and
    the certified supremum ``sup`` of the density over the box.

    a copies the box densities and q defaults to all ones.  A given b fixes
    the lattice, with q taken as given.  Otherwise every b_i is the smallest
    rational at ``precision_digits`` decimal digits with b_i**d >= sup.upper
    (rounding up shrinks fiber volumes, so the density condition survives
    the rounding), and q is a hint: one with prod(1/q_i) > 1 would break that
    guarantee and is rejected.  Densities the report cannot print, a
    rational past the int-to-str digit limit or a float outside the normal
    binary64 range, are input errors on ``lattice``.
    """
    d = spec.d
    if b is None:
        if q is not None and (inv_prod := math.prod(1 / x for x in q)) > 1:
            raise SchemaError(
                "lattice.q", f"hint violates prod(1/q_i) = {format_rational(inv_prod)} <= 1"
            )
        b = (ceil_nth_root(sup.upper, d, digits=precision_digits),) * d
    params = QuasiLatticeParams(
        a=tuple(box.a), q=tuple(q) if q is not None else (Fraction(1),) * d, b=tuple(b)
    )
    # the report prints q, b, prod(b q) and the covolume as rationals, and
    # prod(b q), the covolume and the volume ratio as floats; prod(b) and
    # prod(q) are checked on their own too, since prod(b q) can cancel a
    # factor past the range that the basis check divides by
    limit = sys.get_int_max_str_digits()  # 0: no limit
    cap = 10**limit if limit else math.inf
    for x in (*params.q, *params.b, params.prod_bq, params.covolume):
        if max(x.numerator, x.denominator) >= cap:
            raise SchemaError("lattice", f"a density needs more than {limit} decimal digits")
    for name, x in (
        ("prod(b)", params.prod_b),
        ("prod(q)", params.prod_q),
        ("prod(b q)", params.prod_bq),
        ("prod(a b q)", params.covolume),
        ("sup r(lam) / prod(b q)", sup.upper / params.prod_bq),
    ):
        _check_float_range(name, x)
    return params


def _check_float_range(name: str, x: Fraction) -> None:
    """A value the report prints as a float must lie in the normal binary64
    range; outside it the lattice densities are an input error."""
    if not Fraction(sys.float_info.min) <= x <= Fraction(sys.float_info.max):
        raise SchemaError("lattice", f"{name} lies outside the float range")


def check_onb_condition(
    params: QuasiLatticeParams,
    mu_box: MeasureResult,
) -> ConditionReport:
    """Basis criterion: the spectral measure of the box must equal
    prod(a) * prod(q b).  On failure, reports the uniform q that would close
    the equality with everything else held fixed, and whether that q is
    compatible with the density condition; a q whose prod(1/q) lies outside
    the float range is an input error on ``lattice``."""
    target = params.covolume
    mu_lo, mu_hi, mu_val = mu_box.lower, mu_box.upper, mu_box.value
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
        _check_float_range("prod(1/q) of the uniform q", inv_prod)
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


def check_necessary_bounds(
    params: QuasiLatticeParams,
    mu_box: MeasureResult,
    pieces: Sequence[tuple[SupResult, MeasureResult, int]],
) -> ConditionReport:
    """Necessary conditions for a single Parseval generator and for wavelets.

    ``mu_box`` is the certified measure of the box.  The multiplicity m(lam)
    is a step function: ``pieces`` holds (sup, measure, m) per sub-box it is
    constant on, the density's certified sup and measure there and the
    integer m.  An m that is not a non-negative integer (a bool or a float
    included) is an input error on ``multiplicity``.

    Sub-reports: total measure bound, superframe density bound, wavelet
    multiplicity bound, and the admissibility norm of the subspace.
    """
    if not all(isinstance(m, int) and not isinstance(m, bool) and m >= 0 for _, _, m in pieces):
        raise SchemaError("multiplicity", "values must be non-negative integers")
    subs: list[ConditionReport] = []

    mu_lo, mu_hi = mu_box.lower, mu_box.upper
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
    for sup_piece, mu_piece, m in pieces:
        if m > 0:
            super_margin = max(super_margin, float(m * sup_piece.upper / params.prod_bq))
            if m * sup_piece.upper > params.prod_bq:
                super_ok = False
            wavelet_margin = max(wavelet_margin, float(m * sup_piece.upper * params.prod_a))
            if m * sup_piece.upper > inv_prod_a:
                wavelet_ok = False
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


def check_wavelet_discretization(params: QuasiLatticeParams, sub: MeasureResult) -> ConditionReport:
    """Discretizable-wavelet conditions.

    ``sub`` is the certified measure of the sublevel region r(lam) <=
    prod(b q), where the fiber volume stays at most one.  First verdict:
    prod(b) prod(q) prod(a) = 1 in exact rational arithmetic.  A witness
    sub-box and a positive lower end prove the region nonempty.  Second
    verdict: its mass equals one within BASIS_TOL (the basis case).
    """
    product = params.covolume
    product_ok = product == 1
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
