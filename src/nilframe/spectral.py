"""Spectral-side machinery: pairing matrices, Plancherel density, certified
suprema and measures over spectrum boxes.

Symbolic identities are exact; the sup and measure routines return certified
rational brackets produced by branch-and-bound over dyadic sub-boxes, with
monomial-wise interval bounds (valid because every box lives in the positive
orthant).  Both run on integer numerators over dyadic common denominators and
build one Fraction per region for the returned bracket; floats only steer
the refinement order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import CertificationError, SchemaError
from .polynomial import SpectralPolynomial, determinant

# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMatrices:
    """Symbolic matrices attached to a spec.

    pairing:    n x n matrix of the central functional paired with brackets.
    jump_block: restriction of the pairing to the top-2d (jump) indices.
    modulation: d x d matrix generating the fiber modulation lattice.
    """

    pairing: tuple[tuple[SpectralPolynomial, ...], ...]
    jump_block: tuple[tuple[SpectralPolynomial, ...], ...]
    modulation: tuple[tuple[SpectralPolynomial, ...], ...]


def build_matrices(spec: LieAlgebraSpec) -> SpectralMatrices:
    """Degree-one polynomial matrices from the bracket table."""
    v = spec.center_dim
    n = spec.n

    def pair_poly(i: int, j: int) -> SpectralPolynomial:
        return SpectralPolynomial.linear_form(spec.bracket_vector(i, j)[:v])

    pairing = tuple(tuple(pair_poly(i, j) for j in range(n)) for i in range(n))
    jump = tuple(tuple(pairing[i][j] for j in range(v, n)) for i in range(v, n))
    modulation = tuple(
        tuple(-pair_poly(spec.x_index(i), spec.y_index(j)) for j in range(spec.d))
        for i in range(spec.d)
    )
    return SpectralMatrices(pairing=pairing, jump_block=jump, modulation=modulation)


def block_structure_holds(mats: SpectralMatrices, d: int) -> bool:
    """Jump block must be [[0, Bt], [-B, 0]] for the modulation matrix B."""
    V = mats.jump_block
    B = mats.modulation
    for i in range(d):
        for j in range(d):
            if not V[i][j].is_zero() or not V[d + i][d + j].is_zero():
                return False
            if V[i][d + j] != B[j][i]:  # Y-X block equals B transposed
                return False
            if V[d + i][j] != -B[i][j]:  # X-Y block equals -B
                return False
    return True


@dataclass(frozen=True)
class PfaffianReport:
    passed: bool
    witness: SpectralPolynomial

    def as_dict(self) -> dict:
        return {"passed": self.passed, "witness": self.witness.coefficient_list()}


def pfaffian_identity_check(
    jump_block: Sequence[Sequence[SpectralPolynomial]],
    modulation: Sequence[Sequence[SpectralPolynomial]],
) -> PfaffianReport:
    """Exact check that det(jump block) equals det(modulation)^2."""
    det_v = determinant(jump_block)
    det_b = determinant(modulation)
    witness = det_v - det_b * det_b
    return PfaffianReport(passed=witness.is_zero(), witness=witness)


def density_polynomial(spec: LieAlgebraSpec) -> SpectralPolynomial:
    """det of the modulation matrix; the Plancherel density is its absolute value."""
    return determinant(build_matrices(spec).modulation)


# ---------------------------------------------------------------------------
# spectrum boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumBox:
    """Axis-aligned spectral support: [0, a_i] per coordinate, minus the null
    set of the density, optionally restricted to a finite union of rational
    sub-boxes."""

    a: tuple[Fraction, ...]
    sub_boxes: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...] = ()

    def __post_init__(self):
        if not self.a or any(x <= 0 for x in self.a):
            raise SchemaError("spectrum.a", "box densities must be positive")
        for lo, hi in self.sub_boxes:
            if len(lo) != len(self.a) or len(hi) != len(self.a):
                raise SchemaError("spectrum.sub_boxes", "dimension mismatch")
            for i, (l, h) in enumerate(zip(lo, hi)):
                if not (0 <= l < h <= self.a[i]):
                    raise SchemaError(
                        "spectrum.sub_boxes", f"sub-box axis {i} not inside [0, a_{i}]"
                    )

    @property
    def dimension(self) -> int:
        return len(self.a)

    def region(self) -> tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]:
        if self.sub_boxes:
            return self.sub_boxes
        zero = tuple(Fraction(0) for _ in self.a)
        return ((zero, self.a),)

    def lebesgue_volume(self) -> Fraction:
        total = Fraction(0)
        for lo, hi in self.region():
            vol = Fraction(1)
            for l, h in zip(lo, hi):
                vol *= h - l
            total += vol
        return total


# ---------------------------------------------------------------------------
# density evaluation
# ---------------------------------------------------------------------------


def eval_density(det_b: SpectralPolynomial, point: Sequence):
    """|det_b| at a point; exact for rational input, binary64 for float input."""
    if len(point) != det_b.nvars:
        raise ValueError(f"point has length {len(point)}, expected {det_b.nvars}")
    if any(isinstance(x, float) for x in point):
        return abs(det_b.evaluate_float([float(x) for x in point]))
    return abs(det_b.evaluate(point))


# ---------------------------------------------------------------------------
# scaled integer form used by the certified routines
# ---------------------------------------------------------------------------


class _ScaledPoly:
    """p restricted to a rational box, rewritten as an integer-coefficient
    polynomial over the unit cube: p(lo + (hi-lo) t) = P(t) / den.

    Values, bounds and integrals over dyadic points and sub-boxes run on
    plain integers: a depth-k numerator is over den * 2**(k*deg_total) for
    values and bounds, and over den * int_lcm * 2**(k*int_exp) for
    integrals, with int_exp = deg_total + nvars.
    """

    __slots__ = (
        "monos",
        "den",
        "box_volume",
        "box_volume_f",
        "nvars",
        "deg_total",
        "int_monos",
        "int_lcm",
        "int_exp",
        "grad_monos",
    )

    def __init__(self, p: SpectralPolynomial, lo: Sequence[Fraction], hi: Sequence[Fraction]):
        q = p.substitute_affine(lo, [h - l for l, h in zip(lo, hi)])
        self.monos, self.den = q.integer_scaled()
        self.nvars = p.nvars
        vol = Fraction(1)
        for l, h in zip(lo, hi):
            vol *= h - l
        self.box_volume = vol
        self.box_volume_f = float(vol)
        self.deg_total = max((sum(m) for m, _ in self.monos), default=0)
        # integral bookkeeping: common denominator den * lcm * 2**(k*int_exp)
        lcm = 1
        for m, _ in self.monos:
            prod_e = math.prod(e + 1 for e in m)
            lcm = lcm * prod_e // math.gcd(lcm, prod_e)
        self.int_lcm = lcm
        self.int_exp = self.deg_total + self.nvars
        self.int_monos = [
            (m, c, lcm // math.prod(e + 1 for e in m), sum(m)) for m, c in self.monos
        ]
        # partial derivatives, same integer denominator, for centered bounds
        self.grad_monos = []
        for axis in range(self.nvars):
            deriv = []
            for m, c in self.monos:
                if m[axis] > 0:
                    dm = tuple(e - 1 if i == axis else e for i, e in enumerate(m))
                    deriv.append((dm, c * m[axis]))
            self.grad_monos.append(deriv)

    def bounds(self, lo_num: tuple[int, ...], hi_num: tuple[int, ...], k: int):
        """Integer numerators of min/max bounds of P on the dyadic box.

        Returns (mn_num, mx_num, scale_exp); the bounds are num / (den * 2**scale_exp).
        """
        mn, mx = _interval_num(self.monos, self.deg_total, lo_num, hi_num, k)
        return mn, mx, k * self.deg_total

    def integral_num(self, lo_num: tuple[int, ...], hi_num: tuple[int, ...], k: int) -> int:
        """Exact integral of P over the dyadic box, in unit-cube coordinates, as a
        numerator over den * int_lcm * 2**(k*int_exp)."""
        num = 0
        E = self.int_exp
        for mono, c, lcm_factor, deg in self.int_monos:
            term = c * lcm_factor * (1 << (k * (E - deg - self.nvars)))
            for l, h, e in zip(lo_num, hi_num, mono):
                term *= h ** (e + 1) - l ** (e + 1)
            num += term
        return num

    def dyadic_volume_f(self, lo_num, hi_num, k) -> float:
        prod = 1
        for l, h in zip(lo_num, hi_num):
            prod *= h - l
        return prod / float(1 << (k * self.nvars))

    def value_num(self, num: Sequence[int], k: int) -> int:
        """P at the dyadic point num / 2**k, as a numerator over den * 2**(k*deg_total)."""
        D = self.deg_total
        total = 0
        for mono, c in self.monos:
            term = c << (k * (D - sum(mono)))
            for x, e in zip(num, mono):
                if e:
                    term *= x**e
            total += term
        return total

    def centered_abs_upper(self, lo_num, hi_num, k) -> int:
        """Mean-value bound: |p| <= |p(c)| + sum_i sup|dp/dt_i| * halfwidth_i,
        as a numerator over den * 2**((k+1)*deg_total).

        Second-order tight near interior extrema, where the plain monomial
        interval bound closes only linearly.
        """
        D = self.deg_total
        bound = abs(self.value_num([l + h for l, h in zip(lo_num, hi_num)], k + 1))
        for axis, deriv in enumerate(self.grad_monos):
            if deriv:
                # sup|dP/dt_i| over den * 2**(k*(D-1)), times halfwidth over 2**(k+1)
                mn, mx = _interval_num(deriv, D - 1, lo_num, hi_num, k)
                bound += max(mx, -mn) * (hi_num[axis] - lo_num[axis]) << (D - 1)
        return bound


def _interval_num(monos, degree: int, lo_num, hi_num, k: int) -> tuple[int, int]:
    """Integer numerators (mn, mx) of bounds of sum(c * t^m) on a dyadic box,
    over 2**(k*degree), where degree is at least every monomial's degree.

    Valid because the unit cube lives in the positive orthant, so each
    monomial is monotone in every coordinate.
    """
    mn = 0
    mx = 0
    for mono, c in monos:
        scale = 1 << (k * (degree - sum(mono)))
        lo_v = scale
        hi_v = scale
        for x, e in zip(lo_num, mono):
            if e:
                lo_v *= x**e
        for x, e in zip(hi_num, mono):
            if e:
                hi_v *= x**e
        if c > 0:
            mn += c * lo_v
            mx += c * hi_v
        else:
            mn += c * hi_v
            mx += c * lo_v
    return mn, mx


def _split_box(lo, hi, k):
    """Bisect the longest axis; children live at depth k+1."""
    widths = [h - l for l, h in zip(lo, hi)]
    axis = widths.index(max(widths))
    lo2 = tuple(x * 2 for x in lo)
    hi2 = tuple(x * 2 for x in hi)
    mid = lo2[axis] + widths[axis]
    a_hi = tuple(mid if i == axis else hi2[i] for i in range(len(hi2)))
    b_lo = tuple(mid if i == axis else lo2[i] for i in range(len(lo2)))
    return (lo2, a_hi, k + 1), (b_lo, hi2, k + 1)


# ---------------------------------------------------------------------------
# certified supremum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupCertificate:
    depth: int
    boxes: int
    argmax: tuple[Fraction, ...]
    converged: bool


@dataclass(frozen=True)
class SupResult:
    value: float
    lower: Fraction
    upper: Fraction
    certificate: SupCertificate

    def as_dict(self) -> dict:
        from .rationals import format_rational, format_rational_vector

        return {
            "value": self.value,
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "depth": self.certificate.depth,
            "boxes": self.certificate.boxes,
            "argmax": format_rational_vector(self.certificate.argmax),
            "converged": self.certificate.converged,
        }


def sup_density(
    det_b: SpectralPolynomial,
    box: SpectrumBox,
    tol: float = 1e-9,
    max_boxes: int = 2_000_000,
) -> SupResult:
    """Certified supremum of |det_b| over the box, by branch-and-bound.

    The returned bracket satisfies lower <= sup <= upper with
    upper - lower <= tol on convergence; the certificate records the winning
    sample point.  Without convergence a CertificationError carries the best
    bracket found.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if det_b.nvars != box.dimension:
        raise ValueError("dimension mismatch between polynomial and box")
    tol_frac = Fraction(tol).limit_denominator(10**18)

    tn, td = tol_frac.numerator, tol_frac.denominator
    nv = det_b.nvars
    regions = box.region()
    scaled_list = [_ScaledPoly(det_b, lo, hi) for lo, hi in regions]

    # best sample |p| = best_num / best_den; bounds are (num, den) pairs too,
    # compared cross-multiplied, so Fractions are built only for a new argmax
    best_num, best_den = 0, 1
    best_point = tuple(Fraction(0) for _ in range(nv))
    heap: list = []
    counter = 0
    boxes_processed = 0
    max_depth = 0

    def sample(ridx, lo_num, hi_num, k):
        """Corners and center of the box, as dyadic points at depth k+1."""
        nonlocal best_num, best_den, best_point
        scaled = scaled_list[ridx]
        den = scaled.den << ((k + 1) * scaled.deg_total)
        lo2 = [2 * x for x in lo_num]
        hi2 = [2 * x for x in hi_num]
        points = [
            tuple(hi2[i] if (mask >> i) & 1 else lo2[i] for i in range(nv))
            for mask in range(1 << nv)
        ]
        points.append(tuple(l + h for l, h in zip(lo_num, hi_num)))
        for t in points:
            val = abs(scaled.value_num(t, k + 1))
            if val * best_den > best_num * den:
                best_num, best_den = val, den
                rlo, rhi = regions[ridx]
                step = 2 << k
                best_point = tuple(
                    rlo[i] + (rhi[i] - rlo[i]) * Fraction(t[i], step) for i in range(nv)
                )

    def box_upper(scaled: _ScaledPoly, lo_num, hi_num, k) -> tuple[int, int]:
        """min(monomial, centered) bound on |p| as (numerator, denominator)."""
        D = scaled.deg_total
        mn, mx, _ = scaled.bounds(lo_num, hi_num, k)
        upper = min(max(mx, -mn) << D, scaled.centered_abs_upper(lo_num, hi_num, k))
        return upper, scaled.den << ((k + 1) * D)

    lo0 = (0,) * nv
    hi0 = (1,) * nv
    for ridx, scaled in enumerate(scaled_list):
        up, up_den = box_upper(scaled, lo0, hi0, 0)
        sample(ridx, lo0, hi0, 0)
        counter += 1
        heapq.heappush(heap, (-(up / up_den), counter, ridx, lo0, hi0, 0, up, up_den))

    while heap and boxes_processed < max_boxes:
        _, _, ridx, lo_num, hi_num, k, up, up_den = heap[0]
        # upper - best_lower <= tol
        if (up * best_den - best_num * up_den) * td <= tn * up_den * best_den:
            break
        heapq.heappop(heap)
        boxes_processed += 1
        scaled = scaled_list[ridx]
        for clo, chi, ck in _split_box(lo_num, hi_num, k):
            up, up_den = box_upper(scaled, clo, chi, ck)
            sample(ridx, clo, chi, ck)
            max_depth = max(max_depth, ck)
            if up * best_den > best_num * up_den:
                counter += 1
                heapq.heappush(heap, (-(up / up_den), counter, ridx, clo, chi, ck, up, up_den))
    best_lower = Fraction(best_num, best_den)
    if heap:
        global_upper = max(best_lower, Fraction(heap[0][6], heap[0][7]))
    else:
        global_upper = best_lower

    converged = global_upper - best_lower <= tol_frac
    cert = SupCertificate(
        depth=max_depth, boxes=boxes_processed, argmax=best_point, converged=converged
    )
    result = SupResult(
        value=float((best_lower + global_upper) / 2),
        lower=best_lower,
        upper=global_upper,
        certificate=cert,
    )
    if not converged:
        raise CertificationError(
            f"sup not certified to {tol}: bracket [{float(best_lower)}, {float(global_upper)}]"
        )
    return result


# ---------------------------------------------------------------------------
# certified measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureCertificate:
    boxes: int
    depth: int
    converged: bool


@dataclass(frozen=True)
class MeasureResult:
    value: float
    lower: Fraction
    upper: Fraction
    certificate: MeasureCertificate
    witness_box: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def as_dict(self) -> dict:
        from .rationals import format_rational

        out = {
            "value": self.value,
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "boxes": self.certificate.boxes,
            "depth": self.certificate.depth,
            "converged": self.certificate.converged,
        }
        if self.witness_box is not None:
            out["witness_box"] = [
                [format_rational(x) for x in self.witness_box[0]],
                [format_rational(x) for x in self.witness_box[1]],
            ]
        return out


def spectral_measure(
    det_b: SpectralPolynomial,
    region: SpectrumBox,
    tol: float = 1e-9,
    threshold: Fraction | None = None,
    max_boxes: int = 4_000_000,
    strict: bool = True,
) -> MeasureResult:
    """Integral of |det_b| over the region, certified by adaptive subdivision.

    With ``threshold`` set, integrates over the sublevel part
    {|det_b| <= threshold} of the region instead.  Boxes with constant sign
    (and certified level-set status) are integrated exactly as polynomials;
    the remaining boxes contribute a rational bracket.  The widest-bracket box
    is refined first until the total width drops below tol.

    The refinement loop steers on integer interval bounds and float width
    proxies.  Exact integrals and brackets are summed as integer numerators
    per region and depth, and become one Fraction per region at the end, so
    float rounding can never corrupt the certificate.  On budget exhaustion the
    bracket is still valid; ``strict`` controls whether that raises
    CertificationError or returns the wide bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if det_b.nvars != region.dimension:
        raise ValueError("dimension mismatch between polynomial and region")
    tol_frac = Fraction(tol).limit_denominator(10**18)
    nv = det_b.nvars

    regions = region.region()
    scaled_list = [_ScaledPoly(det_b, lo, hi) for lo, hi in regions]

    witness: tuple | None = None
    boxes_processed = 0
    max_depth = 0
    counter = 0
    heap: list = []          # open boxes: (-width_proxy, counter, ridx, lo, hi, k, mn, mx, se)
    # exact |integral| of the sign-resolved boxes, per region and depth k, as
    # numerators over den * int_lcm * 2**(k*int_exp)
    resolved: list[dict[int, int]] = [{} for _ in regions]
    total_width = 0.0

    def push(ridx, lo_num, hi_num, k):
        """Classify a dyadic box; integer bound arithmetic, float width proxy."""
        nonlocal witness, counter, total_width, max_depth
        scaled = scaled_list[ridx]
        mn, mx, se = scaled.bounds(lo_num, hi_num, k)
        max_depth = max(max_depth, k)
        if threshold is not None:
            # mx <= threshold * den * 2**se, on integers
            rhs = threshold.numerator * scaled.den << se
            inside = mx * threshold.denominator <= rhs and mn * threshold.denominator >= -rhs
            outside = mn * threshold.denominator > rhs or mx * threshold.denominator < -rhs
            if outside:
                return
            if not inside:
                vol_f = scaled.box_volume_f * scaled.dyadic_volume_f(lo_num, hi_num, k)
                den_all = float(scaled.den) * float(1 << se)
                w = vol_f * min(float(threshold), max(abs(mn), abs(mx)) / den_all)
                counter += 1
                heapq.heappush(heap, (-w, counter, ridx, lo_num, hi_num, k, mn, mx, se))
                total_width += w
                return
        if mn >= 0 or mx <= 0:
            if threshold is not None and witness is None and (mn > 0 or mx < 0):
                witness = _to_region_box(regions, ridx, lo_num, hi_num, k)
            iv = scaled.integral_num(lo_num, hi_num, k)
            acc = resolved[ridx]
            acc[k] = acc.get(k, 0) + (iv if mn >= 0 else -iv)
            return
        # straddling: bracket width is at most 2 vol min(mx, -mn)
        vol_f = scaled.box_volume_f * scaled.dyadic_volume_f(lo_num, hi_num, k)
        den_all = float(scaled.den) * float(1 << se)
        w = vol_f * 2.0 * (min(mx, -mn) / den_all)
        counter += 1
        heapq.heappush(heap, (-w, counter, ridx, lo_num, hi_num, k, mn, mx, se))
        total_width += w

    lo0 = (0,) * nv
    hi0 = (1,) * nv
    for ridx in range(len(regions)):
        push(ridx, lo0, hi0, 0)

    target = 0.9 * float(tol_frac)
    while heap and total_width > target and boxes_processed < max_boxes:
        neg_w, _, ridx, lo_num, hi_num, k, _, _, _ = heapq.heappop(heap)
        total_width += neg_w
        boxes_processed += 1
        for clo, chi, ck in _split_box(lo_num, hi_num, k):
            push(ridx, clo, chi, ck)

    # exact closing sweep on integers: per region, a depth-k numerator is over
    # den * int_lcm * thr_den * 2**(k*int_exp); sign-resolved boxes add their
    # integrals, open boxes their brackets
    thr_den = 1 if threshold is None else threshold.denominator
    lower_acc = [{k: v * thr_den for k, v in acc.items()} for acc in resolved]
    upper_acc = [dict(acc) for acc in lower_acc]
    for _, _, ridx, lo_num, hi_num, k, mn, mx, se in heap:
        scaled = scaled_list[ridx]
        lo_acc = lower_acc[ridx]
        hi_acc = upper_acc[ridx]
        # dyadic box volume over 2**(k*nvars), times int_lcm: bounds over
        # den * 2**se then land on the integral denominator
        vol = scaled.int_lcm * math.prod(h - l for l, h in zip(lo_num, hi_num))
        if threshold is not None:
            rhs = threshold.numerator * scaled.den << se
            if not (mx * thr_den <= rhs and mn * thr_den >= -rhs):
                # [0, vol * min(threshold, max|p|)]
                hi_acc[k] = hi_acc.get(k, 0) + vol * min(rhs, max(mx, -mn) * thr_den)
                continue
        lb = abs(scaled.integral_num(lo_num, hi_num, k))
        cap1 = vol * max(mx, -mn)
        cap2 = lb + 2 * vol * min(mx, -mn)
        lo_acc[k] = lo_acc.get(k, 0) + lb * thr_den
        hi_acc[k] = hi_acc.get(k, 0) + min(cap1, cap2) * thr_den
    lower = Fraction(0)
    upper = Fraction(0)
    for scaled, lo_acc, hi_acc in zip(scaled_list, lower_acc, upper_acc):
        den = scaled.den * scaled.int_lcm * thr_den
        lower += _sum_depths(lo_acc, scaled.int_exp, den) * scaled.box_volume
        upper += _sum_depths(hi_acc, scaled.int_exp, den) * scaled.box_volume

    converged = (upper - lower) <= tol_frac
    cert = MeasureCertificate(boxes=boxes_processed, depth=max_depth, converged=converged)
    result = MeasureResult(
        value=float((lower + upper) / 2),
        lower=lower,
        upper=upper,
        certificate=cert,
        witness_box=witness,
    )
    if strict and not converged:
        raise CertificationError(
            f"measure not certified to {tol}: bracket width {float(upper - lower)}"
        )
    return result


def _sum_depths(acc: dict[int, int], exp: int, den: int) -> Fraction:
    """sum over k of acc[k] / (den * 2**(k*exp)), shifted to the deepest depth
    so that one Fraction is built."""
    if not acc:
        return Fraction(0)
    deepest = max(acc)
    num = sum(v << ((deepest - k) * exp) for k, v in acc.items())
    return Fraction(num, den << (deepest * exp))


def _to_region_box(regions, ridx, lo_num, hi_num, k):
    rlo, rhi = regions[ridx]
    den = 1 << k
    lo = tuple(rlo[i] + (rhi[i] - rlo[i]) * Fraction(lo_num[i], den) for i in range(len(rlo)))
    hi = tuple(rlo[i] + (rhi[i] - rlo[i]) * Fraction(hi_num[i], den) for i in range(len(rhi)))
    return (lo, hi)
