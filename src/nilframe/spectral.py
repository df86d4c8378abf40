"""Spectral-side machinery: pairing matrices, Plancherel density, certified
suprema and measures over spectrum boxes.

Symbolic identities are exact; the sup and measure routines return certified
rational brackets produced by branch-and-bound over dyadic sub-boxes, with
monomial-wise interval bounds (valid because every box lives in the positive
orthant).  The measure also brackets each open box by a linear Taylor model
L with a certified remainder rho >= |p - L|.  In the plain measure that is
the integral of |L|, exact by the vertex formula for a box, plus or minus
rho times the volume, which closes as O(h^4) per box against O(h^3) for the
interval bound.  Over a sublevel region {|p| <= T} it is the exact integral
of two piecewise linear functions of L that bound |p| 1{|p| <= T} from
below and above; they differ only on the band where |L| is within rho of T
or of 0, so a box across the level set closes with the band's volume, not
with its own.  One function brackets an open box in either mode, from the
interval bounds and this model.  Both routines run on integer numerators
over dyadic common denominators and build one Fraction per region for the
returned bracket; floats only steer the refinement order.

The per-box integer evaluators (bounds, values, the centered bound, the
Taylor model and its remainder, integrals) are compiled per polynomial
(``kernels``): Python source is generated from the integer term table of
the scaled polynomial and compiled once, as straight-line code with one
expression per Taylor coefficient and no loop over monomials.  It performs
the same integer arithmetic in another order, so every bracket is
unchanged.  A small cache keyed on the term table lets the sup and both
measures of one job share one compile.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import CertificationError, SchemaError
from .kernels import compile_kernels
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
    det_b:      det of modulation; the Plancherel density is its absolute value.
    """

    pairing: tuple[tuple[SpectralPolynomial, ...], ...]
    jump_block: tuple[tuple[SpectralPolynomial, ...], ...]
    modulation: tuple[tuple[SpectralPolynomial, ...], ...]
    det_b: SpectralPolynomial


def build_matrices(spec: LieAlgebraSpec) -> SpectralMatrices:
    """Degree-one polynomial matrices from the bracket table, and det B.

    Callers read ``spec.matrices``, which builds them once per spec.
    """
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
    return SpectralMatrices(
        pairing=pairing, jump_block=jump, modulation=modulation, det_b=determinant(modulation)
    )


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
    det_b: SpectralPolynomial,
) -> PfaffianReport:
    """Exact check that det(jump block) equals det_b^2, with det_b the
    determinant of the modulation matrix."""
    det_v = determinant(jump_block)
    witness = det_v - det_b * det_b
    return PfaffianReport(passed=witness.is_zero(), witness=witness)


def density_polynomial(spec: LieAlgebraSpec) -> SpectralPolynomial:
    """det of the modulation matrix; the Plancherel density is its absolute value."""
    return spec.matrices.det_b


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

    The six integer evaluators are attributes holding functions generated
    and compiled for P's integer term table by ``kernels.compile_kernels``, which
    caches them under that table (with nvars and int_lcm).  Each is
    straight-line integer code, exact because it is the same sum of
    integer products as the formula below, taken in another order.  Boxes
    are integer corners (lo_num, hi_num) at depth k, with center
    lo_num + hi_num at depth k+1:

    - ``bounds(lo_num, hi_num, k)``: (mn, mx, k*deg_total) with mn <= P <= mx
      on the box, over den * 2**(k*deg_total); monomial-wise, valid because
      the unit cube lives in the positive orthant.
    - ``value_num(num, k)``: P at the dyadic point num / 2**k, over
      den * 2**(k*deg_total).
    - ``centered_abs_upper(lo_num, hi_num, k)``: the mean-value bound
      |P(c)| + sum_i sup|dP/dt_i| * halfwidth_i, over den * 2**((k+1)*deg_total);
      second-order tight near interior extrema, where ``bounds`` closes only
      linearly.
    - ``remainder_num(lo_num, hi_num, k)``: rho >= max |P - L| on the box for
      the linear Taylor model L at the center, over den * 2**((k+1)*deg_total):
      the sum over |alpha| >= 2 of |d^alpha P(c) / alpha!| * w^alpha, with
      integer half-widths w = hi_num - lo_num.
    - ``linear_model(lo_num, hi_num, k)``: integers (q0, q) with
      L = (q0 + q.v) / (den * 2**((k+1)*deg_total)) in v = 2**(k+1) (t - c),
      integer on the box [-w, w].
    - ``integral_num(lo_num, hi_num, k)``: the exact integral of P over the
      box in unit-cube coordinates, over den * int_lcm * 2**(k*int_exp).
    """

    __slots__ = (
        "den",
        "box_volume",
        "box_volume_f",
        "nvars",
        "deg_total",
        "int_lcm",
        "int_exp",
        "bounds",
        "value_num",
        "centered_abs_upper",
        "remainder_num",
        "linear_model",
        "integral_num",
    )

    def __init__(self, p: SpectralPolynomial, lo: Sequence[Fraction], hi: Sequence[Fraction]):
        q = p.substitute_affine(lo, [h - l for l, h in zip(lo, hi)])
        monos, self.den = q.integer_scaled()
        self.nvars = p.nvars
        vol = Fraction(1)
        for l, h in zip(lo, hi):
            vol *= h - l
        self.box_volume = vol
        self.box_volume_f = float(vol)
        self.deg_total = max((sum(m) for m, _ in monos), default=0)
        # integral bookkeeping: common denominator den * lcm * 2**(k*int_exp)
        lcm = 1
        for m, _ in monos:
            lcm = math.lcm(lcm, math.prod(e + 1 for e in m))
        self.int_lcm = lcm
        self.int_exp = self.deg_total + self.nvars
        (
            self.bounds,
            self.value_num,
            self.centered_abs_upper,
            self.remainder_num,
            self.linear_model,
            self.integral_num,
        ) = compile_kernels(self.nvars, tuple(monos), lcm)

    def model_bracket_num(
        self, lo_num, hi_num, k, depth: int, rho: int, threshold: Fraction | None = None
    ) -> tuple[int, int]:
        """The second-order bracket: integers (lower, upper) around the
        integral of |P| over the dyadic box, or over its part where
        |p| <= threshold, as numerators over den * int_lcm * thr_den *
        2**(depth*int_exp) for a depth > k, with thr_den = 1 without a
        threshold; rho is ``remainder_num`` of the box.  Without a threshold
        it is the exact integral of |L| for the linear model L, plus or minus
        rho times the volume; with one, the exact integrals of g_lo(L) and
        g_hi(L) (``_sublevel_terms``).  Both are rounded outward.
        """
        half = [h - l for l, h in zip(lo_num, hi_num)]
        volume = math.prod(2 * w for w in half)
        if threshold is None:
            q0, q = self.linear_model(lo_num, hi_num, k)
            num, den = _abs_linear_integral(q0, q, half)
            spread = rho * volume * den
            lower, upper = num - spread, num + spread
        else:
            q0, q, rho, thr = self.sublevel_model(lo_num, hi_num, k, rho, threshold)
            if any(q):
                (lower, upper), den = _truncated_power_integral(
                    q0, q, half, *_sublevel_terms(thr, rho)
                )
            else:
                g_lo, g_hi = _sublevel_g(q0, thr, rho)
                lower, upper, den = g_lo * volume, g_hi * volume, 1
        # (lower, upper) / den is in the model's units, v over 2**(k+1) per
        # axis and values over den * 2**((k+1)*deg_total) (times thr_den):
        # round outward onto the integral grid of the given depth
        scale = self.int_lcm << ((depth - k - 1) * self.int_exp)
        return lower * scale // den, -(-upper * scale // den)

    def sublevel_model(self, lo_num, hi_num, k, rho: int, threshold: Fraction) -> tuple:
        """Integers (q0, q, rho, thr) of the linear model, its remainder and
        the threshold in one unit: ``linear_model``'s times thr_den, so that
        |p| <= threshold where |P| * thr_den <= thr = thr_num * den *
        2**((k+1)*deg_total)."""
        thr_den = threshold.denominator
        q0, q = self.linear_model(lo_num, hi_num, k)
        thr = threshold.numerator * self.den << ((k + 1) * self.deg_total)
        return q0 * thr_den, [x * thr_den for x in q], rho * thr_den, thr

    def grid_depth(self, step: Fraction) -> int:
        """Smallest depth whose integral grid step, box_volume over
        den * int_lcm * 2**(depth*int_exp), is at most ``step``."""
        depth = 0
        while self.box_volume > step * self.den * self.int_lcm * (1 << (depth * self.int_exp)):
            depth += 1
        return depth


def _truncated_power_integral(q0, q, half, *term_lists) -> tuple:
    """Exact integrals of sums c (L - a)_+^m, one per list of terms (c, a, m)
    with m in {0, 1}, for L = q0 + q.v on the box prod [-half_i, half_i], as
    (nums, den) with one numerator per list and den > 0; (x)_+^0 is 1 for
    x > 0 and 0 otherwise.

    A term integrates by the vertex formula
    m!/(m+n)! sum_v (prod s_i) (L(v) - a)_+^(m+n) / prod q_i, with s_i = +1
    at the upper and -1 at the lower end of axis i, over the n axes with
    q_i != 0; an axis with q_i = 0 integrates out as a factor 2 half_i.  A
    term whose breakpoint a lies outside the open range of L is a polynomial
    on the box: 0 above it, and (q0 - a)^m times the volume below it.  With
    n = 0 the integrand is constant and (x)_+^0 is read as stated.  The
    lists share the vertices and every (a, m) they have in common.  Exact
    for integers and Fractions alike.
    """
    active = []
    flat = 1
    den = 1
    reach = 0
    for qi, w in zip(q, half):
        if qi:
            active.append((qi, w))
            den *= qi
            reach += abs(qi) * w
        else:
            flat *= 2 * w
    n = len(active)
    den *= math.factorial(n + 1)
    top = q0 + reach
    bottom = q0 - reach
    vertices = None
    parts: dict = {}  # vertex sums by (a, m), over the common (n+1)! of m!/(m+n)!
    nums = []
    for terms in term_lists:
        below = 0  # terms polynomial on the box, over the volume
        pos = 0
        for c, a, m in terms:
            if a >= top:
                continue
            if a <= bottom:
                below += c * (q0 - a) if m else c
                continue
            part = parts.get((a, m))
            if part is None:
                if vertices is None:
                    # (prod s_i, L(v)) over the vertices, one axis at a time
                    vertices = [(1, q0)]
                    for qi, w in active:
                        step = qi * w
                        vertices = [(-s, x - step) for s, x in vertices] + [
                            (s, x + step) for s, x in vertices
                        ]
                e = m + n
                part = 0
                for sign, value in vertices:
                    if value > a:
                        part += sign * (value - a) ** e
                if not m:
                    part *= n + 1
                parts[(a, m)] = part
            pos += c * part
        num = flat * pos
        if below:
            num += below * den * flat * math.prod(2 * w for _, w in active)
        nums.append(num if den > 0 else -num)
    return nums, abs(den)


def _abs_linear_integral(q0, q, half) -> tuple:
    """Exact integral of |q0 + q.v| over the box prod [-half_i, half_i], as
    (num, den) with den > 0: 2 int(L_+) - int(L), with int(L) = q0 times the
    volume on the centered box."""
    (num,), den = _truncated_power_integral(q0, q, half, ((2, 0, 1),))
    return num - q0 * math.prod(2 * w for w in half) * den, den


def _sublevel_terms(thr, rho) -> tuple:
    """Truncated-power terms (c, a, m) of the sublevel model bounds
    g_lo(s) = (|s| - rho)_+ 1{|s| <= thr - rho} and
    g_hi(s) = (|s| + rho) 1{|s| <= thr - rho} + thr 1{thr - rho < |s| <= thr + rho}:
    if |p - L| <= rho then g_lo(L) <= |p| 1{|p| <= thr} <= g_hi(L).

    g_hi breaks at -+(thr + rho), -+(thr - rho) and 0; g_lo at -+(thr - rho)
    and -+rho, and vanishes once thr - rho <= rho.  Both are read with
    Heavisides open on the left, which differs from g only where L is at a
    breakpoint: a null set unless L is constant (``_sublevel_g``).
    """
    outer = thr + rho
    if thr <= rho:
        return (), ((thr, -outer, 0), (-thr, outer, 0))
    inner = thr - rho
    hi = ((thr, -outer, 0), (-1, -inner, 1), (2, 0, 1), (-1, inner, 1), (-thr, outer, 0))
    if inner <= rho:
        return (), hi
    jump = inner - rho
    lo = (
        (jump, -inner, 0),
        (-1, -inner, 1),
        (1, -rho, 1),
        (1, rho, 1),
        (-1, inner, 1),
        (-jump, inner, 0),
    )
    return lo, hi


def _sublevel_g(s, thr, rho) -> tuple:
    """(g_lo(s), g_hi(s)) of ``_sublevel_terms`` at one value s."""
    a = abs(s)
    if a <= thr - rho:
        return max(a - rho, 0), a + rho
    return 0, (thr if a <= thr + rho else 0)


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
    the remaining boxes contribute a rational bracket.  A zero-set
    straddling box's first-order bracket is [|integral of p|,
    min(vol max|p|, |integral of p| + 2 vol min(max p, -min p))] from
    interval bounds, and [0, vol min(threshold, max|p|)] for a box across
    the level set.  Each is intersected with a second-order bracket from the
    box's linear Taylor model L and remainder rho: (integral of |L|) +-
    rho vol in plain mode, and [integral of g_lo(L), integral of g_hi(L)] in
    sublevel mode, with g_lo(s) = (|s| - rho)_+ 1{|s| <= threshold - rho}
    and g_hi(s) = (|s| + rho) 1{|s| <= threshold - rho} +
    threshold 1{threshold - rho < |s| <= threshold + rho}, both integrated
    exactly as sums of truncated powers of L.

    The box with the widest float width is refined first, until the widths
    sum to at most 0.6 tol: in sublevel mode the width of the box's exact
    bracket, computed when the box is pushed; in plain mode the smaller of
    the first- and second-order widths, and the exact bracket waits for the
    closing sweep, which most plain boxes never reach.  Exact integrals and
    brackets are summed as integer numerators per region and depth
    (second-order brackets rounded outward onto the dyadic grid of the next
    depth), and become one Fraction per region at the end, so float rounding
    can never corrupt the certificate; ``converged`` compares that exact
    width with tol.  On budget exhaustion the bracket is still valid;
    ``strict`` controls whether that raises CertificationError or returns the
    wide bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if det_b.nvars != region.dimension:
        raise ValueError("dimension mismatch between polynomial and region")
    tol_frac = Fraction(tol).limit_denominator(10**18)
    nv = det_b.nvars

    regions = region.region()
    scaled_list = [_ScaledPoly(det_b, lo, hi) for lo, hi in regions]
    thr_den = 1 if threshold is None else threshold.denominator
    # second-order brackets are rounded outward onto the grid of depth k+1, or
    # deeper where its step exceeds 2**-30 tol: the rounding of every open box
    # together then stays far below tol, also where a linear p leaves boxes
    # open at shallow depth with no remainder to refine
    fine = [scaled.grid_depth(tol_frac / (1 << 30)) for scaled in scaled_list]

    witness: tuple | None = None
    boxes_processed = 0
    max_depth = 0
    counter = 0
    # open boxes: (-width, counter, ridx, lo, hi, k, mn, mx, se, rho, bracket),
    # bracket the box's exact (depth, lower, upper) from ``box_bracket``, or
    # None for a plain box until the closing sweep
    heap: list = []
    # exact |integral| of the sign-resolved boxes, per region and depth k, as
    # numerators over den * int_lcm * 2**(k*int_exp)
    resolved: list[dict[int, int]] = [{} for _ in regions]
    total_width = 0.0

    def box_bracket(ridx, lo_num, hi_num, k, mn, mx, se, rho) -> tuple[int, int, int]:
        """An open box's exact (depth, lower, upper), as numerators over
        den * int_lcm * thr_den * 2**(depth*int_exp) at depth max(k+1, fine):
        the first-order bracket, [|integral of p|, cap] inside the level set
        (all of plain mode) and [0, vol min(threshold, max|p|)] across it,
        intersected with the second-order one."""
        scaled = scaled_list[ridx]
        # dyadic box volume over 2**(k*nvars), times int_lcm, takes bounds over
        # den * 2**se onto the integral denominator
        vol = scaled.int_lcm * math.prod(h - l for l, h in zip(lo_num, hi_num))
        rhs = None if threshold is None else threshold.numerator * scaled.den << se
        if rhs is None or (mx * thr_den <= rhs and mn * thr_den >= -rhs):
            lb = abs(scaled.integral_num(lo_num, hi_num, k))
            lower = lb * thr_den
            upper = min(vol * max(mx, -mn), lb + 2 * vol * min(mx, -mn)) * thr_den
        else:
            lower = 0
            upper = vol * min(rhs, max(mx, -mn) * thr_den)
        depth = max(k + 1, fine[ridx])
        lo2, hi2 = scaled.model_bracket_num(lo_num, hi_num, k, depth, rho, threshold)
        shift = (depth - k) * scaled.int_exp
        return depth, max(lower << shift, lo2), min(upper << shift, hi2)

    def push(ridx, lo_num, hi_num, k):
        """Classify a dyadic box; integer bound arithmetic, float width."""
        nonlocal witness, counter, total_width, max_depth
        scaled = scaled_list[ridx]
        mn, mx, se = scaled.bounds(lo_num, hi_num, k)
        max_depth = max(max_depth, k)
        # |p| <= threshold where |P| * thr_den <= rhs, on integers
        rhs = None if threshold is None else threshold.numerator * scaled.den << se
        if rhs is not None and (mn * thr_den > rhs or mx * thr_den < -rhs):
            return
        inside = rhs is None or (mx * thr_den <= rhs and mn * thr_den >= -rhs)
        if inside and (mn >= 0 or mx <= 0):
            if threshold is not None and witness is None and (mn > 0 or mx < 0):
                witness = _to_region_box(regions, ridx, lo_num, hi_num, k)
            iv = scaled.integral_num(lo_num, hi_num, k)
            acc = resolved[ridx]
            acc[k] = acc.get(k, 0) + (iv if mn >= 0 else -iv)
            return
        rho = scaled.remainder_num(lo_num, hi_num, k)
        counter += 1
        bracket = None
        if threshold is None:
            # straddling: bracket width is at most 2 vol min(mx, -mn), and at
            # most 2 vol rho for the linear model's remainder rho
            cells = math.prod(h - l for l, h in zip(lo_num, hi_num))
            vol_f = scaled.box_volume_f * (cells / float(1 << (k * nv)))
            w = vol_f * 2.0 * (min(mx, -mn) / (float(scaled.den) * float(1 << se)))
            w = min(w, vol_f * 2.0 * (rho / (scaled.den << (se + scaled.deg_total))))
        else:
            bracket = box_bracket(ridx, lo_num, hi_num, k, mn, mx, se, rho)
            depth, lower, upper = bracket
            unit = scaled.den * scaled.int_lcm * thr_den << (depth * scaled.int_exp)
            w = (upper - lower) / unit * scaled.box_volume_f
        heapq.heappush(heap, (-w, counter, ridx, lo_num, hi_num, k, mn, mx, se, rho, bracket))
        total_width += w

    lo0 = (0,) * nv
    hi0 = (1,) * nv
    for ridx in range(len(regions)):
        push(ridx, lo0, hi0, 0)

    # the second-order widths are tight, so refinement ends near its target
    target = 0.6 * float(tol_frac)
    while heap and total_width > target and boxes_processed < max_boxes:
        entry = heapq.heappop(heap)
        total_width += entry[0]
        boxes_processed += 1
        ridx, lo_num, hi_num, k = entry[2:6]
        for clo, chi, ck in _split_box(lo_num, hi_num, k):
            push(ridx, clo, chi, ck)

    # exact closing sweep on integers: per region, a depth-k numerator is over
    # den * int_lcm * thr_den * 2**(k*int_exp); sign-resolved boxes add their
    # integrals, open boxes their brackets, computed here where missing
    lower_acc = [{k: v * thr_den for k, v in acc.items()} for acc in resolved]
    upper_acc = [dict(acc) for acc in lower_acc]
    for entry in heap:
        ridx = entry[2]
        depth, lo2, hi2 = entry[10] or box_bracket(*entry[2:10])
        lower_acc[ridx][depth] = lower_acc[ridx].get(depth, 0) + lo2
        upper_acc[ridx][depth] = upper_acc[ridx].get(depth, 0) + hi2
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
