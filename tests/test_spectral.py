"""Spectral matrices, determinant values, certified sup and measure."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilframe.algebra import load_spec
from nilframe.errors import CertificationError, SchemaError
from nilframe.polynomial import SpectralPolynomial, determinant
from nilframe.spectral import (
    SpectrumBox,
    _abs_linear_integral,
    _depth_geometry,
    _ScaledPoly,
    _split_box,
    _sublevel_g,
    _sublevel_terms,
    _truncated_power_integral,
    block_structure_holds,
    build_matrices,
    density_polynomial,
    eval_density,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)

from conftest import EXAMPLE2_DOC, EXAMPLE3_DOC, random_valid_spec


def poly(nvars, terms):
    return SpectralPolynomial(nvars, {m: Fraction(c) for m, c in terms.items()})


class TestBuildMatrices:
    def test_heisenberg_modulation(self, heisenberg):
        mats = build_matrices(heisenberg)
        assert mats.modulation[0][0] == poly(1, {(1,): -1})

    def test_example2_modulation_rows(self, example2):
        mats = build_matrices(example2)
        b = mats.modulation
        assert b[0][0] == poly(2, {(1, 0): -1})
        assert b[0][1] == poly(2, {(0, 1): -1})
        assert b[1][0] == poly(2, {(0, 1): -1})
        assert b[1][1] == poly(2, {(1, 0): -1})

    def test_example3_entries_single_coordinates(self, example3):
        mats = build_matrices(example3)
        seen = set()
        for row in mats.modulation:
            for entry in row:
                assert len(entry.terms) == 1
                (mono, coef), = entry.terms.items()
                assert sum(mono) == 1 and abs(coef) == 1
                seen.add(mono)
        assert len(seen) == 3  # all three central coordinates appear

    def test_block_structure(self, heisenberg, example2, example3):
        for spec in (heisenberg, example2, example3):
            assert block_structure_holds(build_matrices(spec), spec.d)

    def test_pairing_entries_are_degree_one(self, example2):
        mats = build_matrices(example2)
        assert all(p.total_degree() <= 1 for row in mats.pairing for p in row)


class TestDeterminants:
    def test_example2_det(self, example2):
        det_b = density_polynomial(example2)
        assert det_b == poly(2, {(2, 0): 1, (0, 2): -1})  # first coordinate squared minus second

    def test_example3_det_matches_bruteforce(self, example3):
        # oracle: permutation expansion in test_polynomial.det_oracle
        from test_polynomial import det_oracle

        mats = build_matrices(example3)
        det_b = determinant(mats.modulation)
        assert det_b == det_oracle([list(r) for r in mats.modulation])
        # cyclic bracket table: mixed term carries coefficient 3
        assert det_b == poly(3, {(1, 1, 1): 3, (3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1})


class TestPfaffian:
    def test_examples_pass(self, heisenberg, example2, example3):
        for spec in (heisenberg, example2, example3):
            mats = build_matrices(spec)
            rep = pfaffian_identity_check(mats.jump_block, mats.det_b)
            assert rep.passed and rep.witness.is_zero()

    def test_heisenberg_values(self, heisenberg):
        mats = build_matrices(heisenberg)
        assert determinant(mats.jump_block) == poly(1, {(2,): 1})
        assert determinant(mats.modulation) ** 2 == poly(1, {(2,): 1})

    def test_corrupted_block_fails_with_witness(self, example2):
        mats = build_matrices(example2)
        corrupted = [list(row) for row in mats.jump_block]
        corrupted[0][2] = corrupted[0][2] + 1  # break the coupling block
        rep = pfaffian_identity_check(corrupted, mats.det_b)
        assert not rep.passed
        assert not rep.witness.is_zero()

    def test_random_valid_specs(self):
        rng = random.Random(4242)
        for _ in range(15):
            spec = random_valid_spec(rng)
            mats = build_matrices(spec)
            assert pfaffian_identity_check(mats.jump_block, mats.det_b).passed


class TestEvalDensity:
    def test_heisenberg_point(self, heisenberg):
        det_b = density_polynomial(heisenberg)
        assert eval_density(det_b, [Fraction(2)]) == 2

    def test_example2_points(self, example2):
        det_b = density_polynomial(example2)
        assert eval_density(det_b, [Fraction(0), Fraction(3)]) == 9
        assert eval_density(det_b, [Fraction(1), Fraction(1)]) == 0

    def test_float_path(self, example2):
        det_b = density_polynomial(example2)
        assert eval_density(det_b, [0.0, 3.0]) == pytest.approx(9.0)

    @pytest.mark.parametrize(
        "x, error", [(float("nan"), ValueError), (float("inf"), OverflowError)]
    )
    def test_non_finite_coordinate(self, example2, x, error):
        with pytest.raises(error):
            eval_density(density_polynomial(example2), [0.0, x])

    def test_dimension_mismatch(self, example2):
        with pytest.raises(ValueError):
            eval_density(density_polynomial(example2), [Fraction(1)])


class TestSupDensity:
    def test_example2_sup_is_nine(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        res = sup_density(det_b, box, tol=1e-9)
        assert res.lower <= 9 <= res.upper
        assert abs(res.value - 9) <= 1e-9
        assert res.certificate.argmax == (Fraction(0), Fraction(3))

    def test_constant_polynomial_depth_zero(self):
        c = SpectralPolynomial.constant(2, Fraction(-7, 2))
        box = SpectrumBox(a=(Fraction(1), Fraction(1)))
        res = sup_density(c, box, tol=1e-9)
        assert res.lower == res.upper == Fraction(7, 2)
        assert res.certificate.depth == 0

    def test_heisenberg_monotone(self, heisenberg):
        det_b = density_polynomial(heisenberg)
        box = SpectrumBox(a=(Fraction(5, 2),))
        res = sup_density(det_b, box, tol=1e-12)
        assert res.lower == res.upper == Fraction(5, 2)

    def test_sample_points_never_exceed_returned_sup(self, example3):
        det_b = density_polynomial(example3)
        box = SpectrumBox(a=(Fraction(1), Fraction(1), Fraction(1)))
        res = sup_density(det_b, box, tol=1e-6)
        rng = random.Random(1)
        for _ in range(50):
            pt = [Fraction(rng.randint(0, 64), 64) for _ in range(3)]
            assert eval_density(det_b, pt) <= res.upper

    def test_tightening_tol_consistent(self, example3):
        det_b = density_polynomial(example3)
        box = SpectrumBox(a=(Fraction(1), Fraction(1), Fraction(1)))
        loose = sup_density(det_b, box, tol=1e-2)
        tight = sup_density(det_b, box, tol=1e-5)
        assert tight.value <= loose.value + 1e-2
        assert tight.upper <= loose.upper

    def test_budget_exhaustion_raises(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        # sup sits exactly at a corner sample, so even tiny budgets certify;
        # force failure with an interior maximum instead
        shifted = det_b.substitute_affine([Fraction(-1), Fraction(0)], [Fraction(1), Fraction(1)])
        with pytest.raises(CertificationError):
            sup_density(shifted, box, tol=1e-12, max_boxes=3)


class TestSpectralMeasure:
    @pytest.mark.parametrize("certify", [sup_density, spectral_measure])
    def test_tolerance_rounding_to_zero_is_rejected(self, heisenberg, certify):
        # 1e-300 rounds to 0 at denominator 10**18; refining to it would never end
        box = SpectrumBox(a=(Fraction(1),))
        with pytest.raises(ValueError):
            certify(density_polynomial(heisenberg), box, tol=1e-300)

    @pytest.mark.parametrize(
        "sub_boxes",
        [[(0, 1), (0, 1)], [(0, Fraction(1, 2)), (Fraction(1, 4), 1)]],
        ids=["duplicate", "overlap"],
    )
    def test_overlapping_sub_boxes_rejected(self, sub_boxes):
        # each region is integrated on its own: an overlap would count twice
        with pytest.raises(SchemaError) as err:
            SpectrumBox(
                a=(Fraction(1),),
                sub_boxes=tuple(((Fraction(lo),), (Fraction(hi),)) for lo, hi in sub_boxes),
            )
        assert err.value.field == "spectrum.sub_boxes"

    @pytest.mark.parametrize("a", [int("1" * 3000), 10**160], ids=["repunit", "1e160"])
    def test_box_past_the_float_range_is_a_schema_error(self, heisenberg, a):
        # the repunit's volume is past the largest float; at 10**160 the
        # measure a**2/2 is
        box = SpectrumBox(a=(Fraction(a),))
        with pytest.raises(SchemaError) as err:
            spectral_measure(density_polynomial(heisenberg), box, tol=1e-9)
        assert err.value.field == "spectrum.a"

    def test_heisenberg_closed_form(self, heisenberg):
        # oracle: integral of the identity map over (0, a] is a^2/2
        det_b = density_polynomial(heisenberg)
        box = SpectrumBox(a=(Fraction(2),))
        res = spectral_measure(det_b, box, tol=1e-12)
        assert res.lower == res.upper == Fraction(2)

    def test_example2_value(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        res = spectral_measure(det_b, box, tol=1e-6)
        assert res.lower <= Fraction(46, 3) <= res.upper
        assert float(res.width) <= 1e-6

    def test_empty_region_is_zero(self, example2):
        det_b = density_polynomial(example2)
        # region reduced to a null-measure sliver via a tiny sub-box of zero integrand
        box = SpectrumBox(
            a=(Fraction(2), Fraction(3)),
            sub_boxes=(((Fraction(0), Fraction(0)), (Fraction(1, 10**9), Fraction(1, 10**9))),),
        )
        res = spectral_measure(det_b, box, tol=1e-6)
        assert res.upper < Fraction(1, 10**18)

    def test_additivity_over_split(self, example2):
        det_b = density_polynomial(example2)
        whole = spectral_measure(det_b, SpectrumBox(a=(Fraction(2), Fraction(3))), tol=1e-7)
        left = SpectrumBox(
            a=(Fraction(2), Fraction(3)),
            sub_boxes=(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(3))),),
        )
        right = SpectrumBox(
            a=(Fraction(2), Fraction(3)),
            sub_boxes=(((Fraction(1), Fraction(0)), (Fraction(2), Fraction(3))),),
        )
        parts = spectral_measure(det_b, left, tol=1e-7).value + spectral_measure(
            det_b, right, tol=1e-7
        ).value
        assert abs(parts - whole.value) <= 3e-7

    def test_monotone_under_inclusion(self, example2):
        det_b = density_polynomial(example2)
        small = SpectrumBox(
            a=(Fraction(2), Fraction(3)),
            sub_boxes=(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))),),
        )
        s = spectral_measure(det_b, small, tol=1e-7)
        w = spectral_measure(det_b, SpectrumBox(a=(Fraction(2), Fraction(3))), tol=1e-7)
        assert s.upper <= w.upper

    @pytest.mark.parametrize(
        "terms, a, exact",
        [
            ({(1, 0): 1, (0, 1): -1}, (1, 1), Fraction(1, 3)),
            ({(1,): 1, (0,): -1}, (3,), Fraction(5, 2)),
            ({(1, 0, 0): 2, (0, 0, 1): -1, (0, 0, 0): Fraction(1, 3)}, (1, 2, 1), Fraction(143, 81)),
        ],
    )
    def test_linear_density_closes_without_refinement(self, terms, a, exact):
        # the linear model is exact, so the only width left is the rounding
        # onto the dyadic grid, which must stay far below tol even at depth 0
        p = poly(len(a), terms)
        tol = 1e-4
        res = spectral_measure(p, SpectrumBox(a=tuple(Fraction(x) for x in a)), tol=tol)
        assert res.lower <= exact <= res.upper
        assert res.certificate.boxes == 0
        assert res.width <= Fraction(tol) / 2**28

    def test_sublevel_example3(self, example3):
        det_b = density_polynomial(example3)
        box = SpectrumBox(a=(Fraction(1), Fraction(1), Fraction(1)))
        res = spectral_measure(
            det_b, box, tol=5e-2, threshold=Fraction(1), max_boxes=60_000
        )
        assert res.lower > 0
        assert res.witness_box is not None
        lo, hi = res.witness_box
        mid = [ (l + h) / 2 for l, h in zip(lo, hi)]
        val = eval_density(det_b, mid)
        assert 0 < val <= 1

    def test_sublevel_never_exceeds_plain_measure(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        plain = spectral_measure(det_b, box, tol=1e-6)
        sub = spectral_measure(det_b, box, tol=1e-3, threshold=Fraction(4))
        assert sub.upper <= plain.upper + Fraction(1, 1000)

    @pytest.mark.parametrize("threshold", [None, Fraction(4)])
    def test_budget_exhaustion(self, example2, threshold):
        # ten boxes cannot close example2 to 1e-6: a plain measure raises, a
        # sublevel measure returns its still valid wide bracket
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        if threshold is None:
            with pytest.raises(CertificationError):
                spectral_measure(det_b, box, 1e-6, threshold, max_boxes=10)
        else:
            res = spectral_measure(det_b, box, 1e-6, threshold, max_boxes=10)
            assert not res.certificate.converged
            assert res.lower <= res.upper


def abs_integral(q0, q, half):
    num, den = _abs_linear_integral(q0, q, half)
    assert den > 0
    return Fraction(num) / den


def random_rational(rng, lo, hi, den=12):
    return Fraction(rng.randint(lo * den, hi * den), rng.randint(1, den))


def random_linear_data(rng, d):
    """Random rational (q0, q, half) with some q_i = 0 and half_i > 0."""
    q = [random_rational(rng, -5, 5) if rng.random() < 0.75 else Fraction(0) for _ in range(d)]
    half = [random_rational(rng, 1, 4) for _ in range(d)]
    return random_rational(rng, -6, 6), q, half


class TestAbsLinearIntegral:
    """The vertex formula for the integral of |q0 + q.v| over [-half, half]."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_signed_equals_abs_of_integral(self, d):
        rng = random.Random(100 + d)
        for _ in range(40):
            _, q, half = random_linear_data(rng, d)
            reach = sum(abs(a) * w for a, w in zip(q, half))
            q0 = rng.choice([-1, 1]) * (reach + random_rational(rng, 0, 3))
            vol = math.prod(2 * w for w in half)
            assert abs_integral(q0, q, half) == abs(q0) * vol

    def test_d1_closed_form(self):
        rng = random.Random(7)
        for _ in range(100):
            q0, (a,), (w,) = random_linear_data(rng, 1)
            if abs(q0) >= abs(a) * w:
                expected = 2 * w * abs(q0)
            else:
                expected = ((q0 + a * w) ** 2 + (q0 - a * w) ** 2) / (2 * abs(a))
            assert abs_integral(q0, [a], [w]) == expected

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_axis_integrates_out(self, d):
        rng = random.Random(200 + d)
        for _ in range(40):
            q0, q, half = random_linear_data(rng, d - 1)
            w = random_rational(rng, 1, 4)
            axis = rng.randint(0, d - 1)
            q_full = q[:axis] + [Fraction(0)] + q[axis:]
            half_full = half[:axis] + [w] + half[axis:]
            assert abs_integral(q0, q_full, half_full) == 2 * w * abs_integral(q0, q, half)

    @pytest.mark.parametrize("d, n", [(2, 200), (3, 40)])
    def test_matches_midpoint_quadrature(self, d, n):
        rng = random.Random(300 + d)
        for _ in range(5):
            q0, q, half = random_linear_data(rng, d)
            cell = math.prod(2 * float(w) / n for w in half)
            grids = [[float(w) * (2 * (i + 0.5) / n - 1) for i in range(n)] for w in half]
            quad = sum(
                abs(float(q0) + sum(float(a) * x for a, x in zip(q, pt)))
                for pt in itertools.product(*grids)
            ) * cell
            exact = float(abs_integral(q0, q, half))
            assert abs(quad - exact) <= 1e-3 * exact


class TestLinearModelRemainder:
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_remainder_bounds_the_model_error_at_dyadic_points(self, nvars):
        rng = random.Random(400 + nvars)
        monos = [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3]
        for _ in range(15):
            p = poly(nvars, {m: random_rational(rng, -4, 4) for m in rng.sample(monos, min(5, len(monos)))})
            lo = [random_rational(rng, 0, 3) for _ in range(nvars)]
            hi = [x + random_rational(rng, 1, 2) for x in lo]
            scaled = _ScaledPoly(p, lo, hi)
            D = scaled.deg_total
            k = rng.randint(0, 5)
            lo_num = tuple(rng.randint(0, (1 << k) - 1) for _ in range(nvars))
            hi_num = tuple(x + rng.randint(1, (1 << k) - x) for x in lo_num)
            q0, q = scaled.linear_model(lo_num, hi_num, k)
            rho = scaled.remainder_num(lo_num, hi_num, k)
            j = rng.randint(0, 4)
            center = [(l + h) << j for l, h in zip(lo_num, hi_num)]
            # dyadic points at depth k+1+j, the corners among them; P is over
            # den * 2**((k+1+j)*D)
            ends = [(l << (j + 1), h << (j + 1)) for l, h in zip(lo_num, hi_num)]
            points = list(itertools.product(*ends))
            points += [[rng.randint(a, b) for a, b in ends] for _ in range(20)]
            for x in points:
                p_num = scaled.value_num(x, k + 1 + j)
                l_num = (q0 << (j * D)) + sum(
                    a * (xi - c) << (j * (D - 1)) for a, xi, c in zip(q, x, center)
                )
                assert abs(p_num - l_num) <= rho << (j * D)

    def test_remainder_vanishes_for_linear_p(self):
        scaled = _ScaledPoly(poly(2, {(1, 0): 3, (0, 1): -2, (0, 0): 1}), [0, 0], [1, 1])
        assert scaled.remainder_num((1, 2), (3, 3), 2) == 0


def kernel_reference(p, lo, hi, k, lo_num, hi_num, point) -> tuple:
    """The six ``_ScaledPoly`` evaluators from their definitions, in exact
    Fractions on P = den * p(lo + (hi - lo) t), and the scaled polynomial."""
    scaled = _ScaledPoly(p, lo, hi)
    n, D = p.nvars, scaled.deg_total
    q = p.substitute_affine(lo, [h - l for l, h in zip(lo, hi)])
    P = {m: c * scaled.den for m, c in q.terms.items()}
    assert all(c.denominator == 1 for c in P.values())
    step = Fraction(1, 1 << k)
    t_lo = [x * step for x in lo_num]
    t_hi = [x * step for x in hi_num]
    center = [(a + b) / 2 for a, b in zip(t_lo, t_hi)]
    half = [(b - a) / 2 for a, b in zip(t_lo, t_hi)]

    def power(x, m):
        return math.prod(xi**e for xi, e in zip(x, m))

    def value(terms, x):
        return sum(c * power(x, m) for m, c in terms.items())

    def interval(terms):
        corners = [(c * power(t_lo, m), c * power(t_hi, m)) for m, c in terms.items()]
        return sum(min(v) for v in corners), sum(max(v) for v in corners)

    # P(center + v): the coefficient of v^alpha is d^alpha P(center) / alpha!
    taylor = SpectralPolynomial(n, P).substitute_affine(center, [1] * n).terms
    units = [tuple(int(i == axis) for i in range(n)) for axis in range(n)]
    grads = [
        {tuple(e - u for e, u in zip(m, unit)): c * m[axis] for m, c in P.items() if m[axis]}
        for axis, unit in enumerate(units)
    ]
    model = Fraction(2) ** ((k + 1) * D)
    mn, mx = interval(P)
    slope = sum(max(-a, b) * w for (a, b), w in zip(map(interval, grads), half))
    integral = sum(
        c * math.prod((h ** (e + 1) - l ** (e + 1)) / (e + 1) for l, h, e in zip(t_lo, t_hi, m))
        for m, c in P.items()
    )
    expected = {
        "bounds": (mn * (1 << (k * D)), mx * (1 << (k * D)), k * D),
        "value_num": value(P, [x * step for x in point]) * (1 << (k * D)),
        "centered_abs_upper": (abs(value(P, center)) + slope) * model,
        "remainder_num": model
        * sum(abs(c) * power(half, alpha) for alpha, c in taylor.items() if sum(alpha) >= 2),
        "linear_model": (
            value(P, center) * model,
            [taylor.get(unit, 0) * model / (1 << (k + 1)) for unit in units],
        ),
        "integral_num": integral * scaled.int_lcm * (1 << (k * scaled.int_exp)),
    }
    return scaled, expected


def assert_kernels_match(p, lo, hi, k, lo_num, hi_num, point):
    scaled, expected = kernel_reference(p, lo, hi, k, lo_num, hi_num, point)
    got = {
        name: scaled.value_num(point, k)
        if name == "value_num"
        else getattr(scaled, name)(lo_num, hi_num, k)
        for name in expected
    }
    for name, want in expected.items():
        flat = got[name] if isinstance(got[name], tuple) else (got[name],)
        flat = [x for v in flat for x in (v if isinstance(v, list) else [v])]
        assert all(type(x) is int for x in flat), name
        assert got[name] == want, name


@st.composite
def kernel_cases(draw):
    """An integer polynomial in 1-3 variables of degree <= 4, a rational box,
    a dyadic sub-box at a depth k <= 6 and a dyadic point at that depth."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) <= degree]
    coefs = st.integers(-30, 30).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(monos), coefs, max_size=6))
    lo = [Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 6))) for _ in range(nvars)]
    hi = [x + Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6))) for x in lo]
    k = draw(st.integers(0, 6))
    lo_num = tuple(draw(st.integers(0, (1 << k) - 1)) for _ in range(nvars))
    hi_num = tuple(draw(st.integers(x + 1, 1 << k)) for x in lo_num)
    point = tuple(draw(st.integers(0, 1 << k)) for _ in range(nvars))
    return poly(nvars, terms), lo, hi, k, lo_num, hi_num, point


class TestKernelParity:
    """The compiled evaluators of ``_ScaledPoly`` against exact Fraction
    arithmetic from their definitions."""

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_kernels_match_the_exact_reference(self, case):
        assert_kernels_match(*case)

    def test_coefficients_past_the_int_to_str_digit_limit(self):
        # box bounds near 10**1200 make the scaled coefficients of a quartic
        # about 4,800 digits long: no coefficient may pass through repr
        p = poly(2, {(4, 0): 1, (1, 3): -3, (2, 1): 5, (0, 1): 2, (0, 0): -7})
        lo = [Fraction(10**1200), Fraction(3 * 10**1200, 7)]
        hi = [lo[0] + Fraction(1, 3), lo[1] + 5]
        q = p.substitute_affine(lo, [h - l for l, h in zip(lo, hi)])
        assert max(abs(c.numerator) for c in q.terms.values()).bit_length() > 4300 * math.log2(10)
        assert_kernels_match(p, lo, hi, 3, (2, 5), (3, 8), (7, 1))

    def test_one_compile_per_term_table(self):
        # sup, plain measure and sublevel measure share the full-box polynomial
        p = poly(2, {(2, 0): 11, (0, 2): -13, (1, 1): 17})
        box = [Fraction(0)] * 2, [Fraction(19)] * 2
        assert _ScaledPoly(p, *box).bounds is _ScaledPoly(p, *box).bounds


def truncated_power_sum(terms, s):
    """sum c (s - a)_+^m at one value s, with (x)_+^0 = 1 for x > 0."""
    return sum(c * (s - a) ** m for c, a, m in terms if s > a)


def random_terms(rng, q0, reach, count):
    """Random (c, a, m) with breakpoints inside and around the range of L."""
    return [
        (
            rng.choice([-2, -1, 1, 3]),
            q0 + reach * random_rational(rng, -5, 5, 4) / 4,
            rng.choice([0, 1]),
        )
        for _ in range(count)
    ]


def split_box_reference(lo, hi, k):
    """Bisection of the first longest axis, computed from the box's own
    widths: what ``_split_box`` must agree with on refinement boxes."""
    widths = [h - l for l, h in zip(lo, hi)]
    axis = widths.index(max(widths))
    lo2 = tuple(x * 2 for x in lo)
    hi2 = tuple(x * 2 for x in hi)
    mid = lo2[axis] + widths[axis]
    a_hi = tuple(mid if i == axis else hi2[i] for i in range(len(hi2)))
    b_lo = tuple(mid if i == axis else lo2[i] for i in range(len(lo2)))
    return (lo2, a_hi, k + 1), (b_lo, hi2, k + 1)


class TestDepthGeometry:
    """Every refinement box at depth k has the shape of ``_depth_geometry``,
    and the split by depth is the split by widths."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_split_and_table_match_generic_bisection(self, d):
        rng = random.Random(1000 + d)
        for _ in range(4):
            lo, hi, k = (0,) * d, (1,) * d, 0
            while k <= 64:
                widths = tuple(h - l for l, h in zip(lo, hi))
                cells = math.prod(widths)
                half, table_cells, share, volume = _depth_geometry(k, d)
                assert half == widths and table_cells == cells
                assert share == cells / float(1 << (k * d))
                assert volume == math.prod(2 * w for w in widths)
                children = _split_box(lo, hi, k)
                assert children == split_box_reference(lo, hi, k)
                lo, hi, k = rng.choice(children)


class TestTruncatedPowerIntegral:
    """The vertex formula for sum c (q0 + q.v - a)_+^m over [-half, half]."""

    def test_d1_closed_form(self):
        rng = random.Random(11)
        for _ in range(200):
            q0, (qa,), (w,) = random_linear_data(rng, 1)
            if not qa:
                continue
            (c, a, m), = random_terms(rng, q0, abs(qa) * w, 1)
            # L > a on v > cut for qa > 0, on v < cut for qa < 0
            cut = (a - q0) / qa
            lo_v, hi_v = (max(cut, -w), w) if qa > 0 else (-w, min(cut, w))
            length = max(hi_v - lo_v, 0)
            mean = q0 + qa * (lo_v + hi_v) / 2 - a  # of L - a over that part
            expected = c * length * (mean if m else 1)
            (num,), den = _truncated_power_integral(q0, [qa], [w], [(c, a, m)])
            assert den > 0
            assert Fraction(num) / den == expected

    @pytest.mark.parametrize("d, n", [(2, 160), (3, 32)])
    def test_matches_midpoint_quadrature(self, d, n):
        rng = random.Random(600 + d)
        for _ in range(6):
            q0, q, half = random_linear_data(rng, d)
            reach = sum(abs(a) * w for a, w in zip(q, half)) or Fraction(1)
            terms = random_terms(rng, q0, reach, 3)
            cell = math.prod(2 * float(w) / n for w in half)
            grids = [[float(w) * (2 * (i + 0.5) / n - 1) for i in range(n)] for w in half]
            fterms = [(c, float(a), m) for c, a, m in terms]
            quad = cell * sum(
                truncated_power_sum(fterms, float(q0) + sum(float(a) * x for a, x in zip(q, pt)))
                for pt in itertools.product(*grids)
            )
            (num,), den = _truncated_power_integral(q0, q, half, terms)
            exact = float(Fraction(num) / den)
            # a jump of c costs at most |c| times the volume of the cells it
            # cuts, about d/n of the box; a kink far less
            vol = math.prod(2 * float(w) for w in half)
            bound = sum(abs(c) * (1 if m == 0 else float(reach) / n) for c, _, m in terms)
            assert abs(quad - exact) <= 2 * d * vol * bound / n

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_axis_integrates_out(self, d):
        rng = random.Random(700 + d)
        for _ in range(40):
            q0, q, half = random_linear_data(rng, d - 1)
            terms = random_terms(rng, q0, sum(abs(a) * w for a, w in zip(q, half)) + 1, 4)
            w = random_rational(rng, 1, 4)
            axis = rng.randint(0, d - 1)
            (num,), den = _truncated_power_integral(
                q0, q[:axis] + [Fraction(0)] + q[axis:], half[:axis] + [w] + half[axis:], terms
            )
            (num1,), den1 = _truncated_power_integral(q0, q, half, terms)
            assert Fraction(num) / den == 2 * w * Fraction(num1) / den1

    def test_constant_model_reads_heavisides_open(self):
        half = [Fraction(1), Fraction(3, 2)]
        terms = [(2, 1, 0), (5, 3, 0), (1, -2, 1)]  # at q0 = 3: 2 + 0 + 5
        (num,), den = _truncated_power_integral(3, [0, 0], half, terms)
        assert Fraction(num) / den == 7 * 6


class TestSublevelBracket:
    """g_lo(L) <= |p| 1{|p| <= T} <= g_hi(L) for the box's linear model L and
    remainder rho, and the measure built on their exact integrals."""

    def test_terms_match_the_model_bounds(self):
        rng = random.Random(17)
        for _ in range(60):
            rho = rng.randint(0, 40)
            thr = rng.choice([rng.randint(1, max(rho, 1)), rho, 2 * rho, rng.randint(1, 200)])
            lo_terms, hi_terms = _sublevel_terms(thr, rho)
            jumps = {thr + rho, thr - rho}
            for s in range(-(thr + rho) - 3, thr + rho + 4):
                if abs(s) in jumps:
                    continue  # the terms read a jump open on the left
                g_lo, g_hi = _sublevel_g(s, thr, rho)
                assert truncated_power_sum(lo_terms, s) == g_lo
                assert truncated_power_sum(hi_terms, s) == g_hi

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_model_bounds_the_clipped_density_pointwise(self, nvars):
        rng = random.Random(800 + nvars)
        monos = [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3]
        for _ in range(12):
            p = poly(nvars, {m: random_rational(rng, -4, 4) for m in rng.sample(monos, min(5, len(monos)))})
            lo = [random_rational(rng, 0, 3) for _ in range(nvars)]
            hi = [x + random_rational(rng, 1, 2) for x in lo]
            scaled = _ScaledPoly(p, lo, hi)
            D = scaled.deg_total
            k = rng.randint(0, 4)
            lo_num = tuple(rng.randint(0, (1 << k) - 1) for _ in range(nvars))
            hi_num = tuple(x + rng.randint(1, (1 << k) - x) for x in lo_num)
            rho = scaled.remainder_num(lo_num, hi_num, k)
            rho_p = Fraction(rho, scaled.den << ((k + 1) * D))  # rho in units of p
            j = rng.randint(0, 3)
            center = [(l + h) << j for l, h in zip(lo_num, hi_num)]
            ends = [(l << (j + 1), h << (j + 1)) for l, h in zip(lo_num, hi_num)]
            points = list(itertools.product(*ends))
            points += [[rng.randint(a, b) for a, b in ends] for _ in range(20)]
            sample = max(abs(scaled.value_num(x, k + 1 + j)) for x in points)
            sample_p = Fraction(sample, scaled.den << ((k + 1 + j) * D))
            thresholds = [rho_p * r for r in (Fraction(1, 3), 1, Fraction(3, 2), 2, 3)]
            thresholds += [sample_p * random_rational(rng, 1, 4, 8) / 4 for _ in range(3)]
            for threshold in thresholds:
                if threshold <= 0:
                    continue
                q0, q, rho_m, thr = scaled.sublevel_model(lo_num, hi_num, k, rho, threshold)
                # every value at depth k+1+j: the model's units times 2**(j*D)
                thr_j, rho_j = thr << (j * D), rho_m << (j * D)
                lo_terms, hi_terms = _sublevel_terms(thr_j, rho_j)
                for x in points:
                    p_num = scaled.value_num(x, k + 1 + j) * threshold.denominator
                    clipped = abs(p_num) if abs(p_num) <= thr_j else 0
                    s = (q0 << (j * D)) + sum(
                        a * (xi - c) << (j * (D - 1)) for a, xi, c in zip(q, x, center)
                    )
                    g_lo, g_hi = _sublevel_g(s, thr_j, rho_j)
                    assert g_lo <= clipped <= g_hi
                    if abs(s) not in (thr_j + rho_j, thr_j - rho_j):
                        assert truncated_power_sum(lo_terms, s) <= clipped
                        assert clipped <= truncated_power_sum(hi_terms, s)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_box_bracket_is_the_exact_integral_rounded_outward(self, nvars):
        rng = random.Random(900 + nvars)
        monos = [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3]
        for _ in range(20):
            p = poly(nvars, {m: random_rational(rng, -4, 4) for m in rng.sample(monos, min(5, len(monos)))})
            scaled = _ScaledPoly(p, [Fraction(0)] * nvars, [Fraction(1)] * nvars)
            k = rng.randint(0, 3)
            lo_num = tuple(rng.randint(0, (1 << k) - 1) for _ in range(nvars))
            hi_num = tuple(x + 1 for x in lo_num)
            rho = scaled.remainder_num(lo_num, hi_num, k)
            threshold = random_rational(rng, 1, 6, 7)
            depth = k + 1 + rng.randint(0, 2)
            half = [h - l for l, h in zip(lo_num, hi_num)]
            vol = math.prod(2 * w for w in half)
            # without a threshold: the integral of |L| plus or minus rho vol
            q0, q = scaled.linear_model(lo_num, hi_num, k)
            num, den = _abs_linear_integral(q0, q, half)
            exact = {None: (Fraction(num, den) - rho * vol, Fraction(num, den) + rho * vol)}
            q0, q, rho_m, thr = scaled.sublevel_model(lo_num, hi_num, k, rho, threshold)
            lo_terms, hi_terms = _sublevel_terms(thr, rho_m)
            if any(q):
                # one list per call: the bracket's shared call must agree
                (num_lo,), den = _truncated_power_integral(q0, q, half, lo_terms)
                (num_hi,), _ = _truncated_power_integral(q0, q, half, hi_terms)
                exact[threshold] = Fraction(num_lo, den), Fraction(num_hi, den)
            else:
                exact[threshold] = tuple(g * vol for g in _sublevel_g(q0, thr, rho_m))
            # the model's units onto the integral grid of the given depth
            scale = scaled.int_lcm << ((depth - k - 1) * scaled.int_exp)
            for t, (exact_lo, exact_hi) in exact.items():
                lower, upper = scaled.model_bracket_num(
                    lo_num, hi_num, k, half, vol, depth, rho, t
                )
                assert lower <= exact_lo * scale < lower + 1
                assert upper - 1 < exact_hi * scale <= upper

    def test_linear_density_closes_with_outward_rounding(self):
        # p = x on [0, 1] below 1/3: the model is exact, the integral 1/18
        # is off every dyadic grid, and no box needs refining
        p = poly(1, {(1,): 1})
        res = spectral_measure(p, SpectrumBox(a=(Fraction(1),)), tol=1e-6, threshold=Fraction(1, 3))
        assert res.lower < Fraction(1, 18) < res.upper
        assert res.certificate.boxes == 0
        assert res.width <= Fraction(1, 10**6) / 2**28

    def test_shifted_parabola_closed_form(self):
        # |x^2 - 1| <= 3 on [0, 3] is x <= 2, and the integral there is 2
        p = poly(1, {(2,): 1, (0,): -1})
        res = spectral_measure(p, SpectrumBox(a=(Fraction(3),)), tol=1e-4, threshold=Fraction(3))
        assert res.lower <= 2 <= res.upper
        assert res.certificate.converged and float(res.width) <= 1e-4

    @pytest.mark.parametrize("threshold", [Fraction(9), Fraction(10)])
    def test_example2_threshold_at_or_above_sup(self, example2, threshold):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(Fraction(2), Fraction(3)))
        res = spectral_measure(det_b, box, tol=1e-3, threshold=threshold)
        assert res.lower <= Fraction(46, 3) <= res.upper
        assert res.certificate.converged

    @pytest.mark.parametrize("threshold", [Fraction(2), Fraction(3)])
    def test_example3_threshold_at_or_above_sup(self, example3, threshold):
        det_b = density_polynomial(example3)
        box = SpectrumBox(a=(Fraction(1),) * 3)
        res = spectral_measure(det_b, box, tol=2e-2, threshold=threshold)
        assert res.lower <= Fraction(3, 8) <= res.upper
        assert res.certificate.converged

    def test_first_order_box_counts_beaten(self, example3):
        # the first-order bracket took 12,527 boxes here; the sublevel band's
        # second-order bracket needs a few hundred
        det_b = density_polynomial(example3)
        res = spectral_measure(
            det_b, SpectrumBox(a=(Fraction(1),) * 3), tol=5e-2, threshold=Fraction(1)
        )
        assert res.certificate.boxes <= 2000 and res.certificate.converged
        assert res.lower > 0 and res.witness_box is not None


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sublevel_brackets_closed_forms_on_scaled_boxes(seed):
    # at or above the sup the sublevel is the whole box: example2 on
    # [0, 2s] x [0, 3s] integrates to 46/3 s^4 (sup 9 s^2), example3 on
    # [0, t]^3 to 3/8 t^6 (sup 2 t^3); x^2 - u^2 on [0, 3u] below 3 u^2 is
    # x <= 2u, where it integrates to 2 u^3
    rng = random.Random(seed)
    s, t, u = (Fraction(rng.randint(4, 24), rng.randint(4, 16)) for _ in range(3))
    over = Fraction(rng.randint(8, 12), 8)
    cases = [
        (density_polynomial(load_spec(EXAMPLE2_DOC)), (2 * s, 3 * s), 9 * s**2 * over,
         Fraction(46, 3) * s**4, 1e-3 * float(s) ** 4),
        (density_polynomial(load_spec(EXAMPLE3_DOC)), (t, t, t), 2 * t**3 * over,
         Fraction(3, 8) * t**6, 2e-2 * float(t) ** 6),
        (poly(1, {(2,): 1, (0,): -u**2}), (3 * u,), 3 * u**2, 2 * u**3, 1e-4 * float(u) ** 3),
    ]
    for det_b, a, threshold, exact, tol in cases:
        res = spectral_measure(det_b, SpectrumBox(a=a), tol=tol, threshold=threshold)
        assert res.lower <= exact <= res.upper
        assert res.certificate.converged and float(res.width) <= tol


class TestGoldenCertificates:
    """Exact brackets pinned bit for bit: a change to the certified arithmetic
    must return the same rationals, box counts and depths."""

    def test_example2_measure(self, example2):
        det_b = density_polynomial(example2)
        res = spectral_measure(det_b, SpectrumBox(a=(Fraction(2), Fraction(3))), tol=1e-6)
        out = res.as_dict()
        assert out["lower"] == "579276944151015544576373/37778931862957161709568"
        assert out["upper"] == "72409620822169072527087/4722366482869645213696"
        assert (out["boxes"], out["depth"], out["converged"]) == (1625, 18, True)
        # the second-order bracket: never wider than the first-order golden
        # (23036 boxes, depth 27) it replaced, and still around 46/3
        first_order = Fraction(69055197289004671, 4503599627370496) - Fraction(
            2157974811528607, 140737488355328
        )
        assert res.width <= first_order
        assert res.lower <= Fraction(46, 3) <= res.upper

    def test_example2_sublevel_two_regions(self, example2):
        # threshold.denominator != 1 and two regions summed into one bracket
        det_b = density_polynomial(example2)
        box = SpectrumBox(
            a=(Fraction(2), Fraction(3)),
            sub_boxes=(
                ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(3))),
                ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(5, 2))),
            ),
        )
        res = spectral_measure(det_b, box, tol=1e-2, threshold=Fraction(9, 2))
        out = res.as_dict()
        assert out["lower"] == "168952644593818733/27021597764222976"
        assert out["upper"] == "56371490920467731/9007199254740992"
        assert (out["boxes"], out["depth"], out["converged"]) == (323, 12, True)
        assert out["witness_box"] == [["3/4", "3/2"], ["1", "9/4"]]
        # the second-order bracket: never wider than the first-order golden
        # (12770 boxes, depth 23) it replaced, and meeting it
        old_lower = Fraction(219922305648257, 35184372088832)
        old_upper = Fraction(220236304230017, 35184372088832)
        assert res.width <= old_upper - old_lower
        assert max(res.lower, old_lower) <= min(res.upper, old_upper)
        lo, hi = res.witness_box
        assert 0 < eval_density(det_b, [(l + h) / 2 for l, h in zip(lo, hi)]) <= Fraction(9, 2)

    def test_example3_sup(self, example3):
        det_b = density_polynomial(example3)
        res = sup_density(det_b, SpectrumBox(a=(Fraction(1),) * 3), tol=1e-6)
        out = res.as_dict()
        assert (out["lower"], out["upper"]) == ("2", "4194305/2097152")
        assert (out["boxes"], out["depth"], out["converged"]) == (57, 21, True)
        assert out["argmax"] == ["1", "1", "0"]
