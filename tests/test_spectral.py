"""Spectral matrices, determinant values, certified sup and measure."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nilframe.errors import CertificationError
from nilframe.polynomial import SpectralPolynomial, determinant
from nilframe.spectral import (
    SpectrumBox,
    _abs_linear_integral,
    _ScaledPoly,
    block_structure_holds,
    build_matrices,
    density_polynomial,
    eval_density,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)

from conftest import random_valid_spec


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
            det_b, box, tol=5e-2, threshold=Fraction(1), max_boxes=60_000, strict=False
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
        sub = spectral_measure(det_b, box, tol=1e-3, threshold=Fraction(4), strict=False)
        assert sub.upper <= plain.upper + Fraction(1, 1000)


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
        res = spectral_measure(det_b, box, tol=1e-2, threshold=Fraction(9, 2), strict=False)
        out = res.as_dict()
        assert out["lower"] == "219922305648257/35184372088832"
        assert out["upper"] == "220236304230017/35184372088832"
        assert (out["boxes"], out["depth"], out["converged"]) == (12770, 23, True)
        assert out["witness_box"] == [["3/4", "3/2"], ["1", "9/4"]]

    def test_example3_sup(self, example3):
        det_b = density_polynomial(example3)
        res = sup_density(det_b, SpectrumBox(a=(Fraction(1),) * 3), tol=1e-6)
        out = res.as_dict()
        assert (out["lower"], out["upper"]) == ("2", "4194305/2097152")
        assert (out["boxes"], out["depth"], out["converged"]) == (57, 21, True)
        assert out["argmax"] == ["1", "1", "0"]
