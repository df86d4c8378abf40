"""Spectral matrices, determinant values, certified sup and measure."""

import random
from fractions import Fraction

import pytest

from nilframe.errors import CertificationError
from nilframe.polynomial import SpectralPolynomial, determinant
from nilframe.spectral import (
    SpectrumBox,
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
            rep = pfaffian_identity_check(mats.jump_block, mats.modulation)
            assert rep.passed and rep.witness.is_zero()

    def test_heisenberg_values(self, heisenberg):
        mats = build_matrices(heisenberg)
        assert determinant(mats.jump_block) == poly(1, {(2,): 1})
        assert determinant(mats.modulation) ** 2 == poly(1, {(2,): 1})

    def test_corrupted_block_fails_with_witness(self, example2):
        mats = build_matrices(example2)
        corrupted = [list(row) for row in mats.jump_block]
        corrupted[0][2] = corrupted[0][2] + 1  # break the coupling block
        rep = pfaffian_identity_check(corrupted, mats.modulation)
        assert not rep.passed
        assert not rep.witness.is_zero()

    def test_random_valid_specs(self):
        rng = random.Random(4242)
        for _ in range(15):
            spec = random_valid_spec(rng)
            mats = build_matrices(spec)
            assert pfaffian_identity_check(mats.jump_block, mats.modulation).passed


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


class TestGoldenCertificates:
    """Exact brackets pinned bit for bit: a change to the certified arithmetic
    must return the same rationals, box counts and depths."""

    def test_example2_measure(self, example2):
        det_b = density_polynomial(example2)
        res = spectral_measure(det_b, SpectrumBox(a=(Fraction(2), Fraction(3))), tol=1e-6)
        out = res.as_dict()
        assert out["lower"] == "2157974811528607/140737488355328"
        assert out["upper"] == "69055197289004671/4503599627370496"
        assert (out["boxes"], out["depth"], out["converged"]) == (23036, 27, True)

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
