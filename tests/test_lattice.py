"""Quasi-lattice parameters, fiber lattices, and the condition checks."""

import random
from fractions import Fraction

import pytest

from nilframe.errors import SchemaError
from nilframe.lattice import (
    QuasiLatticeParams,
    StepMultiplicity,
    check_density_condition,
    check_necessary_bounds,
    check_onb_condition,
    check_wavelet_discretization,
    design_params,
    fiber_lattice,
)
from nilframe.spectral import SpectrumBox, density_polynomial, eval_density, spectral_measure


def F(*args):
    return Fraction(*args)


def params_for(a, q, b):
    return QuasiLatticeParams(
        a=tuple(Fraction(x) for x in a),
        q=tuple(Fraction(x) for x in q),
        b=tuple(Fraction(x) for x in b),
    )


class TestParams:
    def test_products(self):
        p = params_for([2, 3], [1, 1], [3, 3])
        assert p.prod_a == 6 and p.prod_bq == 9

    def test_positivity_enforced(self):
        with pytest.raises(SchemaError):
            params_for([1], [0], [1])

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            QuasiLatticeParams(a=(F(1),), q=(F(1),), b=(F(1), F(1)))


class TestFiberLattice:
    def test_heisenberg_shape(self, heisenberg):
        p = params_for([2], [1], [2])  # b = a
        lam = (F(1) / 2,)
        lat = fiber_lattice(heisenberg, p, lam)
        assert lat.translation == ((F(1, 2),),)
        assert abs(lat.modulation[0][0]) == F(1, 2)  # |lam| / q
        assert lat.volume == F(1, 4)

    def test_example2_volume_at_sup_point(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(0), F(3)))
        assert lat.volume == 1

    def test_zero_fiber_volume(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(1), F(1)))
        assert lat.volume == 0

    def test_volume_matches_density_everywhere(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        det_b = density_polynomial(example2)
        rng = random.Random(9)
        for _ in range(25):
            lam = (F(rng.randint(0, 32)) / 16, F(rng.randint(0, 48)) / 16)
            lat = fiber_lattice(example2, p, lam)
            assert lat.volume == eval_density(det_b, lam) / p.prod_bq


class TestDensityCondition:
    def test_heisenberg_unit_q_passes(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        p = params_for([2], [1], [2])
        rep = check_density_condition(heisenberg, p, box)
        assert rep.passed
        assert rep.margins["volume_ratio"] == pytest.approx(1.0)

    def test_heisenberg_half_q_fails(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        p = params_for([2], ["1/2"], [2])
        rep = check_density_condition(heisenberg, p, box)
        assert not rep.passed
        assert rep.margins["volume_ratio"] == pytest.approx(2.0)

    def test_example2_designed_params_pass(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        assert check_density_condition(example2, p, box).passed

    def test_monotone_in_b_and_q(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        base = check_density_condition(heisenberg, params_for([2], [1], [2]), box)
        assert base.passed
        for bigger in (params_for([2], [2], [2]), params_for([2], [1], [3])):
            assert check_density_condition(heisenberg, bigger, box).passed


class TestDesignParams:
    def test_example2_design(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        params, sup = design_params(example2, box)
        assert params.a == (F(2), F(3))
        assert params.q == (F(1), F(1))
        assert params.b == (F(3), F(3))  # exact square root of the certified sup 9
        assert sup.lower == 9

    def test_heisenberg_design(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        params, _ = design_params(heisenberg, box)
        assert params.b == (F(2),) and params.q == (F(1),)

    def test_unit_sup_gives_unit_b(self, heisenberg):
        box = SpectrumBox(a=(F(1),))
        params, _ = design_params(heisenberg, box)
        assert params.b == (F(1),)

    def test_design_always_passes_density(self, example2, heisenberg, example3):
        for spec, a in ((heisenberg, (F(3),)), (example2, (F(2), F(3))), (example3, (F(1), F(1), F(1)))):
            box = SpectrumBox(a=a)
            params, sup = design_params(spec, box)
            rep = check_density_condition(spec, params, box, sup_result=sup)
            assert rep.passed

    def test_bad_q_hint_rejected(self, heisenberg):
        box = SpectrumBox(a=(F(1),))
        with pytest.raises(SchemaError):
            design_params(heisenberg, box, q_hint=[Fraction(1, 2)])

    def test_irrational_root_rounds_up(self, heisenberg):
        # box (0, 2] scaled so the sup is 2, d = 1 keeps it exact; force d-th
        # root rounding through a 2-d algebra with sup 2
        from nilframe.rationals import ceil_nth_root

        r = ceil_nth_root(Fraction(2), 2, digits=12)
        assert r**2 >= 2
        assert r**2 - 2 < Fraction(1, 10**11)

    def test_root_ceiling_beyond_float_range(self):
        # oracle: math.isqrt; the scaled radicand 2 * 10**400 overflows a float
        import math

        from nilframe.rationals import ceil_nth_root

        r = ceil_nth_root(Fraction(2), 2, digits=200)
        assert r == Fraction(math.isqrt(2 * 10**400) + 1, 10**200)


class TestOnbCondition:
    def test_definitional_pass(self):
        p = params_for([2], [1], [2])
        rep = check_onb_condition(p, Fraction(4))  # prod(a) prod(qb) = 2 * 2
        assert rep.passed

    def test_heisenberg_requires_half_q(self, heisenberg):
        a = F(2)
        p = params_for([2], [1], [2])
        mu = a * a / 2  # closed-form spectral mass of (0, a]
        rep = check_onb_condition(p, mu)
        assert not rep.passed
        assert rep.margins["required_uniform_q"] == "1/2"
        assert rep.margins["required_q_density_compatible"] is False

    def test_example2_fails(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(F(2), F(3)))
        mu = spectral_measure(det_b, box, tol=1e-7)
        p = params_for([2, 3], [1, 1], [3, 3])
        rep = check_onb_condition(p, mu)
        assert not rep.passed
        assert rep.margins["target"] == pytest.approx(54.0)
        assert rep.margins["mu_box"] == pytest.approx(46.0 / 3.0, abs=1e-7)


class TestNecessaryBounds:
    def test_example2_all_pass_with_unit_multiplicity(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        mult = StepMultiplicity.constant(box, 1)
        det_b = density_polynomial(example2)
        mu = spectral_measure(det_b, box, tol=1e-7)
        rep = check_necessary_bounds(example2, p, mu, mult, box)
        by_name = {s.condition: s for s in rep.sub_reports}
        assert by_name["measure_bound"].passed  # 46/3 <= 54
        assert by_name["superframe_density_bound"].passed

    def test_multiplicity_two_breaks_superframe_bound(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        mult = StepMultiplicity.constant(box, 2)  # peak m * r = 18 > 9
        det_b = density_polynomial(example2)
        mu = spectral_measure(det_b, box, tol=1e-7)
        rep = check_necessary_bounds(example2, p, mu, mult, box)
        by_name = {s.condition: s for s in rep.sub_reports}
        assert not by_name["superframe_density_bound"].passed
        assert by_name["superframe_density_bound"].margins["max_ratio"] == pytest.approx(2.0)

    def test_zero_multiplicity_vacuous(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        mult = StepMultiplicity.constant(box, 0)
        rep = check_necessary_bounds(example2, p, Fraction(0), mult, box)
        assert rep.passed
        by_name = {s.condition: s for s in rep.sub_reports}
        assert by_name["admissibility_norm"].margins["norm_sq"] == 0.0

    def test_onb_pass_implies_measure_bound(self):
        # definitional: measure equal to the product bound also satisfies it
        p = params_for([2], [1], [2])
        target = p.prod_a * p.prod_bq
        onb = check_onb_condition(p, target)
        assert onb.passed
        assert target <= p.prod_q * p.prod_b * p.prod_a


class TestWaveletDiscretization:
    def test_example3_unit_product(self, example3):
        box = SpectrumBox(a=(F(1), F(1), F(1)))
        p = params_for([1, 1, 1], [1, 1, 1], [1, 1, 1])
        rep = check_wavelet_discretization(example3, p, box, measure_tol=5e-2)
        assert rep.passed
        assert rep.margins["product"] == "1"
        assert rep.margins["sublevel_nonempty"] is True
        assert rep.margins["sublevel_measure_lower"] > 0

    def test_example2_product_54_fails(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        rep = check_wavelet_discretization(example2, p, box, measure_tol=1e-2)
        assert not rep.passed
        assert rep.margins["product"] == "54"

    def test_heisenberg_tuned_product(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        p = params_for([2], ["1/2"], [1])
        rep = check_wavelet_discretization(heisenberg, p, box, measure_tol=1e-6)
        sub = {s.condition: s for s in rep.sub_reports}
        assert sub["unit_covolume_product"].passed  # 2 * 1/2 * 1 = 1
