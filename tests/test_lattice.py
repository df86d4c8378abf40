"""Quasi-lattice parameters, fiber lattices, and the condition checks."""

import random
from fractions import Fraction

import pytest

from nilframe.errors import SchemaError
from nilframe.lattice import (
    QuasiLatticeParams,
    check_density_condition,
    check_necessary_bounds,
    check_onb_condition,
    check_wavelet_discretization,
    design_params,
    fiber_lattice,
)
from nilframe.spectral import (
    SpectrumBox,
    SupCertificate,
    SupResult,
    density_polynomial,
    eval_density,
    spectral_measure,
    sup_density,
)

from nilframe.cli import SUBLEVEL_MAX_BOXES

from conftest import exact_measure


def F(*args):
    return Fraction(*args)


def params_for(a, q, b):
    return QuasiLatticeParams(
        a=tuple(Fraction(x) for x in a),
        q=tuple(Fraction(x) for x in q),
        b=tuple(Fraction(x) for x in b),
    )


def certified_sup(spec, box):
    return sup_density(density_polynomial(spec), box, tol=1e-9)


def density_check(spec, params, box):
    return check_density_condition(params, certified_sup(spec, box))


def wavelet_check(spec, params, box, measure_tol):
    """The wavelet check on the sublevel measure the design stage certifies."""
    sub = spectral_measure(
        density_polynomial(spec),
        box,
        tol=measure_tol,
        threshold=params.prod_bq,
        max_boxes=SUBLEVEL_MAX_BOXES,
    )
    return check_wavelet_discretization(params, sub)


def designed(spec, box, q=None, b=None):
    """``design_params`` at the config defaults, and the sup it was given."""
    sup = certified_sup(spec, box)
    return design_params(spec, box, sup, q, b, precision_digits=12), sup


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
        rep = density_check(heisenberg, p, box)
        assert rep.passed
        assert rep.margins["volume_ratio"] == pytest.approx(1.0)

    def test_heisenberg_half_q_fails(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        p = params_for([2], ["1/2"], [2])
        rep = density_check(heisenberg, p, box)
        assert not rep.passed
        assert rep.margins["volume_ratio"] == pytest.approx(2.0)

    def test_example2_designed_params_pass(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        assert density_check(example2, p, box).passed

    def test_monotone_in_b_and_q(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        base = density_check(heisenberg, params_for([2], [1], [2]), box)
        assert base.passed
        for bigger in (params_for([2], [2], [2]), params_for([2], [1], [3])):
            assert density_check(heisenberg, bigger, box).passed

    def test_straddling_bracket_fails(self):
        # [9 - 1e-6, 9 + 1e-6] straddles prod(b q) = 9: the check reads the
        # upper end and certifies nothing more itself
        sup = SupResult(
            value=9.0,
            lower=F(9) - F(1, 10**6),
            upper=F(9) + F(1, 10**6),
            certificate=SupCertificate(depth=0, boxes=0, argmax=(F(0), F(3)), converged=True),
        )
        assert not check_density_condition(params_for([2, 3], [1, 1], [3, 3]), sup).passed


class TestDesignParams:
    def test_example2_design(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        params, sup = designed(example2, box)
        assert params.a == (F(2), F(3))
        assert params.q == (F(1), F(1))
        assert params.b == (F(3), F(3))  # exact square root of the certified sup 9
        assert sup.lower == 9

    def test_heisenberg_design(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        params, _ = designed(heisenberg, box)
        assert params.b == (F(2),) and params.q == (F(1),)

    def test_unit_sup_gives_unit_b(self, heisenberg):
        box = SpectrumBox(a=(F(1),))
        params, _ = designed(heisenberg, box)
        assert params.b == (F(1),)

    def test_design_always_passes_density(self, example2, heisenberg, example3):
        for spec, a in ((heisenberg, (F(3),)), (example2, (F(2), F(3))), (example3, (F(1), F(1), F(1)))):
            box = SpectrumBox(a=a)
            params, sup = designed(spec, box)
            rep = check_density_condition(params, sup)
            assert rep.passed

    def test_fixed_b_is_kept_with_unit_q(self, heisenberg):
        # a given b fixes the lattice: the sup (2 here) rounds nothing, and
        # q is all ones when absent
        box = SpectrumBox(a=(F(2),))
        params, _ = designed(heisenberg, box, b=[F(7, 3)])
        assert params.b == (F(7, 3),)
        assert params.q == (F(1),)

    def test_fixed_b_takes_q_as_given(self, heisenberg):
        # prod(1/q) = 2 > 1 is rejected as a hint, but kept beside a given b;
        # the density condition then fails
        box = SpectrumBox(a=(F(2),))
        params, sup = designed(heisenberg, box, q=[F(1, 2)], b=[F(2)])
        assert params.q == (F(1, 2),)
        assert not check_density_condition(params, sup).passed

    def test_bad_q_hint_rejected(self, heisenberg):
        box = SpectrumBox(a=(F(1),))
        with pytest.raises(SchemaError):
            designed(heisenberg, box, q=[Fraction(1, 2)])

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
        rep = check_onb_condition(p, exact_measure(4))  # prod(a) prod(qb) = 2 * 2
        assert rep.passed

    def test_heisenberg_requires_half_q(self, heisenberg):
        a = F(2)
        p = params_for([2], [1], [2])
        mu = exact_measure(a * a / 2)  # closed-form spectral mass of (0, a]
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
        det_b = density_polynomial(example2)
        mu = spectral_measure(det_b, box, tol=1e-7)
        rep = check_necessary_bounds(p, mu, [(sup_density(det_b, box, tol=1e-9), mu, 1)])
        by_name = {s.condition: s for s in rep.sub_reports}
        assert by_name["measure_bound"].passed  # 46/3 <= 54
        assert by_name["superframe_density_bound"].passed

    def test_multiplicity_two_breaks_superframe_bound(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        det_b = density_polynomial(example2)
        mu = spectral_measure(det_b, box, tol=1e-7)
        # peak m * r = 18 > 9
        rep = check_necessary_bounds(p, mu, [(sup_density(det_b, box, tol=1e-9), mu, 2)])
        by_name = {s.condition: s for s in rep.sub_reports}
        assert not by_name["superframe_density_bound"].passed
        assert by_name["superframe_density_bound"].margins["max_ratio"] == pytest.approx(2.0)

    def test_zero_multiplicity_vacuous(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        sup = sup_density(density_polynomial(example2), box, tol=1e-9)
        rep = check_necessary_bounds(p, exact_measure(0), [(sup, exact_measure(0), 0)])
        assert rep.passed
        by_name = {s.condition: s for s in rep.sub_reports}
        assert by_name["admissibility_norm"].margins["norm_sq"] == 0.0

    @pytest.mark.parametrize("m", [-1, 0.5, True])
    def test_multiplicity_not_a_count_is_an_input_error(self, example2, m):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        sup = sup_density(density_polynomial(example2), box, tol=1e-9)
        with pytest.raises(SchemaError) as err:
            check_necessary_bounds(p, exact_measure(0), [(sup, exact_measure(0), m)])
        assert err.value.field == "multiplicity"

    def test_onb_pass_implies_measure_bound(self):
        # definitional: measure equal to the product bound also satisfies it
        p = params_for([2], [1], [2])
        target = p.prod_a * p.prod_bq
        onb = check_onb_condition(p, exact_measure(target))
        assert onb.passed
        assert target <= p.prod_q * p.prod_b * p.prod_a


class TestWaveletDiscretization:
    def test_example3_unit_product(self, example3):
        box = SpectrumBox(a=(F(1), F(1), F(1)))
        p = params_for([1, 1, 1], [1, 1, 1], [1, 1, 1])
        rep = wavelet_check(example3, p, box, measure_tol=5e-2)
        assert rep.passed
        assert rep.margins["product"] == "1"
        assert rep.margins["sublevel_nonempty"] is True
        assert rep.margins["sublevel_measure_lower"] > 0

    def test_example2_product_54_fails(self, example2):
        box = SpectrumBox(a=(F(2), F(3)))
        p = params_for([2, 3], [1, 1], [3, 3])
        rep = wavelet_check(example2, p, box, measure_tol=1e-2)
        assert not rep.passed
        assert rep.margins["product"] == "54"

    def test_heisenberg_tuned_product(self, heisenberg):
        box = SpectrumBox(a=(F(2),))
        p = params_for([2], ["1/2"], [1])
        rep = wavelet_check(heisenberg, p, box, measure_tol=1e-6)
        sub = {s.condition: s for s in rep.sub_reports}
        assert sub["unit_covolume_product"].passed  # 2 * 1/2 * 1 = 1
