#!/usr/bin/env python3
"""Quasi-lattice design and the frame/basis condition checks.

Designs the lattice for the six-dimensional group (central densities (2,3),
unit modulation steps, translation densities (3,3) from the certified sup 9),
then walks the Heisenberg basis obstruction: the equality forcing q = 1/2
collides with the density condition 1/q <= 1.
"""

from fractions import Fraction

from nilframe import (
    QuasiLatticeParams,
    SpectrumBox,
    check_density_condition,
    check_necessary_bounds,
    check_onb_condition,
    check_wavelet_discretization,
    density_polynomial,
    design_params,
    fiber_lattice,
    load_spec,
    spectral_measure,
    sup_density,
)

six = load_spec(
    {
        "n": 6,
        "d": 2,
        "brackets": {
            "X1,Y1": ["1", "0"],
            "X2,Y2": ["1", "0"],
            "X1,Y2": ["0", "1"],
            "X2,Y1": ["0", "1"],
        },
    }
)
box = SpectrumBox(a=(Fraction(2), Fraction(3)))
sup = sup_density(density_polynomial(six), box, tol=1e-9)
params = design_params(six, box, sup, q=None, b=None, precision_digits=12)
print("designed parameters:", params.as_dict())

density = check_density_condition(params, sup)
print("density condition:", "pass" if density.passed else "fail", "-", density.detail)

lam = (Fraction(1, 2), Fraction(5, 2))
lat = fiber_lattice(six, params, lam)
print(f"\nfiber at {tuple(map(str, lam))}: volume {lat.volume} "
      f"(= density / prod(b q))")

mu = spectral_measure(density_polynomial(six), box, tol=1e-7)
onb = check_onb_condition(params, mu)
print("\nbasis equality:", "pass" if onb.passed else "fail", "-", onb.detail)

# multiplicity one on the whole box: the box's own sup and measure
bounds = check_necessary_bounds(params, mu, [(sup, mu, 1)])
for sub in bounds.sub_reports:
    print(f"   {sub.condition:28s} {'pass' if sub.passed else 'fail'}  {sub.detail}")

sublevel = spectral_measure(density_polynomial(six), box, tol=1e-2, threshold=params.prod_bq)
wavelet = check_wavelet_discretization(params, sublevel)
print("wavelet discretization:", "pass" if wavelet.passed else "fail", "-", wavelet.detail)

# Heisenberg: the basis equality pins q = 1/2, but then 1/q = 2 > 1
print("\n-- Heisenberg obstruction --")
heis = load_spec({"n": 3, "d": 1, "brackets": {"X1,Y1": ["1"]}})
a = Fraction(2)
hp = QuasiLatticeParams(a=(a,), q=(Fraction(1),), b=(a,))
hbox = SpectrumBox(a=(a,))
hsup = sup_density(density_polynomial(heis), hbox, tol=1e-9)
print("density at q=1:", check_density_condition(hp, hsup).passed)
onb = check_onb_condition(hp, spectral_measure(density_polynomial(heis), hbox, tol=1e-9))
print("basis check:", onb.detail)
bad = QuasiLatticeParams(a=(a,), q=(Fraction(1, 2),), b=(a,))
print("density at the required q=1/2:", check_density_condition(bad, hsup).passed)
