#!/usr/bin/env python3
"""Exact spectral data: modulation determinant, block identity, certified
supremum and spectral measure over a box.

The six-dimensional group's density is |l1^2 - l2^2|; over the box
[0,2] x [0,3] its certified supremum is 9 and its integral is exactly 46/3,
recovered here inside a rational bracket.
"""

from fractions import Fraction

from nilframe import (
    SpectrumBox,
    build_matrices,
    density_polynomial,
    determinant,
    eval_density,
    load_spec,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)

spec = load_spec(
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

mats = build_matrices(spec)
det_b = determinant(mats.modulation)
print("modulation matrix:")
for row in mats.modulation:
    print("  ", [repr(p) for p in row])
print("det:", det_b)

pfaffian = pfaffian_identity_check(mats.jump_block, mats.det_b)
print("jump-block determinant equals det^2:", pfaffian.passed)

print("\ndensity samples:")
for pt in [(0, 3), (2, 0), (1, 1)]:
    lam = tuple(Fraction(x) for x in pt)
    print(f"   r{pt} = {eval_density(det_b, lam)}")

box = SpectrumBox(a=(Fraction(2), Fraction(3)))
sup = sup_density(det_b, box, tol=1e-9)
print(f"\ncertified sup over [0,2]x[0,3]: {sup.value}")
print(f"   bracket [{sup.lower}, {sup.upper}], argmax {sup.certificate.argmax}, "
      f"{sup.certificate.boxes} boxes")

mu = spectral_measure(det_b, box, tol=1e-7)
print(f"\ncertified measure of the box: {mu.value:.10f}  (46/3 = {46/3:.10f})")
print(f"   bracket width {float(mu.width):.2e}, {mu.certificate.boxes} boxes, "
      f"depth {mu.certificate.depth}")
assert mu.lower <= Fraction(46, 3) <= mu.upper

# sublevel query: spectral mass where the density stays at most 4
sub = spectral_measure(det_b, box, tol=1e-3, threshold=Fraction(4))
print(f"\nmass of the sublevel region (density <= 4): [{float(sub.lower):.6f}, "
      f"{float(sub.upper):.6f}]")
print("   witness sub-box inside the region:", sub.witness_box is not None)
