#!/usr/bin/env python3
"""Cut-and-stack Parseval windows, fiber by fiber.

A Heisenberg fiber needs a single half-open interval.  A generic fiber of the
six-dimensional group shears the dual modulation lattice against the
translation cell, and the window support splinters into many exact
parallelepiped pieces that still tile under translations while packing
modulo the dual lattice.
"""

from fractions import Fraction

from nilframe import (
    QuasiLatticeParams,
    SpectrumBox,
    build_generator_field,
    density_polynomial,
    fiber_lattice,
    field_to_document,
    load_spec,
    spectral_measure,
    synthesize_window,
)

heis = load_spec({"n": 3, "d": 1, "brackets": {"X1,Y1": ["1"]}})
hp = QuasiLatticeParams(a=(Fraction(1),), q=(Fraction(1),), b=(Fraction(1),))
lat = fiber_lattice(heis, hp, (Fraction(1, 2),))
window = synthesize_window(lat)
print("Heisenberg fiber at 1/2:")
print(f"   pieces: {window.piece_count}, scale {window.scale:.6f}")
print(f"   support measure {window.total_measure}, norm^2 {window.norm_sq:.6f} "
      f"= lattice volume {float(lat.volume)}")
print("   norm check:", abs(window.norm_sq - float(lat.volume)) <= 1e-9)

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
sp = QuasiLatticeParams(
    a=(Fraction(2), Fraction(3)), q=(Fraction(1), Fraction(1)), b=(Fraction(3), Fraction(3))
)
lat2 = fiber_lattice(six, sp, (Fraction(1, 2), Fraction(23, 8)))
window2 = synthesize_window(lat2)
print(f"\nsheared fiber at (1/2, 23/8): {window2.piece_count} pieces")
print(f"   every piece is a translate of one parallelepiped; total measure "
      f"{window2.total_measure} = 1/(b1 b2)")
print(f"   norm^2 {window2.norm_sq:.9f} vs volume {float(lat2.volume):.9f}")

# a full generator field over a lambda grid, with its predicted spectral norm
box = SpectrumBox(a=(Fraction(2), Fraction(3)))
mu = spectral_measure(density_polynomial(six), box, tol=4e-8)
field = build_generator_field(six, sp, box, grid_shape=[16, 24], role="frame",
                               predicted_norm_sq=mu.value / float(sp.covolume))
print(f"\ngenerator field on a 16x24 grid: {len(field.nodes)} fibers, "
      f"{len(field.skipped)} skipped on the null set")
print(f"   predicted generator norm^2: {field.predicted_norm_sq:.10f} "
      f"(exact value 23/81 = {23/81:.10f})")
print(f"   grid-quadrature norm^2:     {field.grid_measured_norm_sq():.10f}")
doc = field_to_document(field)
print(f"   serialized document: {len(doc['nodes'])} nodes, "
      f"{sum(len(n['pieces']) for n in doc['nodes'])} pieces total")
