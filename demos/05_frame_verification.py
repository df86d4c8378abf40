#!/usr/bin/env python3
"""Independent verification of the Parseval identities.

Everything runs in the fiberized picture on a desk-scale Heisenberg
configuration: per-fiber Parseval defects of the synthesized windows, the
full frame energy of smooth test fields through the coefficient formula, the
tiling/packing re-check, and the Gram diagnostics.
"""

from fractions import Fraction

import numpy as np

from nilframe import (
    PeriodizedFiber,
    QuasiLatticeParams,
    SpectrumBox,
    TruncationSpec,
    build_generator_field,
    fiber_parseval_defect,
    frame_energy_ratio,
    gram_orthonormality_check,
    load_spec,
    make_aligned_grid,
    make_test_field,
    window_tiling_check,
)
from nilframe.verify import bump_profile, gaussian_profile
from nilframe.windows import FieldNode
from nilframe.lattice import fiber_lattice
from nilframe.windows import synthesize_window
import math

spec = load_spec({"n": 3, "d": 1, "brackets": {"X1,Y1": ["1"]}})
params = QuasiLatticeParams(a=(Fraction(1),), q=(Fraction(1),), b=(Fraction(1),))
box = SpectrumBox(a=(Fraction(1),))
field = build_generator_field(spec, params, box, grid_shape=[16], role="frame")
grid = make_aligned_grid((Fraction(1),), [2], [3], [52])

# exact tiling / packing certificate, independent of the construction
tiling = window_tiling_check([(n.window, n.lattice) for n in field.nodes])
print(f"tiling certificate over {tiling.checked_nodes} fibers: "
      f"max deviation {tiling.max_tiling_deviation}, "
      f"max packing count {tiling.max_packing_count}")

# per-fiber Parseval defect at lam = 1/2 with doubling truncations
lat = fiber_lattice(spec, params, (Fraction(1, 2),))
node = FieldNode(
    lam=(Fraction(1, 2),),
    window=synthesize_window(lat),
    normalization=1.0 / math.sqrt(float(params.prod_a) * abs(float(lat.det_b))),
    lattice=lat,
)
x = grid.axes()[0]
gaussian = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
for half in (4, 8, 16, 32):
    trunc = TruncationSpec(m_half=(0,), k_half=(half,), n_half=(half,))
    rep = fiber_parseval_defect(params, node, [gaussian], trunc, grid)
    print(f"   defect with k,n in [-{half},{half}]: {rep.defect:.3e}")

# the exact-in-k oracle sums every modulation at once by periodization
fiber = PeriodizedFiber(node)
(narrow,), samples = fiber.ratios([([0.5], [0.08])])
(wide,), _ = fiber.ratios([([0.5], [fiber.wide_width])])
print(f"   exact ratios: narrow {narrow:.15f}, wide {wide:.15f} ({samples} samples)")

# full frame energy against three smooth test fields
trunc = TruncationSpec(m_half=(32,), k_half=(16,), n_half=(16,))
print("\nframe energy ratios (Parseval target 1):")
for i, (lc, xc, xw) in enumerate([(0.55, 0.45, 0.07), (0.42, 0.52, 0.09), (0.66, 0.38, 0.06)]):
    psi = make_test_field(
        field, grid,
        spectral_profile=bump_profile(lc, 0.12),
        space_profile=gaussian_profile([xc], [xw]),
    )
    rep = frame_energy_ratio(psi, field, trunc)
    print(f"   field {i + 1}: ratio {rep.ratio:.8f} "
          f"(central indices clipped to grid classes: {rep.m_clipped})")

# Gram diagnostics: the diagonal recovers the generator's squared norm, 1/2
# for this configuration, confirming the system is a redundancy-two Parseval
# frame rather than a basis
gram = gram_orthonormality_check(field, TruncationSpec(m_half=(0,), k_half=(1,), n_half=(1,)))
print(f"\nGram diagonal {gram.diagonal_value:.6f} "
      f"(deviation from basis value 1: {gram.max_diagonal_deviation:.3f}), "
      f"max off-diagonal {gram.max_offdiagonal:.6f}")
