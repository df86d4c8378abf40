"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is stated inline; nothing is deferred to calibration.  The
Example-3 determinant assertion is kept exactly as required even though the
bracket table of that algebra forces a different mixed-term coefficient; the
failure message carries the independently verified value.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from nilframe.algebra import load_spec, validate_class
from nilframe.lattice import (
    QuasiLatticeParams,
    check_density_condition,
    check_onb_condition,
    check_wavelet_discretization,
    design_params,
    fiber_lattice,
)
from nilframe.polynomial import SpectralPolynomial, determinant
from nilframe.spectral import (
    SpectrumBox,
    build_matrices,
    density_polynomial,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)
from nilframe.verify import (
    TruncationSpec,
    bump_profile,
    fiber_parseval_defect,
    frame_energy_ratio,
    gaussian_profile,
    make_aligned_grid,
    make_test_field,
    window_tiling_check,
)
from nilframe.windows import FieldNode, build_generator_field, synthesize_window

from conftest import EXAMPLE2_DOC, EXAMPLE3_DOC, HEISENBERG_DOC, random_valid_spec


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}  "
              f"[{time.monotonic() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}  [{time.monotonic() - start:.1f}s]")


def perm_parity(p):
    p = list(p)
    sign = 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def cofactor_oracle(matrix):
    """Independent determinant oracle used by the acceptance checks."""
    n = len(matrix)
    nvars = matrix[0][0].nvars
    total = SpectralPolynomial(nvars)
    for perm in permutations(range(n)):
        term = SpectralPolynomial.constant(nvars, perm_parity(perm))
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def F(*args):
    return Fraction(*args)


def desk_setup():
    spec = load_spec(HEISENBERG_DOC)
    params = QuasiLatticeParams(a=(F(1),), q=(F(1),), b=(F(1),))
    box = SpectrumBox(a=(F(1),))
    field = build_generator_field(spec, params, box, grid_shape=[16], role="frame")
    grid = make_aligned_grid((F(1),), [2], [3], [52])
    return spec, params, box, field, grid


def test_criterion_1_example2_pipeline():
    with criterion(1, "Example 2 pipeline: det, sup, measure, design, norm, basis check"):
        start = time.monotonic()
        spec = load_spec(EXAMPLE2_DOC)
        box = SpectrumBox(a=(F(2), F(3)))

        mats = build_matrices(spec)
        det_b = determinant(mats.modulation)
        oracle = cofactor_oracle([list(r) for r in mats.modulation])
        assert det_b == oracle
        expected = SpectralPolynomial(2, {(2, 0): F(1), (0, 2): F(-1)})
        assert det_b == expected or det_b == -expected  # |det| = |l1^2 - l2^2|

        sup = sup_density(det_b, box, tol=1e-9)
        assert abs(sup.value - 9.0) <= 1e-9
        assert sup.lower <= 9 <= sup.upper

        mu = spectral_measure(det_b, box, tol=4e-8)
        assert mu.lower <= F(46, 3) <= mu.upper
        assert abs(mu.value - 46.0 / 3.0) <= 1e-6

        params, _ = design_params(spec, box, sup_tol=1e-9)
        assert params.a == (F(2), F(3))
        assert params.q == (F(1), F(1))
        assert params.b == (F(3), F(3))

        predicted = mu.value / float(params.prod_q * params.prod_b * params.prod_a)
        assert abs(predicted - 23.0 / 81.0) <= 1e-9

        onb = check_onb_condition(params, mu)
        assert not onb.passed
        assert onb.margins["target"] == 54.0
        assert abs(onb.margins["mu_box"] - 46.0 / 3.0) <= 1e-6

        assert time.monotonic() - start < 30.0


def test_criterion_2_heisenberg_design():
    with criterion(2, "Heisenberg: fiber lattice, density iff 1/q <= 1, basis q = 1/2 conflict"):
        start = time.monotonic()
        spec = load_spec(HEISENBERG_DOC)
        a = F(2)
        box = SpectrumBox(a=(a,))

        # fiber lattice (1/a)Z x (|lam|/q)Z
        for q in (F(1), F(2)):
            params = QuasiLatticeParams(a=(a,), q=(q,), b=(a,))
            lam = (F(3, 4),)
            lat = fiber_lattice(spec, params, lam)
            assert lat.translation[0][0] == 1 / a
            assert abs(lat.modulation[0][0]) == abs(lam[0]) / q

        # density holds exactly when 1/q <= 1
        for q, expected in ((F(1), True), (F(3), True), (F(1, 2), False)):
            params = QuasiLatticeParams(a=(a,), q=(q,), b=(a,))
            rep = check_density_condition(spec, params, box)
            assert rep.passed is expected, f"q={q}"

        # basis equality forces q = 1/2, which density rejects
        params = QuasiLatticeParams(a=(a,), q=(F(1),), b=(a,))
        mu = a * a / 2  # closed-form integral of the density over (0, a]
        onb = check_onb_condition(params, mu)
        assert not onb.passed
        assert onb.margins["required_uniform_q"] == "1/2"
        assert onb.margins["required_q_density_compatible"] is False
        assert onb.margins["required_q_inverse_product"] == 2.0

        assert time.monotonic() - start < 5.0


def test_criterion_3_example3_determinant_as_stated():
    # The required polynomial has mixed-term coefficient 1.  The bracket
    # table of the nine-dimensional algebra produces coefficient 3 (any
    # arrangement of nine single-coordinate brackets does: the three
    # variables occupy three disjoint permutation supports, and a parity
    # count over the remaining permutations leaves net coefficient +-3 or
    # -+1 with matching cube signs, never the required combination).  The
    # independent expansion oracle confirms the computed value; the
    # assertion is kept as required and fails against it.
    with criterion(3, "Example 3 determinant matches the stated cubic (known conflict)"):
        spec = load_spec(EXAMPLE3_DOC)
        mats = build_matrices(spec)
        det_b = determinant(mats.modulation)
        assert det_b == cofactor_oracle([list(r) for r in mats.modulation])
        stated = SpectralPolynomial(
            3,
            {(3, 0, 0): F(-1), (0, 3, 0): F(-1), (1, 1, 1): F(1), (0, 0, 3): F(-1)},
        )
        assert det_b == stated or det_b == -stated


def test_criterion_3_example3_wavelet_discretization():
    with criterion(3, "Example 3: unit covolume product, nonempty sublevel region"):
        start = time.monotonic()
        spec = load_spec(EXAMPLE3_DOC)
        box = SpectrumBox(a=(F(1), F(1), F(1)))
        params = QuasiLatticeParams(
            a=(F(1), F(1), F(1)), q=(F(1), F(1), F(1)), b=(F(1), F(1), F(1))
        )
        rep = check_wavelet_discretization(spec, params, box, measure_tol=5e-2)
        assert rep.margins["product"] == "1"
        sub = {s.condition: s for s in rep.sub_reports}
        assert sub["unit_covolume_product"].passed
        assert rep.margins["sublevel_nonempty"] is True
        assert rep.margins["sublevel_measure_lower"] > 0
        assert rep.passed
        assert time.monotonic() - start < 60.0


def test_criterion_4_pfaffian_identity():
    with criterion(4, "det(jump block) = det(modulation)^2, examples + 50 random specs"):
        for doc in (HEISENBERG_DOC, EXAMPLE2_DOC, EXAMPLE3_DOC):
            spec = load_spec(doc)
            mats = build_matrices(spec)
            assert pfaffian_identity_check(mats.jump_block, mats.det_b).passed
        rng = random.Random(20260809)
        for _ in range(50):
            spec = random_valid_spec(rng)
            assert validate_class(spec).passed
            mats = build_matrices(spec)
            report = pfaffian_identity_check(mats.jump_block, mats.det_b)
            assert report.passed, f"failed for brackets {dict(spec.brackets)}"


def test_criterion_5_painless_window():
    with criterion(5, "painless window: defect < 1e-3, halves on doubling, norms exact"):
        spec, params, box, field, grid = desk_setup()

        lam = (F(1, 2),)
        lat = fiber_lattice(spec, params, lam)
        window = synthesize_window(lat)
        node = FieldNode(
            lam=lam,
            window=window,
            normalization=1.0 / math.sqrt(float(params.prod_a) * abs(float(lat.det_b))),
            lattice=lat,
        )
        x = grid.axes()[0]
        test = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
        t16 = TruncationSpec(m_half=(0,), k_half=(16,), n_half=(16,))
        t32 = TruncationSpec(m_half=(0,), k_half=(32,), n_half=(32,))
        d16 = fiber_parseval_defect(params, node, [test], t16, grid).defect
        d32 = fiber_parseval_defect(params, node, [test], t32, grid).defect
        assert d16 < 1e-3
        assert d32 <= d16 / 2

        # norm identity at every synthesized fiber of the desk field
        for field_node in field.nodes:
            assert (
                abs(field_node.window.norm_sq - float(field_node.lattice.volume)) <= 1e-9
            )


def test_criterion_6_full_frame_identity():
    with criterion(6, "frame energy ratio = 1 +- 1e-2 for three fields, monotone growth"):
        spec, params, box, field, grid = desk_setup()
        trunc = TruncationSpec(m_half=(32,), k_half=(16,), n_half=(16,))

        profiles = [
            (bump_profile(0.55, 0.12), gaussian_profile([0.45], [0.07])),
            (bump_profile(0.42, 0.10), gaussian_profile([0.52], [0.09])),
            (bump_profile(0.66, 0.15), gaussian_profile([0.38], [0.06])),
        ]
        fields = [
            make_test_field(field, grid, spectral_profile=sp, space_profile=xp)
            for sp, xp in profiles
        ]
        for psi in fields:
            rep = frame_energy_ratio(psi, field, trunc)
            assert abs(rep.ratio - 1.0) <= 1e-2

        psi = fields[0]
        energies = []
        for half in (2, 4, 8, 16):
            t = TruncationSpec(m_half=(half,), k_half=(half,), n_half=(half,))
            energies.append(frame_energy_ratio(psi, field, t).energy)
        assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls: broken tiling, scaled generator, density gate"):
        spec, params, box, field, grid = desk_setup()

        # deleting a window piece breaks tiling and is detected
        node = field.nodes[4]
        broken = replace(node.window, offsets=())
        rep = window_tiling_check([(broken, node.lattice)])
        assert not rep.passed
        assert rep.max_tiling_deviation >= 1

        # scaling the generator by 2 scales the frame energy ratio to 4
        psi = make_test_field(
            field,
            grid,
            spectral_profile=bump_profile(0.55, 0.12),
            space_profile=gaussian_profile([0.45], [0.07]),
        )
        doubled = replace(
            field,
            nodes=tuple(
                replace(n, window=replace(n.window, scale=2 * n.window.scale))
                for n in field.nodes
            ),
        )
        trunc = TruncationSpec(m_half=(32,), k_half=(16,), n_half=(16,))
        rep4 = frame_energy_ratio(psi, doubled, trunc)
        assert abs(rep4.ratio - 4.0) <= 1e-2

        # density violation is rejected with exit code 2 before any synthesis
        import json as _json
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(
                _json.dumps(
                    {
                        "algebra": HEISENBERG_DOC,
                        "spectrum": {"a": ["1"]},
                        "lattice": {"q": ["1/2"], "b": ["1"]},
                        "verification": {"lam_grid": [8]},
                    }
                )
            )
            out = Path(tmp) / "field.json"
            proc = subprocess.run(
                [sys.executable, "-m", "nilframe.cli", "synthesize",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            assert not out.exists()
