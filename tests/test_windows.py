"""Window synthesis: exact tiling data, norms, generator fields."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nilframe.errors import DegenerateFiberError, DensityViolationError, PieceOverflowError
from nilframe.intlattice import mat_det, mat_inv, mat_vec
from nilframe.lattice import QuasiLatticeParams, fiber_lattice
from nilframe.spectral import SpectrumBox, density_polynomial, spectral_measure
from nilframe.windows import (
    FrameGeneratorField,
    build_generator_field,
    centered_grid,
    field_to_document,
    synthesize_window,
    window_norm_check,
)


def F(*args):
    return Fraction(*args)


def params_for(a, q, b):
    return QuasiLatticeParams(
        a=tuple(Fraction(x) for x in a),
        q=tuple(Fraction(x) for x in q),
        b=tuple(Fraction(x) for x in b),
    )


def brute_force_cover_counts(window, lattice, rng, trials=24):
    """Oracle: exact tiling / packing counts at random rational points."""
    d = window.d
    shape_inv = mat_inv([list(r) for r in window.shape])
    trans = [list(r) for r in lattice.translation]
    from nilframe.intlattice import mat_transpose

    dual = mat_inv(mat_transpose([list(r) for r in lattice.modulation]))

    def covered(x, step):
        count = 0
        step_inv = mat_inv(step)
        for off in window.offsets:
            rel = mat_vec(step_inv, [xi - oi for xi, oi in zip(x, off)])
            base = [v.numerator // v.denominator for v in rel]
            from itertools import product as iproduct

            closed = False
            for delta in iproduct(range(-4, 5), repeat=d):
                m = [b + dd for b, dd in zip(base, delta)]
                y = [x[i] - sum(step[i][j] * m[j] for j in range(d)) for i in range(d)]
                t = mat_vec(shape_inv, [yi - oi for yi, oi in zip(y, off)])
                if all(0 <= ti < 1 for ti in t):
                    count += 1
        return count

    results = []
    for _ in range(trials):
        x = [Fraction(rng.randint(-200, 200), 97) for _ in range(d)]
        results.append((covered(x, trans), covered(x, dual)))
    return results


class TestSynthesizeWindow:
    def test_heisenberg_single_piece(self, heisenberg):
        p = params_for([1], [1], [1])
        lat = fiber_lattice(heisenberg, p, (F(1) / 2,))
        w = synthesize_window(lat)
        assert w.piece_count == 1
        assert w.offsets == ((F(0),),)
        assert w.shape == ((F(1),),)
        assert w.scale == pytest.approx(math.sqrt(0.5))
        assert w.norm_sq == pytest.approx(float(lat.volume))

    def test_volume_one_fiber_tight(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(0), F(3)))  # volume exactly 1
        w = synthesize_window(lat)
        assert w.total_measure == lat.translation[0][0] * lat.translation[1][1]
        assert w.norm_sq == pytest.approx(1.0)

    def test_volume_above_one_rejected(self, heisenberg):
        p = params_for([1], ["1/2"], [1])  # volume = 2 |lam|
        lat = fiber_lattice(heisenberg, p, (F(1),))
        assert lat.volume == 2
        with pytest.raises(DensityViolationError):
            synthesize_window(lat)

    def test_degenerate_fiber_rejected(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(1), F(1)))
        with pytest.raises(DegenerateFiberError):
            synthesize_window(lat)

    def test_piece_budget_enforced(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(1, 2), F(23, 8)))
        with pytest.raises(PieceOverflowError):
            synthesize_window(lat, piece_limit=4)

    def test_multi_piece_example2_fiber_tiles_and_packs(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        lat = fiber_lattice(example2, p, (F(1, 2), F(23, 8)))
        w = synthesize_window(lat)
        assert w.piece_count > 1
        assert w.total_measure == F(1, 9)  # prod 1/b_i
        rng = random.Random(11)
        for tiling, packing in brute_force_cover_counts(w, lat, rng, trials=6):
            assert tiling == 1
            assert packing <= 1

    def test_measure_always_translation_cell(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        rng = random.Random(23)
        for _ in range(6):
            lam = (F(rng.randint(1, 31), 16), F(rng.randint(1, 47), 16))
            lat = fiber_lattice(example2, p, lam)
            if lat.det_b == 0 or lat.volume > 1:
                continue
            w = synthesize_window(lat)
            assert w.total_measure == F(1, 9)
            assert w.norm_sq == pytest.approx(float(lat.volume), abs=1e-12)


class TestWindowNormCheck:
    def test_passes_on_synthesized(self, heisenberg):
        p = params_for([1], [1], [1])
        lat = fiber_lattice(heisenberg, p, (F(1) / 2,))
        w = synthesize_window(lat)
        assert window_norm_check(w, lat).passed

    def test_doubled_scale_fails_with_ratio_four(self, heisenberg):
        from dataclasses import replace

        p = params_for([1], [1], [1])
        lat = fiber_lattice(heisenberg, p, (F(1) / 2,))
        w = synthesize_window(lat)
        bad = replace(w, scale=2 * w.scale)
        rep = window_norm_check(bad, lat)
        assert not rep.passed
        assert rep.measured / rep.expected == pytest.approx(4.0)


class TestGeneratorField:
    def test_heisenberg_desk_field(self, heisenberg):
        p = params_for([1], [1], [1])
        box = SpectrumBox(a=(F(1),))
        field = build_generator_field(heisenberg, p, box, grid_shape=[16], role="frame")
        assert len(field.nodes) == 16
        assert not field.skipped
        for node in field.nodes:
            # normalized fiber vectors of the desk configuration are unit indicators
            assert node.fiber_vector_norm_sq == pytest.approx(1.0)

    def test_example2_grid_16x24_predicted_norm(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(F(2), F(3)))
        mu = spectral_measure(det_b, box, tol=4e-8)
        p = params_for([2, 3], [1, 1], [3, 3])
        field = build_generator_field(
            example2, p, box, grid_shape=[4, 6], role="frame", mu_box=mu
        )
        assert field.predicted_norm_sq == pytest.approx(23.0 / 81.0, abs=1e-9)

    def test_example2_diagonal_nodes_skipped(self, example2):
        # the 16x24 centered grid has equal-coordinate nodes on the null set
        p = params_for([2, 3], [1, 1], [3, 3])
        box = SpectrumBox(a=(F(2), F(3)))
        axes = centered_grid(box, [16, 24])
        diagonal = {(x, y) for x in axes[0] for y in axes[1] if x == y}
        assert diagonal  # the degenerate nodes exist on this grid
        field = build_generator_field(example2, p, box, grid_shape=[16, 24], role="frame")
        skipped_nodes = {lam for lam, reason in field.skipped if reason == "degenerate fiber"}
        assert skipped_nodes == diagonal
        assert len(field.nodes) == 16 * 24 - len(diagonal)

    def test_grid_measured_norm_tracks_quadrature(self, example2):
        det_b = density_polynomial(example2)
        box = SpectrumBox(a=(F(2), F(3)))
        mu = spectral_measure(det_b, box, tol=4e-8)
        p = params_for([2, 3], [1, 1], [3, 3])
        field = build_generator_field(
            example2, p, box, grid_shape=[16, 24], role="frame", mu_box=mu
        )
        # rectangle-rule measure over the surviving grid nodes, divided by 54
        assert field.grid_measured_norm_sq() == pytest.approx(23.0 / 81.0, rel=2e-2)

    def test_node_density_is_the_float_determinant(self, example2):
        p = params_for([2, 3], [1, 1], [3, 3])
        field = build_generator_field(example2, p, SpectrumBox(a=p.a), grid_shape=[4, 6])
        det_b = density_polynomial(example2)
        for node in field.nodes:
            assert node.density == abs(float(node.lattice.det_b))
            assert node.density == abs(float(det_b.evaluate(node.lam)))
            assert node.density > 0.0

    def test_wavelet_field_unit_fibers(self, example3):
        p = params_for([1, 1, 1], [1, 1, 1], [1, 1, 1])
        box = SpectrumBox(a=(F(1), F(1), F(1)))
        field = build_generator_field(example3, p, box, grid_shape=[3, 3, 3], role="wavelet")
        assert field.nodes, "sublevel region should contain grid nodes"
        for node in field.nodes:
            assert node.fiber_vector_norm_sq == pytest.approx(1.0, abs=1e-12)
        reasons = {reason for _, reason in field.skipped}
        assert reasons <= {"degenerate fiber", "outside sublevel region"}

    def test_wavelet_role_requires_unit_product(self, example3):
        p = params_for([1, 1, 1], [1, 1, 1], [2, 1, 1])
        box = SpectrumBox(a=(F(1), F(1), F(1)))
        with pytest.raises(DensityViolationError):
            build_generator_field(example3, p, box, grid_shape=[2, 2, 2], role="wavelet")


class TestSerialization:
    def test_document_round_trips_through_json(self, heisenberg):
        p = params_for([1], [1], [1])
        box = SpectrumBox(a=(F(1),))
        field = build_generator_field(heisenberg, p, box, grid_shape=[4], role="frame")
        doc = field_to_document(field)
        text = json.dumps(doc, sort_keys=True)
        back = json.loads(text)
        assert back["role"] == "frame"
        assert len(back["nodes"]) == 4
        node = back["nodes"][0]
        assert node["lam"] == ["1/8"]
        # binary64 payloads are decimal strings that round-trip exactly
        assert float(node["scale"]) == field.nodes[0].window.scale
        assert float(node["normalization"]) == field.nodes[0].normalization

    def test_deterministic_document(self, heisenberg):
        p = params_for([1], [1], [1])
        box = SpectrumBox(a=(F(1),))
        one = json.dumps(field_to_document(
            build_generator_field(heisenberg, p, box, grid_shape=[4])), sort_keys=True)
        two = json.dumps(field_to_document(
            build_generator_field(heisenberg, p, box, grid_shape=[4])), sort_keys=True)
        assert one == two

    @pytest.mark.parametrize(
        "spec_name, a, b, grid, digest",
        [
            ("example2", [2, 3], [3, 3], [4, 6],
             "3410bc686a110075018b87cdef64657c7541703e6e23d2231b020f338d536e7e"),
            ("example2", [2, 3], [3, 3], [12, 18],
             "2523cd195e49938e291597e98990a7f79df69252507d0ddf9cb48681c4ac5406"),
            ("heisenberg", [1], [1], [16],
             "a0cd848b91348a093390e23c5a46c3d734ac780ffbbcab6970eed81c4136dad7"),
        ],
    )
    def test_documents_pinned(self, request, spec_name, a, b, grid, digest):
        spec = request.getfixturevalue(spec_name)
        p = params_for(a, [1] * spec.d, b)
        field = build_generator_field(spec, p, SpectrumBox(a=p.a), grid_shape=grid)
        text = json.dumps(field_to_document(field), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
