"""Numerical verification layer: fiber representation, Parseval defects,
full-frame energy, tiling re-check, Gram matrix."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nilframe.errors import CertificationError, SchemaError
from nilframe.lattice import QuasiLatticeParams
from nilframe.spectral import SpectrumBox
from nilframe import verify
from nilframe.verify import (
    BandlimitedField,
    PeriodizedFiber,
    TruncationSpec,
    _modulated_pairings,
    _phase_tables,
    _shift_with_zeros,
    fiber_parseval_defect,
    frame_energy_ratio,
    gaussian_profile,
    bump_profile,
    gram_orthonormality_check,
    make_aligned_grid,
    make_test_field,
    periodized_frame_ratio,
    sample_window,
    window_tiling_check,
)
from nilframe.windows import FieldNode, build_generator_field, synthesize_window

from conftest import EXAMPLE2_DOC, EXAMPLE3_DOC, HEISENBERG_DOC, mat_inv


def F(*args):
    return Fraction(*args)


def make_node(spec, params, lam):
    """Single synthesized fiber with its normalization, outside any grid."""
    from nilframe.lattice import fiber_lattice

    lat = fiber_lattice(spec, params, lam)
    window = synthesize_window(lat)
    normalization = 1.0 / math.sqrt(float(params.prod_a) * abs(float(lat.det_b)))
    return FieldNode(lam=tuple(lam), window=window, normalization=normalization, lattice=lat)


def desk_params():
    return QuasiLatticeParams(a=(F(1),), q=(F(1),), b=(F(1),))


def desk_box():
    return SpectrumBox(a=(F(1),))


def desk_grid(points_per_cell=52):
    return make_aligned_grid((F(1),), cells_before=[2], cells_after=[3], points_per_cell=[points_per_cell])


@pytest.fixture(scope="module")
def desk_field(heisenberg_module):
    return build_generator_field(
        heisenberg_module, desk_params(), desk_box(), grid_shape=[16], role="frame"
    )


@pytest.fixture(scope="module")
def heisenberg_module():
    from nilframe.algebra import load_spec
    from conftest import HEISENBERG_DOC

    return load_spec(HEISENBERG_DOC, label="heisenberg")


def full_mesh_pairings(modulation, k_vecs, x_grid, prod):
    """Reference k-sum: one exponential over the whole mesh for every k."""
    mod = np.array(modulation, dtype=float)
    mesh = x_grid.mesh()
    out = []
    for k_vec in k_vecs:
        freq = mod @ np.array([float(k) for k in k_vec])
        phase = np.zeros_like(mesh[0])
        for axis in range(len(freq)):
            phase = phase + mesh[axis] * freq[axis]
        out.append(np.sum(prod * np.exp(-2j * np.pi * phase)))
    return np.array(out)


def _exp_integral(w, u, v):
    """Integral of exp(2 pi i t w) over [u, v]."""
    if abs(w) < 1e-15:
        return complex(v - u)
    return (np.exp(2j * np.pi * v * w) - np.exp(2j * np.pi * u * w)) / (2j * np.pi * w)


class BucketSearchGram:
    """Reference Gram entries by piece-pair overlap search in Fraction cell
    coordinates: a bucket index over the cells, a 3^d neighbour loop and a
    partial-overlap integral per pair, with the pair sum collapsed to the
    diagonal at dn = 0 for disjoint pieces (unless ``pairwise_at_zero``)."""

    def __init__(self, node, pairwise_at_zero=False):
        from collections import defaultdict

        from nilframe.intlattice import mat_det, mat_vec

        self.mat_vec = mat_vec
        self.pairwise_at_zero = pairwise_at_zero
        self.window = node.window
        d = self.window.d
        self.d = d
        shape = [list(r) for r in self.window.shape]
        self.shape_inv = mat_inv(shape)
        self.shape_f = [[float(v) for v in row] for row in shape]
        self.det_s = abs(float(mat_det(shape)))
        self.trans = [list(r) for r in node.lattice.translation]
        self.mod_f = [[float(v) for v in row] for row in node.lattice.modulation]
        self.coords = [mat_vec(self.shape_inv, off) for off in self.window.offsets]
        self.offsets_f = [[float(o) for o in off] for off in self.window.offsets]
        self.buckets = defaultdict(list)
        for j, c in enumerate(self.coords):
            self.buckets[tuple(v.numerator // v.denominator for v in c)].append(j)
        self.offsets_arr = np.array(self.offsets_f) if self.offsets_f else np.zeros((0, d))

    def entry(self, gamma, gamma2):
        d = self.d
        k1, n1 = gamma
        k2, n2 = gamma2
        dk = [a - b for a, b in zip(k1, k2)]
        dn = [a - b for a, b in zip(n1, n2)]
        xi = [sum(self.mod_f[i][j] * dk[j] for j in range(d)) for i in range(d)]
        s_t_xi = [sum(self.shape_f[i][j] * xi[i] for i in range(d)) for j in range(d)]
        phase0 = sum(
            float(sum(self.trans[i][j] * n2[j] for j in range(d))) * xi[i] for i in range(d)
        )
        scale = self.window.scale**2 * self.det_s * np.exp(2j * np.pi * phase0)
        if all(v == 0 for v in dn) and not self.pairwise_at_zero:
            prod_val = 1.0 + 0.0j
            for t in range(d):
                prod_val *= _exp_integral(s_t_xi[t], 0.0, 1.0)
            phases = self.offsets_arr @ np.array(xi)
            exp_sum = complex(np.sum(np.exp(2j * np.pi * phases)))
            return scale * exp_sum * prod_val
        t_dn = [sum(self.trans[i][j] * dn[j] for j in range(d)) for i in range(d)]
        shift_coord = self.mat_vec(self.shape_inv, t_dn)
        total = 0.0 + 0.0j
        for i, ci in enumerate(self.coords):
            target = [ci[t] - shift_coord[t] for t in range(d)]
            base = [v.numerator // v.denominator for v in target]
            acc = 0.0 + 0.0j
            for delta in product((-1, 0, 1), repeat=d):
                for j in self.buckets.get(tuple(b + dd for b, dd in zip(base, delta)), ()):
                    delta_c = [self.coords[j][t] + shift_coord[t] - ci[t] for t in range(d)]
                    if not all(abs(v) < 1 for v in delta_c):
                        continue
                    prod_val = 1.0 + 0.0j
                    for t in range(d):
                        u = max(0.0, float(delta_c[t]))
                        prod_val *= _exp_integral(s_t_xi[t], u, min(1.0, 1.0 + float(delta_c[t])))
                    acc += prod_val
            if acc != 0.0:
                phase = sum(self.offsets_f[i][t] * xi[t] for t in range(d))
                total += np.exp(2j * np.pi * phase) * acc
        return scale * total


def assert_kernel_matches_full_mesh(modulation, k_vecs, grid, prod):
    got = _modulated_pairings(_phase_tables(modulation, k_vecs, grid.axes()), prod)
    ref = full_mesh_pairings(modulation, k_vecs, grid, prod)
    assert got.shape == (len(k_vecs),)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestModulatedPairings:
    def test_d1_heisenberg_matches_full_mesh(self, heisenberg_module):
        node = make_node(heisenberg_module, desk_params(), (F(1, 2),))
        grid = desk_grid()
        x = grid.axes()[0]
        w = sample_window(node.window, [x]) * node.window.scale * node.normalization
        test = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
        prod = test * np.conj(_shift_with_zeros(w, grid.shift_steps((1,), desk_params().b)))
        k_vecs = [(k,) for k in range(-16, 17)]
        assert_kernel_matches_full_mesh(node.lattice.modulation, k_vecs, grid, prod)

    def test_d2_example2_nondiagonal_matches_full_mesh(self, example2):
        params = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        node = make_node(example2, params, (F(1, 2), F(23, 8)))
        mod = node.lattice.modulation
        assert mod[0][1] != 0 and mod[1][0] != 0
        grid = make_aligned_grid((F(3), F(3)), [1, 1], [2, 2], [16, 16])
        w = sample_window(node.window, grid.axes()) * node.window.scale * node.normalization
        profile = gaussian_profile([1 / 6, 1 / 4], [0.05, 0.07])
        test = np.asarray(profile(grid.mesh()), dtype=complex)
        prod = test * np.conj(_shift_with_zeros(w, grid.shift_steps((0, -1), params.b)))
        assert prod.any()
        k_vecs = [(k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)]
        assert_kernel_matches_full_mesh(mod, k_vecs, grid, prod)

    def test_d3_random_matches_full_mesh(self):
        rng = np.random.default_rng(20261018)
        grid = make_aligned_grid((F(2), F(3), F(5, 2)), [1, 1, 1], [1, 1, 1], [5, 4, 6])
        prod = rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts)
        mod = [
            [F(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(3)]
            for _ in range(3)
        ]
        k_vecs = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
        assert_kernel_matches_full_mesh(mod, k_vecs, grid, prod)


def rolled_reference(arr, steps):
    """Translate by np.roll per axis, then zero what wrapped around."""
    out = arr
    for axis, s in enumerate(steps):
        if s == 0:
            continue
        out = np.roll(out, s, axis=axis)
        idx = [slice(None)] * out.ndim
        idx[axis] = slice(0, s) if s > 0 else slice(s, None)
        out = out.copy()
        out[tuple(idx)] = 0.0
    return out


class TestShiftWithZeros:
    @pytest.mark.parametrize("shape", [(7,), (5, 6), (4, 3, 5)])
    def test_bit_identical_to_rolled_reference(self, shape):
        rng = np.random.default_rng(len(shape))
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        arr.flat[0] = -0.0
        n_max = max(shape)
        choices = [0, 1, -1, 2, -3, n_max - 1, -(n_max - 1), n_max, -n_max, n_max + 4, -(n_max + 4)]
        for _ in range(60):
            steps = tuple(int(rng.choice(choices)) for _ in shape)
            got = _shift_with_zeros(arr, steps)
            ref = rolled_reference(arr, steps)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), steps

    def test_off_grid_translate_is_all_zero(self):
        arr = np.ones((4, 5))
        for steps in [(4, 0), (0, -5), (-9, 2)]:
            out = _shift_with_zeros(arr, steps)
            assert out.shape == arr.shape and not out.any()

    def test_returns_a_new_array(self):
        arr = np.arange(6.0).reshape(2, 3)
        out = _shift_with_zeros(arr, (0, 0))
        assert np.array_equal(out, arr) and out is not arr
        out[0, 0] = 99.0
        assert arr[0, 0] == 0.0


class TestGoldenOracle:
    """Values of the full-mesh oracle on the desk heisenberg field, pinned."""

    def test_frame_energy_ratio(self, heisenberg_module, desk_field, psi):
        cases = [
            ((8, 6), (0.9695982963142822, 0.014072902114288365, 0.03353263966764649)),
            ((32, 16), (0.9999889048654778, 0.014513996184853856, 1.1784265467066311e-05)),
        ]
        for (m_half, kn_half), (ratio, energy, tail) in cases:
            trunc = TruncationSpec(m_half=(m_half,), k_half=(kn_half,), n_half=(kn_half,))
            rep = frame_energy_ratio(psi, desk_field, trunc)
            assert rep.ratio == pytest.approx(ratio, rel=1e-12)
            assert rep.energy == pytest.approx(energy, rel=1e-12)
            assert rep.tail_fraction == pytest.approx(tail, rel=1e-12)

    def test_fiber_parseval_defect(self, heisenberg_module, desk_field):
        node = desk_field.nodes[8]
        assert node.lam == (F(17, 32),)
        grid = desk_grid()
        x = grid.axes()[0]
        tests = [
            np.exp(-((x - c) ** 2) / (2 * w**2)).astype(complex)
            for c, w in ((0.5, 0.08), (0.3, 0.05))
        ]
        t4 = TruncationSpec(m_half=(0,), k_half=(4,), n_half=(4,))
        rep = fiber_parseval_defect(desk_params(), node, tests, t4, grid)
        assert rep.defect == pytest.approx(0.2870556592943079, rel=1e-12)
        assert rep.energy_ratios == pytest.approx(
            (0.9126588070415129, 0.7129443407056921), rel=1e-12
        )
        # near one the defect is a difference of nearly equal numbers: its
        # energy ratio is pinned relatively, the defect to a few ulps of one
        t16 = TruncationSpec(m_half=(0,), k_half=(16,), n_half=(16,))
        rep = fiber_parseval_defect(desk_params(), node, tests[:1], t16, grid)
        assert rep.energy_ratios[0] == pytest.approx(0.9999999996318624, rel=1e-12)
        assert rep.defect == pytest.approx(3.6813763149012857e-10, abs=1e-15)


class TestFiberParsevalDefect:
    def test_gaussian_defect_small_and_halving(self, heisenberg_module):
        node = make_node(heisenberg_module, desk_params(), (F(1, 2),))
        grid = desk_grid()
        x = grid.axes()[0]
        test = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
        t16 = TruncationSpec(m_half=(0,), k_half=(16,), n_half=(16,))
        t32 = TruncationSpec(m_half=(0,), k_half=(32,), n_half=(32,))
        d16 = fiber_parseval_defect(desk_params(), node, [test], t16, grid).defect
        d32 = fiber_parseval_defect(desk_params(), node, [test], t32, grid).defect
        assert d16 < 1e-3
        assert d32 <= d16 / 2

    def test_doubled_window_scale_gives_ratio_four(self, heisenberg_module):
        node = make_node(heisenberg_module, desk_params(), (F(1, 2),))
        bad = replace(node, window=replace(node.window, scale=2 * node.window.scale))
        grid = desk_grid()
        x = grid.axes()[0]
        test = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
        t = TruncationSpec(m_half=(0,), k_half=(16,), n_half=(16,))
        rep = fiber_parseval_defect(desk_params(), bad, [test], t, grid)
        assert rep.energy_ratios[0] == pytest.approx(4.0, abs=1e-2)
        assert rep.defect == pytest.approx(3.0, abs=1e-2)

    def test_zero_window_ratio_zero(self, heisenberg_module):
        node = make_node(heisenberg_module, desk_params(), (F(1, 2),))
        bad = replace(node, window=replace(node.window, scale=0.0))
        grid = desk_grid()
        x = grid.axes()[0]
        test = np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2)).astype(complex)
        t = TruncationSpec(m_half=(0,), k_half=(4,), n_half=(4,))
        rep = fiber_parseval_defect(desk_params(), bad, [test], t, grid)
        assert rep.energy_ratios[0] == 0.0
        assert rep.defect == 1.0

    def test_misaligned_grid_rejected(self, heisenberg_module):
        from nilframe.errors import MisalignedGridError

        # a grid aligned for b = 1 cannot realize the 1/2 steps of b = 2
        grid = make_aligned_grid((F(1),), [2], [3], [52])
        other = QuasiLatticeParams(a=(F(1),), q=(F(1),), b=(F(2),))
        node = make_node(heisenberg_module, other, (F(1, 2),))
        f = np.ones(grid.counts[0], dtype=complex)
        t = TruncationSpec(m_half=(0,), k_half=(0,), n_half=(1,))
        with pytest.raises(MisalignedGridError):
            fiber_parseval_defect(other, node, [f], t, grid)

    def test_zero_test_function_rejected(self, heisenberg_module, desk_field):
        node = desk_field.nodes[0]
        grid = desk_grid()
        t = TruncationSpec(m_half=(0,), k_half=(1,), n_half=(1,))
        with pytest.raises(ValueError):
            fiber_parseval_defect(desk_params(), node, [np.zeros(grid.counts[0])], t, grid)


@pytest.fixture(scope="module")
def psi(heisenberg_module, desk_field):
    grid = desk_grid()
    return make_test_field(
        desk_field,
        grid,
        spectral_profile=bump_profile(0.55, 0.12),
        space_profile=gaussian_profile([0.45], [0.07]),
    )


class TestFrameEnergyRatio:
    def test_parseval_ratio_close_to_one(self, heisenberg_module, desk_field, psi):
        trunc = TruncationSpec((32,), (16,), (16,))
        rep = frame_energy_ratio(psi, desk_field, trunc)
        assert rep.ratio == pytest.approx(1.0, abs=1e-2)
        assert rep.m_clipped  # 65 requested central indices vs 16 grid nodes

    def test_scalar_invariance(self, heisenberg_module, desk_field, psi):
        trunc = TruncationSpec(m_half=(8,), k_half=(6,), n_half=(6,))
        base = frame_energy_ratio(psi, desk_field, trunc)
        values = {lam: (2.5j - 1.0) * arr for lam, arr in psi.values.items()}
        scaled_psi = BandlimitedField(x_grid=psi.x_grid, values=values)
        scaled = frame_energy_ratio(scaled_psi, desk_field, trunc)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_monotone_under_truncation_growth(self, heisenberg_module, desk_field, psi):
        energies = []
        for half in (2, 4, 8, 16):
            trunc = TruncationSpec(m_half=(half,), k_half=(half,), n_half=(half,))
            energies.append(
                frame_energy_ratio(psi, desk_field, trunc).energy
            )
        assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))

    def test_zero_truncation_strictly_below_one(self, heisenberg_module, desk_field, psi):
        trunc = TruncationSpec(m_half=(0,), k_half=(0,), n_half=(0,))
        rep = frame_energy_ratio(psi, desk_field, trunc)
        assert rep.ratio < 1.0

    def test_norm_matches_field_quadrature(self, heisenberg_module, desk_field, psi):
        trunc = TruncationSpec(m_half=(1,), k_half=(1,), n_half=(1,))
        rep = frame_energy_ratio(psi, desk_field, trunc)
        assert rep.norm_sq == pytest.approx(psi.norm_sq(desk_field), rel=1e-12)

    def test_generator_expanded_against_itself(self, heisenberg_module, desk_field):
        # psi = generator: samples of the indicator windows carry the whole
        # spectral mass, so the Parseval expansion reproduces it; indicator
        # jumps on the x-grid keep this a loose-tolerance check
        grid = desk_grid()
        x = grid.axes()[0]
        values = {}
        for node in desk_field.nodes:
            w = sample_window(node.window, [x]) * node.window.scale * node.normalization
            values[node.lam] = w.astype(complex)
        psi_self = BandlimitedField(x_grid=grid, values=values)
        trunc = TruncationSpec(m_half=(8,), k_half=(16,), n_half=(16,))
        rep = frame_energy_ratio(psi_self, desk_field, trunc)
        assert rep.ratio == pytest.approx(1.0, abs=5e-2)

    def test_missing_node_samples_rejected(self, desk_field, psi):
        lam = desk_field.nodes[3].lam
        values = {k: v for k, v in psi.values.items() if k != lam}
        partial = BandlimitedField(x_grid=psi.x_grid, values=values)
        trunc = TruncationSpec(m_half=(1,), k_half=(1,), n_half=(1,))
        with pytest.raises(SchemaError) as err:
            frame_energy_ratio(partial, desk_field, trunc)
        assert err.value.field == "verify"
        assert "7/32" in str(err.value)


class TestMakeTestField:
    def test_one_array_per_usable_node(self, example2):
        # the 4x6 example2 grid has 24 nodes, 4 of them on the zero set l1 = l2
        p = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        field = build_generator_field(example2, p, SpectrumBox(a=p.a), grid_shape=[4, 6])
        grid = make_aligned_grid(p.b, [1, 1], [1, 1], [4, 4])
        psi = make_test_field(
            field,
            grid,
            spectral_profile=bump_profile([0.9, 1.35], [0.2, 0.3]),
            space_profile=gaussian_profile([0.1, 0.1], [0.05, 0.05]),
        )
        assert len(field.skipped) == 4
        assert len(psi.values) == 20
        assert list(psi.values) == [node.lam for node in field.nodes]
        assert all(v.shape == grid.counts for v in psi.values.values())

    def test_norm_reads_the_generator_densities(self, desk_field, psi):
        xcell = psi.x_grid.cell_volume
        cell = float(desk_field.cell_volume)
        expected = 0.0
        for node in desk_field.nodes:
            expected += float(np.sum(np.abs(psi.values[node.lam]) ** 2)) * xcell * node.density * cell
        assert psi.norm_sq(desk_field) == expected


class TestWindowTilingCheck:
    def test_synthesized_field_passes(self, desk_field):
        pairs = [(n.window, n.lattice) for n in desk_field.nodes[:4]]
        rep = window_tiling_check(pairs)
        assert rep.passed
        assert rep.max_tiling_deviation == 0
        assert rep.max_packing_count == 1

    def test_multi_piece_fiber_passes(self, example2):
        from nilframe.lattice import fiber_lattice
        from nilframe.windows import synthesize_window

        p = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        lat = fiber_lattice(example2, p, (F(1, 2), F(23, 8)))
        w = synthesize_window(lat)
        rep = window_tiling_check([(w, lat)])
        assert rep.passed

    def test_deleted_piece_breaks_tiling(self, example2):
        from nilframe.lattice import fiber_lattice
        from nilframe.windows import synthesize_window

        p = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        lat = fiber_lattice(example2, p, (F(1, 2), F(23, 8)))
        w = synthesize_window(lat)
        broken = replace(w, offsets=w.offsets[:-1])
        rep = window_tiling_check([(broken, lat)])
        assert not rep.passed
        assert rep.max_tiling_deviation >= 1

    def test_duplicated_piece_breaks_packing(self, heisenberg_module, desk_field):
        node = desk_field.nodes[3]
        w = node.window
        dup = replace(w, offsets=w.offsets + w.offsets)
        rep = window_tiling_check([(dup, node.lattice)])
        assert not rep.passed
        assert rep.max_packing_count >= 2


@pytest.fixture(scope="module")
def fiber():
    """The 28-piece example2 window at lam = (3/4, 11/4) and its lattice."""
    from conftest import EXAMPLE2_DOC
    from nilframe.algebra import load_spec
    from nilframe.lattice import fiber_lattice

    p = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
    lat = fiber_lattice(load_spec(EXAMPLE2_DOC, label="example2"), p, (F(3, 4), F(11, 4)))
    window = synthesize_window(lat)
    assert window.piece_count == 28
    return window, lat


class TestTilingCertificateMutations:
    """One piece of the 28-piece example2 window at lam = (3/4, 11/4), moved."""

    @staticmethod
    def moved(window, step):
        first = tuple(o + s for o, s in zip(window.offsets[0], step))
        return replace(window, offsets=(first,) + window.offsets[1:])

    @staticmethod
    def column(matrix, j):
        return [row[j] for row in matrix]

    def test_unmoved_window_certifies(self, fiber):
        rep = window_tiling_check([fiber])
        assert rep.passed and rep.max_tiling_deviation == 0 and rep.max_packing_count == 1

    @pytest.mark.parametrize("cell_step", [(F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 3), F(2, 5))])
    def test_off_grid_piece_is_uncertifiable(self, fiber, cell_step):
        from nilframe.intlattice import mat_vec

        window, lat = fiber
        broken = self.moved(window, mat_vec(window.shape, cell_step))
        rep = window_tiling_check([(broken, lat)])
        assert not rep.passed
        assert rep.worst[0] == "uncertifiable"

    @pytest.mark.parametrize("j", [0, 1])
    def test_dual_vector_shift_breaks_tiling(self, fiber, j):
        from nilframe.intlattice import mat_transpose

        window, lat = fiber
        dual = mat_inv(mat_transpose(lat.modulation))
        rep = window_tiling_check([(self.moved(window, self.column(dual, j)), lat)])
        assert not rep.passed
        assert rep.max_tiling_deviation == 1
        assert rep.max_packing_count == 1

    def test_translation_vector_shift_stays_valid(self, fiber):
        window, lat = fiber
        moved = self.moved(window, self.column(lat.translation, 0))
        assert moved.offsets != window.offsets
        assert window_tiling_check([(moved, lat)]).passed

    def test_duplicated_piece_breaks_tiling_and_packing(self, fiber):
        window, lat = fiber
        dup = replace(window, offsets=window.offsets + window.offsets[:1])
        rep = window_tiling_check([(dup, lat)])
        assert rep.max_tiling_deviation == 1
        assert rep.max_packing_count == 2

    def test_failing_report_names_its_reason(self, fiber):
        from nilframe.intlattice import mat_vec

        window, lat = fiber
        broken = self.moved(window, mat_vec(window.shape, (F(1, 2), F(0))))
        doc = window_tiling_check([(broken, lat)]).as_dict()
        assert doc["passed"] is False
        assert doc["worst"] == {
            "kind": "uncertifiable",
            "lam": ["3/4", "11/4"],
            "detail": "translations or pieces off the piece grid",
        }
        # a passing report keeps its keys
        assert "worst" not in window_tiling_check([fiber]).as_dict()

    def test_gram_rejects_off_grid_window(self, fiber):
        from nilframe.intlattice import mat_vec
        from nilframe.verify import _FiberGram

        window, lat = fiber
        broken = self.moved(window, mat_vec(window.shape, (F(1, 2), F(0))))
        node = FieldNode(lam=lat.lam, window=broken, normalization=1.0, lattice=lat)
        with pytest.raises(ValueError):
            _FiberGram(node)

    def test_gram_weights_coinciding_pieces(self, fiber):
        # a duplicated piece, and a copy moved by a translation column, meet
        # pieces of the window at dn = 0 and dn = (1, 0): the cell counts
        # must weight the overlap formula as the piece-pair search does, on
        # the diagonal (gamma, gamma) too
        from nilframe.verify import _FiberGram

        window, lat = fiber
        shifted = tuple(o + t for o, t in zip(window.offsets[5], self.column(lat.translation, 0)))
        extra = replace(window, offsets=window.offsets + window.offsets[:1] + (shifted,))
        node = FieldNode(lam=lat.lam, window=extra, normalization=1.0, lattice=lat)
        gram = _FiberGram(node)
        ref = BucketSearchGram(node, pairwise_at_zero=True)
        pairs = [
            (((1, 0), (0, 0)), ((0, 0), (0, 0))),
            (((1, -1), (1, 1)), ((0, 1), (1, 1))),
            (((0, 0), (1, 0)), ((0, 0), (0, 0))),
            (((1, 2), (0, 1)), ((0, 0), (-1, 1))),
            (((0, 1), (-1, 0)), ((0, 0), (0, 0))),
            (((1, 2), (0, 1)), ((1, 2), (0, 1))),
        ]
        for g1, g2 in pairs:
            got, want = gram.entry(g1, g2), ref.entry(g1, g2)
            assert abs(want) > 1e-3
            assert abs(got - want) <= 1e-12 * abs(want)


def defect_tests(fiber, b):
    """The narrow and the wide Gaussian defect test of the CLI: centred at
    0.5/b, widths 0.08/b and the fiber's wide width."""
    centres = [0.5 / float(x) for x in b]
    return (centres, [0.08 / float(x) for x in b]), (centres, [fiber.wide_width] * len(b))


def exact_ratios(node, b):
    """(narrow, wide) exact fiber ratios of a node."""
    fiber = PeriodizedFiber(node)
    return tuple(fiber.ratios([test])[0][0] for test in defect_tests(fiber, b))


class TestPeriodizedFiber:
    """The exact-in-k oracle: synthesized fibers are Parseval to rounding, and
    its wide test catches the broken windows that its narrow test misses."""

    @pytest.mark.parametrize(
        "doc, a, b, grid, role, nodes",
        [
            (HEISENBERG_DOC, ["1"], ["1"], [16], "frame", 16),
            (EXAMPLE2_DOC, ["2", "3"], ["3", "3"], [4, 6], "frame", 20),
            (EXAMPLE3_DOC, ["1"] * 3, ["1"] * 3, [3, 3, 3], "wavelet", 24),
        ],
        ids=["heisenberg", "example2", "example3-wavelet"],
    )
    def test_every_fiber_is_parseval(self, doc, a, b, grid, role, nodes):
        from nilframe.algebra import load_spec

        params = QuasiLatticeParams(
            a=tuple(map(F, a)), q=(F(1),) * len(b), b=tuple(map(F, b))
        )
        field = build_generator_field(
            load_spec(doc), params, SpectrumBox(a=tuple(map(F, a))), grid_shape=grid, role=role
        )
        assert len(field.nodes) == nodes
        for node in field.nodes:
            for ratio in exact_ratios(node, params.b):
                assert abs(ratio - 1.0) <= 1e-12, node.lam

    def test_broken_windows_fail_the_wide_test_only(self, fiber):
        # a deleted, a duplicated and a moved piece (moved by a translation
        # column, which breaks packing); the wide ratio is off by 4-13 %
        window, lat = fiber
        col = [row[0] for row in lat.translation]
        moved = tuple(o + t for o, t in zip(window.offsets[1], col))
        cases = [
            (window.offsets[:-1], (0.955, 0.965)),
            (window.offsets + window.offsets[:1], (1.1, 1.15)),
            (window.offsets[:1] + (moved,) + window.offsets[2:], (1.04, 1.09)),
        ]
        for name, (offsets, (low, high)) in zip(("deleted", "duplicated", "moved"), cases):
            broken = replace(window, offsets=offsets)
            assert not window_tiling_check([(broken, lat)]).passed
            node = FieldNode(lam=lat.lam, window=broken, normalization=1.0, lattice=lat)
            narrow, wide = exact_ratios(node, (F(3), F(3)))
            assert low <= wide <= high, (name, wide)
            # the narrow test alone misses every one of them
            assert abs(narrow - 1.0) <= 1e-9, (name, narrow)

    def test_wide_test_agrees_with_the_tiling_certificate(self, fiber):
        # each of the first 10 pieces moved by either translation column:
        # the wide ratio is 1 exactly where the window still certifies
        window, lat = fiber
        verdicts = []
        for j in range(2):
            col = [row[j] for row in lat.translation]
            for i in range(10):
                moved = tuple(o + t for o, t in zip(window.offsets[i], col))
                offsets = window.offsets[:i] + (moved,) + window.offsets[i + 1 :]
                broken = replace(window, offsets=offsets)
                node = FieldNode(lam=lat.lam, window=broken, normalization=1.0, lattice=lat)
                wide = exact_ratios(node, (F(3), F(3)))[1]
                certified = window_tiling_check([(broken, lat)]).passed
                verdicts.append(certified)
                assert (abs(wide - 1.0) <= 1e-12) == certified, (i, j, wide)
        assert verdicts.count(True) == 8

    def test_sample_limit_raises(self, fiber, monkeypatch):
        window, lat = fiber
        node = FieldNode(lam=lat.lam, window=window, normalization=1.0, lattice=lat)
        monkeypatch.setattr(verify, "FIBER_SAMPLE_LIMIT", 100)
        fiber_oracle = PeriodizedFiber(node)
        with pytest.raises(CertificationError) as err:
            fiber_oracle.ratios([defect_tests(fiber_oracle, (F(3), F(3)))[1]])
        assert "3/4, 11/4" in str(err.value)
        assert "over 100" in str(err.value)

    def test_truncated_energy_below_the_exact_one(self, desk_field, psi):
        # psi = bump(λ) gaussian(x); the truncated run misses what lies
        # beyond its k, n range, and no more than its last shell holds
        trunc = TruncationSpec((32,), (16,), (16,))
        truncated = frame_energy_ratio(psi, desk_field, trunc)
        fiber_ratios = [
            PeriodizedFiber(node).ratios([([0.45], [0.07])])[0][0] for node in desk_field.nodes
        ]
        exact = periodized_frame_ratio(desk_field, bump_profile(0.55, 0.12), [0.07], fiber_ratios)
        assert exact.ratio == pytest.approx(1.0, abs=1e-12)
        assert exact.tail_fraction == 0.0 and not exact.m_clipped
        assert truncated.energy <= exact.energy
        assert exact.energy - truncated.energy <= truncated.tail_fraction * truncated.energy


def periodized_reference(node, tests, extents=None):
    """(ratios, sample count) of ``PeriodizedFiber(node).ratios(tests)`` by
    the oracle's first, unfused form: Fraction cell maps per call, cells and
    residues row by row, and one pass per layer of pieces for every window.
    A reference for the fused oracle, which must agree with it bit for bit.
    A dict given as ``extents`` receives the largest integer magnitude of
    the cell numerators and divisor ("cells") and of the group keys
    ("keys")."""
    from collections import Counter
    from operator import mul

    from nilframe.intlattice import (
        cleared_denominators,
        hnf_columns,
        integer_inverse,
        lll_columns,
        mat_det,
        mat_mul,
        mat_transpose,
        residue,
    )

    window, lattice = node.window, node.lattice
    d = window.d
    det_c = abs(float(mat_det(lattice.modulation)))
    mod, mod_den = cleared_denominators(lattice.modulation)
    dual, dual_den = integer_inverse(mat_transpose(mod), mod_den)
    basis = lll_columns(dual)
    basis_f = np.array(basis, dtype=float) / dual_den
    basis_norms = np.sqrt(np.sum(basis_f**2, axis=0))
    inv, inv_den = window._shape_inv
    to_cells = [[F(x, inv_den * dual_den) for x in row] for row in mat_mul(inv, basis)]
    piece_cells = np.array(window.cells, dtype=np.int64).reshape(-1, d).T
    hnf = hnf_columns(window.translation_cells(lattice))
    radix = [hnf[i][i] for i in range(d)]
    strides = [math.prod(radix[i + 1 :]) for i in range(d)]
    layers = []
    seen = Counter()
    for j, v in enumerate(window.cells):
        code = sum(map(mul, residue(v, hnf), strides))
        if seen[code] == len(layers):
            layers.append(np.full(math.prod(radix), -1, dtype=np.int64))
        layers[seen[code]][code] = j
        seen[code] += 1

    theta = verify._THETA[:d]
    sigma = min(min(widths) for _, widths in tests)
    lo = np.array([min(c[a] - 10 * w[a] for c, w in tests) for a in range(d)])
    hi = np.array([max(c[a] + 10 * w[a] for c, w in tests) for a in range(d)])
    steps = [math.ceil(2 * float(n) / sigma) for n in basis_norms]
    fine = basis_f / steps
    origin = fine @ (0.5 + np.array(theta))

    # the sample set, line by line along the last coordinate
    inv_f = np.linalg.inv(fine)
    centre = inv_f @ ((lo + hi) / 2 - origin)
    reach = np.abs(inv_f) @ ((hi - lo) / 2)
    axes = [np.arange(math.ceil(c - r), math.floor(c + r) + 1) for c, r in zip(centre, reach)]
    prefixes = np.array(np.meshgrid(*axes[:-1], indexing="ij"), dtype=np.int64)
    prefixes = prefixes.reshape(d - 1, math.prod(len(a) for a in axes[:-1]))
    start = fine[:, :-1] @ prefixes + origin[:, None]
    step = fine[:, -1]
    first = np.full(prefixes.shape[1], -np.inf)
    last = np.full(prefixes.shape[1], np.inf)
    for a in range(d):
        if step[a] == 0.0:
            last[(start[a] < lo[a]) | (start[a] > hi[a])] = -np.inf
            continue
        t0 = (lo[a] - start[a]) / step[a]
        t1 = (hi[a] - start[a]) / step[a]
        first = np.maximum(first, np.minimum(t0, t1))
        last = np.minimum(last, np.maximum(t0, t1))
    first, last = np.ceil(first), np.floor(last)
    counts = np.where(last >= first, last - first + 1, 0).astype(np.int64)
    first = first.astype(np.int64)
    total = int(counts.sum())
    line = np.repeat(np.arange(len(counts)), counts)
    along = first[line] + np.arange(total) - (np.cumsum(counts) - counts)[line]
    k = np.vstack([prefixes[:, line], along])

    num, den = cleared_denominators([[r / n for r, n in zip(row, steps)] for row in to_cells])
    shift = [math.floor(2 * sum(map(mul, row, theta))) for row in num]
    odd = 2 * k + 1
    cells = np.array([sum(r * o for r, o in zip(row, odd)) + s for row, s in zip(num, shift)])
    if extents is not None:
        extents["cells"] = max(2 * den, int(np.abs(cells).max(initial=0)))
    cells //= 2 * den
    res = cells.copy()
    for j in range(d):
        q = res[j] // hnf[j][j]
        for i in range(j, d):
            if hnf[i][j]:
                res[i] -= q * hnf[i][j]
    codes = sum(r * s for r, s in zip(res, strides))
    rows, diffs = [], []
    for lookup in layers:
        piece = lookup[codes]
        hit = np.flatnonzero(piece >= 0)
        rows.append(hit)
        diffs.append(cells[:, hit] - piece_cells[:, piece[hit]])
    rows = np.concatenate(rows)
    diffs = np.concatenate(diffs, axis=1)

    low = diffs.min(axis=1, initial=0)
    spans = (diffs.max(axis=1, initial=0) - low + 1).tolist()
    keys = np.zeros(len(rows), dtype=np.int64)
    for kj, n in zip(k[:, rows], steps):
        keys *= n
        keys += kj % n
    for diff, lo_j, n in zip(diffs, low, spans):
        keys *= n
        keys += diff - lo_j
    if extents is not None:
        extents["keys"] = int(keys.max(initial=0))
    _, groups = np.unique(keys, return_inverse=True)

    x = np.einsum("ij,js->is", fine, k[:, rows]) + origin[:, None]
    out = []
    for centers, widths in tests:
        z = (x - np.array(centers)[:, None]) / np.array(widths)[:, None]
        sums = np.bincount(groups, weights=np.exp(-0.5 * np.einsum("ij,ij->j", z, z)))
        norm_sq = math.prod(w * math.sqrt(math.pi) for w in widths)
        out.append(float(sums @ sums) / (det_c * math.prod(steps) * norm_sq))
    return out, total


# two Heisenberg algebras side by side: B(λ) = diag(λ1, λ2)
HEISENBERG_PAIR_DOC = {"n": 6, "d": 2, "brackets": {"X1,Y1": ["1", "0"], "X2,Y2": ["0", "1"]}}


def cli_tests(fiber, b):
    """The CLI's two sample sets of a fiber: its three test fields' Gaussians
    (the narrow defect test first), and the wide defect test."""
    centres = [0.5 / float(x) for x in b]
    widths = [0.08 / float(x) for x in b]
    fields = [
        ([c - 0.02 * i for c in centres], [w * (1.0 + 0.15 * i) for w in widths])
        for i in range(3)
    ]
    return fields, [(centres, [fiber.wide_width] * len(b))]


class TestPeriodizedReference:
    """The fused oracle against its first form: the same sample counts and
    the same ratios to the last bit, through the one-layer fast path on
    synthesized windows and the per-layer path on broken ones."""

    @pytest.mark.parametrize(
        "doc, a, b, grid, role, parallel",
        [
            (HEISENBERG_DOC, ["1"], ["1"], [16], "frame", False),
            (EXAMPLE2_DOC, ["2", "3"], ["3", "3"], [4, 6], "frame", False),
            (EXAMPLE3_DOC, ["1"] * 3, ["1"] * 3, [3, 3, 3], "wavelet", False),
            (HEISENBERG_PAIR_DOC, ["1", "1"], ["1", "1"], [3, 3], "frame", True),
        ],
        ids=["heisenberg", "example2", "example3-wavelet", "heisenberg-pair"],
    )
    def test_synthesized_fields(self, doc, a, b, grid, role, parallel):
        # parallel: every fiber's sample lines run parallel to a coordinate
        # axis, which the sampler treats apart (the pair's lattices are
        # diagonal)
        from nilframe.algebra import load_spec

        params = QuasiLatticeParams(
            a=tuple(map(F, a)), q=(F(1),) * len(b), b=tuple(map(F, b))
        )
        field = build_generator_field(
            load_spec(doc), params, SpectrumBox(a=tuple(map(F, a))), grid_shape=grid, role=role
        )
        for node in field.nodes:
            fiber = PeriodizedFiber(node)
            assert len(fiber._layers) == 1
            assert bool(fiber._still) == parallel
            for tests in cli_tests(fiber, params.b):
                assert fiber.ratios(tests) == periodized_reference(node, tests), node.lam

    def test_broken_windows(self, fiber):
        # the deleted, duplicated and moved windows of TestPeriodizedFiber;
        # the duplicated one has two layers, the others miss residues
        window, lat = fiber
        col = [row[0] for row in lat.translation]
        moved = tuple(o + t for o, t in zip(window.offsets[1], col))
        layers = []
        for offsets in (
            window.offsets[:-1],
            window.offsets + window.offsets[:1],
            window.offsets[:1] + (moved,) + window.offsets[2:],
        ):
            node = FieldNode(
                lam=lat.lam, window=replace(window, offsets=offsets), normalization=1.0, lattice=lat
            )
            oracle = PeriodizedFiber(node)
            layers.append(len(oracle._layers))
            for tests in cli_tests(oracle, (F(3), F(3))):
                assert oracle.ratios(tests) == periodized_reference(node, tests)
        assert layers == [1, 2, 1]

    @pytest.mark.parametrize("which", ["heisenberg", "example2"])
    def test_int64_guards_are_sound(self, fiber, monkeypatch, which):
        # lowering the integer bound step by step: first the piece cells,
        # then the (u, n) keys leave it; a guard that passes holds every
        # integer it guards, as the reference computes them, below the bound
        # (heisenberg's samples are one line: its cells are all last
        # coordinate), and wherever both pass the ratios are the full bound's
        if which == "heisenberg":
            from nilframe.algebra import load_spec

            params = QuasiLatticeParams(a=(F(1),), q=(F(1),), b=(F(1),))
            node = build_generator_field(
                load_spec(HEISENBERG_DOC), params, SpectrumBox(a=(F(1),)), grid_shape=[16]
            ).nodes[0]
        else:
            window, lat = fiber
            node = FieldNode(lam=lat.lam, window=window, normalization=1.0, lattice=lat)
            params = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        oracle = PeriodizedFiber(node)
        tests = cli_tests(oracle, params.b)[0]
        extents = {}
        full = periodized_reference(node, tests, extents)
        seen = []
        for e in range(1, 63):
            monkeypatch.setattr(verify, "_INT_LIMIT", 2**e)
            try:
                assert oracle.ratios(tests) == full
                outcome = "pass"
            except CertificationError as err:
                outcome = str(err).rsplit(": ", 1)[1]
            if outcome != "piece cells pass the int64 range":
                assert extents["cells"] < 2**e
            if outcome == "pass":
                assert extents["keys"] < 2**e
            if not seen or seen[-1] != outcome:
                seen.append(outcome)
        assert seen == [
            "piece cells pass the int64 range",
            "(u, n) keys pass the int64 range",
            "pass",
        ]


class TestTwoDimensionalFiber:
    def test_defect_small_at_volume_one_fiber(self, example2):
        # painless window on the d = 2 fiber of full lattice volume
        params = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        node = make_node(example2, params, (F(0), F(3)))
        assert float(node.lattice.volume) == 1.0
        grid = make_aligned_grid((F(3), F(3)), [1, 1], [2, 2], [16, 16])
        mesh = grid.mesh()
        test = np.asarray(
            gaussian_profile([1 / 6, 1 / 6], [0.05, 0.05])(mesh), dtype=complex
        )
        trunc = TruncationSpec(m_half=(0, 0), k_half=(5, 5), n_half=(5, 5))
        rep = fiber_parseval_defect(params, node, [test], trunc, grid)
        assert rep.defect < 1e-3

    def test_modulation_row_sums_to_window_norm_multipiece(self, example2):
        # exact structural oracle for the closed-form Gram on a many-piece
        # window: the support tiles under translations, so only the
        # modulation-only row survives, and its Parseval sum converges to
        # ||g||^2 from below (packing makes the torus expansion orthogonal)
        from nilframe.verify import _FiberGram

        params = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        node = make_node(example2, params, (F(1, 2), F(23, 8)))
        assert node.window.piece_count > 1
        norm_sq = node.window.norm_sq
        gram = _FiberGram(node)
        zero = ((0, 0), (0, 0))
        assert gram.entry(zero, zero) == pytest.approx(norm_sq, rel=1e-15)
        # translated copies never meet the original support
        for n_vec in [(1, 0), (0, -1), (2, 1)]:
            assert abs(gram.entry(zero, ((0, 0), n_vec))) < 1e-12
        total = 0.0
        for k1 in range(-20, 21):
            for k2 in range(-20, 21):
                total += abs(gram.entry(((k1, k2), (0, 0)), zero)) ** 2
        assert total <= norm_sq * (1 + 1e-9)
        assert total >= 0.9 * norm_sq


class TestGram:
    @pytest.mark.parametrize(
        "spec_name, a, b, grid, half",
        [
            ("heisenberg_module", [1], [1], [16], 3),
            ("example2", [2, 3], [3, 3], [4, 6], 2),
            ("example2", [2, 3], [3, 3], [12, 18], 1),
        ],
    )
    def test_cell_lookup_matches_bucket_search(self, request, spec_name, a, b, grid, half):
        # every node, sampled (gamma, gamma') pairs with dn != 0 and dn = 0
        import random

        from nilframe.verify import _FiberGram

        spec = request.getfixturevalue(spec_name)
        d = spec.d
        p = QuasiLatticeParams(a=tuple(map(F, a)), q=(F(1),) * d, b=tuple(map(F, b)))
        field = build_generator_field(spec, p, SpectrumBox(a=p.a), grid_shape=grid)
        idx = list(product(range(-half, half + 1), repeat=d))
        rng = random.Random(7)
        shifted = nonzero = 0
        for node in field.nodes:
            gram, ref = _FiberGram(node), BucketSearchGram(node)
            for _ in range(4):
                g1 = (rng.choice(idx), rng.choice(idx))
                for g2 in ((rng.choice(idx), rng.choice(idx)), (rng.choice(idx), g1[1])):
                    got = gram.entry(g1, g2)
                    assert got == ref.entry(g1, g2)
                    shifted += g1[1] != g2[1]
                    nonzero += got != 0
        assert shifted and nonzero

    def test_fiber_entry_matches_midpoint_quadrature(self, example2):
        # closed-form piece-pair integrals vs midpoint quadrature over a box
        # covering all translates; midpoint sampling keeps the indicator
        # quadrature second-order accurate
        from nilframe.verify import _FiberGram

        params = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        node = make_node(example2, params, (F(1, 2), F(5, 2)))
        mod = np.array([[float(v) for v in row] for row in node.lattice.modulation])
        b_steps = [float(1 / x) for x in params.b]

        def oracle(gamma1, gamma2, pts):
            h = 1.0 / (3 * pts)  # translation cell 1/3 wide
            axes = [np.arange(-2 / 3, 4 / 3, h) + h / 2 for _ in range(2)]
            mesh = np.meshgrid(*axes, indexing="ij")

            def act(gamma):
                k_vec, n_vec = gamma
                shifted = [axes[t] - n_vec[t] * b_steps[t] for t in range(2)]
                w = sample_window(node.window, shifted) * node.window.scale
                freq = mod @ np.array([float(k) for k in k_vec])
                phase = mesh[0] * freq[0] + mesh[1] * freq[1]
                return w * np.exp(2j * np.pi * phase)

            return np.sum(act(gamma1) * np.conj(act(gamma2))) * h * h

        for gamma1, gamma2 in [
            (((0, 0), (0, 0)), ((1, 0), (0, 0))),
            (((1, -1), (1, 0)), ((0, 1), (0, 1))),
            (((0, 0), (1, 1)), ((0, 0), (0, 0))),
        ]:
            closed = _FiberGram(node).entry(gamma1, gamma2)
            coarse = abs(closed - oracle(gamma1, gamma2, 32))
            fine = abs(closed - oracle(gamma1, gamma2, 64))
            assert fine < 5e-4 * max(1.0, abs(closed))
            assert fine <= coarse + 1e-12  # quadrature converges toward the closed form

    def test_diagonal_is_generator_norm(self, heisenberg_module, desk_field):
        rep = gram_orthonormality_check(desk_field, 1)
        # expected norm^2 = mu(box)/(prod a b q) = 1/2, up to grid quadrature
        assert rep.diagonal_value == pytest.approx(0.5, abs=1e-6)
        assert rep.max_diagonal_deviation == pytest.approx(0.5, abs=1e-6)

    def test_example2_diagonal_witness(self, example2):
        p = QuasiLatticeParams(a=(F(2), F(3)), q=(F(1), F(1)), b=(F(3), F(3)))
        box = SpectrumBox(a=(F(2), F(3)))
        field = build_generator_field(example2, p, box, grid_shape=[16, 24], role="frame")
        rep = gram_orthonormality_check(field, 0)
        assert rep.diagonal_value == pytest.approx(23.0 / 81.0, rel=2e-2)
        assert abs(rep.diagonal_value - 1.0) > 0.5  # nowhere near a basis

    def test_offdiagonal_bounded_by_diagonal(self, heisenberg_module, desk_field):
        # Cauchy-Schwarz: no coherence can exceed the common norm of the system
        rep = gram_orthonormality_check(desk_field, 1)
        assert rep.max_offdiagonal <= rep.diagonal_value + 1e-9

    def test_diagonal_real_nonnegative(self, heisenberg_module, desk_field):
        rep = gram_orthonormality_check(desk_field, 2)
        assert rep.diagonal_value >= 0.0
