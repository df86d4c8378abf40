"""Independent numerical verification of the frame identities.

Everything here works in the fiberized picture: representations act on
sampled functions over an aligned x-grid, inner products are rectangle-rule
quadratures, and the full frame energy is accumulated through the coefficient
formula (fiber inner products, weighted by the Plancherel density, expanded
against the exponential family of the spectral box).

Modulations factor over the axes of the product x-grid, exp(-2 pi i x.Bk) =
prod_a exp(-2 pi i x_a (Bk)_a): with one phase table per axis and node, each
(translation, node) pair costs one matrix product for every k at once.

The λ-grid Fourier step is exact at grid level: coefficients are taken over
one period of distinct alias classes of the grid, so requesting more central
indices than the grid resolves cannot double-count energy; the clipping is
reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import LieAlgebraSpec
from .errors import MisalignedGridError, SchemaError
from .intlattice import mat_det, mat_inv, mat_transpose, mat_vec
from .lattice import QuasiLatticeParams, fiber_lattice
from .spectral import SpectrumBox, density_polynomial
from .windows import FieldNode, FrameGeneratorField, PiecewiseBoxWindow


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XGrid:
    """Uniform product grid with steps dividing the lattice translations.

    Per axis k the step is 1/(b_k * points_per_cell_k), so a translation by
    n/b_k moves samples by an integer number of grid steps.  ``aligned_b``
    records the translation densities the grid was built for; operations
    acting with a different lattice must reject the grid.
    """

    origins: tuple[float, ...]
    steps: tuple[float, ...]
    counts: tuple[int, ...]
    points_per_cell: tuple[int, ...]
    aligned_b: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for s in self.steps:
            out *= s
        return out

    def axes(self) -> list[np.ndarray]:
        return [
            self.origins[k] + self.steps[k] * np.arange(self.counts[k]) for k in range(self.d)
        ]

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def shift_steps(self, n_vec: Sequence[int], b: Sequence[Fraction]) -> tuple[int, ...]:
        """Grid steps realizing translations by n_k / b_k; exact or rejected."""
        steps = []
        for k, n in enumerate(n_vec):
            if b[k] != self.aligned_b[k]:
                raise MisalignedGridError(
                    f"grid axis {k} aligned for b={self.aligned_b[k]}, lattice has b={b[k]}"
                )
            steps.append(int(n) * self.points_per_cell[k])
        return tuple(steps)


def make_aligned_grid(
    b: Sequence[Fraction],
    cells_before: Sequence[int],
    cells_after: Sequence[int],
    points_per_cell: Sequence[int],
) -> XGrid:
    """Grid covering [-before/b, after/b) per axis, aligned to 1/b shifts."""
    d = len(b)
    if not (len(cells_before) == len(cells_after) == len(points_per_cell) == d):
        raise SchemaError("grid", "axis count mismatch")
    origins = []
    steps = []
    counts = []
    for k in range(d):
        if points_per_cell[k] < 1 or cells_before[k] < 0 or cells_after[k] < 1:
            raise SchemaError("grid", "cell counts must be positive")
        step = float(1 / (b[k] * points_per_cell[k]))
        origins.append(-float(cells_before[k] / b[k]))
        steps.append(step)
        counts.append((cells_before[k] + cells_after[k]) * points_per_cell[k])
    return XGrid(
        origins=tuple(origins),
        steps=tuple(steps),
        counts=tuple(counts),
        points_per_cell=tuple(points_per_cell),
        aligned_b=tuple(Fraction(x) for x in b),
    )


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationSpec:
    """Symmetric index ranges: central m, modulation k, translation n."""

    m_half: tuple[int, ...]
    k_half: tuple[int, ...]
    n_half: tuple[int, ...]

    def __post_init__(self):
        for name, vec in (("m", self.m_half), ("k", self.k_half), ("n", self.n_half)):
            if any(h < 0 for h in vec):
                raise SchemaError(f"trunc.{name}", "half-widths must be non-negative")

    @classmethod
    def default(cls, center_dim: int, d: int) -> "TruncationSpec":
        return cls(
            m_half=(32,) * center_dim,
            k_half=(16,) * d,
            n_half=(16,) * d,
        )

    def gamma_range(self) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Reduced lattice indices (k, n) in canonical lexicographic order."""
        k_axes = [range(-h, h + 1) for h in self.k_half]
        n_axes = [range(-h, h + 1) for h in self.n_half]
        for k in product(*k_axes):
            for n in product(*n_axes):
                yield k, n


# ---------------------------------------------------------------------------
# bandlimited test fields
# ---------------------------------------------------------------------------


@dataclass
class BandlimitedField:
    """Samples of a spectral-domain field on (λ grid) x (x grid)."""

    axes: tuple[tuple[Fraction, ...], ...]
    x_grid: XGrid
    values: dict[tuple[Fraction, ...], np.ndarray]
    density: dict[tuple[Fraction, ...], float]
    cell_volume: float  # λ-cell volume

    def norm_sq(self) -> float:
        total = 0.0
        xcell = self.x_grid.cell_volume
        for lam, arr in self.values.items():
            total += float(np.sum(np.abs(arr) ** 2)) * xcell * self.density[lam] * self.cell_volume
        return total

    def scaled(self, factor: complex) -> "BandlimitedField":
        return BandlimitedField(
            axes=self.axes,
            x_grid=self.x_grid,
            values={lam: factor * arr for lam, arr in self.values.items()},
            density=self.density,
            cell_volume=self.cell_volume,
        )


def make_test_field(
    spec: LieAlgebraSpec,
    box: SpectrumBox,
    grid_shape: Sequence[int],
    x_grid: XGrid,
    spectral_profile: Callable[[np.ndarray], np.ndarray],
    space_profile: Callable[[list[np.ndarray]], np.ndarray],
) -> BandlimitedField:
    """Product-form field: profile(λ) * profile(x) on the centered λ-grid."""
    from .windows import centered_grid

    det_b = density_polynomial(spec)
    axes = centered_grid(box, grid_shape)
    mesh = x_grid.mesh()
    base = np.asarray(space_profile(mesh), dtype=complex)
    values = {}
    density = {}
    (lo, hi), = box.region()
    cell = Fraction(1)
    for l, h, count in zip(lo, hi, grid_shape):
        cell *= (h - l) / count
    for lam in product(*axes):
        lam_f = np.array([float(x) for x in lam])
        amp = complex(spectral_profile(lam_f))
        values[lam] = amp * base
        density[lam] = abs(det_b.evaluate_float([float(x) for x in lam]))
    return BandlimitedField(
        axes=axes, x_grid=x_grid, values=values, density=density, cell_volume=float(cell)
    )


def gaussian_profile(centers: Sequence[float], widths: Sequence[float]):
    def profile(mesh: list[np.ndarray]) -> np.ndarray:
        out = np.ones_like(mesh[0], dtype=float)
        for m, c, w in zip(mesh, centers, widths):
            out = out * np.exp(-((m - c) ** 2) / (2.0 * w * w))
        return out

    return profile


def bump_profile(center: float, width: float):
    def profile(lam: np.ndarray) -> float:
        r = float(np.sum(((lam - center) / width) ** 2))
        return math.exp(-r / 2.0)

    return profile


# ---------------------------------------------------------------------------
# fiber representation
# ---------------------------------------------------------------------------


def apply_fiber_rep(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    lam: Sequence[Fraction],
    gamma: tuple[Sequence[int], Sequence[int]],
    values: np.ndarray,
    x_grid: XGrid,
) -> np.ndarray:
    """Reduced-lattice action on sampled functions: modulate then translate.

    Samples shifted in from outside the grid are zero.  The translation must
    land on whole grid steps; anything else raises MisalignedGridError.
    """
    k_vec, n_vec = gamma
    d = spec.d
    if len(k_vec) != d or len(n_vec) != d:
        raise ValueError("gamma has wrong dimension")
    shifted = _shift_with_zeros(values, x_grid.shift_steps(n_vec, params.b))
    if any(k != 0 for k in k_vec):
        mod = fiber_lattice(spec, params, lam).modulation
        for axis, table in enumerate(_phase_tables(mod, [k_vec], x_grid.axes())):
            shape = [1] * d
            shape[axis] = -1
            shifted = shifted * np.conj(table[0]).reshape(shape)
    return shifted


def _shift_with_zeros(arr: np.ndarray, steps: tuple[int, ...]) -> np.ndarray:
    """arr translated by whole grid steps per axis, as a new array; samples
    shifted in from outside the grid are zero.  One slice copy into a zero
    array; a step of at least the axis length leaves only zeros."""
    out = np.zeros_like(arr)
    src = []
    dst = []
    for s, n in zip(steps, arr.shape):
        if abs(s) >= n:
            return out
        src.append(slice(0, n - s) if s >= 0 else slice(-s, n))
        dst.append(slice(s, n) if s >= 0 else slice(0, n + s))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _phase_tables(
    modulation: Sequence[Sequence], k_vecs: Sequence[Sequence[int]], axes: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per grid axis a, the (K x N_a) table exp(-2 pi i x_a (Bk)_a) over the
    modulation indices k of ``k_vecs``, with B the modulation matrix."""
    mod = np.array(modulation, dtype=float)
    freq = np.array(k_vecs, dtype=float) @ mod.T
    return [np.exp(-2j * np.pi * np.outer(freq[:, a], x)) for a, x in enumerate(axes)]


def _modulated_pairings(tables: Sequence[np.ndarray], prod: np.ndarray) -> np.ndarray:
    """Sum over the grid of prod(x) exp(-2 pi i x.Bk), for every k of the tables.

    With prod = f conj(T_n w) this is <f, M_Bk T_n w> up to the x-cell volume.
    The first axis contracts in one matrix product, each later axis in a
    broadcast multiply and a sum, so the cost is K (N_1 + ... + N_d)
    exponentials instead of K N_1 ... N_d.
    """
    first = tables[0]
    out = (first @ prod.reshape(first.shape[1], -1)).reshape(first.shape[:1] + prod.shape[1:])
    for table in tables[1:]:
        out = np.sum(out * table.reshape(table.shape + (1,) * (out.ndim - 2)), axis=1)
    return out


def _fiber_pairings(
    node: FieldNode, f: np.ndarray, trunc: TruncationSpec, x_grid: XGrid, b: Sequence[Fraction]
) -> np.ndarray:
    """<f, M_Bk T_n w> for the node's normalized window w, as a (K x N) array
    over the modulation indices k and translation indices n of ``trunc``;
    translates that leave the grid are skipped and pair to zero."""
    axes = x_grid.axes()
    w = node.window.sample_grid(axes) * node.window.scale * node.normalization
    tables = _phase_tables(
        node.lattice.modulation, list(product(*[range(-h, h + 1) for h in trunc.k_half])), axes
    )
    n_vecs = list(product(*[range(-h, h + 1) for h in trunc.n_half]))
    out = np.zeros((len(tables[0]), len(n_vecs)), dtype=complex)
    for ni, n_vec in enumerate(n_vecs):
        wn = _shift_with_zeros(w, x_grid.shift_steps(n_vec, b))
        if wn.any():
            out[:, ni] = _modulated_pairings(tables, f * np.conj(wn))
    return out * x_grid.cell_volume


# ---------------------------------------------------------------------------
# per-fiber Parseval defect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    defect: float
    energy_ratios: tuple[float, ...]

    def as_dict(self) -> dict:
        return {"defect": self.defect, "energy_ratios": list(self.energy_ratios)}


def fiber_parseval_defect(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    node: FieldNode,
    tests: Sequence[np.ndarray],
    trunc: TruncationSpec,
    x_grid: XGrid,
) -> DefectReport:
    """Worst relative Parseval defect of the scaled fiber system over tests.

    The system tested is sqrt(prod a * density) times the fiber action on the
    normalized window, which by construction is the plain Gabor system of the
    synthesized window.
    """
    r_val = abs(float(node.lattice.det_b))
    if r_val == 0.0:
        raise ZeroDivisionError("degenerate fiber")
    prefactor = float(params.prod_a) * r_val  # squared frame weight
    norms = [float(np.sum(np.abs(test) ** 2)) * x_grid.cell_volume for test in tests]
    if 0.0 in norms:
        raise ValueError("zero-norm test function")
    ratios = []
    for test, nrm in zip(tests, norms):
        ips = _fiber_pairings(node, test, trunc, x_grid, params.b)
        ratios.append(prefactor * float(np.sum(np.abs(ips) ** 2)) / nrm)
    defect = float(max(abs(r - 1.0) for r in ratios))
    return DefectReport(defect=defect, energy_ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# full frame energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    ratio: float
    energy: float
    norm_sq: float
    m_values: tuple[tuple[int, ...], ...]
    m_clipped: bool
    skipped_nodes: int
    tail_fraction: float

    def as_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "energy": self.energy,
            "norm_sq": self.norm_sq,
            "m_clipped": self.m_clipped,
            "skipped_nodes": self.skipped_nodes,
            "tail_fraction": self.tail_fraction,
        }


def _alias_free_m_values(m_half: Sequence[int], node_counts: Sequence[int]):
    """Central index lists per axis, clipped to one alias period of the grid."""
    axes = []
    clipped = False
    for h, n_nodes in zip(m_half, node_counts):
        requested = 2 * h + 1
        if requested > n_nodes:
            clipped = True
            count = n_nodes
        else:
            count = requested
        lo = -((count - 1) // 2)
        axes.append(list(range(lo, lo + count)))
    return axes, clipped


def frame_energy_ratio(
    psi: BandlimitedField,
    generator: FrameGeneratorField,
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    trunc: TruncationSpec,
) -> RatioReport:
    """Frame energy of psi against the generator's quasi-lattice system,
    relative to the spectral norm of psi.

    For each reduced-lattice element the fiber inner products weighted by the
    Plancherel density are expanded against the exponential family of the box
    over the λ-grid; the central index range is clipped to the grid's alias
    classes and the clipping is reported.  A Parseval system drives the ratio
    to one from below as truncations grow.
    """
    if psi.axes != generator.axes:
        raise SchemaError("verify", "psi and generator must share the λ-grid")
    nodes = generator.nodes
    if not nodes:
        raise SchemaError("verify", "generator field has no usable nodes")
    norm_sq = psi.norm_sq()
    if norm_sq == 0.0:
        raise ValueError("zero test field")
    x_grid = psi.x_grid
    lam_cell = psi.cell_volume

    m_axes, m_clipped = _alias_free_m_values(trunc.m_half, generator.grid_shape)
    m_values = [m for m in product(*m_axes)]
    # exponential family over the λ-grid nodes actually present
    lam_list = [node.lam for node in nodes]
    e_mat = np.empty((len(m_values), len(lam_list)), dtype=complex)
    for mi, m_vec in enumerate(m_values):
        for li, lam in enumerate(lam_list):
            ph = sum(float(lam[t] / generator.box.a[t]) * m_vec[t] for t in range(len(m_vec)))
            e_mat[mi, li] = np.exp(2j * np.pi * ph)

    # fiber inner products h[k, n, node] = <psi(λ), M_Bk T_n w(λ)>
    h = np.stack(
        [_fiber_pairings(node, psi.values[node.lam], trunc, x_grid, params.b) for node in nodes],
        axis=-1,
    )
    h *= np.array([psi.density[lam] for lam in lam_list])
    coeffs = h @ e_mat.T * lam_cell
    contribs = np.sum(np.abs(coeffs) ** 2, axis=-1)

    energy = 0.0
    shell_energy: dict[int, float] = {}
    # contribs[k, n] ravels in the (k outer, n inner) order of gamma_range
    for (k_vec, n_vec), contrib in zip(trunc.gamma_range(), contribs.ravel()):
        contrib = float(contrib)
        energy += contrib
        shell = max([abs(x) for x in k_vec] + [abs(x) for x in n_vec] + [0])
        shell_energy[shell] = shell_energy.get(shell, 0.0) + contrib

    last_shell = max(shell_energy) if shell_energy else 0
    tail_fraction = shell_energy.get(last_shell, 0.0) / energy if energy > 0 else 0.0
    return RatioReport(
        ratio=energy / norm_sq,
        energy=energy,
        norm_sq=norm_sq,
        m_values=tuple(tuple(m) for m in m_values),
        m_clipped=m_clipped,
        skipped_nodes=len(generator.skipped),
        tail_fraction=tail_fraction,
    )


# ---------------------------------------------------------------------------
# tiling / packing re-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TilingReport:
    passed: bool
    max_tiling_deviation: int
    max_packing_count: int
    checked_nodes: int
    worst: tuple

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_tiling_deviation": self.max_tiling_deviation,
            "max_packing_count": self.max_packing_count,
            "checked_nodes": self.checked_nodes,
        }


def window_tiling_check(
    windows: Sequence[tuple[PiecewiseBoxWindow, FiberGaborLattice]],
    resolution: int = 7,
) -> TilingReport:
    """Exact covering counts on rational validation grids.

    Tiling: over one translation cell, each point must be covered by exactly
    one lattice translate of the window support.  Packing: no point may be
    covered by two different dual-modulation translates.  The measure
    identities (support measure = translation covolume <= dual covolume) are
    checked first; they catch deleted or duplicated pieces that a finite grid
    can miss between sample points.
    """
    worst = ()
    max_dev = 0
    max_pack = 0
    for window, lattice in windows:
        trans_covol = abs(mat_det([list(r) for r in lattice.translation]))
        dual_covol = Fraction(1) / abs(mat_det([list(r) for r in lattice.modulation]))
        if window.total_measure != trans_covol:
            max_dev = max(max_dev, 1)
            worst = ("tiling_measure", lattice.lam, float(window.total_measure), float(trans_covol))
        if window.total_measure > dual_covol:
            max_pack = max(max_pack, 2)
            worst = ("packing_measure", lattice.lam, float(window.total_measure), float(dual_covol))
        d = window.d
        shape_inv = mat_inv([list(r) for r in window.shape])
        trans = [list(r) for r in lattice.translation]
        dual = mat_inv(mat_transpose([list(r) for r in lattice.modulation]))
        dual_inv = mat_inv(dual)
        trans_inv = mat_inv(trans)

        def step_radius(step_matrix_inv):
            """Candidate radius: the piece cell expressed in step units."""
            cell_in_steps = [
                mat_vec(step_matrix_inv, [window.shape[i][j] for i in range(d)])
                for j in range(d)
            ]
            return 1 + max(
                int(sum(abs(cell_in_steps[j][i]) for j in range(d))) for i in range(d)
            )

        trans_radius = step_radius(trans_inv)
        dual_radius = step_radius(dual_inv)

        def member_counts(x, step_matrix, step_matrix_inv, radius):
            """Number of integer step translates m with x - step m inside the support."""
            count = 0
            for off in window.offsets:
                rel = mat_vec(step_matrix_inv, [xi - oi for xi, oi in zip(x, off)])
                base = [v.numerator // v.denominator for v in rel]
                for delta in product(range(-radius, radius + 1), repeat=d):
                    m = [b + dd for b, dd in zip(base, delta)]
                    y = [
                        x[i] - sum(step_matrix[i][j] * m[j] for j in range(d))
                        for i in range(d)
                    ]
                    t = mat_vec(shape_inv, [yi - oi for yi, oi in zip(y, off)])
                    if all(0 <= ti < 1 for ti in t):
                        count += 1
            return count

        for idx in product(range(resolution), repeat=d):
            frac = [Fraction(2 * i + 1, 2 * resolution) for i in idx]
            x_tile = mat_vec(trans, frac)
            tiling = member_counts(x_tile, trans, trans_inv, trans_radius)
            dev = abs(tiling - 1)
            if dev > max_dev:
                max_dev = dev
                worst = ("tiling", lattice.lam, tuple(x_tile), tiling)
            x_pack = mat_vec(dual, frac)
            packing = member_counts(x_pack, dual, dual_inv, dual_radius)
            if packing > max_pack:
                max_pack = packing
                if packing > 1:
                    worst = ("packing", lattice.lam, tuple(x_pack), packing)
    return TilingReport(
        passed=(max_dev == 0 and max_pack <= 1),
        max_tiling_deviation=max_dev,
        max_packing_count=max_pack,
        checked_nodes=len(windows),
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramReport:
    diagonal_value: float
    max_diagonal_deviation: float
    max_offdiagonal: float
    entries: int

    def as_dict(self) -> dict:
        return {
            "diagonal_value": self.diagonal_value,
            "max_diagonal_deviation": self.max_diagonal_deviation,
            "max_offdiagonal": self.max_offdiagonal,
            "entries": self.entries,
        }


def _exp_integral(w: float, u: float, v: float) -> complex:
    """Integral of exp(2 pi i t w) over [u, v]."""
    if abs(w) < 1e-15:
        return complex(v - u)
    return (np.exp(2j * np.pi * v * w) - np.exp(2j * np.pi * u * w)) / (2j * np.pi * w)


class _FiberGram:
    """Closed-form Gram entries for one fiber, with geometry cached.

    Every entry is an exact piece-pair overlap computation: pieces are
    translates of one parallelepiped, so each overlap is an axis box in cell
    coordinates and the modulation integral factorizes.
    """

    def __init__(self, node: FieldNode):
        self.window = node.window
        self.lattice = node.lattice
        d = self.window.d
        self.d = d
        shape = [list(r) for r in self.window.shape]
        self.shape_inv = mat_inv(shape)
        self.shape_f = [[float(v) for v in row] for row in shape]
        self.det_s = abs(float(mat_det(shape)))
        self.trans = [list(r) for r in self.lattice.translation]
        self.mod_f = [[float(v) for v in row] for row in self.lattice.modulation]
        self.coords = [mat_vec(self.shape_inv, off) for off in self.window.offsets]
        self.offsets_f = [[float(o) for o in off] for off in self.window.offsets]
        from collections import defaultdict

        self.buckets: dict = defaultdict(list)
        for j, c in enumerate(self.coords):
            key = tuple((v.numerator // v.denominator) for v in c)
            self.buckets[key].append(j)
        self.offsets_arr = np.array(self.offsets_f) if self.offsets_f else np.zeros((0, d))

    def entry(
        self,
        gamma: tuple[tuple[int, ...], tuple[int, ...]],
        gamma2: tuple[tuple[int, ...], tuple[int, ...]],
    ) -> complex:
        d = self.d
        k1, n1 = gamma
        k2, n2 = gamma2
        dk = [a - b for a, b in zip(k1, k2)]
        dn = [a - b for a, b in zip(n1, n2)]
        if all(v == 0 for v in dk) and all(v == 0 for v in dn):
            return complex(self.window.norm_sq)
        xi = [sum(self.mod_f[i][j] * dk[j] for j in range(d)) for i in range(d)]
        s_t_xi = [sum(self.shape_f[i][j] * xi[i] for i in range(d)) for j in range(d)]
        phase0 = sum(
            float(sum(self.trans[i][j] * n2[j] for j in range(d))) * xi[i] for i in range(d)
        )
        if all(v == 0 for v in dn):
            # zero relative translation: disjoint pieces only overlap
            # themselves, so the pair sum collapses to the diagonal
            prod_val = 1.0 + 0.0j
            for t in range(d):
                prod_val *= _exp_integral(s_t_xi[t], 0.0, 1.0)
            phases = self.offsets_arr @ np.array(xi)
            exp_sum = complex(np.sum(np.exp(2j * np.pi * phases)))
            return (
                self.window.scale**2
                * self.det_s
                * np.exp(2j * np.pi * phase0)
                * exp_sum
                * prod_val
            )
        t_dn = [sum(self.trans[i][j] * dn[j] for j in range(d)) for i in range(d)]
        shift_coord = mat_vec(self.shape_inv, t_dn)

        total = 0.0 + 0.0j
        for i, ci in enumerate(self.coords):
            target = [ci[t] - shift_coord[t] for t in range(d)]
            base = [v.numerator // v.denominator for v in target]
            acc = 0.0 + 0.0j
            for delta in product((-1, 0, 1), repeat=d):
                for j in self.buckets.get(tuple(b + dd for b, dd in zip(base, delta)), ()):
                    cj = self.coords[j]
                    delta_c = [cj[t] + shift_coord[t] - ci[t] for t in range(d)]
                    if not all(abs(v) < 1 for v in delta_c):
                        continue
                    prod_val = 1.0 + 0.0j
                    for t in range(d):
                        u = max(0.0, float(delta_c[t]))
                        vv = min(1.0, 1.0 + float(delta_c[t]))
                        prod_val *= _exp_integral(s_t_xi[t], u, vv)
                    acc += prod_val
            if acc != 0.0:
                phase = sum(self.offsets_f[i][t] * xi[t] for t in range(d))
                total += np.exp(2j * np.pi * phase) * acc
        return self.window.scale**2 * self.det_s * np.exp(2j * np.pi * phase0) * total


def gram_orthonormality_check(
    generator: FrameGeneratorField,
    params: QuasiLatticeParams,
    trunc: TruncationSpec,
) -> GramReport:
    """Gram matrix of the quasi-lattice system in the spectral domain.

    The diagonal equals the generator's squared norm (reported as the basis
    witness); off-diagonal magnitudes measure deviation from orthogonality
    over the truncated index set.
    """
    gammas = list(trunc.gamma_range())
    if not gammas:
        raise SchemaError("trunc", "empty gamma range")
    cell = float(generator.cell_volume)
    inv_prod_a = 1.0 / float(generator.params.prod_a)
    helpers = [_FiberGram(node) for node in generator.nodes]
    diag_vals = []
    max_off = 0.0
    count = 0
    for gi, g1 in enumerate(gammas):
        for g2 in gammas[gi:]:
            val = 0.0 + 0.0j
            for helper in helpers:
                val += helper.entry(g1, g2)
            val *= cell * inv_prod_a
            count += 1
            if g1 == g2:
                diag_vals.append(float(val.real))
            else:
                max_off = max(max_off, float(abs(val)))
    diag = float(np.mean(diag_vals))
    max_dev = max(abs(v - 1.0) for v in diag_vals)
    return GramReport(
        diagonal_value=diag,
        max_diagonal_deviation=max_dev,
        max_offdiagonal=max_off,
        entries=count,
    )
