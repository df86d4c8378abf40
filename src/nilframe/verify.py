"""Independent numerical verification of the frame identities.

Everything here works in the fiberized picture, with two oracles for the
Parseval identities.

The exact-in-k oracle (``PeriodizedFiber``, ``periodized_frame_ratio``) is
what ``nilframe verify`` runs.  Poisson summation over the dual modulation
lattice sums every modulation of a fiber at once, so a fiber's energy
against a Gaussian test is a periodized sum over samples that are
enumerated only where the test lives; windows are read through their
integer piece cells, and the translations by residues modulo the
translation cells.  Nothing is truncated.  The frame energy of a field
amp(λ) f(x) is then the density-weighted sum of its fiber energies over one
alias period of the λ-grid.

The truncated oracle (``fiber_parseval_defect``, ``frame_energy_ratio``,
``make_test_field``) is the library's reference.  No command runs it and
no config key sizes it: callers pass their own ``XGrid``
(``make_aligned_grid``) and ``TruncationSpec``.  Representations act on
sampled functions over the aligned x-grid, inner products are rectangle-rule
quadratures over a finite k, n range, and the full frame energy is
accumulated through the coefficient formula (fiber inner products, weighted
by the Plancherel density, expanded against the exponential family of the
spectral box), with the energy of the last shell reported as its tail.
Modulations factor over the axes of the product x-grid,
exp(-2 pi i x.Bk) = prod_a exp(-2 pi i x_a (Bk)_a): with one phase table
per axis and node, each (translation, node) pair costs one matrix product
for every k at once.

The λ side is read from the generator field alone: its usable nodes, their
float densities |det B(λ)| and its cell volume; a test field of the
truncated oracle holds only x-samples, one array per usable node.  The
λ-grid Fourier step is exact at grid level: coefficients are taken over one
alias period of the grid, a N/(hi - lo) per axis for N nodes on [lo, hi] (a
fractional period is rejected by both oracles), so requesting more central
indices than the grid resolves cannot double-count energy; the clipping is
reported, never hidden.

The tiling certificate and the Gram diagnostic read one piece-cell view of
each window (``PiecewiseBoxWindow.cells``, ``translation_cells`` and
``dual_cells``).  Its cells and translations are integer, so every overlap
of a piece with a translate of another piece is whole or empty.

This is the package's only numpy consumer, and it loads numpy on first use:
validation, the spectral certificates, lattice design and synthesis run on
Python integers and Fractions alone, so only the frame oracle pays numpy's
import.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import CertificationError, MisalignedGridError, SchemaError
from .intlattice import (
    cell_packs,
    cleared_denominators,
    divide_exact,
    hnf_columns,
    integer_inverse,
    lll_columns,
    mat_det,
    mat_mul,
    mat_transpose,
    mat_vec,
    residue,
)
from .lattice import FiberGaborLattice, QuasiLatticeParams
from .rationals import format_rational, format_rational_vector
from .windows import FieldNode, FrameGeneratorField, PiecewiseBoxWindow


def _lazy_numpy():
    """numpy bound without executing it: the first attribute access loads it.

    On Python 3.10 and 3.11 that first access is not thread-safe, which is
    fine because the command line runs on one thread."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _lazy_numpy()


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
                raise ValueError(f"{name}_half: half-widths must be non-negative, got {vec}")

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
    """x-samples of a spectral-domain field at the usable nodes of a
    generator field: ``values`` maps each node's λ to its samples on
    ``x_grid``.  The λ-grid, cell volume and densities are the generator's."""

    x_grid: XGrid
    values: dict[tuple[Fraction, ...], np.ndarray]

    def norm_sq(self, generator: FrameGeneratorField) -> float:
        """Quadrature of the spectral norm over the generator's nodes."""
        total = 0.0
        xcell = self.x_grid.cell_volume
        lam_cell = float(generator.cell_volume)
        for node in generator.nodes:
            arr = self.values[node.lam]
            total += float(np.sum(np.abs(arr) ** 2)) * xcell * node.density * lam_cell
        return total


def make_test_field(
    generator: FrameGeneratorField,
    x_grid: XGrid,
    spectral_profile: Callable[[np.ndarray], np.ndarray],
    space_profile: Callable[[list[np.ndarray]], np.ndarray],
) -> BandlimitedField:
    """Product-form field profile(λ) * profile(x), sampled at the usable
    nodes of the generator; skipped nodes get no array."""
    base = np.asarray(space_profile(x_grid.mesh()), dtype=complex)
    values = {}
    for node in generator.nodes:
        amp = complex(spectral_profile(np.array([float(x) for x in node.lam])))
        values[node.lam] = amp * base
    return BandlimitedField(x_grid=x_grid, values=values)


def gaussian_profile(centers: Sequence[float], widths: Sequence[float]):
    def profile(mesh: list[np.ndarray]) -> np.ndarray:
        out = np.ones_like(mesh[0], dtype=float)
        for m, c, w in zip(mesh, centers, widths):
            out = out * np.exp(-((m - c) ** 2) / (2.0 * w * w))
        return out

    return profile


def bump_profile(center: float | Sequence[float], width: float | Sequence[float]):
    """Gaussian bump in λ; center and width are scalars or per-axis lists."""

    def profile(lam: np.ndarray) -> float:
        r = float(np.sum(((lam - center) / width) ** 2))
        return math.exp(-r / 2.0)

    return profile


# ---------------------------------------------------------------------------
# fiber representation
# ---------------------------------------------------------------------------


def sample_window(window: PiecewiseBoxWindow, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Float indicator values of the window's pieces on a product grid;
    returns an array shaped like the grid."""
    num, den = window._shape_inv
    inv = np.array([[float(Fraction(v, den)) for v in row] for row in num])
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=0)  # (d, npts)
    out = np.zeros(pts.shape[1], dtype=bool)
    for off in window.offsets:
        t = inv @ (pts - np.array([[float(o)] for o in off]))
        inside = np.all((t >= 0.0) & (t < 1.0), axis=0)
        out |= inside
    return out.reshape(mesh[0].shape).astype(float)


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
    w = sample_window(node.window, axes) * node.window.scale * node.normalization
    tables = _phase_tables(
        node.lattice.modulation, list(product(*[range(-h, h + 1) for h in trunc.k_half])), axes
    )
    n_vecs = list(product(*[range(-h, h + 1) for h in trunc.n_half]))
    out = np.zeros((len(tables[0]), len(n_vecs)), dtype=complex)
    for ni, n_vec in enumerate(n_vecs):
        steps = x_grid.shift_steps(n_vec, b)
        if any(abs(s) >= n for s, n in zip(steps, w.shape)):
            continue  # the translate leaves the grid
        wn = _shift_with_zeros(w, steps)
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


def fiber_parseval_defect(
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
    r_val = node.density
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


def _alias_free_m_values(m_half: Sequence[int], generator: FrameGeneratorField):
    """Central index lists per axis, clipped to one alias period of the grid:
    N nodes on [lo, hi] step by (hi - lo)/N, so the phases λ/a of m and of
    m + a N/(hi - lo) differ by one constant; that period must be an integer."""
    axes = []
    clipped = False
    for h, period in zip(m_half, alias_periods(generator)):
        count = min(2 * h + 1, period)
        clipped = clipped or count < 2 * h + 1
        axes.append(list(range(-((count - 1) // 2), count // 2 + 1)))
    return axes, clipped


def frame_energy_ratio(
    psi: BandlimitedField,
    generator: FrameGeneratorField,
    trunc: TruncationSpec,
) -> RatioReport:
    """Frame energy of psi against the generator's quasi-lattice system,
    relative to the spectral norm of psi.

    psi holds x-samples at every usable node of the generator (as
    ``make_test_field`` builds it) on an x-grid aligned to
    ``generator.params.b``; the λ-grid, cell volume and densities are the
    generator's.  For each reduced-lattice element the fiber inner products
    weighted by the density are expanded against the exponential family of
    the box over the λ-grid; the central index range is clipped to one alias
    period of the grid and the clipping is reported.  A Parseval system
    drives the ratio to one from below as truncations grow.
    """
    nodes = generator.nodes
    if not nodes:
        raise SchemaError("verify", "generator field has no usable nodes")
    missing = [node.lam for node in nodes if node.lam not in psi.values]
    if missing:
        lam = ", ".join(format_rational(x) for x in missing[0])
        raise SchemaError("verify", f"psi has no samples at λ = ({lam})")
    norm_sq = psi.norm_sq(generator)
    if norm_sq == 0.0:
        raise ValueError("zero test field")

    m_axes, m_clipped = _alias_free_m_values(trunc.m_half, generator)
    m_values = list(product(*m_axes))
    # exponential family over the usable nodes, from each node's phases λ_t/a_t
    a = generator.box.a
    phases = [[float(lam_t / a_t) for lam_t, a_t in zip(node.lam, a)] for node in nodes]
    e_mat = np.empty((len(m_values), len(nodes)), dtype=complex)
    for mi, m_vec in enumerate(m_values):
        for li, node_phases in enumerate(phases):
            ph = sum(p * m for p, m in zip(node_phases, m_vec))
            e_mat[mi, li] = np.exp(2j * np.pi * ph)

    # fiber inner products h[k, n, node] = <psi(λ), M_Bk T_n w(λ)>
    b = generator.params.b
    h = np.stack(
        [_fiber_pairings(node, psi.values[node.lam], trunc, psi.x_grid, b) for node in nodes],
        axis=-1,
    )
    h *= np.array([node.density for node in nodes])
    coeffs = h @ e_mat.T * float(generator.cell_volume)
    contribs = np.sum(np.abs(coeffs) ** 2, axis=-1)

    energy = tail = 0.0
    last_shell = max((*trunc.k_half, *trunc.n_half), default=0)
    # contribs[k, n] ravels in the (k outer, n inner) order of gamma_range
    for (k_vec, n_vec), contrib in zip(trunc.gamma_range(), contribs.ravel()):
        energy += float(contrib)
        if max(map(abs, k_vec + n_vec), default=0) == last_shell:
            tail += float(contrib)
    tail_fraction = tail / energy if energy > 0 else 0.0
    return RatioReport(
        ratio=energy / norm_sq,
        energy=energy,
        norm_sq=norm_sq,
        m_clipped=m_clipped,
        skipped_nodes=len(generator.skipped),
        tail_fraction=tail_fraction,
    )


# ---------------------------------------------------------------------------
# exact-in-k oracle by periodization
# ---------------------------------------------------------------------------

# most samples one sample set of one fiber may hold; past it CertificationError
FIBER_SAMPLE_LIMIT = 1_000_000
# sample offsets in steps along the reduced basis: irrational, so no sample
# lies on a piece boundary, whose coordinates are rational
_THETA = (1e-3 * math.sqrt(2), 1e-3 * math.sqrt(3), 1e-3 * math.sqrt(5))
# a Gaussian test is sampled over its centre +- this many widths per axis
_BOX_WIDTHS = 10
# integer work arrays stay below this, well inside int64
_INT_LIMIT = 2**62


class PeriodizedFiber:
    """Exact-in-k Parseval ratios of one node's fiber Gabor system.

    The system is the CLI's: sqrt(prod a * density) M_Ck T_Tn applied to the
    normalized window, that is the plain Gabor system of g = scale 1_E with
    scale^2 = |det C|.  Poisson summation over the dual modulation lattice
    C^-tr Z^d sums every k at once:
        sum_k |<f, M_Ck T_Tn g>|^2 = |det C|^-1 mean_u |H_n(u)|^2,
        H_n(u) = sum_m f(x) 1_E(x - Tn),  x = L (u + m),
    with L any basis of C^-tr Z^d, u over its unit cell and m over Z^d; the
    m-sum is taken, so packing is not assumed.  Samples are
    x = L (j + 1/2 + theta) / N per basis axis, N_j = ceil(2 |L_j| / sigma)
    for the smallest test width sigma, and only those within 10 widths of a
    test's centre are enumerated; L is LLL-reduced to keep that set tight.
    A sample lies in E + Tn exactly when its piece cell c = floor(P^-1 x)
    equals V + A n for a piece cell V, with A = P^-1 T: the residue of c
    modulo A Z^d names the piece and c - V = A n names n, so the n-sum is a
    group-by on (u, c - V).  Cells are found in integer arithmetic and a
    residue holding several pieces (a broken window) adds each of them.

    The samples come as lines along the last basis axis, so cells are an
    int64 matrix product per line plus one step per sample.  A call takes a
    fast path that reads every sample's piece in place when the window has
    one layer (no residue holds two pieces) and every sample of the call
    finds a piece, as on every tiling window; otherwise it takes one pass
    per layer of pieces sharing a residue.
    """

    def __init__(self, node: FieldNode):
        window, lattice = node.window, node.lattice
        self.lam = node.lam
        d = window.d
        mod, mod_den = cleared_denominators(lattice.modulation)
        dual, dual_den = integer_inverse(mat_transpose(mod), mod_den)
        self.det_c = abs(dual_den / mod_den**d)  # dual_den = det(mod)
        # the wide defect test's width: C^-tr Z^d has cell volume sigma^(2d)
        self.wide_width = min(self.det_c ** (-1.0 / (2 * d)), 3.0)
        basis = lll_columns(dual)  # L = basis / dual_den
        self._basis = np.array(basis, dtype=float) / dual_den
        self._basis_norms = np.sqrt(np.sum(self._basis**2, axis=0)).tolist()
        self._offset = 0.5 + np.array(_THETA[:d])
        # the axes that lines along the last basis vector cross, and those
        # they run parallel to
        self._still = [a for a in range(d) if not basis[a][-1]]
        self._moving = np.flatnonzero([row[-1] for row in basis]) if self._still else slice(None)
        inv, inv_den = window._shape_inv
        # P^-1 L = to_cells / to_cells_den, the map from basis coordinates to
        # piece-cell coordinates, over a positive denominator
        den = inv_den * dual_den
        self._to_cells = [[x if den > 0 else -x for x in row] for row in mat_mul(inv, basis)]
        self._to_cells_den = abs(den)
        self._cells = np.array(window.cells, dtype=np.int64).reshape(-1, d).T
        self._hnf = hnf_columns(window.translation_cells(lattice))
        radix = [self._hnf[i][i] for i in range(d)]
        self._res_strides = [math.prod(radix[i + 1 :]) for i in range(d)]
        # one lookup per layer of pieces sharing a residue: code -> piece or -1
        self._layers: list[np.ndarray] = []
        seen: Counter = Counter()
        for j, v in enumerate(window.cells):
            code = sum(map(mul, residue(v, self._hnf), self._res_strides))
            if seen[code] == len(self._layers):
                self._layers.append(np.full(math.prod(radix), -1, dtype=np.int64))
            self._layers[seen[code]][code] = j
            seen[code] += 1

    def _budget_error(self, what: str) -> CertificationError:
        return CertificationError(
            f"periodized fiber at λ = ({', '.join(format_rational_vector(self.lam))}): {what}"
        )

    def ratios(
        self, tests: Sequence[tuple[Sequence[float], Sequence[float]]]
    ) -> tuple[list[float], int]:
        """Fiber energy over squared norm for each Gaussian test
        exp(-|x - centre|^2 / (2 width^2)) per axis, given as (centres,
        widths); the tests share one sample set.  Returns the ratios and the
        sample count.  CertificationError when the set would pass
        FIBER_SAMPLE_LIMIT or integer coordinates would leave int64."""
        d = len(self._basis)
        sigma = min(min(widths) for _, widths in tests)
        lo = [min(c[a] - _BOX_WIDTHS * w[a] for c, w in tests) for a in range(d)]
        hi = [max(c[a] + _BOX_WIDTHS * w[a] for c, w in tests) for a in range(d)]
        steps = [math.ceil(2 * n / sigma) for n in self._basis_norms]
        fine = self._basis / steps  # the sample lattice's basis
        origin = fine @ self._offset
        prefixes, first, counts, total = self._sample_lines(fine, origin, lo, hi)

        # piece cells: t = P^-1 x = R (2k + 1 + 2 theta) / 2 with R = num / den,
        # and 2 R theta lies strictly between two integers
        num, den = self._cell_map(steps)
        shift = [math.floor(2 * sum(map(mul, row, _THETA))) for row in num]
        # |k| per coordinate: the prefixes', then each line's first and last
        k_max = np.abs(np.concatenate([prefixes, [first, first + counts - 1]]))
        k_max = k_max.max(axis=1, initial=0).tolist()
        k_max[-2:] = [max(k_max[-2:])]
        if 2 * den >= _INT_LIMIT or any(
            sum(abs(r) * (2 * m + 1) for r, m in zip(row, k_max)) + abs(s) >= _INT_LIMIT
            for row, s in zip(num, shift)
        ):
            raise self._budget_error("piece cells pass the int64 range")
        # cells = floor((2 num k + num 1 + shift) / (2 den)): the prefixes'
        # part once per line, the last coordinate's per sample
        num2 = 2 * np.array(num, dtype=np.int64)
        base = num2[:, :-1] @ prefixes
        base += np.array([sum(row) + s for row, s in zip(num, shift)], dtype=np.int64)[:, None]
        block = np.repeat(
            np.concatenate([[first - (np.cumsum(counts) - counts)], base, prefixes]),
            counts,
            axis=1,
        )
        along, cells = block[0], block[1 : d + 1]
        along += np.arange(total)
        cells += num2[:, -1:] * along
        cells //= 2 * den
        # column-major: the einsum for x below sums in an order that follows
        # k's layout, and so do x's last bits; the reference oracle in the
        # tests reads k in this layout too
        k = np.empty((total, d), dtype=np.int64).T
        k[:-1] = block[d + 1 :]
        k[-1] = along

        codes = self._residue_codes(cells)
        piece = self._layers[0][codes]
        rows = None
        if len(self._layers) == 1 and piece.min(initial=0) >= 0:
            # every sample in its residue's one piece
            cells -= self._cells.take(piece, axis=1)
            diffs = cells  # = A n
        else:
            rows, diffs = [], []
            for lookup in self._layers:
                piece = lookup[codes]
                hit = np.flatnonzero(piece >= 0)
                rows.append(hit)
                diffs.append(cells[:, hit] - self._cells[:, piece[hit]])  # = A n
            rows = np.concatenate(rows)
            diffs = np.concatenate(diffs, axis=1)
            k = k[:, rows]

        # group on (u, A n), u by its step index on each basis axis
        low = diffs.min(axis=1, initial=0)
        spans = (diffs.max(axis=1, initial=0) - low + 1).tolist()
        if math.prod(steps) * math.prod(spans) >= _INT_LIMIT:
            raise self._budget_error("(u, n) keys pass the int64 range")
        # the key's u digits: those of the first d - 1 axes are one number
        # per line, the last axis's runs along it
        u_line = np.zeros(len(first), dtype=np.int64)
        for p, n, n_next in zip(prefixes, steps, steps[1:]):
            u_line += p - p // n * n
            u_line *= n_next
        keys = np.repeat(u_line, counts)
        keys += along - along // steps[-1] * steps[-1]
        if rows is not None:
            keys = keys[rows]
        for diff, lo_j, n in zip(diffs, low.tolist(), spans):
            keys *= n
            diff -= lo_j
            keys += diff
        _, groups = np.unique(keys, return_inverse=True)

        x = np.einsum("ij,js->is", fine, k)
        x += origin[:, None]
        z = np.empty_like(x)
        out = []
        for centers, widths in tests:
            np.subtract(x, np.array(centers)[:, None], out=z)
            z /= np.array(widths)[:, None]
            weights = np.einsum("ij,ij->j", z, z)
            weights *= -0.5
            sums = np.bincount(groups, weights=np.exp(weights, out=weights))
            norm_sq = math.prod(w * math.sqrt(math.pi) for w in widths)
            out.append(float(sums @ sums) / (self.det_c * math.prod(steps) * norm_sq))
        return out, total

    def _cell_map(self, steps: Sequence[int]) -> tuple[list[list[int]], int]:
        """P^-1 L diag(steps)^-1 as integer numerators over the least common
        denominator of its entries."""
        den_in = [self._to_cells_den * n for n in steps]
        gcds = [[math.gcd(x, e) for x, e in zip(row, den_in)] for row in self._to_cells]
        den = math.lcm(*(e // g for row in gcds for e, g in zip(den_in, row)))
        return [
            [x // g * (den // (e // g)) for x, e, g in zip(row, den_in, grow)]
            for row, grow in zip(self._to_cells, gcds)
        ], den

    def _residue_codes(self, cells: np.ndarray) -> np.ndarray:
        """Code sum_i stride_i r_i of each cell's residue r modulo A Z^d,
        reduced row by row as ``residue`` does."""
        h = self._hnf
        codes = np.zeros(cells.shape[1], dtype=np.int64)
        quotients = []
        for j, (t, stride) in enumerate(zip(cells, self._res_strides)):
            for q, h_jl in zip(quotients, h[j]):
                if h_jl:
                    t = t - q * h_jl
            if h[j][j] == 1:  # residue 0
                quotients.append(t)
                continue
            q = t // h[j][j]
            quotients.append(q)
            r = t - q * h[j][j]
            if stride != 1:
                r *= stride
            codes += r
        return codes

    def _sample_lines(self, fine: np.ndarray, origin: np.ndarray, lo, hi):
        """The integer k with fine @ k + origin in the box [lo, hi], as lines
        along the last coordinate: the first d - 1 coordinates (a prefix) run
        over the box's bounding range, the last over the exact interval
        where the prefix's line meets the box.  Returns the (d - 1, lines)
        prefixes, first last coordinates and sample counts of the lines that
        meet the box, and the sample count."""
        d = len(lo)
        box = np.array([lo, hi])
        lo, hi = box
        inv = np.linalg.inv(fine)
        centre = inv @ ((lo + hi) / 2 - origin)
        reach = np.abs(inv) @ ((hi - lo) / 2)
        ranges = [
            (math.ceil(c - r), math.floor(c + r) + 1) for c, r in zip(centre[:-1], reach[:-1])
        ]
        prefix_count = math.prod(max(stop - start, 0) for start, stop in ranges)
        if prefix_count > FIBER_SAMPLE_LIMIT:
            raise self._budget_error(f"{prefix_count} sample lines, over {FIBER_SAMPLE_LIMIT}")
        axes = [np.arange(start, stop) for start, stop in ranges]
        prefixes = np.array(np.meshgrid(*axes, indexing="ij") if d > 2 else axes, dtype=np.int64)
        prefixes = prefixes.reshape(d - 1, prefix_count)
        start = fine[:, :-1] @ prefixes + origin[:, None]
        step = fine[:, -1]
        moving = self._moving
        # where each line crosses the box's two faces on every axis it crosses
        ends = (box[:, moving, None] - start[moving]) / step[moving, None]
        first = np.ceil(np.minimum(*ends).max(axis=0))
        last = np.floor(np.maximum(*ends).min(axis=0))
        for a in self._still:
            last[(start[a] < lo[a]) | (start[a] > hi[a])] = -np.inf
        counts = last - first + 1  # first is finite: L is nonsingular
        counts = counts.clip(0, out=counts).astype(np.int64)
        total = int(counts.sum())
        if total > FIBER_SAMPLE_LIMIT:
            raise self._budget_error(f"{total} samples, over {FIBER_SAMPLE_LIMIT}")
        first = first.astype(np.int64)
        if counts.all():
            return prefixes, first, counts, total
        hit = counts > 0
        return prefixes[:, hit], first[hit], counts[hit], total


def alias_periods(generator: FrameGeneratorField) -> list[int]:
    """The λ-grid's alias period per central axis, a N/(hi - lo) for N nodes
    on [lo, hi]: the central indices m and m + period give the same phases
    λ/a on the grid.  A period that is not an integer raises SchemaError."""
    (lo, hi), = generator.box.region()
    periods = []
    for t, n_nodes in enumerate(generator.grid_shape):
        period = generator.box.a[t] * n_nodes / (hi[t] - lo[t])
        if period.denominator != 1:
            raise SchemaError(
                "verify",
                f"λ-grid axis {t}: alias period {format_rational(period)} is not an integer",
            )
        periods.append(int(period))
    return periods


def periodized_frame_ratio(
    generator: FrameGeneratorField,
    spectral_profile: Callable[[np.ndarray], float],
    widths: Sequence[float],
    fiber_ratios: Sequence[float],
) -> RatioReport:
    """Frame energy ratio of the field amp(λ) f(x), f a Gaussian of the
    given widths, from its exact fiber ratios r_λ at the usable nodes.

    Over one whole alias period of the central indices the λ-grid's
    exponential family is orthogonal, so the frame energy is the
    density-weighted sum of fiber energies and the ratio is
    sum rho |amp|^2 r_λ / sum rho |amp|^2; a fractional period raises
    SchemaError.  Nothing is truncated: ``tail_fraction`` is 0 and
    ``m_clipped`` False."""
    alias_periods(generator)
    scale = float(generator.cell_volume) * math.prod(w * math.sqrt(math.pi) for w in widths)
    weights = [
        node.density * spectral_profile(np.array([float(x) for x in node.lam])) ** 2
        for node in generator.nodes
    ]
    norm_sq = scale * sum(weights)
    energy = scale * sum(w * r for w, r in zip(weights, fiber_ratios))
    return RatioReport(
        ratio=energy / norm_sq,
        energy=energy,
        norm_sq=norm_sq,
        m_clipped=False,
        skipped_nodes=len(generator.skipped),
        tail_fraction=0.0,
    )


# ---------------------------------------------------------------------------
# tiling / packing certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TilingReport:
    passed: bool
    max_tiling_deviation: int
    max_packing_count: int
    checked_nodes: int
    worst: tuple

    def as_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "max_tiling_deviation": self.max_tiling_deviation,
            "max_packing_count": self.max_packing_count,
            "checked_nodes": self.checked_nodes,
        }
        if not self.passed:
            kind, lam, detail = self.worst
            out["worst"] = {"kind": kind, "lam": format_rational_vector(lam), "detail": detail}
        return out


def window_tiling_check(
    windows: Sequence[tuple[PiecewiseBoxWindow, FiberGaborLattice]],
) -> TilingReport:
    """Exact tiling and packing certificate in piece-cell coordinates.

    The window's piece-cell view (``PiecewiseBoxWindow.cells``,
    ``translation_cells`` and ``dual_cells``, with P the shape the pieces
    share) turns every piece into the unit cube at V = P^{-1} offset, the
    translations into A = P^{-1} T and the dual modulations into
    D = P^{-1} C^{-tr}.  A window whose A and V are integer tiles iff V is a
    complete residue system modulo A Z^d; each class of A Z^d counts its
    pieces, and an uncovered class deviates by one.  It packs iff the
    residues of V modulo D Z^d are distinct when D is integer, or, for a
    single piece, iff the open cube (-1,1)^d holds no nonzero dual vector.
    Identical pieces never pack.  Any other window is reported as
    uncertifiable and fails.  Only the window and the lattice are read; the
    synthesizer is never called.
    """
    worst: tuple = ()
    max_dev = 0
    max_pack = 0
    certified = True
    for window, lattice in windows:
        try:
            trans, cubes = window.translation_cells(lattice), window.cells
        except ValueError:
            certified = False
            worst = ("uncertifiable", lattice.lam, "translations or pieces off the piece grid")
            continue
        h = hnf_columns(trans)
        counts = Counter(residue(v, h) for v in cubes)
        uncovered = len(counts) < abs(mat_det(trans))
        dev = max([abs(c - 1) for c in counts.values()] + [int(uncovered)])
        if dev:
            worst = ("tiling", lattice.lam, dev)
        max_dev = max(max_dev, dev)

        dual, dual_den = window.dual_cells(lattice)
        if all(x % dual_den == 0 for row in dual for x in row):
            h = hnf_columns(divide_exact(dual, dual_den))
            pack = max(Counter(residue(v, h) for v in cubes).values(), default=0)
        elif len(set(cubes)) <= 1:
            pack = len(cubes)
            if cubes and not cell_packs(*integer_inverse(dual, dual_den)):
                pack = max(pack, 2)
        else:
            certified = False
            worst = ("uncertifiable", lattice.lam, "distinct pieces off the dual lattice grid")
            continue
        if pack > 1:
            worst = ("packing", lattice.lam, pack)
        max_pack = max(max_pack, pack)
    return TilingReport(
        passed=(certified and max_dev == 0 and max_pack <= 1),
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


class _FiberGram:
    """Closed-form Gram entries for one fiber from its integer piece cells V
    and translations A: a piece meets a translate of a piece wholly or not at
    all, so with xi = B dk every entry, the diagonal included, is
    scale^2 |det P| e^{2 pi i (T n').xi} prod_t E((P^tr xi)_t)
    sum_i count[V_i - A dn] e^{2 pi i offset_i.xi}, with E(w) the integral of
    e^{2 pi i t w} over [0, 1] and count the multiplicity of a cell.  A
    window off the integer grid raises ValueError.
    """

    def __init__(self, node: FieldNode):
        window = node.window
        self.weight = window.scale**2 * float(window.piece_measure)
        self.cells = window.cells
        self.counts = Counter(self.cells)
        self.trans_cells = window.translation_cells(node.lattice)
        # T n' goes to floats as integer sums over one common denominator,
        # rounded once like the exact product
        self.trans_num, self.trans_den = cleared_denominators(node.lattice.translation)
        self.shape_f = [[float(v) for v in row] for row in window.shape]
        self.mod_f = [[float(v) for v in row] for row in node.lattice.modulation]
        self.offsets_f = np.array(window.offsets, dtype=float).reshape(-1, window.d)
        self.weights: dict = {}  # counts per relative translation dn, None when all zero

    def entry(
        self,
        gamma: tuple[tuple[int, ...], tuple[int, ...]],
        gamma2: tuple[tuple[int, ...], tuple[int, ...]],
    ) -> complex:
        (k1, n1), (k2, n2) = gamma, gamma2
        dk = [a - b for a, b in zip(k1, k2)]
        dn = tuple(a - b for a, b in zip(n1, n2))
        if dn not in self.weights:
            shift = mat_vec(self.trans_cells, dn)
            counts = [self.counts[tuple(x - s for x, s in zip(v, shift))] for v in self.cells]
            self.weights[dn] = np.array(counts, dtype=float) if any(counts) else None
        weights = self.weights[dn]
        if weights is None:
            return 0j  # no piece meets a translate: the sum is empty
        d = len(dk)
        xi = [sum(row[j] * dk[j] for j in range(d)) for row in self.mod_f]
        edge = 1.0 + 0.0j
        for t in range(d):
            w = sum(self.shape_f[i][t] * xi[i] for i in range(d))
            if abs(w) >= 1e-15:  # E(w), and E(0) = 1
                edge *= (np.exp(2j * np.pi * w) - 1) / (2j * np.pi * w)
        phase0 = sum(x / self.trans_den * w for x, w in zip(mat_vec(self.trans_num, n2), xi))
        exp_sum = complex(np.sum(weights * np.exp(2j * np.pi * (self.offsets_f @ np.array(xi)))))
        return self.weight * np.exp(2j * np.pi * phase0) * exp_sum * edge


def gram_orthonormality_check(generator: FrameGeneratorField, half: int) -> GramReport:
    """Gram matrix of the generator's quasi-lattice system in the spectral
    domain, over the indices k, n in {-half, ..., half}^d (k outer, n inner).

    Every entry, the diagonal included, comes from one closed-form fiber
    formula.  The diagonal is the same for every index and equals the
    generator's squared norm (reported as the basis witness); off-diagonal
    magnitudes measure deviation from orthogonality.
    """
    if half < 0:
        raise ValueError(f"half must be non-negative, got {half}")
    cube = list(product(range(-half, half + 1), repeat=len(generator.params.b)))
    gammas = list(product(cube, cube))
    cell = float(generator.cell_volume)
    inv_prod_a = 1.0 / float(generator.params.prod_a)
    helpers = [_FiberGram(node) for node in generator.nodes]
    diag = sum(helper.entry(gammas[0], gammas[0]).real for helper in helpers) * (cell * inv_prod_a)
    max_off = 0.0
    for gi, g1 in enumerate(gammas):
        for g2 in gammas[gi + 1 :]:
            val = 0.0 + 0.0j
            for helper in helpers:
                val += helper.entry(g1, g2)
            val *= cell * inv_prod_a
            max_off = max(max_off, float(abs(val)))
    return GramReport(
        diagonal_value=diag,
        max_diagonal_deviation=abs(diag - 1.0),
        max_offdiagonal=max_off,
        entries=len(gammas) * (len(gammas) + 1) // 2,
    )
