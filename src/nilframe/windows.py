"""Fiber window synthesis by cut-and-stack, and generator fields.

A fiber Gabor system with translations along T = diag(1/b_i) and modulations
along C = (modulation matrix) D(q) carries a Parseval window of the painless
kind whenever its lattice volume is at most one: take the indicator of a set
E that tiles the space under T Z^d while packing modulo the dual modulation
lattice C^{-tr} Z^d, scaled by |det C|^(1/2).

The set E is assembled exactly.  In sheared coordinates u = C^tr x the tiling
lattice becomes G Z^d with G = C^tr T and the packing lattice becomes Z^d.
When the plain cell G [0,1)^d already packs, it is used directly (one piece).
Otherwise let W be a basis of the lattice S generated by G Z^d and Z^d
together.  In W-coordinates v = W^{-1} u both lattices are integer, spanned by
W^{-1} G and W^{-1}, and each piece is the unit cube at an integer point, a
fundamental cell of S.  One piece is placed per class of S modulo G Z^d,
moved by G-translates until its residue modulo W^{-1} Z^d is fresh, so the
stack tiles under G Z^d and packs modulo Z^d by construction.  Only the
finished pieces go back to x: they share the shape P = C^{-tr} W and sit at
P v, so v is also the piece-cell coordinate P^{-1} x.  The frame verifier
certifies tiling and packing again from the window and the lattice alone,
with the same integer residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import (
    DegenerateFiberError,
    DensityViolationError,
    PieceOverflowError,
    SchemaError,
)
from .intlattice import (
    cell_packs,
    cleared_denominators,
    hnf_columns,
    integer_matrix,
    lattice_sum_basis,
    mat_det,
    mat_inv,
    mat_mul,
    mat_transpose,
    mat_vec,
    residue,
)
from .lattice import FiberGaborLattice, QuasiLatticeParams, fiber_lattice
from .rationals import format_rational
from .spectral import MeasureResult, SpectrumBox


@dataclass(frozen=True)
class PiecewiseBoxWindow:
    """Scaled indicator of finitely many disjoint parallelepipeds.

    Every piece is shape @ [0,1)^d + offset; pieces share the shape matrix P.
    In piece-cell coordinates t = P^{-1} x every piece is the unit cube at
    its cell V = P^{-1} offset: ``cells`` holds these integer points (a
    window off the integer grid raises ValueError), and ``lattice_cells``
    brings a fiber lattice into the same coordinates.
    """

    scale: float
    shape: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[tuple[Fraction, ...], ...]

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def piece_count(self) -> int:
        return len(self.offsets)

    @property
    def piece_measure(self) -> Fraction:
        return abs(mat_det([list(r) for r in self.shape]))

    @property
    def total_measure(self) -> Fraction:
        return self.piece_measure * self.piece_count

    @property
    def norm_sq(self) -> float:
        return self.scale**2 * float(self.total_measure)

    @cached_property
    def _shape_inv(self) -> list[list[Fraction]]:
        return mat_inv(self.shape)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Integer cell V = P^{-1} offset of every piece, in piece order."""
        return tuple(map(tuple, integer_matrix([mat_vec(self._shape_inv, o) for o in self.offsets])))

    def lattice_cells(self, lattice: FiberGaborLattice) -> tuple[list, list]:
        """The lattice's translations A = P^{-1} T and dual modulations
        D = P^{-1} C^{-tr} in piece-cell coordinates, as exact matrices."""
        dual = mat_inv(mat_transpose(lattice.modulation))
        return mat_mul(self._shape_inv, lattice.translation), mat_mul(self._shape_inv, dual)


# how many shells of G-translates cut-and-stack searches for a fresh residue
SEARCH_RADIUS = 12


def synthesize_window(lattice: FiberGaborLattice, piece_limit: int = 4096) -> PiecewiseBoxWindow:
    """Painless Parseval window for one fiber; pieces and measure are exact.

    Raises DensityViolationError when the lattice volume exceeds one,
    DegenerateFiberError on a singular modulation matrix, and
    PieceOverflowError when the cut-and-stack would need more pieces than
    the budget allows (large parameter denominators).
    """
    if lattice.det_b == 0:
        raise DegenerateFiberError(f"modulation matrix is singular at lam={lattice.lam}")
    if lattice.volume > 1:
        raise DensityViolationError(
            f"fiber lattice volume {format_rational(lattice.volume)} exceeds 1"
        )
    trans = [list(r) for r in lattice.translation]
    mod = [list(r) for r in lattice.modulation]
    scale = math.sqrt(abs(float(mat_det(mod))))
    # sheared coordinates u = C^tr x: tiling lattice G Z^d, packing lattice Z^d
    g = mat_mul(mat_transpose(mod), trans)
    offsets, basis = _stack_pieces(g, piece_limit)
    shape = mat_mul(mat_inv(mat_transpose(mod)), basis)
    # pieces go to x as P v, on integers over one common denominator of P
    shape_num, den = cleared_denominators(shape)
    return PiecewiseBoxWindow(
        scale=scale,
        shape=tuple(tuple(row) for row in shape),
        offsets=tuple(tuple(Fraction(x, den) for x in mat_vec(shape_num, v)) for v in offsets),
    )


def _stack_pieces(g, piece_limit: int):
    """Integer piece offsets v and the cell basis (u coordinates) they refer to."""
    d = len(g)
    if cell_packs(g):
        return [[0] * d], g

    w = lattice_sum_basis(g)  # basis of S = G Z^d + Z^d
    w_inv = mat_inv(w)
    # in v = W^-1 u the tiling lattice is t_mat Z^d, the packing lattice W^-1 Z^d
    t_mat = integer_matrix(mat_mul(w_inv, g))
    det_t = int(mat_det(t_mat))
    if abs(det_t) > piece_limit:
        raise PieceOverflowError(
            f"stacking needs {abs(det_t)} pieces, over the budget of {piece_limit}"
        )
    adj_t = integer_matrix([[x * det_t for x in row] for row in mat_inv(t_mat)])
    packing = hnf_columns(integer_matrix(w_inv))
    h = hnf_columns(t_mat)
    used: set = set()
    offsets: list[list[int]] = []
    # transversal of S / G Z^d through digits of the triangular form
    for digits in product(*[range(h[i][i]) for i in range(d)]):
        # bring the representative near the origin; its class mod G Z^d is unchanged
        shift = [sum(a * x for a, x in zip(row, digits)) // det_t for row in adj_t]
        point = [x - sum(t * s for t, s in zip(row, shift)) for x, row in zip(digits, t_mat)]
        for m in _shells(d):
            cand = [p + sum(t * k for t, k in zip(row, m)) for p, row in zip(point, t_mat)]
            key = residue(cand, packing)
            if key not in used:
                used.add(key)
                offsets.append(cand)
                break
        else:
            raise PieceOverflowError(
                f"no fresh residue found within search radius {SEARCH_RADIUS}"
            )
    return offsets, w


def _shells(d: int):
    """Integer vectors by growing sup-norm radius, up to SEARCH_RADIUS."""
    for radius in range(SEARCH_RADIUS + 1):
        for m in product(range(-radius, radius + 1), repeat=d):
            if max(map(abs, m)) == radius:
                yield m


@dataclass(frozen=True)
class WindowNormReport:
    passed: bool
    measured: float
    expected: float

    def as_dict(self) -> dict:
        return {"passed": self.passed, "measured": self.measured, "expected": self.expected}


# float tolerance of the window norm re-check against the lattice volume
NORM_TOL = 1e-9


def window_norm_check(window: PiecewiseBoxWindow, lattice: FiberGaborLattice) -> WindowNormReport:
    """Parseval windows must satisfy norm^2 = lattice volume."""
    measured = window.norm_sq
    expected = float(lattice.volume)
    return WindowNormReport(
        passed=abs(measured - expected) <= NORM_TOL, measured=measured, expected=expected
    )


# ---------------------------------------------------------------------------
# generator fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldNode:
    lam: tuple[Fraction, ...]
    window: PiecewiseBoxWindow
    normalization: float
    lattice: FiberGaborLattice

    @property
    def density(self) -> float:
        """The Plancherel density |det B(λ)| at the node, as a float."""
        return abs(float(self.lattice.det_b))

    @property
    def fiber_vector_norm_sq(self) -> float:
        """Norm^2 of the normalized fiber vector window * normalization."""
        return self.window.norm_sq * self.normalization**2


@dataclass(frozen=True)
class FrameGeneratorField:
    """Per-fiber windows with their normalizations on a spectral grid."""

    role: str  # "frame" or "wavelet"
    params: QuasiLatticeParams
    box: SpectrumBox
    grid_shape: tuple[int, ...]
    nodes: tuple[FieldNode, ...]
    skipped: tuple[tuple[tuple[Fraction, ...], str], ...]
    predicted_norm_sq: float | None

    @property
    def cell_volume(self) -> Fraction:
        (lo, hi), = self.box.region()
        vol = Fraction(1)
        for l, h, count in zip(lo, hi, self.grid_shape):
            vol *= (h - l) / count
        return vol

    def grid_measured_norm_sq(self) -> float:
        """Quadrature of the generator's spectral norm over the grid."""
        cell = float(self.cell_volume)
        total = 0.0
        for node in self.nodes:
            total += node.fiber_vector_norm_sq * node.density * cell
        return total


def centered_grid(box: SpectrumBox, shape: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Cell-center nodes per axis; rational so fiber evaluations stay exact.

    Grids cover the box region, which must be a single rectangle (the full
    box, or exactly one sub-box).
    """
    if len(shape) != box.dimension:
        raise SchemaError("grid", f"expected {box.dimension} axis counts")
    region = box.region()
    if len(region) != 1:
        raise SchemaError("grid", "grids need a single rectangular region")
    lo, hi = region[0]
    axes = []
    for l, h, count in zip(lo, hi, shape):
        if count < 1:
            raise SchemaError("grid", "axis counts must be positive")
        axes.append(tuple(l + (h - l) * Fraction(2 * k + 1, 2 * count) for k in range(count)))
    return tuple(axes)


def build_generator_field(
    spec: LieAlgebraSpec,
    params: QuasiLatticeParams,
    box: SpectrumBox,
    grid_shape: Sequence[int],
    role: str = "frame",
    mu_box: MeasureResult | None = None,
    eps_degenerate: float = 1e-12,
    piece_limit: int = 4096,
) -> FrameGeneratorField:
    """Synthesize one window per grid node and attach normalizations.

    Degenerate nodes (density below eps) are skipped and recorded.  For the
    wavelet role the covolume product must equal one exactly and the grid is
    restricted to the sublevel region; every kept fiber vector then has unit
    norm by construction (asserted).
    """
    if role not in ("frame", "wavelet"):
        raise SchemaError("role", f"unknown role {role!r}")
    if role == "wavelet" and params.covolume != 1:
        raise DensityViolationError(
            f"wavelet role needs prod(a b q) = 1, got {format_rational(params.covolume)}"
        )
    prod_a = float(params.prod_a)
    nodes: list[FieldNode] = []
    skipped: list[tuple[tuple[Fraction, ...], str]] = []
    for lam in product(*centered_grid(box, grid_shape)):
        lat = fiber_lattice(spec, params, lam)
        if lat.det_b == 0 or abs(float(lat.det_b)) < eps_degenerate:
            skipped.append((lam, "degenerate fiber"))
            continue
        if role == "wavelet" and lat.volume > 1:
            skipped.append((lam, "outside sublevel region"))
            continue
        window = synthesize_window(lat, piece_limit=piece_limit)
        normalization = 1.0 / math.sqrt(prod_a * abs(float(lat.det_b)))
        node = FieldNode(lam=lam, window=window, normalization=normalization, lattice=lat)
        if role == "wavelet":
            assert abs(node.fiber_vector_norm_sq - 1.0) <= 1e-9
        nodes.append(node)
    predicted = None
    if mu_box is not None:
        predicted = mu_box.value / float(params.covolume)
    return FrameGeneratorField(
        role=role,
        params=params,
        box=box,
        grid_shape=tuple(int(c) for c in grid_shape),
        nodes=tuple(nodes),
        skipped=tuple(skipped),
        predicted_norm_sq=predicted,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def field_to_document(field: FrameGeneratorField) -> dict:
    """JSON-ready dictionary: floats as shortest round-trip decimal strings."""
    return {
        "role": field.role,
        "params": field.params.as_dict(),
        "box": {"a": [format_rational(x) for x in field.box.a]},
        "grid_shape": list(field.grid_shape),
        "predicted_norm_sq": repr(field.predicted_norm_sq)
        if field.predicted_norm_sq is not None
        else None,
        "nodes": [_node_document(node) for node in field.nodes],
        "skipped": [
            {"lam": [format_rational(x) for x in lam], "reason": reason}
            for lam, reason in field.skipped
        ],
    }


def _node_document(node: FieldNode) -> dict:
    """One node's entry; its pieces share the shape, formatted once."""
    shape = [repr(float(v)) for row in node.window.shape for v in row]
    return {
        "lam": [format_rational(x) for x in node.lam],
        "scale": repr(node.window.scale),
        "normalization": repr(node.normalization),
        "pieces": [
            {"offset": [repr(float(o)) for o in off], "shape": shape}
            for off in node.window.offsets
        ],
    }
