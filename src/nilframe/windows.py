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

Cut-and-stack runs on integers over one denominator: with C = Cn / c and
T = Tn / t it takes G = Cn^tr Tn / (c t), W as integer numerators over c t,
and adjugates in place of inverses; only the shape and the offsets become
Fractions, once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, product
from operator import add, mul
from typing import Sequence

from .algebra import LieAlgebraSpec
from .errors import (
    DegenerateFiberError,
    DensityViolationError,
    PieceOverflowError,
    SchemaError,
)
from .intlattice import (
    adjugate,
    cell_packs,
    cleared_denominators,
    divide_exact,
    hnf_columns,
    integer_inverse,
    lattice_sum_basis,
    mat_det,
    mat_mul,
    mat_transpose,
    mat_vec,
    residue,
)
from .lattice import FiberGaborLattice, QuasiLatticeParams, fiber_lattice
from .rationals import format_rational
from .spectral import SpectrumBox


@dataclass(frozen=True)
class PiecewiseBoxWindow:
    """Scaled indicator of finitely many disjoint parallelepipeds.

    Every piece is shape @ [0,1)^d + offset; pieces share the shape matrix P.
    In piece-cell coordinates t = P^{-1} x every piece is the unit cube at
    its cell V = P^{-1} offset: ``cells`` holds these integer points, and
    ``translation_cells`` and ``dual_cells`` bring a fiber lattice into the
    same coordinates.  All three run on integers over one denominator each;
    a window or translation off the integer grid raises ValueError.
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
    def _shape_inv(self) -> tuple[list[list[int]], int]:
        """P^{-1} as integer numerators over one denominator."""
        return integer_inverse(*cleared_denominators(self.shape))

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Integer cell V = P^{-1} offset of every piece, in piece order."""
        inv, den = self._shape_inv
        offsets, offset_den = cleared_denominators(self.offsets)
        return tuple(map(tuple, divide_exact(mat_mul(offsets, mat_transpose(inv)), den * offset_den)))

    def translation_cells(self, lattice: FiberGaborLattice) -> list[list[int]]:
        """The lattice's translations A = P^{-1} T in piece-cell coordinates,
        an integer matrix."""
        inv, den = self._shape_inv
        trans, trans_den = cleared_denominators(lattice.translation)
        return divide_exact(mat_mul(inv, trans), den * trans_den)

    def dual_cells(self, lattice: FiberGaborLattice) -> tuple[list[list[int]], int]:
        """The lattice's dual modulations D = P^{-1} C^{-tr} in piece-cell
        coordinates, as integer numerators over one denominator."""
        inv, den = self._shape_inv
        mod, mod_den = cleared_denominators(lattice.modulation)
        dual, dual_den = integer_inverse(mat_transpose(mod), mod_den)
        return mat_mul(inv, dual), den * dual_den


# how many shells of G-translates cut-and-stack searches for a fresh residue
SEARCH_RADIUS = 12
# most pieces one window may stack before PieceOverflowError
PIECE_LIMIT = 4096
# a generator field skips a node whose float density is below this
EPS_DEGENERATE = 1e-12


def synthesize_window(
    lattice: FiberGaborLattice, piece_limit: int = PIECE_LIMIT
) -> PiecewiseBoxWindow:
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
    # T = tn / t and C = cn / c on integers
    tn, t = cleared_denominators(lattice.translation)
    cn, c = cleared_denominators(lattice.modulation)
    cn_tr = mat_transpose(cn)
    dual, det_c = integer_inverse(cn_tr, c)  # C^-tr = dual / det_c
    scale = math.sqrt(abs(det_c) / c ** len(cn))
    # sheared coordinates u = C^tr x: tiling lattice G Z^d, G = gn / g, packing lattice Z^d
    g = c * t
    offsets, basis = _stack_pieces(mat_mul(cn_tr, tn), g, piece_limit)
    # pieces go to x as P v, with P = C^-tr basis / g = shape_num / den
    shape_num, den = mat_mul(dual, basis), det_c * g
    if den < 0:
        shape_num, den = [[-x for x in row] for row in shape_num], -den
    return PiecewiseBoxWindow(
        scale=scale,
        shape=tuple(tuple(Fraction(x, den) for x in row) for row in shape_num),
        offsets=tuple(tuple(Fraction(x, den) for x in mat_vec(shape_num, v)) for v in offsets),
    )


def _stack_pieces(gn, g: int, piece_limit: int):
    """Integer piece offsets v and the cell basis numerators (over g, u
    coordinates) they refer to, for the tiling lattice G = gn / g."""
    d = len(gn)
    if cell_packs(gn, g):
        return [[0] * d], gn

    w = lattice_sum_basis(gn, g)  # S = G Z^d + Z^d = (W / g) Z^d
    adj_w, det_w = adjugate(w), mat_det(w)
    # in v = (W / g)^-1 u the tiling lattice is t_mat Z^d, the packing lattice g W^-1 Z^d
    t_mat = divide_exact(mat_mul(adj_w, gn), det_w)
    det_t = mat_det(t_mat)
    if abs(det_t) > piece_limit:
        raise PieceOverflowError(
            f"stacking needs {abs(det_t)} pieces, over the budget of {piece_limit}"
        )
    adj_t = adjugate(t_mat)
    packing = hnf_columns(divide_exact([[g * x for x in row] for row in adj_w], det_w))
    h = hnf_columns(t_mat)
    # G-steps t_mat m over the shells, each computed once and only when the
    # search first reaches it: the steps so far, then the rest of the shells
    steps: list[list[int]] = []
    new_steps = (steps.append(s) or s for s in (mat_vec(t_mat, m) for m in _shells(d)))
    used: set = set()
    offsets: list[list[int]] = []
    # transversal of S / G Z^d through digits of the triangular form
    for digits in product(*[range(h[i][i]) for i in range(d)]):
        # bring the representative near the origin; its class mod G Z^d is unchanged
        shift = [sum(map(mul, row, digits)) // det_t for row in adj_t]
        point = [x - sum(map(mul, row, shift)) for x, row in zip(digits, t_mat)]
        for step in chain(steps, new_steps):
            cand = list(map(add, point, step))
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
    predicted_norm_sq: float | None = None,
) -> FrameGeneratorField:
    """Synthesize one window per grid node and attach normalizations.

    Degenerate nodes (density below EPS_DEGENERATE) are skipped and
    recorded; a window that needs more than PIECE_LIMIT pieces raises
    PieceOverflowError.  For the wavelet role the covolume product must
    equal one exactly and the grid is restricted to the sublevel region;
    every kept fiber vector then has unit norm by construction (asserted).
    ``predicted_norm_sq`` is carried as given: the design stage's measure
    over the covolume.
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
        if abs(float(lat.det_b)) < EPS_DEGENERATE:
            skipped.append((lam, "degenerate fiber"))
            continue
        if role == "wavelet" and lat.volume > 1:
            skipped.append((lam, "outside sublevel region"))
            continue
        window = synthesize_window(lat)
        normalization = 1.0 / math.sqrt(prod_a * abs(float(lat.det_b)))
        node = FieldNode(lam=lam, window=window, normalization=normalization, lattice=lat)
        if role == "wavelet":
            assert abs(node.fiber_vector_norm_sq - 1.0) <= 1e-9
        nodes.append(node)
    return FrameGeneratorField(
        role=role,
        params=params,
        box=box,
        grid_shape=tuple(int(c) for c in grid_shape),
        nodes=tuple(nodes),
        skipped=tuple(skipped),
        predicted_norm_sq=predicted_norm_sq,
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
