"""Step-two nilpotent Lie algebra specifications and class validation.

The basis is fixed in split order Z_1..Z_{n-2d}, Y_1..Y_d, X_1..X_d; brackets
are stored only for ordered pairs (i, j) with i < j and values live in the
central coordinate span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import RankDeficiencyError, SchemaError
from .polynomial import generic_rank
from .rationals import parse_rational_vector

if TYPE_CHECKING:
    from .spectral import SpectralMatrices

_NAME_RE = re.compile(r"^([ZYX])(\d+)$")


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants of a step-two algebra in split basis order.

    ``brackets`` maps 0-based basis index pairs (i, j), i < j, to central
    coordinate vectors of length n - 2d.
    """

    n: int
    d: int
    brackets: Mapping[tuple[int, int], tuple[Fraction, ...]]
    label: str = ""

    def __post_init__(self):
        if self.d < 1 or self.n <= 2 * self.d:
            raise SchemaError("algebra", f"need n > 2d >= 2, got n={self.n}, d={self.d}")

    @property
    def center_dim(self) -> int:
        return self.n - 2 * self.d

    @cached_property
    def matrices(self) -> SpectralMatrices:
        """Pairing, jump and modulation matrices and det B, built once per spec.

        The bracket table is never mutated after construction, so the cache
        cannot go stale.
        """
        from . import spectral  # spectral depends on this module

        return spectral.build_matrices(self)

    def basis_name(self, i: int) -> str:
        v = self.center_dim
        if i < v:
            return f"Z{i + 1}"
        if i < v + self.d:
            return f"Y{i - v + 1}"
        return f"X{i - v - self.d + 1}"

    def y_index(self, k: int) -> int:
        """0-based basis index of Y_{k+1}."""
        return self.center_dim + k

    def x_index(self, k: int) -> int:
        """0-based basis index of X_{k+1}."""
        return self.center_dim + self.d + k

    def bracket_vector(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Central coordinates of [b_i, b_j], with antisymmetry applied."""
        if i == j:
            return (Fraction(0),) * self.center_dim
        if i < j:
            return self.brackets.get((i, j), (Fraction(0),) * self.center_dim)
        vec = self.brackets.get((j, i))
        if vec is None:
            return (Fraction(0),) * self.center_dim
        return tuple(-c for c in vec)


def _parse_basis_name(name: str, n: int, d: int, field_path: str) -> int:
    m = _NAME_RE.match(name.strip())
    if not m:
        raise SchemaError(field_path, f"bad basis name {name!r}, expected like Z1, Y2, X1")
    kind, idx = m.group(1), int(m.group(2))
    v = n - 2 * d
    limits = {"Z": v, "Y": d, "X": d}
    if not 1 <= idx <= limits[kind]:
        raise SchemaError(field_path, f"index of {name!r} out of range (max {kind}{limits[kind]})")
    offset = {"Z": 0, "Y": v, "X": v + d}[kind]
    return offset + idx - 1


def load_spec(document: Mapping, label: str = "") -> LieAlgebraSpec:
    """Build a normalized spec from an algebra description mapping.

    Expected shape::

        {"n": 6, "d": 2, "brackets": {"X1,Y1": ["1", "0"], ...}}

    Bracket keys name ordered basis pairs; values are central coordinate
    vectors of length n - 2d with entries parsed as exact rationals.  Keys
    given against basis order are flipped with a sign change.
    """
    if not isinstance(document, Mapping):
        raise SchemaError("algebra", f"expected a mapping, got {type(document).__name__}")
    unknown = set(document) - {"n", "d", "brackets", "label"}
    if unknown:
        raise SchemaError("algebra", f"unknown keys {sorted(unknown)}")
    for key in ("n", "d"):
        if key not in document:
            raise SchemaError(f"algebra.{key}", "missing")
        if not isinstance(document[key], int) or isinstance(document[key], bool):
            raise SchemaError(f"algebra.{key}", f"expected integer, got {document[key]!r}")
    n, d = document["n"], document["d"]
    if d < 1 or n <= 2 * d:
        raise SchemaError("algebra", f"need n > 2d >= 2, got n={n}, d={d}")
    v = n - 2 * d
    raw = document.get("brackets", {})
    if not isinstance(raw, Mapping):
        raise SchemaError("algebra.brackets", "expected a mapping of 'A,B' pairs to vectors")
    table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for key, value in raw.items():
        path = f"algebra.brackets[{key!r}]"
        names = [s for s in str(key).split(",") if s.strip()]
        if len(names) != 2:
            raise SchemaError(path, "key must name two basis elements, like 'X1,Y1'")
        i = _parse_basis_name(names[0], n, d, path)
        j = _parse_basis_name(names[1], n, d, path)
        if i == j:
            raise SchemaError(path, "bracket of an element with itself is zero; do not store it")
        vec = parse_rational_vector(value, v, path)
        if j < i:
            i, j = j, i
            vec = tuple(-c for c in vec)
        if (i, j) in table:
            raise SchemaError(path, "duplicate bracket entry for this pair")
        if any(c != 0 for c in vec):
            table[(i, j)] = vec
    return LieAlgebraSpec(n=n, d=d, brackets=table, label=label or str(document.get("label", "")))


def bracket(spec: LieAlgebraSpec, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
    """Bilinear antisymmetric extension of the stored table.

    Inputs are coefficient vectors over the full basis (length n); the result
    is again a full-basis vector, supported on the central coordinates.
    """
    if len(u) != spec.n or len(v) != spec.n:
        raise ValueError(f"coefficient vectors must have length {spec.n}")
    uu = [Fraction(x) for x in u]
    vv = [Fraction(x) for x in v]
    central = [Fraction(0)] * spec.center_dim
    for (i, j), vec in spec.brackets.items():
        factor = uu[i] * vv[j] - uu[j] * vv[i]
        if factor:
            for k, c in enumerate(vec):
                if c:
                    central[k] += factor * c
    return tuple(central) + (Fraction(0),) * (2 * spec.d)


def basis_vector(spec: LieAlgebraSpec, index: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if i == index else 0) for i in range(spec.n))


def ad_matrix(spec: LieAlgebraSpec, coeffs: Sequence) -> list[list[Fraction]]:
    """Matrix of ad(w) = [w, .] over the full basis, for w given by coeffs."""
    cols = []
    for j in range(spec.n):
        cols.append(bracket(spec, coeffs, basis_vector(spec, j)))
    return [[cols[j][i] for j in range(spec.n)] for i in range(spec.n)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def validate_class(spec: LieAlgebraSpec) -> ValidationReport:
    """Run the structural class checks; failures are report entries, not faults."""
    checks: list[CheckResult] = []
    v = spec.center_dim

    central_ok = True
    offenders = []
    for (i, j) in spec.brackets:
        if i < v or j < v:
            central_ok = False
            offenders.append(f"[{spec.basis_name(i)},{spec.basis_name(j)}]")
    checks.append(
        CheckResult(
            "two_step_centrality",
            central_ok,
            "all stored brackets avoid central generators"
            if central_ok
            else f"brackets involving central generators: {', '.join(offenders)}",
        )
    )

    p_ok = not any(
        v <= i < v + spec.d and v <= j < v + spec.d for (i, j) in spec.brackets
    )
    checks.append(
        CheckResult(
            "p_abelian",
            p_ok,
            "no Y-Y brackets stored" if p_ok else "found nonzero Y-Y bracket",
        )
    )

    m_ok = not any(
        i >= v + spec.d and j >= v + spec.d for (i, j) in spec.brackets
    )
    checks.append(
        CheckResult(
            "m_abelian",
            m_ok,
            "no X-X brackets stored" if m_ok else "found nonzero X-X bracket",
        )
    )

    cross = [
        (i, j)
        for (i, j) in spec.brackets
        if v <= i < v + spec.d and j >= v + spec.d
    ]
    nontrivial = bool(cross)
    checks.append(
        CheckResult(
            "nontrivial_action",
            nontrivial,
            f"{len(cross)} nonzero X-Y bracket(s)" if nontrivial else "all X-Y brackets vanish",
        )
    )

    if central_ok and p_ok and m_ok:
        det_b = spec.matrices.det_b
        sq_ok = not det_b.is_zero()
        checks.append(
            CheckResult(
                "square_integrable",
                sq_ok,
                f"det of modulation matrix = {det_b!r}"
                if sq_ok
                else "det of modulation matrix vanishes identically",
            )
        )
    else:
        checks.append(
            CheckResult(
                "square_integrable",
                False,
                "skipped: structural checks failed",
            )
        )

    # adjoint nilpotency on the canonical generators +-X_k, applying ad(X_k)
    # twice to each basis vector; ad(-X) = -ad(X) gives -X_k the same verdict
    ad_detail = []
    for k in range(spec.d):
        w = basis_vector(spec, spec.x_index(k))
        images = [bracket(spec, w, basis_vector(spec, j)) for j in range(spec.n)]
        nonzero = any(any(u) for u in images)
        square_zero = not any(any(bracket(spec, w, u)) for u in images if any(u))
        for name in (f"X{k + 1}", f"-X{k + 1}"):
            if not nonzero:
                ad_detail.append(f"ad({name}) = 0")
            if not square_zero:
                ad_detail.append(f"ad({name})^2 != 0")
    ad_ok = not ad_detail
    checks.append(
        CheckResult(
            "adjoint_nilpotent",
            ad_ok,
            "ad(+-X_k) nonzero with vanishing square for all k"
            if ad_ok
            else "; ".join(ad_detail),
        )
    )

    return ValidationReport(tuple(checks))


def jump_indices(spec: LieAlgebraSpec) -> tuple[int, ...]:
    """Jump index set as 1-based indices, after a symbolic rank check.

    Verifies by fraction-free elimination that the pairing matrix has generic
    rank 2d over the rational function field, so its nullspace is exactly the
    central span; raises RankDeficiencyError otherwise.
    """
    rank = generic_rank(spec.matrices.pairing)
    if rank < 2 * spec.d:
        raise RankDeficiencyError(
            f"generic rank of the pairing matrix is {rank}, expected {2 * spec.d}"
        )
    return tuple(range(spec.center_dim + 1, spec.n + 1))
