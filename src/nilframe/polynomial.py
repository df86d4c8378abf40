"""Sparse multivariate polynomials with exact rational coefficients.

The spectral layer manipulates small polynomial matrices whose entries are
degree-one forms in the central coordinates; determinants and identities are
checked exactly, so coefficients are ``Fraction`` throughout and no float ever
enters an algebraic identity.  One fraction-free elimination with full
pivoting (``_bareiss``) gives both the determinant and the generic rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Monomial = tuple[int, ...]


class SpectralPolynomial:
    """Exact sparse polynomial in ``nvars`` variables.

    Terms map exponent tuples to nonzero rational coefficients; the zero
    polynomial has an empty term map.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"exponent tuple {mono} has wrong length for {nvars} variables")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = Fraction(coef)
                if c != 0:
                    clean[tuple(mono)] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value) -> "SpectralPolynomial":
        c = Fraction(value)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int, coef=1) -> "SpectralPolynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(coef)})

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "SpectralPolynomial":
        """Sum c_i * x_i from a coefficient vector."""
        nvars = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c != 0:
                terms[tuple(1 if j == i else 0 for j in range(nvars))] = c
        return cls(nvars, terms)

    # ---- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SpectralPolynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SpectralPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "SpectralPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SpectralPolynomial.constant(self.nvars, other)
        if not isinstance(other, SpectralPolynomial):
            return NotImplemented
        self._check_compat(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            new = terms.get(mono, _ZERO) + coef
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        out = SpectralPolynomial.__new__(SpectralPolynomial)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SpectralPolynomial.__new__(SpectralPolynomial)
        out.nvars = self.nvars
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SpectralPolynomial.constant(self.nvars, other)
        if not isinstance(other, SpectralPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return SpectralPolynomial(self.nvars)
            out = SpectralPolynomial.__new__(SpectralPolynomial)
            out.nvars = self.nvars
            out.terms = {m: coef * c for m, coef in self.terms.items()}
            return out
        if not isinstance(other, SpectralPolynomial):
            return NotImplemented
        self._check_compat(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                new = terms.get(mono, _ZERO) + c1 * c2
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        out = SpectralPolynomial.__new__(SpectralPolynomial)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SpectralPolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- evaluation and substitution ------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, coef in self.terms.items():
            term = coef
            for x, e in zip(pt, mono):
                if e:
                    term *= x**e
            total += term
        return total

    def substitute_affine(self, offsets: Sequence, scales: Sequence) -> "SpectralPolynomial":
        """Polynomial q(t) = p(offset + scale * t), componentwise."""
        if len(offsets) != self.nvars or len(scales) != self.nvars:
            raise ValueError("affine data has wrong length")
        subs = [
            SpectralPolynomial.constant(self.nvars, offsets[i])
            + SpectralPolynomial.variable(i, self.nvars, scales[i])
            for i in range(self.nvars)
        ]
        out = SpectralPolynomial(self.nvars)
        for mono, coef in self.terms.items():
            term = SpectralPolynomial.constant(self.nvars, coef)
            for i, e in enumerate(mono):
                if e:
                    term = term * subs[i] ** e
            out = out + term
        return out

    def integer_scaled(self) -> tuple[list[tuple[Monomial, int]], int]:
        """Coefficients cleared to integers: returns (monomials, denominator)
        with p = sum(c * x^m for m, c) / denominator."""
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        monos = [(m, int(c * den)) for m, c in sorted(self.terms.items())]
        return monos, den

    # ---- presentation ----------------------------------------------------

    def coefficient_list(self) -> list[tuple[list[int], str]]:
        """Sorted (exponent vector, coefficient) pairs for report emission."""
        from .rationals import format_rational

        return [[list(m), format_rational(c)] for m, c in sorted(self.terms.items())]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        text = " + ".join(parts).replace("+ -", "- ")
        return text


_ZERO = Fraction(0)


def _lex_leading(p: SpectralPolynomial) -> tuple[Monomial, Fraction]:
    mono = max(p.terms)
    return mono, p.terms[mono]


def exact_divide(num: SpectralPolynomial, den: SpectralPolynomial) -> SpectralPolynomial:
    """Exact multivariate division; raises ArithmeticError when not divisible.

    Only used where divisibility is guaranteed structurally (fraction-free
    elimination), so a failure indicates a bug, not bad input.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return SpectralPolynomial(num.nvars)
    num._check_compat(den)
    lead_m, lead_c = _lex_leading(den)
    quotient: dict[Monomial, Fraction] = {}
    rem = dict(num.terms)
    while rem:
        m = max(rem)
        diff = tuple(a - b for a, b in zip(m, lead_m))
        if any(e < 0 for e in diff):
            raise ArithmeticError("polynomial division is not exact")
        factor = rem[m] / lead_c
        quotient[diff] = factor
        for den_m, coef in den.terms.items():
            mono = tuple(a + b for a, b in zip(diff, den_m))
            new = rem.get(mono, _ZERO) - factor * coef
            if new == 0:
                rem.pop(mono, None)
            else:
                rem[mono] = new
    return SpectralPolynomial(num.nvars, quotient)


def determinant(matrix: Sequence[Sequence[SpectralPolynomial]]) -> SpectralPolynomial:
    """Exact determinant of a square polynomial matrix: the last pivot of
    ``_bareiss``, signed by its row and column swaps, and zero below full
    rank."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    rank, sign, pivot = _bareiss(matrix)
    if rank < n:
        return SpectralPolynomial(matrix[0][0].nvars)
    return pivot if sign > 0 else -pivot


def generic_rank(matrix: Sequence[Sequence[SpectralPolynomial]]) -> int:
    """Rank over the field of rational functions: the number of pivots of
    ``_bareiss``.  No sampling, so a measure-zero unlucky point set cannot
    produce a false answer."""
    return _bareiss(matrix)[0]


def _bareiss(
    matrix: Sequence[Sequence[SpectralPolynomial]],
) -> tuple[int, int, SpectralPolynomial | None]:
    """Fraction-free elimination with full row and column pivoting.

    Returns (rank, sign, pivot): sign is -1 to the number of swaps and pivot
    the last nonzero pivot (None for the zero matrix).  After step r the
    pivot is the leading (r+1)-minor of the permuted matrix (Bareiss 1968),
    so every update divides exactly by the previous pivot, and at full rank
    a square matrix's determinant is sign * pivot.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    work = [list(row) for row in matrix]
    sign = 1
    prev = None
    rank = 0
    while rank < min(rows, cols):
        pivot = next(
            ((i, j) for i in range(rank, rows) for j in range(rank, cols) if work[i][j]), None
        )
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            work[rank], work[pi] = work[pi], work[rank]
            sign = -sign
        if pj != rank:
            for row in work:
                row[rank], row[pj] = row[pj], row[rank]
            sign = -sign
        top = work[rank]
        for row in work[rank + 1 :]:
            for j in range(rank + 1, cols):
                num = row[j] * top[rank] - row[rank] * top[j]
                row[j] = num if prev is None else exact_divide(num, prev)
        prev = top[rank]
        rank += 1
    return rank, sign, prev
