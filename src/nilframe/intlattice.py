"""Exact linear algebra over integers and rationals, and column-style Hermite
normal form.

This is the package's one exact linear-algebra module: products,
determinants, adjugates and inverses of Fraction or integer matrices for the
algebra checks, the fiber lattices, the window synthesis and the verifier.
A rational matrix enters the integer kernels as integer numerators over one
positive denominator (``cleared_denominators``); its inverse stays in that
form (``integer_inverse``).  Window synthesis and the verifier's tiling
certificate share the integer residues modulo a Hermite basis and the
packing test for a single cell; the verifier's exact-in-k oracle samples
along an LLL-reduced basis (``lll_columns``).  Everything here is a list of
lists, sized d <= 3 in practice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Sequence

Matrix = list[list[Fraction]]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(map(mul, row, v)) for row in a]


def mat_transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by cofactors; integer for an integer matrix."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * mat_det(sub)
    return total


def adjugate(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Transposed cofactor matrix: adj(m) m = det(m) I, integer for an integer m."""
    n = len(m)
    if n == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j) * mat_det([row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def divide_exact(m: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """The integer matrix m / k; ValueError when an entry is not a multiple of k."""
    out = []
    for row in m:
        int_row = []
        for x in row:
            q, r = divmod(x, k)
            if r:
                raise ValueError(f"entry {Fraction(x, k)} is not an integer")
            int_row.append(q)
        out.append(int_row)
    return out


def integer_inverse(num: Sequence[Sequence[int]], den: int) -> tuple[list[list[int]], int]:
    """The inverse of num / den as integer numerators over one denominator:
    den adj(num) / det(num).  The denominator may be negative."""
    return [[den * x for x in row] for row in adjugate(num)], mat_det(num)


def hnf_columns(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite form of an integer matrix with full row rank.

    Column operations only, so the returned d x d lower-triangular matrix with
    positive diagonal generates the same lattice as the input columns.
    """
    rows = len(m)
    work = [list(row) for row in m]
    cols = len(work[0])
    col = 0
    for row in range(rows):
        while True:
            candidates = [j for j in range(col, cols) if work[row][j] != 0]
            if not candidates:
                break
            jmin = min(candidates, key=lambda j: abs(work[row][j]))
            if jmin != col:
                for r in range(rows):
                    work[r][col], work[r][jmin] = work[r][jmin], work[r][col]
            pivot = work[row][col]
            reduced = True
            for j in range(col + 1, cols):
                if work[row][j] != 0:
                    qv = work[row][j] // pivot
                    for r in range(rows):
                        work[r][j] -= qv * work[r][col]
                    if work[row][j] != 0:
                        reduced = False
            if reduced:
                break
        if col < cols and work[row][col] != 0:
            if work[row][col] < 0:
                for r in range(rows):
                    work[r][col] = -work[r][col]
            pivot = work[row][col]
            for j in range(col):
                qv = work[row][j] // pivot
                for r in range(rows):
                    work[r][j] -= qv * work[r][col]
            col += 1
    if col < rows:
        raise ValueError("matrix does not have full row rank")
    return [row[:rows] for row in work]


def cleared_denominators(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer numerators and the least common denominator den of a
    rational matrix: m = numerators / den."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def lattice_sum_basis(gn: Sequence[Sequence[int]], g: int) -> list[list[int]]:
    """Basis of the lattice generated by the columns of G = gn / g together
    with Z^d, over the same denominator: that lattice is (W / g) Z^d, with W
    the column Hermite form of [gn | g I] returned here (g > 0)."""
    d = len(gn)
    return hnf_columns([row + [g if i == j else 0 for j in range(d)] for i, row in enumerate(gn)])


def lll_columns(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the columns
    of a nonsingular integer matrix, returned as the columns of a matrix.

    Exact: Gram-Schmidt runs on Fractions and is redone after every swap,
    which costs little at d <= 3."""
    cols = [list(c) for c in zip(*m)]
    k = 1
    while k < len(cols):
        mu, norms = _gram_schmidt(cols)
        # size reduction leaves the Gram-Schmidt vectors, so norms, unchanged
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
                mu[k][: j + 1] = [x - q * y for x, y in zip(mu[k], mu[j][:j] + [1])]
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            k = max(k - 1, 1)
    return mat_transpose(cols)


def _gram_schmidt(cols: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Coefficients mu[i][j] and squared norms of the Gram-Schmidt vectors."""
    mu = [[Fraction(0)] * len(cols) for _ in cols]
    stars: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i, b in enumerate(cols):
        star = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = sum(map(mul, b, stars[j])) / norms[j]
            star = [x - mu[i][j] * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(x * x for x in star))
    return mu, norms


def residue(v: Sequence[int], h: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Representative of the integer vector v modulo the lattice spanned by the
    columns of h, lower triangular as from hnf_columns: the one with
    0 <= v_i < h_ii.  Two vectors are congruent iff their residues are equal."""
    r = list(v)
    for j in range(len(r)):
        q = r[j] // h[j][j]
        if q:
            for i in range(j, len(r)):
                r[i] -= q * h[i][j]
    return tuple(r)


def cell_packs(gn: Sequence[Sequence[int]], g: int) -> bool:
    """Does G [0,1)^d pack modulo Z^d, for G = gn / g with gn a nonsingular
    integer matrix?  True iff no nonzero integer vector m lies in the open
    difference body G (-1,1)^d, where |G^-1 m| < 1 reads
    |g adj(gn) m| < |det gn| in every row."""
    ginv, det = integer_inverse(gn, g)
    det = abs(det)
    bounds = [sum(map(abs, row)) // abs(g) for row in gn]
    for m in product(*[range(-b, b + 1) for b in bounds]):
        if any(m) and all(abs(sum(map(mul, row, m))) < det for row in ginv):
            return False
    return True
