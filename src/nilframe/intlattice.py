"""Exact linear algebra over rationals and column-style Hermite normal form.

This is the package's one exact rational linear-algebra module: products,
determinants and inverses of Fraction matrices for the algebra checks, the
fiber lattices, the window synthesis and the verifier.  Window synthesis and
the verifier's tiling certificate also share its integer residues modulo a
Hermite basis and its packing test for a single cell.  Everything here is a
list of lists of Fractions (or ints for HNF), sized d <= 3 in practice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

Matrix = list[list[Fraction]]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def mat_transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * mat_det(sub)
    return total


def mat_inv(m: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


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


def lattice_sum_basis(g: Sequence[Sequence[Fraction]]) -> Matrix:
    """Basis of the lattice generated by the columns of g together with Z^d."""
    d = len(g)
    den = 1
    for row in g:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    cols = [[int(g[i][j] * den) for i in range(d)] for j in range(d)]
    cols += [[den if i == j else 0 for i in range(d)] for j in range(d)]
    stacked = [[cols[j][i] for j in range(2 * d)] for i in range(d)]
    w = hnf_columns(stacked)
    return [[Fraction(w[i][j], den) for j in range(d)] for i in range(d)]


def integer_matrix(m: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in m:
        int_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError(f"entry {x} is not an integer")
            int_row.append(int(x))
        out.append(int_row)
    return out


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


def cell_packs(g: Sequence[Sequence[Fraction]]) -> bool:
    """Does G [0,1)^d pack modulo Z^d?  True iff no nonzero integer vector
    lies in the open difference body G (-1,1)^d."""
    ginv = mat_inv(g)
    bounds = [int(sum(abs(x) for x in row)) for row in g]
    for m in product(*[range(-b, b + 1) for b in bounds]):
        if any(m) and all(abs(t) < 1 for t in mat_vec(ginv, m)):
            return False
    return True
