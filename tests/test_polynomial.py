"""Exact polynomial arithmetic, determinants and the rank routine.

The production determinant and rank come from one fraction-free elimination;
the references here are an independent permutation expansion and a cofactor
expansion along the first row.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilframe.polynomial import (
    SpectralPolynomial,
    determinant,
    exact_divide,
    generic_rank,
)


def perm_parity(p):
    p = list(p)
    sign = 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def det_oracle(matrix):
    """Brute-force permutation expansion, independent of the production path."""
    n = len(matrix)
    nvars = matrix[0][0].nvars
    total = SpectralPolynomial(nvars)
    for perm in permutations(range(n)):
        term = SpectralPolynomial.constant(nvars, perm_parity(perm))
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def det_cofactor(m):
    """Cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = SpectralPolynomial(m[0][0].nvars)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        cof = m[0][j] * det_cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def mat_product(a, b):
    zero = SpectralPolynomial(a[0][0].nvars)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def rand_poly(rng, nvars, max_deg=1, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = Fraction(rng.randint(-4, 4))
    return SpectralPolynomial(nvars, terms)


class TestArithmetic:
    def test_construction_drops_zero_coefficients(self):
        p = SpectralPolynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms
        assert p.terms[(0, 1)] == 2

    def test_add_mul_evaluate(self):
        x = SpectralPolynomial.variable(0, 2)
        y = SpectralPolynomial.variable(1, 2)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.evaluate([Fraction(3), Fraction(2)]) == 5

    def test_pow(self):
        x = SpectralPolynomial.variable(0, 1)
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    def test_substitute_affine(self):
        x = SpectralPolynomial.variable(0, 1)
        p = x**2
        q = p.substitute_affine([Fraction(1)], [Fraction(2)])
        assert q.evaluate([Fraction(1, 2)]) == p.evaluate([Fraction(2)])

    def test_integer_scaled(self):
        x = SpectralPolynomial.variable(0, 1)
        p = x * Fraction(3, 4) + Fraction(1, 6)
        monos, den = p.integer_scaled()
        assert den == 12
        assert dict(monos) == {(1,): 9, (0,): 2}

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_linear_form_matches_manual(self, a, b, c):
        p = SpectralPolynomial.linear_form([a, b, c])
        pt = [Fraction(2), Fraction(-1), Fraction(5)]
        assert p.evaluate(pt) == 2 * a - b + 5 * c


class TestDeterminant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_permutation_oracle(self, n):
        rng = random.Random(100 + n)
        mat = [[rand_poly(rng, 2) for _ in range(n)] for _ in range(n)]
        assert determinant(mat) == det_oracle(mat)

    def test_identity_like_constant_matrix(self):
        nvars = 2
        eye = [
            [SpectralPolynomial.constant(nvars, 1 if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        assert determinant(eye) == SpectralPolynomial.constant(nvars, 1)

    def test_row_swap_alternates_sign(self):
        rng = random.Random(7)
        mat = [[rand_poly(rng, 2) for _ in range(3)] for _ in range(3)]
        swapped = [mat[1], mat[0], mat[2]]
        assert determinant(swapped) == -determinant(mat)

    def test_block_triangular_multiplicative(self):
        rng = random.Random(11)
        nvars = 2
        a = [[rand_poly(rng, nvars) for _ in range(2)] for _ in range(2)]
        b = [[rand_poly(rng, nvars) for _ in range(2)] for _ in range(2)]
        zero = SpectralPolynomial(nvars)
        block = [
            [a[0][0], a[0][1], rand_poly(rng, nvars), rand_poly(rng, nvars)],
            [a[1][0], a[1][1], rand_poly(rng, nvars), rand_poly(rng, nvars)],
            [zero, zero, b[0][0], b[0][1]],
            [zero, zero, b[1][0], b[1][1]],
        ]
        assert determinant(block) == determinant(a) * determinant(b)

    def test_bareiss_path_on_degenerate_matrix(self):
        nvars = 1
        zero = SpectralPolynomial(nvars)
        x = SpectralPolynomial.variable(0, nvars)
        mat = [[zero] * 5 for _ in range(5)]
        for i in range(5):
            mat[i][i] = x
        mat[0][0] = zero
        mat[0][1] = x
        mat[1][0] = x
        mat[1][1] = zero
        assert determinant(mat) == -(x**5)


class TestElimination:
    """The one elimination against the cofactor expansion and known ranks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_cofactor_expansion(self, n):
        rng = random.Random(200 + n)
        zero = SpectralPolynomial(2)
        for _ in range(3):
            mat = [[rand_poly(rng, 2) for _ in range(n)] for _ in range(n)]
            # a zero (0,0) entry forces a swap at the first pivot
            pivot_swap = [[zero] + row[1:] if i == 0 else row for i, row in enumerate(mat)]
            # a row that is a polynomial multiple of another plus a third
            factor = rand_poly(rng, 2)
            singular = [row[:] for row in mat]
            singular[-1] = [factor * x + (y if n > 2 else zero) for x, y in zip(mat[0], mat[1 % n])]
            for case in (mat, pivot_swap, singular):
                assert determinant(case) == det_cofactor(case)
            if n > 1:
                assert determinant(singular).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jump_block_is_det_b_squared(self, m):
        # [[0, B^T], [-B, 0]] has determinant det(B)^2, the Pfaffian identity
        rng = random.Random(250 + m)
        zero = SpectralPolynomial(3)
        for _ in range(3):
            b = [[rand_poly(rng, 3) for _ in range(m)] for _ in range(m)]
            block = [[zero] * m + [b[j][i] for j in range(m)] for i in range(m)]
            block += [[-x for x in b[i]] + [zero] * m for i in range(m)]
            assert determinant(block) == det_cofactor(block) == det_cofactor(b) ** 2

    @pytest.mark.parametrize("n, cols", [(3, 3), (4, 4), (5, 5), (4, 6), (6, 3)])
    def test_rank_of_a_product(self, n, cols):
        # an n x r times r x cols product has rank r when the factors do, which
        # a nonzero leading r-minor of each (by cofactors) shows
        rng = random.Random(270 + n + cols)
        for r in range(min(n, cols) + 1):
            if not r:
                assert generic_rank([[SpectralPolynomial(2)] * cols] * n) == 0
                continue
            while True:
                left = [[rand_poly(rng, 2) for _ in range(r)] for _ in range(n)]
                right = [[rand_poly(rng, 2) for _ in range(cols)] for _ in range(r)]
                if det_cofactor(left[:r]) and det_cofactor([row[:r] for row in right]):
                    break
            prod = mat_product(left, right)
            assert generic_rank(prod) == r


class TestDivisionAndRank:
    def test_exact_divide_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            a = rand_poly(rng, 2, max_deg=2)
            b = rand_poly(rng, 2, max_deg=2)
            if b.is_zero():
                continue
            assert exact_divide(a * b, b) == a

    def test_exact_divide_rejects_inexact(self):
        x = SpectralPolynomial.variable(0, 1)
        with pytest.raises(ArithmeticError):
            exact_divide(x + 1, x)

    def test_generic_rank_full_and_deficient(self):
        x = SpectralPolynomial.variable(0, 1)
        zero = SpectralPolynomial(1)
        skew = [[zero, x], [-x, zero]]
        assert generic_rank(skew) == 2
        assert generic_rank([[zero, zero], [zero, zero]]) == 0
        assert generic_rank([[x, x], [x, x]]) == 1


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_determinant_random_cross_check(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    mat = [[rand_poly(rng, rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    nv = mat[0][0].nvars
    mat = [[SpectralPolynomial(nv, p.terms) if p.nvars == nv else SpectralPolynomial(nv) for p in row] for row in mat]
    assert determinant(mat) == det_oracle(mat)
