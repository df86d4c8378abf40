"""Shared fixtures: the three reference algebras and a seeded random-spec source."""

import random
from fractions import Fraction

import pytest

from nilframe.algebra import LieAlgebraSpec, load_spec


HEISENBERG_DOC = {"n": 3, "d": 1, "brackets": {"X1,Y1": [1]}}

EXAMPLE2_DOC = {
    "n": 6,
    "d": 2,
    "brackets": {
        "X1,Y1": [1, 0],
        "X2,Y2": [1, 0],
        "X1,Y2": [0, 1],
        "X2,Y1": [0, 1],
    },
}

# nine-dimensional group with the cyclic bracket table, keys as written [Y_i, X_j]
EXAMPLE3_DOC = {
    "n": 9,
    "d": 3,
    "brackets": {
        "Y1,X1": [1, 0, 0],
        "Y3,X2": [1, 0, 0],
        "Y2,X3": [1, 0, 0],
        "Y2,X1": [0, 1, 0],
        "Y1,X2": [0, 1, 0],
        "Y3,X3": [0, 1, 0],
        "Y3,X1": [0, 0, 1],
        "Y2,X2": [0, 0, 1],
        "Y1,X3": [0, 0, 1],
    },
}


@pytest.fixture
def heisenberg() -> LieAlgebraSpec:
    return load_spec(HEISENBERG_DOC, label="heisenberg")


@pytest.fixture
def example2() -> LieAlgebraSpec:
    return load_spec(EXAMPLE2_DOC, label="example2")


@pytest.fixture
def example3() -> LieAlgebraSpec:
    return load_spec(EXAMPLE3_DOC, label="example3")


def random_valid_spec(rng: random.Random) -> LieAlgebraSpec:
    """Random spec in the class: only X-Y brackets, nonvanishing symbolic det.

    Resamples until the modulation determinant is not identically zero, so
    every produced spec passes validate_class.
    """
    from nilframe.polynomial import determinant
    from nilframe.spectral import build_matrices

    while True:
        d = rng.randint(1, 3)
        v = rng.randint(1, 3)
        n = 2 * d + v
        brackets = {}
        for k in range(d):
            for r in range(d):
                if rng.random() < 0.65:
                    vec = [Fraction(rng.randint(-3, 3)) for _ in range(v)]
                    if any(vec):
                        brackets[f"X{k + 1},Y{r + 1}"] = [str(x) for x in vec]
        if not brackets:
            continue
        spec = load_spec({"n": n, "d": d, "brackets": brackets}, label="random")
        if not determinant(build_matrices(spec).modulation).is_zero():
            return spec


def exact_measure(x) -> "MeasureResult":
    """A zero-width certified measure at the exact value ``x``."""
    from nilframe.spectral import MeasureCertificate, MeasureResult

    x = Fraction(x)
    return MeasureResult(float(x), x, x, MeasureCertificate(boxes=0, depth=0, converged=True))


def mat_inv(m) -> list[list[Fraction]]:
    """Inverse of a rational matrix by Gauss-Jordan elimination: a reference
    independent of the package's adjugate-based integer inverse."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
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
