"""Independent references for the benchmark's checks.

Nothing here imports nilframe.  Polynomials are dicts {exponent tuple:
Fraction}; the modulation matrix is rebuilt from the bracket table, and the
sup and measure references are closed forms for the three algebra families
the workloads use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

# Bracket tables as (A, B, central vector): [A, B] = sum_k vec[k] Z_k.
FAMILIES = {
    "heisenberg": {"n": 3, "d": 1, "brackets": [("X1", "Y1", (1,))]},
    "example2": {
        "n": 6,
        "d": 2,
        "brackets": [
            ("X1", "Y1", (1, 0)),
            ("X2", "Y2", (1, 0)),
            ("X1", "Y2", (0, 1)),
            ("X2", "Y1", (0, 1)),
        ],
    },
    "example3": {
        "n": 9,
        "d": 3,
        "brackets": [
            ("Y1", "X1", (1, 0, 0)),
            ("Y3", "X2", (1, 0, 0)),
            ("Y2", "X3", (1, 0, 0)),
            ("Y2", "X1", (0, 1, 0)),
            ("Y1", "X2", (0, 1, 0)),
            ("Y3", "X3", (0, 1, 0)),
            ("Y3", "X1", (0, 0, 1)),
            ("Y2", "X2", (0, 0, 1)),
            ("Y1", "X3", (0, 0, 1)),
        ],
    },
}


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def _evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, mono):
            term *= Fraction(x) ** e
        total += term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


def modulation_matrix(brackets, d: int, v: int) -> list[list[dict]]:
    """B[i][j] = -<lambda, [X_i, Y_j]> as linear polynomials in v variables."""
    mat = [[{} for _ in range(d)] for _ in range(d)]
    for a, b, vec in brackets:
        if a[0] == "X" and b[0] == "Y":
            i, j, sign = int(a[1:]) - 1, int(b[1:]) - 1, 1
        elif a[0] == "Y" and b[0] == "X":
            i, j, sign = int(b[1:]) - 1, int(a[1:]) - 1, -1
        else:
            continue
        for k, c in enumerate(vec):
            if c:
                mono = tuple(1 if t == k else 0 for t in range(v))
                mat[i][j][mono] = mat[i][j].get(mono, 0) - sign * Fraction(c)
    return mat


def determinant(mat: list[list[dict]], v: int) -> dict:
    """Leibniz expansion; fine for the d <= 3 matrices used here."""
    n = len(mat)
    total: dict = {}
    for perm in permutations(range(n)):
        term = {(0,) * v: Fraction(1)}
        for i, j in enumerate(perm):
            term = _mul(term, mat[i][j])
        total = _add(total, term, _perm_sign(perm))
    return total


def density(family: str) -> dict:
    fam = FAMILIES[family]
    v = fam["n"] - 2 * fam["d"]
    return determinant(modulation_matrix(fam["brackets"], fam["d"], v), v)


def coefficient_list(p: dict) -> list:
    """Same layout as a report's det_b entry: sorted [exponents, "p/q"] pairs."""
    return [[list(m), str(Fraction(c))] for m, c in sorted(p.items())]


def _number_det(m) -> Fraction:
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        term = Fraction(_perm_sign(perm))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def lattice_matrices(family: str, lam, q, b):
    """Exact fiber lattice at lam: (translation, modulation, volume, det B(lam))."""
    fam = FAMILIES[family]
    d = fam["d"]
    v = fam["n"] - 2 * d
    q = [Fraction(x) for x in q]
    b = [Fraction(x) for x in b]
    bmat = modulation_matrix(fam["brackets"], d, v)
    at_lam = [[_evaluate(bmat[i][j], lam) for j in range(d)] for i in range(d)]
    mod = [[at_lam[i][j] / q[j] for j in range(d)] for i in range(d)]
    trans = [[1 / b[i] if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    det_val = _number_det(at_lam)
    prod_bq = Fraction(1)
    for bi, qi in zip(b, q):
        prod_bq *= bi * qi
    return trans, mod, abs(det_val) / prod_bq, det_val


# ---------------------------------------------------------------------------
# closed forms over the box [0, a]
# ---------------------------------------------------------------------------


def sup_reference(family: str, a) -> Fraction:
    """Supremum of |det| over the box."""
    a = [Fraction(x) for x in a]
    if family == "heisenberg":
        return a[0]
    if family == "example2":
        # |l1^2 - l2^2| is largest at a corner on one axis
        return max(a[0] ** 2, a[1] ** 2)
    if family == "example3":
        # x^3+y^3+z^3-3xyz on a cube [0,t]^3 peaks at (t,t,0) and permutations
        if not a[0] == a[1] == a[2]:
            raise ValueError("example3 reference needs a cube")
        return 2 * a[0] ** 3
    raise KeyError(family)


def measure_reference(family: str, a) -> Fraction:
    """Integral of |det| over the box."""
    a = [Fraction(x) for x in a]
    if family == "heisenberg":
        return a[0] ** 2 / 2
    if family == "example2":
        a1, a2 = sorted(a)
        return (a1**4 + a1 * a2**3 - a1**3 * a2) / 3
    if family == "example3":
        # |det| = x^3+y^3+z^3-3xyz >= 0 on the positive orthant (AM-GM)
        x, y, z = a
        return (x**4 * y * z + x * y**4 * z + x * y * z**4) / 4 - 3 * (x * y * z) ** 2 / 8
    raise KeyError(family)
