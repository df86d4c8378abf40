"""Algebra loading, bracket extension, class validation, jump indices."""

import random
from fractions import Fraction
from itertools import product

import pytest

from nilframe.algebra import (
    LieAlgebraSpec,
    ad_matrix,
    basis_vector,
    bracket,
    jump_indices,
    load_spec,
    validate_class,
)
from nilframe.errors import RankDeficiencyError, SchemaError

from conftest import EXAMPLE2_DOC, HEISENBERG_DOC, random_valid_spec


class TestLoadSpec:
    def test_heisenberg_document(self, heisenberg):
        assert heisenberg.n == 3 and heisenberg.d == 1
        assert heisenberg.brackets == {(1, 2): (Fraction(-1),)}  # normalized to (Y1, X1) with flip

    def test_example2_document(self, example2):
        assert len(example2.brackets) == 4
        # [X1, Y1] = Z1 recovered through antisymmetry
        assert example2.bracket_vector(example2.x_index(0), example2.y_index(0)) == (
            Fraction(1),
            Fraction(0),
        )

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(SchemaError):
            load_spec({"n": 3, "d": 1, "brackets": {"X1,Y1": [1, 0]}})

    def test_index_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            load_spec({"n": 3, "d": 1, "brackets": {"X2,Y1": [1]}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            load_spec({"n": 3, "d": 1, "brackets": {}, "extra": 1})

    def test_rationals_parsed_exactly(self):
        spec = load_spec({"n": 3, "d": 1, "brackets": {"X1,Y1": ["2/3"]}})
        assert spec.bracket_vector(2, 1) == (Fraction(2, 3),)

    def test_dimension_mismatch(self):
        with pytest.raises(SchemaError):
            load_spec({"n": 2, "d": 1, "brackets": {}})


class TestBracket:
    def test_heisenberg_xy(self, heisenberg):
        x1 = basis_vector(heisenberg, heisenberg.x_index(0))
        y1 = basis_vector(heisenberg, heisenberg.y_index(0))
        assert bracket(heisenberg, x1, y1) == (Fraction(1), Fraction(0), Fraction(0))

    def test_self_bracket_vanishes(self, example2):
        rng = random.Random(5)
        v = [Fraction(rng.randint(-4, 4)) for _ in range(example2.n)]
        assert all(c == 0 for c in bracket(example2, v, v))

    def test_bilinearity_example2(self, example2):
        # [X1 + X2, Y1] = Z1 + Z2
        x = [Fraction(0)] * example2.n
        x[example2.x_index(0)] = Fraction(1)
        x[example2.x_index(1)] = Fraction(1)
        y1 = basis_vector(example2, example2.y_index(0))
        out = bracket(example2, x, y1)
        assert out[:2] == (Fraction(1), Fraction(1))

    def test_antisymmetry_exhaustive_on_basis(self, example2):
        for i, j in product(range(example2.n), repeat=2):
            bi = basis_vector(example2, i)
            bj = basis_vector(example2, j)
            fwd = bracket(example2, bi, bj)
            bwd = bracket(example2, bj, bi)
            assert fwd == tuple(-c for c in bwd)

    def test_jacobi_via_two_step(self, example3):
        # brackets land in the center, so nested brackets vanish identically
        for i, j, k in product(range(example3.n), repeat=3):
            inner = bracket(example3, basis_vector(example3, i), basis_vector(example3, j))
            outer = bracket(example3, inner, basis_vector(example3, k))
            assert all(c == 0 for c in outer)

    def test_length_mismatch(self, heisenberg):
        with pytest.raises(ValueError):
            bracket(heisenberg, [1, 0], [0, 1, 0])


class TestValidateClass:
    def test_heisenberg_passes_all(self, heisenberg):
        report = validate_class(heisenberg)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "two_step_centrality",
            "p_abelian",
            "m_abelian",
            "nontrivial_action",
            "square_integrable",
            "adjoint_nilpotent",
        ]

    def test_examples_pass(self, example2, example3):
        assert validate_class(example2).passed
        assert validate_class(example3).passed

    def test_zero_bracket_spec_fails_action_and_square_integrability(self):
        spec = load_spec({"n": 3, "d": 1, "brackets": {}})
        report = validate_class(spec)
        assert not report.passed
        assert not report.check("nontrivial_action").passed
        assert not report.check("square_integrable").passed

    def test_rank_one_bracket_table_fails_det(self):
        spec = load_spec({"n": 6, "d": 2, "brackets": {"X1,Y1": [1, 0]}})
        report = validate_class(spec)
        assert not report.check("square_integrable").passed
        # the structural checks still pass
        assert report.check("p_abelian").passed

    def test_y_y_bracket_fails_p_abelian(self):
        spec = load_spec({"n": 6, "d": 2, "brackets": {"Y1,Y2": [1, 0], "X1,Y1": [1, 0]}})
        report = validate_class(spec)
        assert not report.check("p_abelian").passed

    def test_adjoint_square_zero_on_generators(self, example2):
        for k in range(example2.d):
            w = [Fraction(0)] * example2.n
            w[example2.x_index(k)] = Fraction(1)
            mat = ad_matrix(example2, w)
            assert any(any(c != 0 for c in row) for row in mat)
            n = example2.n
            sq = [
                [sum(mat[i][t] * mat[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert all(all(c == 0 for c in row) for row in sq)

    def test_adjoint_check_matches_dense_squares(self):
        # the dense ad(+-X_k) matrices and their squares are the reference, on
        # random tables with central brackets (ad^2 != 0) and generators that
        # bracket with nothing (ad = 0)
        rng = random.Random(4321)
        seen = set()
        for _ in range(80):
            d = rng.randint(1, 3)
            n = 2 * d + rng.randint(1, 3)
            table = {}
            for i, j in product(range(n), repeat=2):
                if i < j and rng.random() < 0.25:
                    vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n - 2 * d))
                    if any(vec):
                        table[(i, j)] = vec
            spec = LieAlgebraSpec(n=n, d=d, brackets=table)
            detail = []
            for k, sign in product(range(d), (1, -1)):
                w = [Fraction(0)] * n
                w[spec.x_index(k)] = Fraction(sign)
                mat = ad_matrix(spec, w)
                sq = [
                    [sum(mat[i][t] * mat[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)
                ]
                name = f"{'-' if sign < 0 else ''}X{k + 1}"
                if not any(any(row) for row in mat):
                    detail.append(f"ad({name}) = 0")
                if any(any(row) for row in sq):
                    detail.append(f"ad({name})^2 != 0")
            check = validate_class(spec).check("adjoint_nilpotent")
            assert check.passed == (not detail)
            assert check.detail == (
                "; ".join(detail) if detail else "ad(+-X_k) nonzero with vanishing square for all k"
            )
            seen.update(line.split(")", 1)[1] for line in detail)
            seen.add(check.passed)
        assert seen == {" = 0", "^2 != 0", True, False}


class TestJumpIndices:
    def test_heisenberg(self, heisenberg):
        assert jump_indices(heisenberg) == (2, 3)

    def test_example2(self, example2):
        assert jump_indices(example2) == (3, 4, 5, 6)

    def test_example3(self, example3):
        assert jump_indices(example3) == (4, 5, 6, 7, 8, 9)

    def test_zero_spec_rank_deficient(self):
        spec = load_spec({"n": 3, "d": 1, "brackets": {}})
        with pytest.raises(RankDeficiencyError):
            jump_indices(spec)

    def test_top_block_for_random_valid_specs(self):
        rng = random.Random(20240809)
        for _ in range(10):
            spec = random_valid_spec(rng)
            assert jump_indices(spec) == tuple(range(spec.center_dim + 1, spec.n + 1))
