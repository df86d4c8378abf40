"""Cross-cutting invariants, randomized where that adds coverage."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilframe.algebra import basis_vector, bracket, load_spec, validate_class
from nilframe.lattice import (
    QuasiLatticeParams,
    check_density_condition,
    design_params,
    fiber_lattice,
)
from nilframe.polynomial import determinant
from nilframe.spectral import (
    SpectrumBox,
    build_matrices,
    density_polynomial,
    eval_density,
    pfaffian_identity_check,
    spectral_measure,
    sup_density,
)

from conftest import EXAMPLE2_DOC, EXAMPLE3_DOC, random_valid_spec

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bracket_antisymmetric_and_bilinear(seed, data):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)
    u = data.draw(st.lists(rationals, min_size=spec.n, max_size=spec.n))
    v = data.draw(st.lists(rationals, min_size=spec.n, max_size=spec.n))
    w = data.draw(st.lists(rationals, min_size=spec.n, max_size=spec.n))
    c = data.draw(rationals)
    fwd = bracket(spec, u, v)
    bwd = bracket(spec, v, u)
    assert fwd == tuple(-x for x in bwd)
    combo = [c * ui + wi for ui, wi in zip(u, w)]
    lhs = bracket(spec, combo, v)
    rhs = tuple(c * a + b for a, b in zip(bracket(spec, u, v), bracket(spec, w, v)))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_step_nested_brackets_vanish(seed):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)
    for i in range(spec.n):
        for j in range(spec.n):
            inner = bracket(spec, basis_vector(spec, i), basis_vector(spec, j))
            for k in range(spec.n):
                outer = bracket(spec, inner, basis_vector(spec, k))
                assert all(x == 0 for x in outer)


def test_pfaffian_identity_on_fifty_random_specs():
    rng = random.Random(20260809)
    for _ in range(50):
        spec = random_valid_spec(rng)
        assert validate_class(spec).passed
        mats = build_matrices(spec)
        report = pfaffian_identity_check(mats.jump_block, mats.det_b)
        assert report.passed, f"pfaffian identity failed for {spec.brackets}"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fiber_volume_equals_density_ratio(seed):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)
    det_b = density_polynomial(spec)
    params = QuasiLatticeParams(
        a=tuple(Fraction(rng.randint(1, 4)) for _ in range(spec.center_dim)),
        q=tuple(Fraction(rng.randint(1, 3)) for _ in range(spec.d)),
        b=tuple(Fraction(rng.randint(1, 4)) for _ in range(spec.d)),
    )
    lam = tuple(Fraction(rng.randint(0, 8), 4) for _ in range(spec.center_dim))
    lat = fiber_lattice(spec, params, lam)
    assert lat.volume == eval_density(det_b, lam) / params.prod_bq


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_designed_params_always_satisfy_density(seed):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)
    box = SpectrumBox(a=tuple(Fraction(rng.randint(1, 3)) for _ in range(spec.center_dim)))
    params, sup = design_params(spec, box, sup_tol=1e-6)
    report = check_density_condition(spec, params, box, sup_result=sup, tol=1e-6)
    assert report.passed


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sup_dominates_point_evaluations(seed):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)
    det_b = density_polynomial(spec)
    box = SpectrumBox(a=tuple(Fraction(2) for _ in range(spec.center_dim)))
    res = sup_density(det_b, box, tol=1e-6)
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(0, 16), 8) for _ in range(spec.center_dim))
        assert eval_density(det_b, pt) <= res.upper


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plain_measure_brackets_closed_forms_on_scaled_boxes(seed):
    # example2 on [0, 2s] x [0, 3s] integrates |l1^2 - l2^2| to 46/3 s^4,
    # example3 on [0, t]^3 its cubic to 3/8 t^6
    rng = random.Random(seed)
    s, t = (Fraction(rng.randint(4, 24), rng.randint(4, 16)) for _ in range(2))
    cases = [
        (EXAMPLE2_DOC, (2 * s, 3 * s), Fraction(46, 3) * s**4, 1e-5 * float(s) ** 4),
        (EXAMPLE3_DOC, (t, t, t), Fraction(3, 8) * t**6, 2e-2 * float(t) ** 6),
    ]
    for doc, a, exact, tol in cases:
        det_b = density_polynomial(load_spec(doc))
        res = spectral_measure(det_b, SpectrumBox(a=a), tol=tol)
        assert res.lower <= exact <= res.upper
        assert res.certificate.converged and float(res.width) <= tol


def test_density_verdict_monotone_under_parameter_growth():
    rng = random.Random(7)
    for _ in range(10):
        spec = random_valid_spec(rng)
        box = SpectrumBox(a=tuple(Fraction(1) for _ in range(spec.center_dim)))
        params, sup = design_params(spec, box, sup_tol=1e-6)
        assert check_density_condition(spec, params, box, sup_result=sup).passed
        grown = QuasiLatticeParams(
            a=params.a,
            q=tuple(x * rng.randint(1, 3) for x in params.q),
            b=tuple(x * rng.randint(1, 3) for x in params.b),
        )
        assert check_density_condition(spec, grown, box, sup_result=sup).passed


def test_window_norm_equals_volume_across_random_fibers():
    from nilframe.windows import synthesize_window

    rng = random.Random(99)
    checked = 0
    while checked < 12:
        spec = random_valid_spec(rng)
        if spec.d > 2:
            continue  # keep piece counts small for speed
        det_b = density_polynomial(spec)
        box = SpectrumBox(a=tuple(Fraction(1) for _ in range(spec.center_dim)))
        params, _ = design_params(spec, box, sup_tol=1e-6)
        lam = tuple(Fraction(2 * rng.randint(0, 7) + 1, 16) for _ in range(spec.center_dim))
        lat = fiber_lattice(spec, params, lam)
        if lat.det_b == 0 or lat.volume > 1:
            continue
        try:
            window = synthesize_window(lat, piece_limit=3000)
        except Exception:
            continue
        assert abs(window.norm_sq - float(lat.volume)) <= 1e-9
        checked += 1
