"""Cross-cutting invariants, randomized where that adds coverage."""

import contextlib
import copy
import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from nilframe.algebra import basis_vector, bracket, load_spec, validate_class
from nilframe.cli import canonical_json, fixture_path, main
from nilframe.config import parse_config
from nilframe.errors import PieceOverflowError, SchemaError
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
from nilframe.verify import window_tiling_check
from nilframe.windows import synthesize_window

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
    sup = sup_density(density_polynomial(spec), box, tol=1e-6)
    params = design_params(spec, box, sup, q=None, b=None, precision_digits=12)
    report = check_density_condition(params, sup)
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
        sup = sup_density(density_polynomial(spec), box, tol=1e-6)
        params = design_params(spec, box, sup, q=None, b=None, precision_digits=12)
        assert check_density_condition(params, sup).passed
        grown = QuasiLatticeParams(
            a=params.a,
            q=tuple(x * rng.randint(1, 3) for x in params.q),
            b=tuple(x * rng.randint(1, 3) for x in params.b),
        )
        assert check_density_condition(grown, sup).passed


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
        sup = sup_density(det_b, box, tol=1e-6)
        params = design_params(spec, box, sup, q=None, b=None, precision_digits=12)
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_synthesized_windows_certify_and_need_every_piece(seed):
    rng = random.Random(seed)
    spec = random_valid_spec(rng)

    def rational():
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))

    params = QuasiLatticeParams(
        a=(Fraction(1),) * spec.center_dim,
        q=tuple(rational() for _ in range(spec.d)),
        b=tuple(rational() for _ in range(spec.d)),
    )
    lam = tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 8)) for _ in range(spec.center_dim))
    lat = fiber_lattice(spec, params, lam)
    assume(lat.det_b != 0 and lat.volume <= 1)
    try:
        window = synthesize_window(lat, piece_limit=500)
    except PieceOverflowError:
        reject()
    assert window_tiling_check([(window, lat)]).passed
    if window.piece_count > 1:
        for i in range(window.piece_count):
            broken = replace(window, offsets=window.offsets[:i] + window.offsets[i + 1 :])
            rep = window_tiling_check([(broken, lat)])
            assert not rep.passed and rep.max_tiling_deviation == 1


def _slots(node, path=()):
    """Key paths of every section and leaf below a JSON node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


# the heisenberg fixture with every optional section present, so each can be replaced
_FUZZ_BASE = json.loads(fixture_path("heisenberg.json").read_text())
_FUZZ_BASE["spectrum"]["sub_boxes"] = [{"lo": ["0"], "hi": ["1/2"]}]
_FUZZ_BASE["output"] = {"field_path": None, "csv_path": None}

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(alphabet="0123456789/-+. _,aeEXYZ", max_size=6)
)
_json_values = (
    _json_scalars
    | st.lists(_json_scalars, max_size=3)
    | st.dictionaries(st.text(alphabet="abloqhi", max_size=4), _json_scalars, max_size=3)
)


@settings(max_examples=400, deadline=None)
@given(slot=st.sampled_from(list(_slots(_FUZZ_BASE))), value=_json_values)
def test_parse_config_accepts_or_raises_schema_error(slot, value):
    doc = copy.deepcopy(_FUZZ_BASE)
    parent = doc
    for key in slot[:-1]:
        parent = parent[key]
    parent[slot[-1]] = value
    try:
        parse_config(doc)
    except SchemaError:
        pass


# --config is the heisenberg fixture, a missing path, or this file (not JSON)
_CONFIGS = [str(fixture_path("heisenberg.json")), str(Path(__file__).with_name("missing.json")), __file__]
_FLAG_VALUES = ["abc", "nan", "inf", "0", "-1", "1e-300", "4,x", "1,2", "0,0,0", "7"]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from([["validate"], ["analyze"], ["design"], ["examples", "--example", "1"]]),
    config=st.sampled_from(_CONFIGS),
    flags=st.lists(
        st.tuples(
            st.sampled_from(["--tol", "--grid", "--trunc", "--example", "--frobnicate"]),
            st.sampled_from(_FLAG_VALUES),
        ),
        max_size=3,
    ),
)
def test_main_exits_with_a_structured_code(command, config, flags):
    argv = command + ["--config", config] + [arg for flag in flags for arg in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue())  # one JSON document, the report or an error block


def _stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _text_or_error(write, doc):
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


# leaves the writer must print as json does: non-ASCII and control
# characters, big integers, signed zero, the subnormal and near-overflow ends
_writer_leaves = (
    st.text()
    | st.text(alphabet="\x00\x1f\x7f\"\\\u00e9\u2028\U0001f600 a")
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 1e16, 1e-7])
    | st.none()
)
# one key type per dictionary (str, or the mutually ordered numbers and
# bools, or None); a mix that sorting cannot order raises TypeError in both
_writer_keys = st.sampled_from(
    [
        st.text(max_size=4),
        st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.booleans(),
        st.none(),
        st.text(max_size=2) | st.integers(-3, 3),
    ]
)
_writer_trees = st.recursive(
    _writer_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | _writer_keys.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=_writer_trees)
def test_canonical_json_is_the_stdlib_text(doc):
    assert _text_or_error(canonical_json, doc) == _text_or_error(_stdlib_json, doc)


@settings(max_examples=100, deadline=None)
@given(shared=st.lists(st.text(alphabet="\x00\"\\\u00e9 a", max_size=3), min_size=1, max_size=4))
def test_canonical_json_writes_a_shared_list_at_each_depth(shared):
    # one list object several times at depths 1, 2 and 3, as a window's
    # shape list is shared by all its pieces: the writer joins it once per
    # depth, and each depth indents it differently
    doc = {
        "top": shared,
        "mid": [shared, shared],
        "pieces": [{"offset": ["0"], "shape": shared}, {"offset": ["1"], "shape": shared}],
    }
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("place", ["value", "list", "dict value", "key"])
def test_canonical_json_rejects_non_finite_floats(bad, place):
    doc = {"value": bad, "list": [1, [bad]], "dict value": {"a": {"b": bad}}, "key": {bad: 1}}[place]
    for write in (canonical_json, _stdlib_json):
        with pytest.raises(ValueError):
            write(doc)
