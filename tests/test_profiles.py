"""Smooth step and freeze ramp: exact plateaus, smoothness, monotonicity, and
bit-identity with the masked-scatter form they replaced."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_surgery.profiles import smooth_freeze_ramp, smooth_unit_step


def test_unit_step_plateaus_are_bit_exact():
    r = np.array([-10.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 50.0])
    v = smooth_unit_step(r)
    assert v[0] == 0.0 and v[1] == 0.0 and v[2] == 0.0
    assert v[3] == 1.0 and v[4] == 1.0 and v[5] == 1.0
    # no negative zeros sneaking in
    assert np.signbit(v[:3]).sum() == 0


def test_unit_step_monotone_on_transition():
    # exp(-1/r) underflows to 0 very close to the edges, so strictness is
    # only observable on the interior of the transition at double precision
    r = np.linspace(0.05, 0.95, 2001)
    v = smooth_unit_step(r)
    assert np.all(np.diff(v) > 0)
    assert np.all((v > 0) & (v < 1))
    full = smooth_unit_step(np.linspace(-0.5, 1.5, 4001))
    assert np.all(np.diff(full) >= 0)


def test_unit_step_symmetry():
    # theta(r) + theta(1 - r) = 1 by construction
    r = np.linspace(-0.5, 1.5, 401)
    np.testing.assert_allclose(
        smooth_unit_step(r) + smooth_unit_step(1.0 - r), 1.0, rtol=0, atol=1e-15
    )


def test_unit_step_scalar_round_trip():
    assert smooth_unit_step(0.5) == 0.5
    assert isinstance(smooth_unit_step(0.25), float)


def test_unit_step_flat_contact_at_plateau_edges():
    # all derivatives vanish at 0 and 1; a finite-difference slope near the
    # edges must be far below any polynomial contact order
    eps = 1e-2
    assert smooth_unit_step(eps) < eps**8
    assert 1.0 - smooth_unit_step(1.0 - eps) < eps**8


def test_freeze_ramp_plateaus():
    r = np.array([-3.0, -0.0, 0.0, 1.0, 2.5])
    v = smooth_freeze_ramp(r)
    assert v[0] == 0.0 and not np.signbit(v[0])
    assert v[1] == 0.0 and v[2] == 0.0
    assert v[3] == 1.0
    assert v[4] == 2.5


def test_freeze_ramp_monotone_nondecreasing():
    r = np.linspace(-1.0, 2.0, 3001)
    v = smooth_freeze_ramp(r)
    assert np.all(np.diff(v) >= 0)
    assert np.all(v[r <= 0] == 0.0)
    assert np.all(v <= np.maximum(r, 0.0) + 1e-15)


def test_subnormal_arguments_give_exact_zero_without_warnings():
    # -1/r overflows to -inf for a subnormal r; theta(r) is still exactly 0
    tiny = np.nextafter(0.0, 1.0)
    r = np.array([tiny, 1e-310, np.finfo(float).tiny, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = smooth_unit_step(r)
        psi = smooth_freeze_ramp(r)
        assert smooth_unit_step(tiny) == 0.0
        assert smooth_freeze_ramp(tiny) == 0.0
        assert smooth_unit_step(1.0 - np.finfo(float).epsneg) == 1.0
    np.testing.assert_array_equal(theta, 0.0)
    np.testing.assert_array_equal(psi, 0.0)
    assert not np.signbit(theta).any() and not np.signbit(psi).any()


# -- the masked-scatter implementations these replace, kept as oracles ------


def _scatter_unit_step(r):
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    lo = r <= 0.0
    hi = r >= 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    mid = ~(lo | hi)
    if np.any(mid):
        rm = r[mid]
        with np.errstate(over="ignore", divide="ignore"):
            a = np.exp(-1.0 / rm)
            b = np.exp(-1.0 / (1.0 - rm))
        out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


def _scatter_freeze_ramp(r):
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    with np.errstate(invalid="ignore"):  # -inf * 0, overwritten below
        out = r * _scatter_unit_step(r)
    out[r <= 0.0] = 0.0
    out[r >= 1.0] = r[r >= 1.0]
    return float(out[0]) if scalar else out


TINY = np.finfo(float).tiny
SUBNORMAL = np.nextafter(0.0, 1.0)
EDGES = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, TINY, -TINY, np.nextafter(1.0, 0.0),
         np.nextafter(1.0, 2.0), 1.0, np.inf, -np.inf, np.nan]


def _assert_same_bits(new, old):
    """Equal bit for bit, except that any NaN matches any NaN (a NaN's
    payload is not a value)."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    nan = np.isnan(old)
    np.testing.assert_array_equal(np.isnan(new), nan)
    assert new[~nan].tobytes() == old[~nan].tobytes()


@pytest.mark.parametrize("fn, oracle", [(smooth_unit_step, _scatter_unit_step),
                                        (smooth_freeze_ramp, _scatter_freeze_ramp)])
def test_edge_values_match_the_scatter_form(fn, oracle):
    r = np.array(EDGES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(r)
        on_plateau = fn(-np.abs(r[np.isfinite(r)]))  # the whole-batch plateau exit
        empty = fn(np.empty(0))
    _assert_same_bits(got, oracle(r))
    _assert_same_bits(on_plateau, oracle(-np.abs(r[np.isfinite(r)])))
    assert empty.shape == (0,)
    for v in EDGES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = fn(v)
        assert type(one) is float
        _assert_same_bits(one, oracle(v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    r=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(-0.5, 1.5),
            st.floats(-1e-300, 1e-300),
            st.sampled_from(EDGES),
        ),
        max_size=40,
    ),
    shape2d=st.booleans(),
)
def test_steps_match_the_scatter_form(r, shape2d):
    """Any batch, including its shape, gives the scatter form's values."""
    r = np.array(r, dtype=float)
    if shape2d and r.size % 2 == 0:
        r = r.reshape(2, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, psi = smooth_unit_step(r), smooth_freeze_ramp(r)
    _assert_same_bits(theta, _scatter_unit_step(r))
    _assert_same_bits(psi, _scatter_freeze_ramp(r))


@pytest.mark.parametrize("v", [0.25, np.float64(0.25), np.array(0.25), 1, -3, np.float32(0.5)])
def test_scalars_and_zero_d_arrays_give_floats(v):
    assert type(smooth_unit_step(v)) is float
    assert type(smooth_freeze_ramp(v)) is float
    assert smooth_unit_step(v) == _scatter_unit_step(v)
    assert smooth_freeze_ramp(v) == _scatter_freeze_ramp(v)
