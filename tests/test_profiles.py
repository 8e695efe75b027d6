"""Smooth step and freeze ramp: exact plateaus, smoothness, monotonicity."""
from __future__ import annotations

import warnings

import numpy as np

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
