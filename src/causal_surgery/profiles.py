"""Smooth step profiles with exact plateaus.

The unit step is the standard exponential bump quotient

    theta(r) = e(r) / (e(r) + e(1 - r)),   e(r) = exp(-1/r) for r > 0, else 0.

It is C-infinity, identically 0 on (-inf, 0], identically 1 on [1, inf), and
strictly increasing on (0, 1).  Because e(r) vanishes exactly (not merely
approximately) outside r > 0, the plateau values are bit-exact in floating
point.  The freeze ramp is psi(r) = r * theta(r): 0 on (-inf, 0], the identity
on [1, inf), monotone nondecreasing everywhere.
"""
from __future__ import annotations

import numpy as np


def smooth_unit_step(r):
    """theta(r): 0 for r <= 0, 1 for r >= 1, smooth strictly monotone between."""
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
        # -1/rm overflows to -inf for subnormal rm; exp(-inf) is the exact 0
        with np.errstate(over="ignore", divide="ignore"):
            a = np.exp(-1.0 / rm)
            b = np.exp(-1.0 / (1.0 - rm))
        out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


def smooth_freeze_ramp(r):
    """psi(r) = r * theta(r): 0 for r <= 0, identity for r >= 1."""
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = r * smooth_unit_step(r)
    # exact plateaus: r * 1.0 is already bit-exact, but force both plateau
    # regions through their definitions (also normalizes -0.0 from r * 0.0)
    out[r <= 0.0] = 0.0
    out[r >= 1.0] = r[r >= 1.0]
    return float(out[0]) if scalar else out
