"""Smooth step profiles with exact plateaus.

The unit step is the standard exponential bump quotient

    theta(r) = e(r) / (e(r) + e(1 - r)),   e(r) = exp(-1/r) for r > 0, else 0.

It is C-infinity, identically 0 on (-inf, 0], identically 1 on [1, inf), and
strictly increasing on (0, 1).  Because e(r) vanishes exactly (not merely
approximately) outside r > 0, the plateau values are bit-exact in floating
point.  The freeze ramp is psi(r) = r * theta(r): 0 on (-inf, 0], the identity
on [1, inf), monotone nondecreasing everywhere.

Both are evaluated without masked scatter: the formula runs on every element
with each exponential replaced by its exact zero where it vanishes, and a
batch that lies wholly on the lower plateau (as every time of a curve bundle
in a frozen past does) is returned as zeros without it.
"""
from __future__ import annotations

import numpy as np


def smooth_unit_step(r):
    """theta(r): 0 for r <= 0, 1 for r >= 1, smooth strictly monotone between."""
    r = np.asarray(r, dtype=float)
    if r.size and r.max() <= 0.0:
        # the whole batch on the lower plateau, where the quotient is 0 / b
        out = np.zeros(r.shape)
    else:
        # both exponentials on every element, each masked to its exact zero:
        # exp(-1/r) overflows, divides by zero or is discarded off r > 0 (and
        # exp(-1/(1-r)) off r < 1), and a NaN r gives 0/0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a = np.where(r > 0.0, np.exp(-1.0 / r), 0.0)
            b = np.where(r < 1.0, np.exp(-1.0 / (1.0 - r)), 0.0)
            out = a / (a + b)
    return float(out) if out.ndim == 0 else out


def smooth_freeze_ramp(r):
    """psi(r) = r * theta(r): 0 for r <= 0, identity for r >= 1."""
    r = np.asarray(r, dtype=float)
    if r.size and r.max() <= 0.0:
        out = np.zeros(r.shape)
    else:
        # exact plateaus: 0 (never -0.0) below, r itself above; -inf * 0 is
        # discarded there
        with np.errstate(invalid="ignore"):
            out = np.where(r >= 1.0, r, np.where(r <= 0.0, 0.0, r * smooth_unit_step(r)))
    return float(out) if out.ndim == 0 else out
