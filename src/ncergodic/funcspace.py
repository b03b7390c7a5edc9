"""Dilation norms and Boyd indices of the L_p and Lorentz norms.

A rearrangement-invariant norm sees a function only through its
non-increasing rearrangement, which on the operator side is the
singular-number function; so the dilated test functions here are
`SingularFunction`s, and dilating by s stretches their steps by s.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedNormError
from .ncnorms import SingularFunction, _check_lorentz_params

# Test family used to estimate dilation-operator norms: indicators of
# [0, 2^k).  Rearrangement-invariant (p, q) norms attain their dilation
# norm on this family, which keeps the Boyd estimate closed-form.
DILATION_TEST_EXPONENTS = tuple(range(-10, 11))

# Dilation factors at which the two Boyd limits are read off.
BOYD_LIMIT_SCALES = (2.0 ** -16, 2.0 ** 16)


def _norm_value(f: SingularFunction, p: float, q=None) -> float:
    return f.lp_norm(p) if q is None else f.lorentz_norm(p, q)


def dilation_norm_estimate(s: float, p: float, q=None) -> float:
    """Lower estimate of ||D_s|| on the (p, q) norm.

    Maximizes ||D_s f|| / ||f|| over indicators of [0, 2^k); for the
    L_{p,q} family this family is extremal and the estimate is exact
    (the ratio is s^(1/p) for every member).
    """
    if s <= 0:
        raise ValueError("dilation factor must be positive")
    best = 0.0
    for k in DILATION_TEST_EXPONENTS:
        length = 2.0 ** k
        denominator = _norm_value(SingularFunction([1.0], [length]), p, q)
        if denominator == 0:
            continue
        dilated = SingularFunction([1.0], [length * s])
        best = max(best, _norm_value(dilated, p, q) / denominator)
    return best


def boyd_estimate(p: float, q=None, s_grid=None):
    """Estimate the two Boyd indices of L_p or L_{p,q}.

    The lower index is log s / log ||D_s|| read at the largest grid
    point, the upper index the same expression at the smallest; the
    grid must contain factors well above and below 1.

    Returns (lower_estimate, upper_estimate).
    """
    if q is not None:
        _check_lorentz_params(p, q)
    elif p < 1:
        raise UnsupportedNormError("p must be >= 1")
    if s_grid is None:
        s_grid = BOYD_LIMIT_SCALES
    s_grid = sorted(float(s) for s in s_grid)
    if not s_grid:
        raise ValueError("s_grid must not be empty")
    if s_grid[0] >= 1.0 or s_grid[-1] <= 1.0:
        raise ValueError("s_grid must contain values below and above 1")

    s_hi, s_lo = s_grid[-1], s_grid[0]
    norm_hi = dilation_norm_estimate(s_hi, p, q)
    norm_lo = dilation_norm_estimate(s_lo, p, q)
    lower = np.log(s_hi) / np.log(norm_hi)
    upper = np.log(s_lo) / np.log(norm_lo)
    return float(lower), float(upper)
