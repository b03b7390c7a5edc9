"""Step functions on (0, infinity): rearrangement, dilation, Boyd indices.

This is the commutative mirror of the operator side: the algebra is
multiplication by bounded functions, the trace is Lebesgue integration,
and the singular-number function becomes the classical non-increasing
rearrangement.
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


class StepFunction:
    """Complex step function with finitely many steps, zero eventually.

    Value values[k] is taken on [bounds[k], bounds[k+1]); bounds[0] is 0
    and the function vanishes on [bounds[-1], infinity).  Canonical form
    merges repeated adjacent values and trims trailing zeros.
    """

    __slots__ = ("bounds", "values")

    def __init__(self, bounds, values):
        bounds = np.asarray(bounds, dtype=float)
        values = np.asarray(values, dtype=complex)
        if bounds.size != values.size + 1:
            raise ValueError("need len(bounds) == len(values) + 1")
        if bounds[0] != 0.0:
            raise ValueError("support description must start at 0")
        if np.any(np.diff(bounds) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        merged_b, merged_v = [0.0], []
        for k in range(values.size):
            if merged_v and values[k] == merged_v[-1]:
                merged_b[-1] = float(bounds[k + 1])
            else:
                merged_v.append(complex(values[k]))
                merged_b.append(float(bounds[k + 1]))
        while merged_v and merged_v[-1] == 0:
            merged_v.pop()
            merged_b.pop()
        self.bounds = np.array(merged_b if merged_v else [0.0, 1.0])
        self.values = (np.array(merged_v, dtype=complex) if merged_v
                       else np.array([0.0], dtype=complex))

    @classmethod
    def indicator(cls, length: float) -> "StepFunction":
        """Characteristic function of [0, length)."""
        if length <= 0:
            raise ValueError("indicator length must be positive")
        return cls([0.0, length], [1.0])

    @property
    def support_bound(self) -> float:
        return float(self.bounds[-1])

    def step_lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    def __mul__(self, scalar):
        return StepFunction(self.bounds, self.values * complex(scalar))

    __rmul__ = __mul__

    def abs(self) -> "StepFunction":
        return StepFunction(self.bounds, np.abs(self.values))

    def integral(self) -> complex:
        return complex(np.dot(self.values, self.step_lengths()))

    def lp_norm(self, p: float) -> float:
        if p == np.inf:
            return float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if p < 1:
            raise UnsupportedNormError("p must be >= 1")
        total = float(np.dot(np.abs(self.values) ** p, self.step_lengths()))
        return total ** (1.0 / p)

    def lorentz_norm(self, p: float, q: float) -> float:
        return rearrangement(self).lorentz_norm(p, q)

    def __repr__(self):
        return f"StepFunction(steps={self.values.size}, support={self.support_bound:.6g})"


def rearrangement(f: StepFunction) -> SingularFunction:
    """Non-increasing rearrangement of |f|: sort (value, length) pairs."""
    return SingularFunction(np.abs(f.values), f.step_lengths())


def dilation(f: StepFunction, s: float) -> StepFunction:
    """D_s f (t) = f(t / s): stretch the breakpoints by the factor s."""
    if s <= 0:
        raise ValueError("dilation factor must be positive")
    return StepFunction(f.bounds * s, f.values)


def _norm_value(f: StepFunction, p: float, q=None) -> float:
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
        f = StepFunction.indicator(2.0 ** k)
        denominator = _norm_value(f, p, q)
        if denominator == 0:
            continue
        best = max(best, _norm_value(dilation(f, s), p, q) / denominator)
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
