"""Generalized singular numbers, L_p and Lorentz norms and the measure
metric.

The singular-number function of x is the right-continuous non-increasing
step function mu_t(x) = inf{ lam > 0 : tau(e_lam_perp) <= t } built from
the singular values of x weighted by the trace, stored by its steps in
`SingularFunction`.  Every norm here is an exact closed-form integral
over the steps, and the measure metric d(x, y) is the crossing point of
mu(x - y) with the identity; no quadrature is used.
"""

from __future__ import annotations

import numpy as np

from .algebra import Operator
from .errors import UnsupportedNormError


class SingularFunction:
    """Non-increasing non-negative step function on (0, infinity).

    Takes value values[k] on [bounds[k], bounds[k+1]) and zero on
    [bounds[-1], infinity); bounds[0] == 0.  Construction sorts,
    merges equal adjacent values and drops zero steps.
    """

    __slots__ = ("bounds", "values")

    def __init__(self, values, lengths):
        values = np.asarray(values, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if values.shape != lengths.shape:
            raise ValueError("values/lengths length mismatch")
        if np.any(lengths < 0):
            raise ValueError("step lengths must be non-negative")
        if np.any(values < 0):
            raise ValueError("singular values must be non-negative")
        order = np.argsort(-values, kind="stable")
        values, lengths = values[order], lengths[order]
        keep = (values > 0) & (lengths > 0)
        values, lengths = values[keep], lengths[keep]
        # merge equal adjacent plateaus
        merged_v, merged_l = [], []
        for v, ell in zip(values, lengths):
            if merged_v and v == merged_v[-1]:
                merged_l[-1] += ell
            else:
                merged_v.append(v)
                merged_l.append(ell)
        self.values = np.array(merged_v, dtype=float)
        self.bounds = np.concatenate([[0.0], np.cumsum(merged_l)])

    @property
    def total_support(self) -> float:
        """Length of {mu > 0}."""
        return float(self.bounds[-1])

    def lp_norm(self, p: float) -> float:
        """(integral of mu^p)^(1/p); p = inf gives the top value."""
        if p == np.inf:
            return float(self.values[0]) if self.values.size else 0.0
        if p < 1:
            raise UnsupportedNormError("p must be >= 1")
        if self.values.size == 0:
            return 0.0
        lengths = np.diff(self.bounds)
        return float(np.dot(self.values ** p, lengths) ** (1.0 / p))

    def lorentz_norm(self, p: float, q: float) -> float:
        """Closed-form (integral (t^(1/p) mu(t))^q dt/t)^(1/q).

        Per step [a, b) with value v the integrand contributes
        v^q (p/q) (b^(q/p) - a^(q/p)); the pieces are summed exactly.
        """
        _check_lorentz_params(p, q)
        if self.values.size == 0:
            return 0.0
        e = q / p
        increments = self.bounds[1:] ** e - self.bounds[:-1] ** e
        total = float(np.dot(self.values ** q, increments) * (p / q))
        return total ** (1.0 / q)

    def crossing(self) -> float:
        """inf{eps > 0 : mu_eps <= eps}: for the singular function of
        x - y, the measure-topology metric d(x, y).

        mu is a non-increasing step function and the identity is strictly
        increasing, so the crossing point is found exactly by scanning
        the steps.
        """
        best = self.total_support  # on [t_m, inf) mu = 0 <= eps always
        for k in range(self.values.size):
            left, right, v = self.bounds[k], self.bounds[k + 1], self.values[k]
            if v < right:  # feasible inside [left, right)
                best = min(best, max(left, v))
        return float(best)

    def __repr__(self):
        return (f"SingularFunction(steps={self.values.size}, "
                f"support={self.total_support:.6g})")


def singular_function(x: Operator) -> SingularFunction:
    """Singular-number step function of an algebra element.

    Each singular value of block i contributes a step of length
    weight_i; steps are sorted into non-increasing order.
    """
    values, lengths = [], []
    for (dim, w), b in zip(x.algebra.blocks, x.blocks):
        s = np.linalg.svd(b, compute_uv=False)
        values.extend(float(v) for v in s)
        lengths.extend([w] * dim)
    return SingularFunction(values, lengths)


def lp_norm(x: Operator, p: float) -> float:
    """||x||_p = tau(|x|^p)^(1/p), computed from the spectrum of x* x.

    This is an independent route from the mu-integral: eigenvalues of
    x* x per block feed the weighted power sum directly.
    """
    if p == np.inf:
        return x.uniform_norm()
    if p < 1:
        raise UnsupportedNormError("p must be >= 1")
    total = 0.0
    for (_, w), b in zip(x.algebra.blocks, x.blocks):
        gram_eigs = np.clip(np.linalg.eigvalsh(b.conj().T @ b), 0.0, None)
        total += w * float(np.sum(gram_eigs ** (p / 2.0)))
    return total ** (1.0 / p)


def _check_lorentz_params(p, q):
    if not np.isfinite(p) or not np.isfinite(q):
        raise UnsupportedNormError("p and q must be finite")
    if q < 1:
        raise UnsupportedNormError("q must be >= 1")
    if p < 1:
        raise UnsupportedNormError("p must be >= 1")
    if p == 1 and q > 1:
        raise UnsupportedNormError("(p=1, q>1) is outside the supported region")


def lorentz_norm(x: Operator, p: float, q: float) -> float:
    """Lorentz (quasi-)norm ||x||_{p,q}.

    For q <= p this is a genuine fully symmetric norm; for p < q it is
    the quasi-norm only.
    """
    _check_lorentz_params(p, q)
    return singular_function(x).lorentz_norm(p, q)


def projection_lorentz_norm(trace_value: float, p: float, q: float) -> float:
    """Closed form ||e||_{p,q} = (p/q)^(1/q) tau(e)^(1/p) for projections."""
    _check_lorentz_params(p, q)
    if trace_value < 0:
        raise ValueError("projection trace must be non-negative")
    if trace_value == 0:
        return 0.0
    return (p / q) ** (1.0 / q) * trace_value ** (1.0 / p)

