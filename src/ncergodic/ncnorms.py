"""Generalized singular numbers, L_p and Lorentz norms, the measure
metric and the submajorization order.

The singular-number function of x is the right-continuous non-increasing
step function mu_t(x) = inf{ lam > 0 : tau(e_lam_perp) <= t } built from
the singular values of x weighted by the trace.  Every norm here is an
exact closed-form integral of that step function; no quadrature is used.
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

    def mu(self, t):
        """Right-continuous evaluation mu(t); vectorized over t."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.bounds[1:], t, side="right")
        out = np.where(idx < self.values.size,
                       self.values[np.minimum(idx, max(self.values.size - 1, 0))]
                       if self.values.size else 0.0,
                       0.0)
        return float(out) if out.ndim == 0 else out

    def cumulative(self, s: float) -> float:
        """Exact integral of mu over (0, s]."""
        if s <= 0:
            return 0.0
        lengths = np.diff(np.minimum(self.bounds, s))
        return float(np.dot(self.values, lengths))

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

    def to_csv_rows(self):
        """(t_k, v_k) rows: left endpoint and value of each step."""
        return [(float(t), float(v))
                for t, v in zip(self.bounds[:-1], self.values)]

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


def lorentz_norm(x: Operator, p: float, q: float, variant="quasi") -> float:
    """Lorentz (quasi-)norm ||x||_{p,q}.

    For q <= p this is a genuine fully symmetric norm; for p < q it is
    the quasi-norm only.  variant="norm" requests the equivalent true
    norm, which is implemented only where the quasi-norm already is one
    (q <= p); for p < q no formula is available and the call is
    rejected.
    """
    _check_lorentz_params(p, q)
    if variant == "norm" and p < q:
        raise UnsupportedNormError(
            "the equivalent norm for p < q has no closed form here; "
            "only the quasi-norm ||.||_{p,q} is computed")
    if variant not in ("quasi", "norm"):
        raise ValueError(f"unknown variant {variant!r}")
    return singular_function(x).lorentz_norm(p, q)


def projection_lorentz_norm(trace_value: float, p: float, q: float) -> float:
    """Closed form ||e||_{p,q} = (p/q)^(1/q) tau(e)^(1/p) for projections."""
    _check_lorentz_params(p, q)
    if trace_value < 0:
        raise ValueError("projection trace must be non-negative")
    if trace_value == 0:
        return 0.0
    return (p / q) ** (1.0 / q) * trace_value ** (1.0 / p)


def submajorizes(x: Operator, y: Operator, tol=1e-12) -> bool:
    """True iff integral_0^s mu(y) <= integral_0^s mu(x) for all s > 0.

    Both cumulatives are piecewise linear with kinks only at the two
    breakpoint sets, so checking the union of breakpoints (plus the far
    end) is exact.
    """
    mx, my = singular_function(x), singular_function(y)
    points = np.union1d(mx.bounds, my.bounds)
    points = points[points > 0]
    far = max(mx.total_support, my.total_support, 1.0)
    points = np.append(points, far)
    return all(my.cumulative(s) <= mx.cumulative(s) + tol for s in points)


def measure_distance(x: Operator, y: Operator) -> float:
    """Measure-topology metric d(x, y) = inf{eps > 0 : mu_eps(x-y) <= eps}.

    mu is a non-increasing step function and the identity is strictly
    increasing, so the crossing point is found exactly by scanning the
    steps.
    """
    sf = singular_function(x - y)
    if sf.values.size == 0:
        return 0.0
    best = sf.total_support  # on [t_m, inf) mu = 0 <= eps always
    for k in range(sf.values.size):
        left, right, v = sf.bounds[k], sf.bounds[k + 1], sf.values[k]
        if v < right:  # feasible inside [left, right)
            best = min(best, max(left, v))
    return float(best)
