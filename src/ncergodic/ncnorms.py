"""Generalized singular numbers and the gauge kinds: the uniform norm,
the fully symmetric kinds and the measure metric.

The singular-number function of x is the right-continuous non-increasing
step function mu_t(x) = inf{ lam > 0 : tau(e_lam_perp) <= t } built from
the singular values of x weighted by the trace, stored by its steps in
`SingularFunction`.  Each gauge kind is one frozen type, which
`NORM_KINDS` keys by its config `kind`.  Every norm here is an exact
closed-form integral over the steps, and the measure metric d(x, y) is
the crossing point of mu(x - y) with the identity; no quadrature is
used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


class Gauge:
    """A residual gauge: a norm, or the measure metric read as the
    distance from 0.  Each kind reads a singular function by `value`."""

    def of(self, _x, singular) -> float:
        """The gauge of the operator x; `singular()` returns the singular
        function of x, taken once for all the gauges of x."""
        return self.value(singular())


class SymmetricNorm(Gauge):
    """A fully symmetric kind E.  It adds `fundamental(t)`, the norm
    phi_E(t) of a projection of trace t, and `boyd`, its (lower, upper)
    Boyd indices, both in closed form."""


@dataclass(frozen=True)
class Uniform(Gauge):
    """The uniform norm ||x||_inf, the top value of mu(x)."""

    kind = "uniform"
    label = "inf"

    def value(self, sf: SingularFunction) -> float:
        return sf.lp_norm(np.inf)


@dataclass(frozen=True)
class Lp(SymmetricNorm):
    """The L_p norm; p < 1 is refused when a value is read."""

    p: float
    kind = "lp"

    @property
    def label(self) -> str:
        return f"L{self.p:g}"

    @property
    def boyd(self) -> tuple:
        return self.p, self.p

    def value(self, sf: SingularFunction) -> float:
        return sf.lp_norm(self.p)

    def of(self, x, _singular) -> float:
        # the spectrum of x* x (`lp_norm`), not mu(x): the two routes
        # differ in the last bits, and the recorded residuals hold these
        return lp_norm(x, self.p)

    def fundamental(self, t: float) -> float:
        return t ** (1.0 / self.p)


@dataclass(frozen=True)
class Lorentz(SymmetricNorm):
    """The Lorentz kind L_{p,q}, p and q finite and >= 1, with q = 1 when
    p = 1: a norm for q <= p, a quasi-norm for p < q."""

    p: float
    q: float
    kind = "lorentz"

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)
                and self.p >= 1 and self.q >= 1):
            raise UnsupportedNormError("p and q must be finite and >= 1")
        if self.p == 1 and self.q > 1:
            raise UnsupportedNormError("p = 1 is supported with q = 1 only")

    @property
    def label(self) -> str:
        return f"L({self.p:g},{self.q:g})"

    @property
    def boyd(self) -> tuple:
        return self.p, self.p

    def value(self, sf: SingularFunction) -> float:
        """(integral (t^(1/p) mu(t))^q dt/t)^(1/q) in closed form: a step
        [a, b) of value v adds v^q (p/q) (b^(q/p) - a^(q/p))."""
        p, q = self.p, self.q
        increments = sf.bounds[1:] ** (q / p) - sf.bounds[:-1] ** (q / p)
        total = float(np.dot(sf.values ** q, increments) * (p / q))
        return total ** (1.0 / q)

    def fundamental(self, t: float) -> float:
        return (self.p / self.q) ** (1.0 / self.q) * t ** (1.0 / self.p)


@dataclass(frozen=True)
class Measure(Gauge):
    """The measure-topology metric, read as the distance d(x, 0)."""

    kind = label = "measure"

    def value(self, sf: SingularFunction) -> float:
        """inf{eps > 0 : mu_eps <= eps}, found exactly by scanning the
        steps: mu is non-increasing and the identity increasing."""
        best = sf.total_support  # on [t_m, inf) mu = 0 <= eps always
        for k in range(sf.values.size):
            left, right, v = sf.bounds[k], sf.bounds[k + 1], sf.values[k]
            if v < right:  # feasible inside [left, right)
                best = min(best, max(left, v))
        return float(best)


NORM_KINDS = {norm.kind: norm for norm in (Uniform, Lp, Lorentz, Measure)}


def norm_from_json(data) -> Gauge:
    """The gauge of a config object, from its kind's own fields only."""
    norm = NORM_KINDS[data["kind"]]
    return norm(**{field.name: data[field.name] for field in fields(norm)})
