"""Individual and mean ergodic convergence diagnostics.

One trajectory, weighted or not: the averages M_{beta,n}(x) on the
dyadic schedule against their exact (rotated) limit, with the mean
convergence verdict of each norm.  Almost-uniform witnesses peeled from
a trajectory's deviations under a trace budget; Besicovitch experiments,
a weighted trajectory with the Cauchy distances of its averages; and
condition (iii) of the mean ergodic theorem for L_p and Lorentz norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Operator, Projection, compressed_sup
from .dynamics import (Channel, ergodic_averages, fixed_point,
                       rotated_fixed_point)
from .errors import UnsupportedNormError
from .maximal import peel
from .ncnorms import lp_norm, projection_lorentz_norm, singular_function
from .util import dyadic_schedule

# Peeling stops once the compressed deviation is this small.
PEEL_FLOOR = 1e-12

# Condition (iii) of the mean ergodic theorem is reported on this grid
# of projection traces.
CONDITION_III_TRACES = (1.0, 10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class NormSpec:
    """A residual gauge: uniform, L_p, Lorentz (p,q), or the measure
    metric."""

    kind: str
    p: float | None = None
    q: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "uniform":
            return "inf"
        if self.kind == "lp":
            return f"L{self.p:g}"
        if self.kind == "lorentz":
            return f"L({self.p:g},{self.q:g})"
        return "measure"

    @classmethod
    def from_json(cls, data) -> "NormSpec":
        return cls(data["kind"], data.get("p"), data.get("q"))


def gauge_values(specs, operators) -> dict:
    """label -> the gauge of each of `operators`, for every gauge of
    `specs` (one per label).

    L_p reads x by its own route, `lp_norm`.  Every other gauge reads
    one `singular_function` of x, taken once per operator and only when
    such a gauge is asked for: the uniform norm is its top value, a
    Lorentz norm its closed form and the measure metric its crossing
    point, the distance of x from 0.  So a distance d(a, b) is measured
    on the one difference a - b that the caller passes.
    """
    specs = {spec.label: spec for spec in specs}
    values = {label: [] for label in specs}
    for x in operators:
        sf = None
        for label, spec in specs.items():
            if spec.kind == "lp":
                values[label].append(lp_norm(x, spec.p))
                continue
            if sf is None:
                sf = singular_function(x)
            if spec.kind == "uniform":
                value = sf.lp_norm(np.inf)
            elif spec.kind == "lorentz":
                value = sf.lorentz_norm(spec.p, spec.q)
            elif spec.kind == "measure":
                value = sf.crossing()
            else:
                raise UnsupportedNormError(f"unknown gauge {spec.kind!r}")
            values[label].append(value)
    return values


@dataclass
class TrajectoryReport:
    """Residuals ||x_hat - M_{beta,n}(x)|| along the dyadic schedule,
    with the sampled averages they were measured on and the verdicts of
    `trajectory`."""

    limit: Operator
    schedule: list
    residuals: dict   # norm label -> list of floats
    horizon: int
    averages: dict    # n -> M_n(x) for n in schedule
    verdicts: dict    # norm label -> {"decay_ratio", "converged"}


def _verdict(residuals, floor):
    reference = residuals[max(len(residuals) - 3, 0)]
    final = residuals[-1]
    return {"decay_ratio": final / reference if reference > floor else 0.0,
            "converged": bool(final <= max(floor, 0.3 * reference))}


def trajectory(channel: Channel, x: Operator, horizon: int, norms,
               beta=None) -> TrajectoryReport:
    """Track convergence of the averages M_{beta,n}(x), plain when
    `beta` is None, to their exact limit.

    The plain limit is `fixed_point`.  For a weight of the generator
    family it is sum_j z_j P_{lambda_j}(x) over the trig polynomial
    part, where P_lambda is the phase-twisted Cesaro limit; a 1/(k+1)
    decay tail averages to zero.  Every requested gauge is evaluated at
    n in {1, 2, 4, ..., horizon}, from a single pass of
    `ergodic_averages`, each residual limit - M_n formed once and its
    gauges read from one singular function (`gauge_values`).  Every
    norm, but not the measure metric, also gets its mean convergence
    verdict: converged when the final residual is at most 0.3 times the
    residual at the third point from the end of the schedule (the
    quarter horizon) or the floor 1e-12 max(||x||_E, 1), whichever is
    larger; decay_ratio is the quotient of the two residuals.
    """
    if beta is None:
        limit = fixed_point(channel, x)
    else:
        poly = beta.approximating_polynomial()
        limit = channel.algebra.zero()
        for z, lam in zip(poly.coefficients, poly.frequencies):
            if z != 0:
                limit = limit + rotated_fixed_point(channel, x, lam) * z
    wanted = set(dyadic_schedule(horizon))
    averages = {n: Operator.from_vec(channel.algebra, vec)
                for n, vec in ergodic_averages(channel, x, horizon, beta)
                if n in wanted}
    schedule = list(averages)
    residuals = gauge_values(norms, (limit - averages[n] for n in schedule))
    scales = gauge_values([spec for spec in norms if spec.kind != "measure"],
                          [x])
    verdicts = {label: _verdict(residuals[label], 1e-12 * max(scale, 1.0))
                for label, [scale] in scales.items()}
    return TrajectoryReport(limit, schedule, residuals, horizon, averages,
                            verdicts)


# ---------------------------------------------------------------------
# Almost-uniform witnesses.
# ---------------------------------------------------------------------

@dataclass
class ConvergenceWitness:
    """Projection of small trace defect with the tail-sup profile of the
    compressed deviations (non-increasing in n by construction)."""

    projection: Projection
    schedule: list
    profile: list
    trace_defect: float


def _deviation_witness(report: TrajectoryReport, eps: float,
                       mode: str) -> ConvergenceWitness:
    """Peel the tail deviations limit - M_n, n >= horizon/2, of the
    trajectory `report` with a trace budget of eps, then profile the
    compressed deviations."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    algebra = report.limit.algebra
    schedule = report.schedule
    tail_points = [n for n in schedule if n >= report.horizon // 2]
    tail = algebra.block_stacks([(report.limit - report.averages[n]).vec()
                                 for n in tail_points])
    [(e, defect)] = peel(algebra, tail, [(PEEL_FLOOR, eps)], mode)

    # each suffix of the tail measured once; n reads that of the m >= n
    sups = [compressed_sup([s[j:] for s in tail], e, mode)
            for j in range(len(tail_points))]
    profile = [sups[sum(m < n for m in tail_points)] for n in schedule]
    return ConvergenceWitness(e, schedule, profile, defect)


def au_witness(report: TrajectoryReport, eps: float) -> ConvergenceWitness:
    """One-sided almost-uniform witness for the trajectory `report`:
    tau(e_perp) <= eps and the profile n -> sup of ||(x_hat - M_m(x)) e||
    over scheduled m beyond max(n, horizon/2)."""
    return _deviation_witness(report, eps, "one_sided")


def bau_witness(report: TrajectoryReport, eps: float) -> ConvergenceWitness:
    """Two-sided variant of au_witness (compressions e (.) e)."""
    return _deviation_witness(report, eps, "two_sided")


# ---------------------------------------------------------------------
# Condition (iii) of the mean ergodic theorem.
# ---------------------------------------------------------------------

@dataclass
class ConditionIIIReport:
    """Growth of ||e||_E / tau(e) for projections of increasing trace.

    For the Lorentz norms the ratio is (p/q)^(1/q) tau^(1/p - 1) in
    closed form, which vanishes as tau -> infinity exactly when p > 1.
    """

    traces: tuple
    ratios: tuple
    vanishes_at_infinity: bool


def condition_iii(norm: NormSpec) -> ConditionIIIReport | None:
    """||e||_E / tau(e) on CONDITION_III_TRACES for the L_p and Lorentz
    norms; None for the other gauges."""
    if norm.kind == "lorentz":
        ratios = tuple(projection_lorentz_norm(t, norm.p, norm.q) / t
                       for t in CONDITION_III_TRACES)
    elif norm.kind == "lp":
        ratios = tuple(t ** (1.0 / norm.p) / t for t in CONDITION_III_TRACES)
    else:
        return None
    return ConditionIIIReport(CONDITION_III_TRACES, ratios, norm.p > 1)


# ---------------------------------------------------------------------
# Besicovitch-weighted experiments.
# ---------------------------------------------------------------------

@dataclass
class BesicovitchReport:
    trajectory: TrajectoryReport
    cauchy: dict         # norm label -> list of consecutive distances
    witness: ConvergenceWitness
    certificate_ok: bool


def besicovitch_experiment(channel: Channel, x: Operator, beta,
                           horizon: int, norms) -> BesicovitchReport:
    """Weighted averages along the dyadic schedule with Cauchy checks.

    The trajectory of the weighted averages against their exact rotated
    limit, the distances between consecutive sampled averages in every
    gauge and in the measure metric, and a two-sided deviation witness
    against the limit, with trace budget 0.05.
    """
    norms = list(norms)
    # the certificate runs before the averages are held, which keeps the
    # peak RSS lower
    certificate_ok = beta.besicovitch_certificate()
    report = trajectory(channel, x, horizon, norms, beta)
    averages = list(report.averages.values())
    cauchy = gauge_values(norms + [NormSpec("measure")],
                          (a - b for a, b in zip(averages, averages[1:])))
    return BesicovitchReport(report, cauchy, bau_witness(report, 0.05),
                             certificate_ok)
