"""Individual and mean ergodic convergence diagnostics.

One trajectory, weighted or not: the averages M_{beta,n}(x) on the
dyadic schedule against their exact (rotated) limit, with the mean
convergence verdict of each norm.  Almost-uniform witnesses peeled from
a trajectory's deviations under a trace budget; Besicovitch experiments,
a weighted trajectory with the Cauchy distances of its averages; and
condition (iii) of the mean ergodic theorem for the fully symmetric kinds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import Operator, Projection, compressed_sup
from .dynamics import (Channel, ergodic_averages, fixed_point,
                       rotated_fixed_point)
from .maximal import peel
from .ncnorms import Measure, SymmetricNorm, singular_function
from .util import dyadic_schedule

# Peeling stops once the compressed deviation is this small.
PEEL_FLOOR = 1e-12

# Condition (iii) of the mean ergodic theorem is reported on this grid
# of projection traces.
CONDITION_III_TRACES = (1.0, 10.0, 100.0, 1000.0)


def gauge_values(specs, operators) -> dict:
    """label -> the gauge of each of `operators`, for every gauge of
    `specs` (one per label).

    Each gauge reads x by `spec.of`, which is handed one lazy
    `singular_function` of x, taken once per operator and only when a
    gauge asks for it (L_p reads x by its own route, `lp_norm`).  So a
    distance d(a, b) is measured on the one difference a - b that the
    caller passes.
    """
    specs = {spec.label: spec for spec in specs}
    values = {label: [] for label in specs}
    for x in operators:
        singular = functools.cache(functools.partial(singular_function, x))
        for label, spec in specs.items():
            values[label].append(spec.of(x, singular))
    return values


@dataclass
class TrajectoryReport:
    """Residuals ||x_hat - M_{beta,n}(x)|| along the dyadic schedule,
    with the sampled averages they were measured on, the tail deviations
    that the witnesses peel and the verdicts of `trajectory`."""

    limit: Operator
    schedule: list
    residuals: dict   # norm label -> list of floats
    horizon: int
    averages: dict    # n -> M_n(x) for n in schedule
    tail: dict        # n -> x_hat - M_n(x) for scheduled n >= horizon/2
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
    `ergodic_averages`, each residual limit - M_n formed once, its
    gauges read by `gauge_values` and, for n >= horizon/2, kept for the
    witnesses as the report's `tail`.  Every norm, but not the measure
    metric, also gets its mean convergence verdict: converged when the
    final residual is at most 0.3 times the residual at the third point
    from the end of the schedule (the quarter horizon) or the floor
    1e-12 max(||x||_E, 1), whichever is larger; decay_ratio is the
    quotient of the two residuals.
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
    deviations = {n: limit - averages[n] for n in schedule}
    residuals = gauge_values(norms, deviations.values())
    scales = gauge_values([spec for spec in norms
                           if not isinstance(spec, Measure)], [x])
    verdicts = {label: _verdict(residuals[label], 1e-12 * max(scale, 1.0))
                for label, [scale] in scales.items()}
    tail = {n: d for n, d in deviations.items() if n >= horizon // 2}
    return TrajectoryReport(limit, schedule, residuals, horizon, averages,
                            tail, verdicts)


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
    tail_points = list(report.tail)
    tail = algebra.block_stacks([d.vec() for d in report.tail.values()])
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

def condition_iii(norm: SymmetricNorm) -> dict:
    """||e||_E / tau(e) = phi_E(t) / t for projections e of trace t on
    CONDITION_III_TRACES.  It vanishes as t -> infinity exactly when the
    lower Boyd index exceeds 1."""
    return {"traces": CONDITION_III_TRACES,
            "ratios": tuple(norm.fundamental(t) / t
                            for t in CONDITION_III_TRACES),
            "vanishes_at_infinity": norm.boyd[0] > 1}


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
    cauchy = gauge_values(norms + [Measure()],
                          (a - b for a, b in zip(averages, averages[1:])))
    return BesicovitchReport(report, cauchy, bau_witness(report, 0.05),
                             certificate_ok)
