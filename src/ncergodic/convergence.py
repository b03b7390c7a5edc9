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

from .algebra import Operator, Projection, compressed_sup
from .dynamics import (Channel, ergodic_averages, fixed_point,
                       rotated_fixed_point)
from .errors import UnsupportedNormError
from .maximal import peel
from .ncnorms import lorentz_norm, lp_norm, measure_distance, projection_lorentz_norm
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

    def value(self, x: Operator) -> float:
        if self.kind == "uniform":
            return x.uniform_norm()
        if self.kind == "lp":
            return lp_norm(x, self.p)
        if self.kind == "lorentz":
            return lorentz_norm(x, self.p, self.q)
        raise UnsupportedNormError("the measure metric has no norm value")

    def distance(self, a: Operator, b: Operator) -> float:
        if self.kind == "measure":
            return measure_distance(a, b)
        return self.value(a - b)

    @classmethod
    def from_json(cls, data) -> "NormSpec":
        return cls(data["kind"], data.get("p"), data.get("q"))


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
    `ergodic_averages`.  Every norm, but not the measure metric, also
    gets its mean convergence verdict: converged when the final residual
    is at most 0.3 times the residual at the third point from the end of
    the schedule (the quarter horizon) or the floor 1e-12 max(||x||_E,
    1), whichever is larger; decay_ratio is the quotient of the two
    residuals.
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
    residuals = {spec.label: [spec.distance(limit, averages[n])
                              for n in schedule] for spec in norms}
    verdicts = {spec.label: _verdict(residuals[spec.label],
                                     1e-12 * max(spec.value(x), 1.0))
                for spec in norms if spec.kind != "measure"}
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
    gauges = {spec.label: spec for spec in norms}
    gauges.setdefault("measure", NormSpec("measure"))
    cauchy = {label: [spec.distance(a, b)
                      for a, b in zip(averages, averages[1:])]
              for label, spec in gauges.items()}
    return BesicovitchReport(report, cauchy, bau_witness(report, 0.05),
                             certificate_ok)
