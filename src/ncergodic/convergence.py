"""Individual and mean ergodic convergence diagnostics.

Residual trajectories against the exact Cesaro limit, each with its
mean (norm) convergence verdict, almost-uniform witnesses built by
trace-budgeted peeling on the deviation operators, condition (iii) of
the mean ergodic theorem for the L_p and Lorentz norms, and
Besicovitch-weighted experiments with exact rotated limits for the
trig-polynomial generator family.
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

    @classmethod
    def uniform(cls):
        return cls("uniform")

    @classmethod
    def lp(cls, p):
        return cls("lp", p=float(p))

    @classmethod
    def lorentz(cls, p, q):
        return cls("lorentz", p=float(p), q=float(q))

    @classmethod
    def measure(cls):
        return cls("measure")

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


def _sampled_averages(channel: Channel, x: Operator, horizon: int,
                      beta=None) -> dict:
    """{n: M_{beta,n}(x)} for n in the dyadic schedule of the horizon, in
    schedule order, from a single pass of `ergodic_averages`."""
    wanted = set(dyadic_schedule(horizon))
    return {n: Operator.from_vec(channel.algebra, vec)
            for n, vec in ergodic_averages(channel, x, horizon, beta)
            if n in wanted}


@dataclass
class TrajectoryReport:
    """Residuals ||x_hat - M_n(x)|| along the dyadic schedule, with the
    sampled averages they were measured on and the verdicts of
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


def trajectory(channel: Channel, x: Operator, horizon: int,
               norms) -> TrajectoryReport:
    """Track convergence of the plain averages to the exact fixed point.

    The limit is computed spectrally, then every requested gauge is
    evaluated at n in {1, 2, 4, ..., horizon}.  Every norm, but not the
    measure metric, also gets its mean convergence verdict: converged
    when the final residual is at most 0.3 times the residual at the
    third point from the end of the schedule (the quarter horizon) or
    the floor 1e-12 max(||x||_E, 1), whichever is larger; decay_ratio is
    the quotient of the two residuals.
    """
    x_hat = fixed_point(channel, x)
    averages = _sampled_averages(channel, x, horizon)
    schedule = list(averages)
    residuals = {spec.label: [spec.distance(x_hat, averages[n])
                              for n in schedule] for spec in norms}
    verdicts = {spec.label: _verdict(residuals[spec.label],
                                     1e-12 * max(spec.value(x), 1.0))
                for spec in norms if spec.kind != "measure"}
    return TrajectoryReport(x_hat, schedule, residuals, horizon, averages,
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
    mode: str
    eps: float
    trace_defect: float

    @property
    def final_value(self) -> float:
        return self.profile[-1]


def _deviation_witness(algebra, eps, horizon, mode, limit, averages):
    """Peel the tail deviations limit - M_n, n >= horizon/2, with a trace
    budget of eps, then profile the compressed deviations."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    schedule = dyadic_schedule(horizon)
    tail_points = [n for n in schedule if n >= horizon // 2]
    tail = algebra.block_stacks([(limit - averages[n]).vec()
                                 for n in tail_points])
    e, defect = peel(algebra, tail, PEEL_FLOOR, eps, mode)

    profile = []
    for n in schedule:
        first = sum(m < n for m in tail_points)  # tail points m >= n
        profile.append(compressed_sup([s[first:] for s in tail], e, mode))
    return ConvergenceWitness(e, schedule, profile, mode, eps, defect)


def au_witness(channel: Channel, x: Operator, eps: float,
               horizon: int, report=None) -> ConvergenceWitness:
    """One-sided almost-uniform witness: tau(e_perp) <= eps and the
    profile n -> sup of ||(x_hat - M_m(x)) e|| over scheduled m beyond
    max(n, horizon/2).  `report` is the `trajectory` of (channel, x,
    horizon) when the caller already has one; otherwise it is computed."""
    if report is None:
        report = trajectory(channel, x, horizon, ())
    return _deviation_witness(channel.algebra, eps, horizon, "one_sided",
                              report.limit, report.averages)


def bau_witness(channel: Channel, x: Operator, eps: float,
                horizon: int, report=None) -> ConvergenceWitness:
    """Two-sided variant of au_witness (compressions e (.) e)."""
    if report is None:
        report = trajectory(channel, x, horizon, ())
    return _deviation_witness(channel.algebra, eps, horizon, "two_sided",
                              report.limit, report.averages)


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
    limit: Operator
    limit_exact: bool
    schedule: list
    residuals: dict      # norm label -> list
    cauchy: dict         # norm label -> list of consecutive distances
    witness: ConvergenceWitness
    certificate_ok: bool


def besicovitch_experiment(channel: Channel, x: Operator, beta,
                           horizon: int, norms,
                           witness_eps=0.05) -> BesicovitchReport:
    """Weighted averages along the dyadic schedule with Cauchy checks.

    For the generator family every sequence has an exact rotated-limit
    formula: the trig polynomial part contributes
    sum_j z_j P_{lambda_j}(x) where P_lambda is the phase-twisted Cesaro
    limit, and a 1/(k+1) decay tail averages to zero.  The witness is a
    two-sided deviation witness against that limit.
    """
    norms = list(norms)
    certificate = beta.besicovitch_certificate()
    poly = beta.approximating_polynomial()
    limit = channel.algebra.zero()
    for z, lam in zip(poly.coefficients, poly.frequencies):
        if z != 0:
            limit = limit + rotated_fixed_point(channel, x, lam) * z

    averages = _sampled_averages(channel, x, horizon, beta)
    schedule = list(averages)
    residuals = {spec.label: [] for spec in norms}
    cauchy = {spec.label: [] for spec in norms}
    cauchy["measure"] = []
    previous = None
    measure = NormSpec.measure()
    for avg in averages.values():
        for spec in norms:
            residuals[spec.label].append(spec.distance(limit, avg))
        if previous is not None:
            for spec in norms:
                cauchy[spec.label].append(spec.distance(previous, avg))
            cauchy["measure"].append(measure.distance(previous, avg))
        previous = avg

    witness = _deviation_witness(channel.algebra, witness_eps, horizon,
                                 "two_sided", limit, averages)
    return BesicovitchReport(limit, True, schedule, residuals, cauchy,
                             witness, certificate.certified)
