"""Witness projections for maximal ergodic inequalities.

A witness certifies a maximal inequality at a finite horizon: a
projection e with small trace defect tau(e_perp) together with a uniform
bound on the compressed averages, e.g. sup_{n<=N} ||e M_n(x) e||.

The averages M_0(x), ..., M_N(x) are held as stacks, one (N+1, d_i, d_i)
array per block, so a supremum over n is one batched LAPACK call per
block (`compressed_sup`) and a peeling step one batched eigh or SVD per
block.  Every construction here is re-measured by an independent checker
that rebuilds its own stacks from the raw channel with a fresh pass of
the recurrence and shares no intermediate state with the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Operator, Projection, compressed_sup, hermitian_decompose
from .dynamics import Channel, ergodic_averages
from .errors import NotPositiveError
from .ncnorms import lp_norm
from .spectral import eigh, positive_power, projection_meet_all
from .util import resolve_tol

# Off-diagonal tolerance when testing that all averages commute.
COMMUTING_TOL = 1e-8

DEFAULT_STRATEGIES = ("identity", "hopf-abelian", "level-set", "peel")


@dataclass
class WitnessReport:
    """A candidate projection with measured and budgeted constants.

    checker_passed means the independent re-measurement satisfied both
    trace_defect <= trace_budget + tol and
    sup_compression <= sup_budget + tol.
    """

    projection: Projection
    trace_defect: float
    trace_budget: float
    sup_compression: float
    sup_budget: float
    horizon: int
    method: str
    mode: str
    checker_passed: bool
    found: bool = True
    eps: float = 0.0
    p: float = 1.0
    weight_bound: float = 1.0

    def within_budgets(self, tol=None) -> bool:
        """Whether the measured constants meet the budgets, the test
        behind checker_passed."""
        tol = resolve_tol(tol)
        return bool(self.trace_defect <= self.trace_budget + tol
                    and self.sup_compression <= self.sup_budget + tol)

    @property
    def trace_ratio(self) -> float:
        return self.trace_defect / self.trace_budget if self.trace_budget else 0.0

    @property
    def sup_ratio(self) -> float:
        return self.sup_compression / self.sup_budget if self.sup_budget else 0.0

@dataclass
class WitnessSearchFailure:
    """Search gave up; carries the best infeasible candidate.

    Not a refutation: the inequalities guarantee a witness exists at the
    paper budgets, the search is just incomplete.
    """

    reason: str
    best_candidate: WitnessReport | None = None
    found: bool = field(default=False, init=False)


def is_found(result) -> bool:
    return isinstance(result, WitnessReport) and result.found


# ---------------------------------------------------------------------
# Independent checker.
# ---------------------------------------------------------------------

@dataclass
class CheckOutcome:
    trace_defect: float
    sup_value: float
    passed_trace: bool
    passed_sup: bool

    @property
    def passed(self) -> bool:
        return self.passed_trace and self.passed_sup


def _average_stacks(channel: Channel, x: Operator, horizon: int):
    """Per-block stacks of M_n(x) for n = 0..horizon, from one pass of
    `ergodic_averages`."""
    vecs = np.array([vec for _, vec in ergodic_averages(channel, x, horizon)])
    return channel.algebra.block_stacks(vecs)


def measure_compressions(channel: Channel, x: Operator, e: Projection,
                         horizon: int, mode="two_sided", beta=None) -> float:
    """sup over n <= horizon of the compressed average norm, recomputed
    from scratch: a fresh pass of the recurrence, stacked per block."""
    vecs = np.array([vec for _, vec in
                     ergodic_averages(channel, x, horizon, beta)])
    return compressed_sup(channel.algebra.block_stacks(vecs), e, mode)


def check_witness(channel: Channel, x: Operator, e: Projection,
                  horizon: int, trace_budget: float, sup_budget: float,
                  mode="two_sided", beta=None, tol=None) -> CheckOutcome:
    """Re-verify a witness against its budgets with fresh arithmetic."""
    tol = resolve_tol(tol)
    defect = e.defect()
    sup_value = measure_compressions(channel, x, e, horizon, mode, beta)
    return CheckOutcome(
        trace_defect=defect,
        sup_value=sup_value,
        passed_trace=bool(defect <= trace_budget + tol),
        passed_sup=bool(sup_value <= sup_budget + tol),
    )


def _finalize(channel, x, e, horizon, trace_budget, sup_budget, method,
              mode, beta, eps, p, c) -> WitnessReport:
    outcome = check_witness(channel, x, e, horizon, trace_budget,
                            sup_budget, mode, beta)
    return WitnessReport(
        projection=e,
        trace_defect=outcome.trace_defect,
        trace_budget=trace_budget,
        sup_compression=outcome.sup_value,
        sup_budget=sup_budget,
        horizon=horizon,
        method=method,
        mode=mode,
        checker_passed=outcome.passed,
        eps=eps,
        p=p,
        weight_bound=c,
    )


# ---------------------------------------------------------------------
# Weak (1,1) witnesses.
# ---------------------------------------------------------------------

def hopf_witness_commutative(channel: Channel, x: Operator, eps: float,
                             horizon: int, tol=None) -> WitnessReport:
    """Constructive witness on a diagonal algebra.

    e is the indicator of the atoms where max_{n<=N} M_n(x) stays <= eps;
    the classical maximal ergodic inequality guarantees the killed trace
    is at most ||x||_1 / eps at every finite horizon.
    """
    tol = resolve_tol(tol)
    if not channel.algebra.is_diagonal:
        raise ValueError("hopf witness requires a diagonal algebra")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not x.is_positive(tol):
        raise NotPositiveError("hopf witness requires x >= 0")

    stacks = _average_stacks(channel, x, horizon)
    e = _strategy_hopf_abelian(channel, x, stacks, eps, None)
    trace_budget = lp_norm(x, 1) / eps
    return _finalize(channel, x, e, horizon, trace_budget, eps,
                     "hopf", "two_sided", None, eps, 1.0, 1.0)


def _ordered_sum(stack):
    """Sum over the first axis, added in stack order (cumsum is
    sequential; a plain reduction may pair the terms differently)."""
    return np.cumsum(stack, axis=0)[-1]


def _hermitian(stack):
    return (stack + stack.conj().swapaxes(-1, -2)) / 2.0


def _strategy_identity(channel, x, stacks, level, budget):
    e = Projection.identity(channel.algebra)
    if compressed_sup(stacks, e) <= level:
        return e
    return None


def _strategy_hopf_abelian(channel, x, stacks, level, budget):
    """Hopf indicator in the joint eigenbasis, when all averages commute.

    Diagonal algebras short-circuit to the classical construction; in a
    general algebra the averages are rotated to the eigenbasis of their
    sum and must all be diagonal there within tolerance.
    """
    algebra = channel.algebra
    if algebra.is_diagonal:
        running = np.array([s[:, 0, 0].real.max() for s in stacks])
        return Projection.from_indicator(algebra, (running <= level).astype(float))

    kept = []
    for stack in stacks:
        _, q = np.linalg.eigh(_hermitian(_ordered_sum(stack)))
        rotated = q.conj().T @ stack @ q
        size = np.abs(rotated)
        scale_ref = np.maximum(1.0, size.max(axis=(1, 2)))
        diagonal = np.arange(q.shape[0])
        size[:, diagonal, diagonal] = 0.0
        if np.any(size.max(axis=(1, 2)) > COMMUTING_TOL * scale_ref):
            return None  # not simultaneously diagonal
        running = np.diagonal(rotated, axis1=1, axis2=2).real.max(axis=0)
        kept.append(q[:, running <= level])
    return Projection.from_basis(algebra, kept)


def _strategy_level_set(channel, x, stacks, level, budget):
    """Spectral cut of the mean of the averages.

    Thresholds run over the clustered spectrum of B = mean_n M_n(x); the
    compressed sup grows with the threshold while the killed trace
    shrinks, by at least the smallest block weight per step.  One binary
    search finds the smallest threshold within the trace budget, and a
    second the largest threshold (smallest defect) whose measured sup
    stays below the level.  Each cut is built on first use and kept.
    """
    scale = complex(1.0 / len(stacks[0]))
    mean = Operator(channel.algebra,
                    [scale * _ordered_sum(stack) for stack in stacks])
    dec = eigh(mean)
    built = {}

    def cut(k):  # k-th threshold, ascending; defect descending
        if k not in built:
            built[k] = dec.projection_where(
                lambda lam, t=dec.eigenvalues[k]: lam <= t)
        return built[k]

    num = len(dec.eigenvalues)
    lo, hi = 0, num
    while lo < hi:  # first cut within the trace budget
        mid = (lo + hi) // 2
        if cut(mid).defect() <= budget:
            hi = mid
        else:
            lo = mid + 1
    if lo == num or compressed_sup(stacks, cut(lo)) > level:
        return None
    hi, best = num - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        if compressed_sup(stacks, cut(mid)) <= level:
            best = cut(mid)
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def peel(algebra, stacks, level, budget, mode):
    """Greedy peeling: repeatedly remove the top direction of the worst
    compressed block among the operators in `stacks` (one (m, d_i, d_i)
    array per block, see `AlgebraSpec.block_stacks`) until its value
    drops to `level` or the next removal would push the killed trace
    past `budget`.

    `mode` sets the value of a compressed block c = e a e: the top
    eigenvalue of its Hermitian part ("hermitian"), its norm
    ("two_sided"), or ||a e|| = sqrt(lambda_max(c_1* c_1)) with
    c_1 = a e ("one_sided").  Each step takes one batched eigh or SVD
    per block.  Ties go to the first operator, then the first block.
    Returns (projection, killed trace); the projection is the best
    infeasible candidate when the budget stops the loop.  Terminates
    because each step removes at least the smallest block weight of
    trace.
    """
    if mode not in ("hermitian", "two_sided", "one_sided"):
        raise ValueError(f"unknown mode {mode!r}")
    bases = [np.eye(d, dtype=complex) for d in algebra.dims]
    weights = algebra.weights
    defect = 0.0
    while True:
        # values[op, block]; argmax in C order keeps the first maximum
        # with operators outer, as a strict > over the loops would
        values = np.full((len(stacks[0]), len(bases)), -np.inf)
        directions = [None] * len(bases)
        for i, (stack, basis) in enumerate(zip(stacks, bases)):
            if basis.shape[1] == 0:
                continue
            if mode == "one_sided":
                block = stack @ basis
                lam, vecs = np.linalg.eigh(
                    _hermitian(block.conj().swapaxes(1, 2) @ block))
                values[:, i] = np.sqrt(np.maximum(lam[:, -1], 0.0))
                directions[i] = vecs[:, :, -1]
            elif mode == "two_sided":
                _, s, vh = np.linalg.svd(basis.conj().T @ stack @ basis)
                values[:, i] = s[:, 0]
                directions[i] = vh[:, 0].conj()
            else:
                lam, vecs = np.linalg.eigh(
                    _hermitian(basis.conj().T @ stack @ basis))
                values[:, i] = lam[:, -1]
                directions[i] = vecs[:, :, -1]
        if values.size == 0:
            break
        op, i = np.unravel_index(np.argmax(values), values.shape)
        if values[op, i] <= level:
            break
        if defect + weights[i] > budget:
            break
        direction = directions[i][op]
        # orthonormal complement of the offending direction inside block i
        basis = bases[i]
        r = basis.shape[1]
        proj = np.eye(r, dtype=complex) - np.outer(direction,
                                                   direction.conj())
        _, vecs = np.linalg.eigh(proj)
        bases[i] = basis @ vecs[:, 1:]
        defect += weights[i]
    return Projection.from_basis(algebra, bases), defect


def _strategy_peel(channel, x, stacks, level, budget):
    return peel(channel.algebra, stacks, level, budget, "hermitian")[0]


_STRATEGY_TABLE = {
    "identity": _strategy_identity,
    "hopf-abelian": _strategy_hopf_abelian,
    "level-set": _strategy_level_set,
    "peel": _strategy_peel,
}


def yeadon_witness_search(channel: Channel, x: Operator, eps: float,
                          horizon: int, strategies=DEFAULT_STRATEGIES,
                          tol=None):
    """Search for a weak (1,1) witness: tau(e_perp) <= ||x||_1/eps and
    sup_{n<=N} ||e M_n(x) e|| <= eps.

    Strategies run in order; the first whose candidate passes the
    independent checker wins.  A WitnessSearchFailure is returned when
    all strategies fall short; it is not a refutation since the search
    is incomplete.
    """
    tol = resolve_tol(tol)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not x.is_positive(tol):
        raise NotPositiveError("yeadon witness requires x >= 0")
    trace_budget = lp_norm(x, 1) / eps
    stacks = _average_stacks(channel, x, horizon)

    best_candidate = None
    for name in strategies:
        strategy = _STRATEGY_TABLE[name]
        e = strategy(channel, x, stacks, eps, trace_budget)
        if e is None:
            continue
        report = _finalize(channel, x, e, horizon, trace_budget, eps,
                           name, "two_sided", None, eps, 1.0, 1.0)
        if report.checker_passed:
            return report
        if best_candidate is None or (report.sup_compression
                                      < best_candidate.sup_compression):
            best_candidate = report
    if best_candidate is not None:
        best_candidate.found = False
    return WitnessSearchFailure("no strategy met both budgets",
                                best_candidate)


def lp_witness(channel: Channel, x: Operator, p: float, eps: float,
               horizon: int, strategies=DEFAULT_STRATEGIES, tol=None):
    """Weak (p,p) witness for positive x.

    Runs the weak (1,1) search on x^p at level eps^p; the spectral
    bound x <= x_eps + eps^(1-p) x^p turns that witness into
    sup_n ||e M_n(x) e|| <= 2 eps with tau(e_perp) <= (||x||_p/eps)^p.
    """
    tol = resolve_tol(tol)
    if p < 1:
        raise ValueError("p must be >= 1")
    if not x.is_positive(tol):
        raise NotPositiveError("lp witness requires x >= 0")
    powered = x if p == 1 else positive_power(x, p, tol)
    base = yeadon_witness_search(channel, powered, eps ** p, horizon,
                                 strategies, tol)
    trace_budget = (lp_norm(x, p) / eps) ** p
    sup_budget = 2.0 * eps
    if not is_found(base):
        candidate = None
        if base.best_candidate is not None:
            candidate = _finalize(channel, x, base.best_candidate.projection,
                                  horizon, trace_budget, sup_budget,
                                  f"lp[{base.best_candidate.method}]",
                                  "two_sided", None, eps, p, 1.0)
            candidate.found = False
        return WitnessSearchFailure(
            f"weak (1,1) search failed at level eps^p: {base.reason}",
            candidate)
    report = _finalize(channel, x, base.projection, horizon, trace_budget,
                       sup_budget, f"lp[{base.method}]", "two_sided",
                       None, eps, p, 1.0)
    return report


def _positive_parts(x, tol):
    """Nonzero positive parts of x; positive x stays whole."""
    if x.is_positive(tol):
        return [x]
    scale_ref = max(x.uniform_norm(), 1.0)
    parts = [part for part in hermitian_decompose(x, tol)
             if part.uniform_norm() > 1e-14 * scale_ref]
    return parts


def weighted_witness(channel: Channel, x: Operator, p: float, beta,
                     eps: float, horizon: int,
                     strategies=DEFAULT_STRATEGIES, tol=None):
    """Witness for weighted averages M_{beta,n} via the four positive parts.

    Each part gets its own weak (p,p) witness; the meet of the four
    projections controls the weighted averages because the shifted
    coefficients Re(beta)+C, Im(beta)+C lie in [0, 2C].  Budgets are
    parts * (||x||_p/eps)^p on the trace and parts * 12 C eps on the
    sup (parts * 2 eps when beta is identically one, where the weighted
    average is the plain one).
    """
    tol = resolve_tol(tol)
    parts = _positive_parts(x, tol)
    witnesses = []
    for part in parts:
        res = lp_witness(channel, part, p, eps, horizon, strategies, tol)
        if not is_found(res):
            return WitnessSearchFailure(
                f"part witness failed: {res.reason}", res.best_candidate)
        witnesses.append(res)
    e = projection_meet_all([w.projection for w in witnesses])

    c = beta.bound
    trivial = beta.is_constant_one
    trace_budget = len(parts) * (lp_norm(x, p) / eps) ** p
    per_part = 2.0 * eps if trivial else 12.0 * c * eps
    sup_budget = len(parts) * per_part
    return _finalize(channel, x, e, horizon, trace_budget, sup_budget,
                     f"weighted[{'+'.join(w.method for w in witnesses)}]",
                     "two_sided", None if trivial else beta, eps, p, c)


def one_sided_witness(channel: Channel, x: Operator, p: float, beta,
                      eps: float, horizon: int,
                      strategies=DEFAULT_STRATEGIES, tol=None):
    """One-sided witness sup_n ||M_{beta,n}(x) e|| for p >= 2.

    For each Hermitian component h of x the witness is the weak (p/2)
    construction for h^2 at level eps^2: Kadison's inequality applied to
    the subunital averages turns ||e M_n(h^2) e|| <= 2 eps^2 into
    ||M_n(h) e|| <= sqrt(2) eps.  Bounded operators make the
    spectral-truncation detour unnecessary.

    Budgets per Hermitian part: (2 (||x||_p/eps)^p, sqrt(2) eps) for
    plain averages, (3 (||x||_p/eps)^p, 2 sqrt(C)(2+sqrt(C)) eps) for
    genuinely weighted ones; two parts double both.
    """
    tol = resolve_tol(tol)
    if p < 2:
        raise ValueError("one-sided witnesses are only available for p >= 2")
    if x.is_hermitian(tol):
        parts = [x]
    else:
        scale_ref = max(x.uniform_norm(), 1.0)
        parts = [h for h in (x.hermitian_part(), x.skew_part())
                 if h.uniform_norm() > 1e-14 * scale_ref]

    witnesses = []
    for h in parts:
        res = lp_witness(channel, h @ h, p / 2.0, eps ** 2, horizon,
                         strategies, tol)
        if not is_found(res):
            return WitnessSearchFailure(
                f"squared-part witness failed: {res.reason}",
                res.best_candidate)
        witnesses.append(res)
    e = projection_meet_all([w.projection for w in witnesses])

    c = beta.bound
    trivial = beta.is_constant_one
    r = lp_norm(x, p) / eps
    if trivial:
        trace_budget = 2.0 * len(parts) * r ** p
        sup_budget = len(parts) * np.sqrt(2.0) * eps
    else:
        trace_budget = 3.0 * len(parts) * r ** p
        sup_budget = len(parts) * 2.0 * np.sqrt(c) * (2.0 + np.sqrt(c)) * eps
    return _finalize(channel, x, e, horizon, trace_budget, sup_budget,
                     f"one-sided[{'+'.join(w.method for w in witnesses)}]",
                     "one_sided", None if trivial else beta, eps, p, c)
