"""Witness projections for maximal ergodic inequalities.

A witness certifies a maximal inequality at a finite horizon: a
projection e with small trace defect tau(e_perp) together with a uniform
bound on the compressed averages, e.g. sup_{n<=N} ||e M_n(x) e||.

The averages M_0(x), ..., M_N(x) are held as stacks, one (N+1, d_i, d_i)
array per block.  A supremum over n (`compressed_sup`) and a peeling step
both read the largest norm in a block's stack of compressions, e a e
(two-sided) or a e (one-sided), as `algebra.compress` forms them: the sup
is that norm, and the step removes its top singular direction.  A peeling
step takes the SVD of every compression.  A sup on the checker screens
before it compresses: a compression shrinks norms, so
||M_n(x)_i - M_N(x)_i||_F, computed once per checker
(`CheckerStacks.screens`), bounds how far each compressed average lies
above the compressed last one.  Blocks and averages whose bound cannot
reach the best value found are never compressed, so a sup on averages
that settle often compresses only the last one and the few farthest from
it.  The screen leaves out only matrices strictly below the largest
value, and LAPACK treats every matrix of a batch alone, so the sup has
the bits an SVD of every compression gives.

Each search takes a grid of eps and returns one result per eps: only a
strategy's stopping test depends on the level and the trace budget, so
one pass of the recurrence and one run of each strategy serve the whole
grid.  That pass is the checker's: `CheckerStacks` holds one read-only
pass per element and weight, from the raw channel, and a weak (1,1)
search reads it as input.  The strategies measure through the checker,
which measures each (projection, mode) once and checks every candidate
against its budgets.  Each builder is handed a checker by its caller,
which may share it between builders.

Every builder returns one `WitnessReport` per eps, and `check_witness`
makes every report: the candidate, its defect and its sup measured by the
checker, the budgets and the verdict.  Where no candidate meets both
budgets, the report is the best infeasible candidate with found=False:
its projection and the checker's measurements against the budgets, so a
not-found result shows how far the search fell short.
`weighted_witness` and `one_sided_witness` meet, per eps, the weak (1,1)
candidates of a power of each part of x, and check the meet once on x
against the method's own budgets; it is found where every part's was.

The weak (1,1) search tries, in order, the identity, the classical Hopf
cut (on a diagonal algebra only), a spectral cut and greedy peeling.

Before any strategy runs, the weak (1,1) search closes the stops that a
floor bound proves empty.  With f_i = max_n lambda_min(Herm M_n(x)_i)
(`CheckerStacks.floors`), a projection e != 0 has a block i with
e_i != 0, and a unit vector v in its range gives
||e M_n(x) e|| >= <v, Herm M_n(x) v> >= f_i at the n where block i
attains f_i.  So at a level eps < min_i f_i no nonzero e is a witness.
A stop (eps, budget) with min_i f_i > eps + 2 DEFAULT_TOL and
budget >= tau(1) + DEFAULT_TOL gets the zero projection, reported with
method "floor"; a stop that misses either margin, a tie included, runs
the strategies as before, and `peel` is the fallback that gives each of
them a candidate.  Where the bound fires, `peel` would remove every
direction and return that same zero projection, so the report differs
from the one `peel` gave only in its method label.  The budget is tested
first, and then min_i lambda_min(Herm M_N(x)_i) <= min_i f_i
(`CheckerStacks.last_floor`), one matrix per block: on averages that
settle, the floor sits at the last average, and this bound decides the
test.  The full pass over every n runs only where it does not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (Operator, Projection, compress, compressed_sup,
                      hermitian_decompose, sup_screen)
from .dynamics import Channel, ergodic_averages
from .errors import NotPositiveError
from .ncnorms import lp_norm
from .spectral import eigh, positive_power, projection_meet_all
from .util import DEFAULT_TOL, row_slices


@dataclass
class WitnessReport:
    """A candidate projection with measured and budgeted constants.

    checker_passed is `within_budgets` of the independent
    re-measurement.  found is False for the best infeasible candidate of
    a search that met no budget.
    """

    projection: Projection
    trace_defect: float
    trace_budget: float
    sup_compression: float
    sup_budget: float
    method: str
    mode: str
    checker_passed: bool
    found: bool = True
    weight_bound: float = 1.0

    def within_budgets(self, tol=DEFAULT_TOL) -> bool:
        """Whether the measured constants meet the budgets within tol,
        the test behind checker_passed."""
        return bool(self.trace_defect <= self.trace_budget + tol
                    and self.sup_compression <= self.sup_budget + tol)

    @property
    def trace_ratio(self) -> float:
        return self.trace_defect / self.trace_budget if self.trace_budget else 0.0

    @property
    def sup_ratio(self) -> float:
        return self.sup_compression / self.sup_budget if self.sup_budget else 0.0


# ---------------------------------------------------------------------
# Independent checker.
# ---------------------------------------------------------------------

class CheckerStacks:
    """The stacks of M_{beta,n}(x) for n = 0..horizon, one read-only
    (horizon+1, d_i, d_i) array per block, for one element and weight.

    They come from one fresh pass of the recurrence on the raw channel,
    run on first use and written average by average into one
    (horizon+1, vec_dim) array, whose block views they are: an element
    whose candidates are all zero projections costs no pass.  A builder
    measures every candidate of its element on the checker it is
    handed, which lives as long as its caller holds it, across builder
    calls; a weak (1,1) search reads these stacks as its input and
    measures through `sup`.  Each sup of a (projection,
    mode) is measured once and kept: the check of a strategy's candidate,
    and a second check, as `weighted_witness` at p = 1 makes of its inner
    search's candidates, read the first measurement.  A weight is held as
    `checked_weight` gives it.

    What the checker derives from its stacks is computed on first use and
    freed with it: the `screens` that every sup reads, and the floors
    (`last_floor`, then `floors` only where the first leaves a stop
    open).
    """

    def __init__(self, channel: Channel, x: Operator, horizon: int,
                 beta=None):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.channel = channel
        self.x = x
        self.horizon = horizon
        self.beta, self.weight_bound = self.checked_weight(beta)
        self._sups = {}  # (projection, mode) -> sup; keys hold e alive

    @staticmethod
    def checked_weight(beta):
        """(beta, weight_bound) of a checker of weight beta: a weight
        identically one is None, the plain averages, and keeps its bound C;
        no weight has bound 1.  Two checkers of one element with equal
        pairs check the same averages against the same bound."""
        if beta is None:
            return None, 1.0
        return (None if beta.is_constant_one else beta), beta.bound

    @functools.cached_property
    def stacks(self):
        vecs = np.empty((self.horizon + 1, self.channel.algebra.vec_dim),
                        dtype=complex)
        for n, vec in ergodic_averages(self.channel, self.x, self.horizon,
                                       self.beta):
            vecs[n] = vec
        vecs.flags.writeable = False  # the block views inherit it
        return self.channel.algebra.block_stacks(vecs)

    @functools.cached_property
    def floors(self):
        """f_i = max_n lambda_min(Herm M_n(x)_i) per block i: every
        projection e with e_i != 0 has sup_n ||e M_n(x) e|| >= f_i.

        One batched eigvalsh per `row_slices` slice of each block's
        stack, shared by every search on the checker: the floors hold no
        second copy of a large stack, and a smaller block is one call."""
        floors = []
        for stack in self.stacks:
            floors.append(np.max([
                np.linalg.eigvalsh(_hermitian(stack[rows]))[:, 0].max()
                for rows in row_slices(len(stack), stack[0].size)]))
        return np.array(floors)

    @functools.cached_property
    def last_floor(self):
        """min_i lambda_min(Herm M_N(x)_i), from one matrix per block.

        It is at most min_i f_i of `floors`, also as computed: LAPACK
        treats each matrix of a batch alone, so the n = N term of f_i is
        this value to the bit."""
        return min(np.linalg.eigvalsh(_hermitian(stack[-1:]))[0, 0]
                   for stack in self.stacks)

    @functools.cached_property
    def screens(self):
        """The `sup_screen` of each block's stack, built on the first
        sup and shared by every projection and mode the checker
        measures."""
        return tuple(sup_screen(stack) for stack in self.stacks)

    def sup(self, e: Projection, mode: str) -> float:
        """compressed_sup of e on these stacks, measured on first use.  A
        zero projection measures exactly 0.0 without the pass."""
        if e.rank() == 0:
            return 0.0
        key = (e, mode)
        if key not in self._sups:
            self._sups[key] = compressed_sup(self.stacks, e, mode,
                                             self.screens)
        return self._sups[key]


def check_witness(checker: CheckerStacks, e: Projection, trace_budget: float,
                  sup_budget: float, mode="two_sided", tol=DEFAULT_TOL, *,
                  method: str) -> WitnessReport:
    """Re-verify one candidate against its budgets: its defect, and its
    compressed sup on the checker's own stacks of the element."""
    report = WitnessReport(
        projection=e, trace_defect=e.defect(), trace_budget=trace_budget,
        sup_compression=checker.sup(e, mode), sup_budget=sup_budget,
        method=method, mode=mode, checker_passed=False,
        weight_bound=checker.weight_bound)
    report.checker_passed = report.within_budgets(tol)
    return report


# ---------------------------------------------------------------------
# Weak (1,1) witnesses.
# ---------------------------------------------------------------------

def hopf_witness_commutative(checker: CheckerStacks, eps_grid) -> list:
    """Constructive witnesses on a diagonal algebra, one per eps, for the
    element x of plain checker stacks, cut from those stacks.

    e is the indicator of the atoms where max_{n<=N} M_n(x) stays <= eps;
    Hopf's maximal ergodic inequality guarantees the killed trace is at
    most ||x||_1 / eps at every finite horizon.  It is the cut of the
    `hopf-abelian` strategy, reported here whether or not it passes.
    """
    channel, x = checker.channel, checker.x
    if not channel.algebra.is_diagonal:
        raise ValueError("hopf witness requires a diagonal algebra")
    if checker.beta is not None:
        raise ValueError("hopf witness requires plain checker stacks")
    if any(eps <= 0 for eps in eps_grid):
        raise ValueError("eps must be positive")
    if not x.is_positive():
        raise NotPositiveError("hopf witness requires x >= 0")

    norm = lp_norm(x, 1)
    cuts = _strategy_hopf_abelian(checker, [(eps, None) for eps in eps_grid])
    return [check_witness(checker, e, norm / eps, eps, method="hopf")
            for e, eps in zip(cuts, eps_grid)]


def _hermitian(stack):
    return (stack + stack.conj().swapaxes(-1, -2)) / 2.0


# A strategy maps (checker, stops) to one candidate projection or None
# per (level, budget) stop; its level-free work runs once.  It measures
# through `checker.sup`, once per (projection, mode), as the check does.

def _strategy_identity(checker, stops):
    e = Projection.identity(checker.channel.algebra)
    sup = checker.sup(e, "two_sided")
    return [e if sup <= level else None for level, _ in stops]


def _strategy_hopf_abelian(checker, stops):
    """The classical Hopf cut on a diagonal algebra: the indicator of
    the atoms whose running maximum max_n M_n(x) stays <= the level, one
    cut per level of maxima computed once.  None per stop elsewhere.
    """
    algebra = checker.channel.algebra
    if not algebra.is_diagonal:
        return [None] * len(stops)
    running = np.array([s[:, 0, 0].real.max() for s in checker.stacks])
    return [Projection.from_indicator(algebra,
                                      (running <= level).astype(float))
            for level, _ in stops]


def _strategy_level_set(checker, stops):
    """Spectral cut of the mean of the averages.

    Thresholds run over the clustered spectrum of B = mean_n M_n(x); the
    compressed sup grows with the threshold while the killed trace
    shrinks, by at least the smallest block weight per step.  Per stop,
    one binary search finds the smallest threshold within the trace
    budget, and a second the largest threshold (smallest defect) whose
    `checker.sup` stays below the level.  The spectrum is computed once;
    each cut is built on first use and shared by the stops.
    """
    scale = complex(1.0 / len(checker.stacks[0]))
    # summed in stack order (cumsum is sequential; a plain reduction may
    # pair the terms differently), and symmetrised as `eigh` does it, so
    # the bits stay and its Hermitian check passes at any scale of x
    mean = Operator(checker.channel.algebra,
                    [_hermitian(scale * np.cumsum(stack, axis=0)[-1])
                     for stack in checker.stacks])
    dec = eigh(mean)

    @functools.cache
    def cut(k):  # k-th threshold, ascending; defect descending
        return dec.projection_where(lambda lam, t=dec.eigenvalues[k]: lam <= t)

    def sup(k):
        return checker.sup(cut(k), "two_sided")

    num = len(dec.eigenvalues)

    def search(level, budget):
        lo, hi = 0, num
        while lo < hi:  # first cut within the trace budget
            mid = (lo + hi) // 2
            if cut(mid).defect() <= budget:
                hi = mid
            else:
                lo = mid + 1
        if lo == num or sup(lo) > level:
            return None
        hi, best = num - 1, None
        while lo <= hi:
            mid = (lo + hi) // 2
            if sup(mid) <= level:
                best = cut(mid)
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    return [search(level, budget) for level, budget in stops]


def _svd_top_vector(c):
    """sigma_max and the top right singular vector of each matrix in the
    stack c."""
    _, s, vh = np.linalg.svd(c)
    return s[:, 0], vh[:, 0].conj()


def peel(algebra, stacks, stops, mode):
    """Greedy peeling: repeatedly remove the top direction of the worst
    compressed block among the operators in `stacks` (one (m, d_i, d_i)
    array per block, see `AlgebraSpec.block_stacks`).

    The removal order does not depend on where the loop stops, so one
    run serves a list of (level, budget) stops: a stop ends at the first
    step where the worst value is <= its level or the next removal would
    push the killed trace past its budget.  Returns one (projection,
    killed trace) per stop, in order, each as a one-stop run gives it;
    the projection is the best infeasible candidate when the budget ends
    the stop.

    `mode` sets the compression c of a block whose norm is the value:
    c = e a e ("two_sided") or c = a e ("one_sided"), as `compress` forms
    it; the direction removed is the top right singular vector of c.
    Each step runs one batched SVD over every compression of every block
    that is not empty.  Ties go to the first operator, then the first
    block.  Terminates because each step removes at least the smallest
    block weight of trace, and an emptied algebra ends every stop.
    """
    bases = [np.eye(d, dtype=complex) for d in algebra.dims]
    weights = algebra.weights
    defect = 0.0
    results = [None] * len(stops)
    while True:
        # values[op, block]; argmax in C order keeps the first maximum
        # with operators outer, as a strict > over the loops would
        values = np.full((len(stacks[0]), len(bases)), -np.inf)
        directions = [None] * len(bases)
        for i, (stack, basis) in enumerate(zip(stacks, bases)):
            if basis.shape[1] == 0:
                continue
            values[:, i], directions[i] = _svd_top_vector(
                compress(stack, basis, mode))
        top, step = -np.inf, 0.0  # nothing to measure ends every stop
        if values.size:
            op, i = np.unravel_index(np.argmax(values), values.shape)
            top, step = values[op, i], weights[i]
        e = None  # one projection for the stops that end at this step
        for k, (level, budget) in enumerate(stops):
            if results[k] is None and (top <= level or defect + step > budget):
                e = e or Projection.from_basis(algebra, bases)
                results[k] = (e, defect)
        if all(r is not None for r in results):
            return results
        direction = directions[i][op]
        # orthonormal complement of the offending direction inside block i
        basis = bases[i]
        r = basis.shape[1]
        proj = np.eye(r, dtype=complex) - np.outer(direction,
                                                   direction.conj())
        _, vecs = np.linalg.eigh(proj)
        bases[i] = basis @ vecs[:, 1:]
        defect += weights[i]


def _strategy_peel(checker, stops):
    return [e for e, _ in peel(checker.channel.algebra, checker.stacks,
                               stops, "two_sided")]


_STRATEGY_TABLE = {
    "identity": _strategy_identity,
    "hopf-abelian": _strategy_hopf_abelian,
    "level-set": _strategy_level_set,
    "peel": _strategy_peel,
}


def yeadon_witness_search(checker: CheckerStacks, eps_grid) -> list:
    """Search for weak (1,1) witnesses of a plain checker's element x, one
    per eps: tau(e_perp) <= ||x||_1/eps and sup_{n<=N} ||e M_n(x) e|| <= eps.

    The checker's one pass of the recurrence serves the whole grid.  An
    eps below the floor of the averages, by the margins `_yeadon_search`
    states, gets the zero projection at once.  Strategies run in the
    order of _STRATEGY_TABLE, each once, on the eps values that neither
    the floor bound nor an earlier strategy has won; per eps the first
    candidate that passes the checker wins.  Where all strategies fall
    short, the result is the best infeasible candidate, the one with the
    smallest measured sup, with found=False; it is not a refutation since
    the search is incomplete.  x >= 0 is tested here, once.
    """
    if checker.beta is not None:
        raise ValueError("yeadon witness requires plain checker stacks")
    if not checker.x.is_positive():
        raise NotPositiveError("yeadon witness requires x >= 0")
    return _yeadon_search(checker, eps_grid)


def _yeadon_search(checker, eps_grid):
    """`yeadon_witness_search` for the element of plain checker stacks,
    an x >= 0 that the caller has tested or built positive.  The
    strategies read the checker's stacks; it measures each candidate.

    First the floor bound closes the stops it proves empty: with
    f = min_i f_i over the checker's `floors`, a stop (eps, budget) with
    f > eps + 2 DEFAULT_TOL admits no nonzero witness, and with
    budget >= tau(1) + DEFAULT_TOL the zero projection meets both
    budgets.  Where both hold, the stop is reported as the zero
    projection, built as `peel` builds it, with method "floor"; on a tie
    it stays open.  The budget is tested first, and the floor first
    through `last_floor`, which is at most f to the bit, so `floors`
    runs only where that leaves the test open.  The strategies then run
    on the open stops only, and `peel` is the fallback that gives each of
    them a candidate."""
    if any(eps <= 0 for eps in eps_grid):
        raise ValueError("eps must be positive")
    norm = lp_norm(checker.x, 1)
    stops = [(eps, norm / eps) for eps in eps_grid]

    results, best = [None] * len(stops), [None] * len(stops)
    algebra = checker.channel.algebra
    total, zero = float(algebra.identity().trace().real), None
    for k, (eps, trace_budget) in enumerate(stops):
        level = eps + 2.0 * DEFAULT_TOL
        if trace_budget >= total + DEFAULT_TOL and (
                checker.last_floor > level or checker.floors.min() > level):
            zero = zero or Projection.from_basis(algebra, [
                np.zeros((d, 0)) for d in algebra.dims])
            results[k] = check_witness(checker, zero, trace_budget, eps,
                                       method="floor")
    for name, strategy in _STRATEGY_TABLE.items():
        open_ = [k for k, r in enumerate(results) if r is None]
        if not open_:
            break
        candidates = strategy(checker, [stops[k] for k in open_])
        for k, e in zip(open_, candidates):
            if e is None:
                continue
            eps, trace_budget = stops[k]
            report = check_witness(checker, e, trace_budget, eps,
                                   method=name)
            if report.checker_passed:
                results[k] = report
            elif best[k] is None or (report.sup_compression
                                     < best[k].sup_compression):
                report.found = False
                best[k] = report
    # the floor bound closed a stop or peel gave it a candidate, so each
    # eps holds a report
    return [r if r is not None else b for r, b in zip(results, best)]


def _weak_pp(checker, x, p, eps_grid):
    """The weak (1,1) search on x^p at the levels eps^p, for an x >= 0
    that the caller has tested or built positive.  It checks on `checker`
    where x^p is that checker's element and its averages are plain, and
    else on fresh stacks of x^p from the checker's channel and horizon."""
    powered = x if p == 1 else positive_power(x, p)
    if powered is not checker.x or checker.beta is not None:
        checker = CheckerStacks(checker.channel, powered, checker.horizon)
    return _yeadon_search(checker, [eps ** p for eps in eps_grid])


def _nonzero(parts, x):
    """The parts of x whose norm is above 1e-14 max(||x||, 1)."""
    scale_ref = max(x.uniform_norm(), 1.0)
    return [part for part in parts
            if part.uniform_norm() > 1e-14 * scale_ref]


def _meet_witnesses(checker, parts, search, budgets, name, mode, eps_grid):
    """Per eps, the meet of the candidates that search(part, grid) gives
    for each part of x, checked once on the checker stacks of x against
    budgets(eps) = (trace budget, sup budget).  The meet is found where
    every part's candidate was found."""
    candidates = [search(part, eps_grid) for part in parts]
    reports = []
    for eps, witnesses in zip(eps_grid, zip(*candidates)):
        e = projection_meet_all([w.projection for w in witnesses])
        methods = "+".join(w.method for w in witnesses)
        report = check_witness(checker, e, *budgets(eps), mode,
                               method=f"{name}[{methods}]")
        report.found = all(w.found for w in witnesses)
        reports.append(report)
    return reports


def weighted_witness(checker: CheckerStacks, p: float, eps_grid) -> list:
    """Witnesses for the weighted averages M_{beta,n}(x) of the checker's
    element and weight via the four positive parts of x, one per eps; on
    plain checker stacks, the weak (p,p) witnesses of the plain averages.

    Each part runs the weak (1,1) search on part^p at the levels eps^p.
    For a positive part y the spectral bound y <= y_eps + eps^(1-p) y^p
    turns its candidate into a sup of at most 2 eps over the plain
    averages with a defect of at most (||y||_p/eps)^p.  The meet of the
    candidates, checked on the weighted averages of x, controls them
    because the shifted coefficients Re(beta)+C, Im(beta)+C lie in
    [0, 2C].  Budgets are parts * (||x||_p/eps)^p on the trace and
    parts * 12 C eps on the sup (parts * 2 eps when the checker's
    averages are plain, the weight identically one).  Each part is
    below x in every symmetric norm.  Positive x is one part, tested
    here once; the parts of other x are positive by construction.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = checker.x
    parts = ([x] if x.is_positive()
             else _nonzero(hermitian_decompose(x), x))
    c, norm = checker.weight_bound, lp_norm(x, p)

    def budgets(eps):
        per_part = 2.0 * eps if checker.beta is None else 12.0 * c * eps
        return len(parts) * (norm / eps) ** p, len(parts) * per_part

    return _meet_witnesses(
        checker, parts, lambda part, grid: _weak_pp(checker, part, p, grid),
        budgets, "weighted", "two_sided", eps_grid)


def one_sided_witness(checker: CheckerStacks, p: float, eps_grid) -> list:
    """One-sided witnesses sup_n ||M_{beta,n}(x) e|| for the checker's
    element x and weight beta and p >= 2, one per eps.

    For each Hermitian component h of x the candidate is the weak (p/2)
    search for h^2 at level eps^2: Kadison's inequality applied to the
    subunital averages turns ||e M_n(h^2) e|| <= 2 eps^2 into
    ||M_n(h) e|| <= sqrt(2) eps.  Bounded operators make the
    spectral-truncation detour unnecessary.  The meet of the candidates
    is checked on the averages of x.

    Budgets per Hermitian part: (2 (||x||_p/eps)^p, sqrt(2) eps) for
    plain averages, (3 (||x||_p/eps)^p, 2 sqrt(C)(2+sqrt(C)) eps) for
    genuinely weighted ones; two parts double both.
    """
    if p < 2:
        raise ValueError("one-sided witnesses are only available for p >= 2")
    x = checker.x
    parts = ([x] if x.is_hermitian()
             else _nonzero([x.hermitian_part(), x.skew_part()], x))
    c, norm = checker.weight_bound, lp_norm(x, p)

    def budgets(eps):
        r = norm / eps
        if checker.beta is None:
            return 2.0 * len(parts) * r ** p, len(parts) * np.sqrt(2.0) * eps
        return (3.0 * len(parts) * r ** p,
                len(parts) * 2.0 * np.sqrt(c) * (2.0 + np.sqrt(c)) * eps)

    return _meet_witnesses(
        checker, parts,
        lambda h, grid: _weak_pp(checker, h @ h, p / 2.0,
                                 [eps ** 2 for eps in grid]),
        budgets, "one-sided", "one_sided", eps_grid)
