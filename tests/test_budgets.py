"""The paper's budgets for every found witness.

On seeded DS+ channels over algebras of one to three blocks, a witness
that a builder reports as found must pass a fresh `check_witness`
against budgets computed here from the paper's constants, not read from
the report.  On diagonal algebras the Hopf witness must equal the
indicator of a brute-force maximal function.  The witnesses are
homogeneous: certifying (c x, c eps) gives the verdicts and ratios of
(x, eps).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncergodic.algebra import AlgebraSpec, hermitian_decompose
from ncergodic.dynamics import (random_kraus_channel, random_substochastic,
                                random_unitary_mixture)
from ncergodic.maximal import (CheckerStacks, check_witness,
                               hopf_witness_commutative, one_sided_witness,
                               weighted_witness, yeadon_witness_search)
from ncergodic.ncnorms import lp_norm
from ncergodic.rng import random_operator, stream
from ncergodic.weights import TrigPolynomial, WeightSequence

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
# a weight identically one: its checker averages are the plain ones
UNIT = WeightSequence("constant", period=[1.0])

ALGEBRAS = st.lists(st.tuples(st.integers(1, 3),
                              st.sampled_from([0.5, 1.0, 2.0])),
                    min_size=1, max_size=3).map(
                        lambda blocks: AlgebraSpec(tuple(blocks)))
SEEDS = st.integers(0, 2 ** 31)
EPS = st.sampled_from([0.3, 0.45, 0.6, 0.75])
HORIZONS = st.sampled_from([4, 16, 32])
WEIGHTS = st.sampled_from([
    UNIT,
    WeightSequence("constant", period=[0.5]),
    WeightSequence("periodic", period=[1, 1j, -1, -1j]),
    WeightSequence("trig", poly=TrigPolynomial(
        (1.0,), (np.exp(2j * np.pi * 0.3),))),
])


def channel_and_element(algebra, seed, kind):
    """A seeded DS+ Kraus channel and an element of norm 1."""
    channel = random_kraus_channel(algebra, 1 + seed % 3,
                                   stream(seed, "channel"))
    x = random_operator(algebra, stream(seed, "element"), kind=kind,
                        uniform_norm=1.0)
    return channel, x


def passes(channel, x, report, horizon, trace_budget, sup_budget,
           mode="two_sided", beta=None):
    return check_witness(CheckerStacks(channel, x, horizon, beta),
                         report.projection, trace_budget, sup_budget, mode,
                         method=report.method).checker_passed


@SMALL
@given(algebra=ALGEBRAS, seed=SEEDS, eps=EPS, horizon=HORIZONS)
def test_yeadon_weak_11(algebra, seed, eps, horizon):
    channel, x = channel_and_element(algebra, seed, "positive")
    [report] = yeadon_witness_search(CheckerStacks(channel, x, horizon),
                                     [eps])
    if report.found:
        assert passes(channel, x, report, horizon, lp_norm(x, 1) / eps, eps)


@SMALL
@given(algebra=ALGEBRAS, seed=SEEDS, eps=EPS, horizon=HORIZONS,
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lp_weak_pp(algebra, seed, eps, horizon, p):
    channel, x = channel_and_element(algebra, seed, "positive")
    [report] = weighted_witness(CheckerStacks(channel, x, horizon), p, [eps])
    if report.found:
        assert passes(channel, x, report, horizon,
                      (lp_norm(x, p) / eps) ** p, 2.0 * eps)


@SMALL
@given(algebra=ALGEBRAS, seed=SEEDS, eps=EPS, horizon=HORIZONS,
       p=st.sampled_from([1.0, 2.0]), beta=WEIGHTS)
def test_weighted(algebra, seed, eps, horizon, p, beta):
    channel, x = channel_and_element(algebra, seed, "general")
    # x = (x1 - x2) + i(x3 - x4); a part is zero exactly when its trace is
    parts = sum(part.trace().real > 1e-12 for part in hermitian_decompose(x))
    [report] = weighted_witness(CheckerStacks(channel, x, horizon, beta), p,
                                [eps])
    if report.found:
        assert passes(channel, x, report, horizon,
                      parts * (lp_norm(x, p) / eps) ** p,
                      parts * 12.0 * beta.bound * eps, beta=beta)


@SMALL
@given(algebra=ALGEBRAS, seed=SEEDS, eps=EPS, horizon=HORIZONS,
       p=st.sampled_from([2.0, 3.0, 4.0]), beta=WEIGHTS,
       kind=st.sampled_from(["hermitian", "general"]))
def test_one_sided(algebra, seed, eps, horizon, p, beta, kind):
    channel, x = channel_and_element(algebra, seed, kind)
    parts = 1 if kind == "hermitian" else 2
    r = lp_norm(x, p) / eps
    c = beta.bound
    if beta.is_constant_one:
        trace_budget = 2 * parts * r ** p
        sup_budget = parts * math.sqrt(2) * eps
    else:
        trace_budget = 3 * parts * r ** p
        sup_budget = parts * 2 * math.sqrt(c) * (2 + math.sqrt(c)) * eps
    [report] = one_sided_witness(CheckerStacks(channel, x, horizon, beta), p,
                                 [eps])
    if report.found:
        assert passes(channel, x, report, horizon, trace_budget, sup_budget,
                      "one_sided", beta)


@SMALL
@given(weights=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1,
                        max_size=6),
       seed=SEEDS, eps=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       horizon=HORIZONS)
def test_hopf_equals_brute_force_maximal_function(weights, seed, eps,
                                                  horizon):
    algebra = AlgebraSpec(tuple((1, w) for w in weights))
    channel = random_substochastic(algebra, stream(seed, "channel"))
    x = random_operator(algebra, stream(seed, "element"), kind="positive")
    # M_n(x) = (1/(n+1)) sum_{k<=n} P^k x from explicit matrix powers
    matrix = channel.superop.real
    values = np.array([b[0, 0].real for b in x.blocks])
    powers = [np.linalg.matrix_power(matrix, k) @ values
              for k in range(horizon + 1)]
    maximal = (np.cumsum(powers, axis=0)
               / np.arange(1, horizon + 2)[:, None]).max(axis=0)
    assume(np.all(np.abs(maximal - eps) > 1e-9))
    kept = maximal <= eps

    [report] = hopf_witness_commutative(CheckerStacks(channel, x, horizon),
                                        [eps])
    got = np.array([b[0, 0].real > 0.5
                    for b in report.projection.operator.blocks])
    assert np.array_equal(got, kept)
    killed = float(np.dot(weights, ~kept))
    assert killed <= lp_norm(x, 1) / eps + 1e-12
    assert report.checker_passed


# method -> (builder on (checker, eps_grid), element kind); lp on x >= 0,
# as the CLI draws it
SCALED_BUILDERS = {
    "lp": (lambda checker, grid: weighted_witness(checker, 2.0, grid),
           "positive"),
    "weighted": (lambda checker, grid: weighted_witness(checker, 2.0, grid),
                 "general"),
    "one-sided": (lambda checker, grid: one_sided_witness(checker, 2.0, grid),
                  "general"),
}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6])
@pytest.mark.parametrize("method", sorted(SCALED_BUILDERS))
def test_scaled_element_same_verdicts(method, scale):
    # one 6x6 block, a unitary mixture, horizon 64 and eps = ||x||/4
    algebra = AlgebraSpec(((6, 1.0),))
    build, kind = SCALED_BUILDERS[method]
    for seed in range(3):
        channel = random_unitary_mixture(algebra, 3, stream(seed, "channel"))
        x = random_operator(algebra, stream(seed, "element"), kind=kind,
                            uniform_norm=1.0)
        [base] = build(CheckerStacks(channel, x, 64), [0.25])
        [scaled] = build(CheckerStacks(channel, x * scale, 64),
                         [0.25 * scale])
        assert base.found and base.checker_passed
        assert (scaled.found, scaled.checker_passed) == (True, True)
        assert scaled.trace_ratio == pytest.approx(base.trace_ratio,
                                                   rel=1e-9)
        assert scaled.sup_ratio == pytest.approx(base.sup_ratio, rel=1e-9)
