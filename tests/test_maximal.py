import contextlib
import dataclasses
import functools
import inspect
import io
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergodic import cli, maximal, util
from ncergodic.algebra import (SCREEN_HEAD_COUNT, AlgebraSpec, Operator,
                              Projection, compressed_sup, hermitian,
                              sup_screen)
from ncergodic.dynamics import (channel_from_spec, ergodic_averages,
                                identity_channel, kraus_channel,
                                random_kraus_channel,
                                random_substochastic, random_unitary_mixture,
                                scale_channel, substochastic)
from ncergodic.maximal import (CheckerStacks, WitnessReport, check_witness,
                               hopf_witness_commutative, one_sided_witness,
                               peel, weighted_witness, yeadon_witness_search)
from ncergodic.ncnorms import lp_norm
from ncergodic.rng import (derive_seed, random_operator, random_projection,
                           random_unitary_operator, stream)
from ncergodic.spectral import (SpectralDecomposition, eigh,
                                projection_meet_all)
from ncergodic.util import DEFAULT_TOL
from ncergodic.weights import WeightSequence

FIXTURES = Path(cli.__file__).parent / "fixtures"
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))
MODES = ("two_sided", "one_sided")
# a weight identically one: its checker averages are the plain ones
UNIT = WeightSequence("constant", period=[1.0])


def stacks(ops):
    return MULTI.block_stacks([op.vec() for op in ops])


def compression(block, basis, mode):
    """b* a b ("two_sided") or a b ("one_sided") for one block a."""
    return (basis.conj().T @ block @ basis if mode == "two_sided"
            else block @ basis)


def loop_norm(x, e, mode):
    """Per-block loop of ||e x e|| or ||x e|| with a 2-norm per block."""
    best = 0.0
    for i in range(x.algebra.num_blocks):
        basis = e.block_basis(i)
        if basis.shape[1] == 0:
            continue
        c = compression(x.block(i), basis, mode)
        best = max(best, float(np.linalg.norm(c, 2)))
    return best


def svd_top(mode):
    """(value, direction) of a block for `loop_peel`: the top singular
    value and right singular vector of its compression."""
    def top(block, basis):
        _, s, vh = np.linalg.svd(compression(block, basis, mode))
        return float(s[0]), vh[0].conj()
    return top


def hermitian_top(block, basis):
    """(value, direction) by the top eigenpair of the Hermitian part of
    b* a b, as peeling by lambda_max(Herm e a e) measures a block."""
    c = compression(block, basis, "two_sided")
    lam, vecs = np.linalg.eigh((c + c.conj().T) / 2.0)
    return float(lam[-1]), vecs[:, -1]


def loop_peel(algebra, ops, level, budget, top):
    """Per-operator peeling loop: operators outer, blocks inner, strict >;
    top(block, basis) gives each compressed block's value and direction."""
    bases = [np.eye(d, dtype=complex) for d in algebra.dims]
    defect = 0.0
    while True:
        worst_value, worst = -np.inf, None
        for op in ops:
            for i, basis in enumerate(bases):
                if basis.shape[1] == 0:
                    continue
                value, direction = top(op.block(i), basis)
                if value > worst_value:
                    worst_value, worst = value, (i, direction)
        if worst is None or worst_value <= level:
            break
        i, direction = worst
        if defect + algebra.weights[i] > budget:
            break
        basis = bases[i]
        proj = (np.eye(basis.shape[1], dtype=complex)
                - np.outer(direction, direction.conj()))
        bases[i] = basis @ np.linalg.eigh(proj)[1][:, 1:]
        defect += algebra.weights[i]
    return Projection.from_basis(algebra, bases), defect


def weighted_trajectory(seed, horizon=24):
    rng = stream(seed, "maximal")
    channel = random_kraus_channel(MULTI, 3, rng)
    x = random_operator(MULTI, rng)
    beta = WeightSequence("periodic", period=[1.0, 1j, -1.0, -1j])
    ops = [Operator.from_vec(MULTI, vec)
           for _, vec in ergodic_averages(channel, x, horizon, beta)]
    return channel, x, beta, ops, rng


class TestCompressedSup:
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_per_operator_loop(self, mode):
        channel, x, beta, ops, rng = weighted_trajectory(400)
        # a rank-0 middle block, a partial first block, the full atom
        e = Projection.from_basis(MULTI, [np.eye(3)[:, :2],
                                          np.zeros((2, 0)), np.eye(1)])
        projections = [e, Projection.identity(MULTI),
                       random_projection(MULTI, rng)]
        for proj in projections:
            expected = max(loop_norm(op, proj, mode) for op in ops)
            assert compressed_sup(stacks(ops), proj, mode) == expected
            # the largest average is usually M_0; put it last as well
            assert compressed_sup(stacks(ops[::-1]), proj, mode) == expected
            checker = CheckerStacks(channel, x, len(ops) - 1, beta)
            assert checker.sup(proj, mode) == expected

    def test_single_operator_norms(self):
        _, _, _, ops, rng = weighted_trajectory(401, horizon=3)
        e = random_projection(MULTI, rng)
        for op in ops:
            for mode in MODES:  # a stack of one
                assert compressed_sup(stacks([op]), e, mode) == \
                    loop_norm(op, e, mode)

    def test_zero_projection_and_unknown_mode(self):
        _, _, _, ops, _ = weighted_trajectory(402, horizon=3)
        assert compressed_sup(stacks(ops), Projection(MULTI.zero())) == 0.0
        with pytest.raises(ValueError):
            compressed_sup(stacks(ops), Projection.identity(MULTI), "both")


def diag_op(*diagonals):
    return Operator(MULTI, [np.diag(np.asarray(v, dtype=complex))
                            for v in diagonals])


# case -> (mode of `peel`, top of `loop_peel`).  The "hermitian" case is
# the deleted peel by lambda_max of the Hermitian part: on x >= 0 it is the
# two-sided peel, so it runs on positive operators only.
PEEL_CASES = {"two_sided": ("two_sided", svd_top("two_sided")),
              "one_sided": ("one_sided", svd_top("one_sided")),
              "hermitian": ("two_sided", hermitian_top)}


class TestPeelAgainstLoop:
    def assert_same(self, ops, stops, case):
        """One run over all stops equals, stop by stop, a one-stop run
        and the per-operator loop: bit for bit with the loop of its own
        kernel, and within 1e-10 with the eigh loop of the "hermitian"
        case."""
        mode, top = PEEL_CASES[case]
        got = peel(MULTI, stacks(ops), stops, mode)
        assert len(got) == len(stops)
        for (e, defect), (level, budget) in zip(got, stops):
            [(e_one, defect_one)] = peel(MULTI, stacks(ops), [(level, budget)],
                                         mode)
            e_loop, defect_loop = loop_peel(MULTI, ops, level, budget, top)
            assert defect == defect_one == defect_loop
            assert np.array_equal(e.operator.vec(), e_one.operator.vec())
            if case == "hermitian":
                assert np.allclose(e.operator.vec(), e_loop.operator.vec(),
                                   rtol=0.0, atol=1e-10)
            else:
                assert np.array_equal(e.operator.vec(),
                                      e_loop.operator.vec())
        return got

    @pytest.mark.parametrize("case", sorted(PEEL_CASES))
    def test_random_trajectories(self, case):
        total = MULTI.identity().trace().real
        for seed in range(4):
            _, _, _, ops, _ = weighted_trajectory(410 + seed)
            if case == "hermitian":
                ops = [op.adjoint() @ op for op in ops]
            top = max(loop_norm(op, Projection.identity(MULTI), "two_sided")
                      for op in ops)
            # every direction removed, stopped by the level, and two
            # stops under a budget that the 1x1 block (weight 3) exceeds
            stops = [(-np.inf, np.inf), (0.3 * top, np.inf),
                     (0.1 * top, 2.5), (-np.inf, 2.5)]
            got = self.assert_same(ops, stops, case)
            (e_all, all_defect), (_, level_defect), _, (_, budget_defect) = got
            assert all_defect == total and e_all.rank() == 0
            assert 0 < level_defect < total
            assert 0 < budget_defect <= 2.5

    @pytest.mark.parametrize("case", sorted(PEEL_CASES))
    def test_tie_across_operators(self, case):
        # equal top values in different directions; the budget allows one
        # removal, which must take the first operator's direction
        ops = [diag_op([0, 1, 0], [0, 0], [0]),
               diag_op([1, 0, 0], [0, 0], [0])]
        [(e, defect)] = self.assert_same(ops, [(0.5, 1.0)], case)
        assert defect == 1.0
        assert np.allclose(np.diag(e.operator.block(0)), [1, 0, 1])

    @pytest.mark.parametrize("case", sorted(PEEL_CASES))
    def test_tie_across_blocks(self, case):
        # block 0 (weight 1) and block 1 (weight 0.25) tie; block 0 goes
        # first, after which block 1 no longer fits the budget
        ops = [diag_op([1, 0, 0], [1, 0], [0])]
        [(e, defect)] = self.assert_same(ops, [(0.5, 1.0)], case)
        assert defect == 1.0
        assert e.rank(0) == 2 and e.rank(1) == 2

    @pytest.mark.parametrize("case", sorted(PEEL_CASES))
    def test_operator_order_before_block_order(self, case):
        # the first operator's tie in block 1 beats the second operator's
        # in block 0; the block 0 removal then no longer fits the budget
        ops = [diag_op([0, 0, 0], [1, 0], [0]),
               diag_op([1, 0, 0], [0, 0], [0])]
        [(e, defect)] = self.assert_same(ops, [(0.5, 1.0)], case)
        assert defect == 0.25
        assert e.rank(0) == 3 and e.rank(1) == 1


class TestTwoSidedPeelOnPositiveTrajectories:
    """On x >= 0 every average M_n(x) is positive, so each compression
    c = e M_n(x) e has lambda_max(Herm c) = ||c||: the weak (1,1)
    search's two-sided peel stops where peeling by the top eigenpair of
    the Hermitian part stops, with the same projections."""

    @pytest.mark.parametrize("build", [
        lambda rng: random_kraus_channel(MULTI, 3, rng),
        lambda rng: random_unitary_mixture(MULTI, 2, rng)],
        ids=["kraus", "unitary-mixture"])
    def test_matches_hermitian_peel(self, build):
        for seed in range(20):
            rng = stream(seed, "positive-peel")
            channel = build(rng)
            x = random_operator(MULTI, rng, kind="positive")
            ops = [Operator.from_vec(MULTI, vec)
                   for _, vec in ergodic_averages(channel, x, 24)]
            top = max(loop_norm(op, Projection.identity(MULTI), "two_sided")
                      for op in ops)
            stops = [(-np.inf, np.inf), (0.3 * top, np.inf),
                     (0.1 * top, 2.5), (-np.inf, 2.5)]
            got = peel(MULTI, stacks(ops), stops, "two_sided")
            for (e, defect), (level, budget) in zip(got, stops):
                e_herm, defect_herm = loop_peel(MULTI, ops, level, budget,
                                                hermitian_top)
                assert defect == defect_herm
                assert np.allclose(e.operator.vec(), e_herm.operator.vec(),
                                   rtol=0.0, atol=1e-10)


class TestExactKernelsPerMatrix:
    """The screens and the floors rely on LAPACK and the batched matrix
    product running on each matrix of a batch alone: a sub-stack gives
    the same bits as the whole stack.
    If numpy ever batches differently, this fails before any reference
    drifts."""

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (8, 8), (8, 3)])
    def test_sub_stack_equals_whole_stack(self, shape):
        rng = np.random.default_rng(440 + shape[0] + shape[1])
        stack = (rng.standard_normal((257,) + shape)
                 + 1j * rng.standard_normal((257,) + shape))
        sub = np.sort(rng.choice(257, 40, replace=False))
        values = np.linalg.svd(stack, compute_uv=False)
        assert np.array_equal(values[sub],
                              np.linalg.svd(stack[sub], compute_uv=False))
        _, s, vh = np.linalg.svd(stack)
        _, s_sub, vh_sub = np.linalg.svd(stack[sub])
        assert np.array_equal(s[sub], s_sub)
        assert np.array_equal(vh[sub], vh_sub)
        if shape[0] == shape[1]:
            # `CheckerStacks.floors` takes eigvalsh of the Hermitian parts
            # slice by slice
            lam = np.linalg.eigvalsh(hermitian(stack))
            assert np.array_equal(lam[sub], np.linalg.eigvalsh(
                hermitian(stack[sub])))
            assert np.array_equal(lam[40:80], np.linalg.eigvalsh(
                hermitian(stack[40:80])))

    @pytest.mark.parametrize("mode", MODES)
    def test_compressed_sub_stack_equals_whole_stack(self, mode):
        # `compressed_sup` compresses sub-stacks of a block's view, whose
        # matrices are not contiguous, and of a screen's head
        algebra = AlgebraSpec(((8, 1.0), (5, 0.5), (1, 2.0)))
        rng = np.random.default_rng(445)
        vecs = (rng.standard_normal((257, algebra.vec_dim))
                + 1j * rng.standard_normal((257, algebra.vec_dim)))
        sub = np.sort(rng.choice(257, 40, replace=False))
        for stack in algebra.block_stacks(vecs):
            d = stack.shape[-1]
            for rank in {1, max(1, d - 3), d}:
                basis, _ = np.linalg.qr(rng.standard_normal((d, rank))
                                        + 1j * rng.standard_normal((d, rank)))
                whole = maximal.compress(stack, basis, mode)
                assert np.array_equal(
                    whole[sub], maximal.compress(stack[sub], basis, mode))
                assert np.array_equal(
                    whole[-1:], maximal.compress(stack[-1:], basis, mode))


def svd_every_compression(stacks, e, mode):
    """Oracle for `compressed_sup`: an SVD of every compression of every
    block, in block order, as the sup was taken before any screen."""
    best = 0.0
    for i, stack in enumerate(stacks):
        basis = e.block_basis(i)
        if not len(stack) or not basis.shape[1]:
            continue
        values = np.linalg.svd(compression(stack, basis, mode),
                               compute_uv=False)[:, 0]
        best = max(best, float(values.max()))
    return best


def screens_of(stacks):
    """The checker's screens of stacks."""
    return tuple(sup_screen(stack) for stack in stacks)


def outcome(fn, *args):
    """fn(*args), or LinAlgError, which LAPACK raises on a NaN input."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


def same_outcome(got, expected):
    """Bit-identical sups or peel results, NaN equal to NaN, or both
    raised."""
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected
    elif isinstance(expected, float):
        assert got == expected or (math.isnan(got) and math.isnan(expected))
    else:
        assert len(got) == len(expected)
        for (e, defect), (e_want, defect_want) in zip(got, expected):
            assert defect == defect_want
            assert np.array_equal(e.operator.vec(), e_want.operator.vec(),
                                  equal_nan=True)


def tied_blocks(count, rng):
    """Per block of MULTI, a_N = t u u* and a_n = (t + c_n) u u* with
    c_n within a few ulps of one c, for a random unit u per block: the
    bounds ||e a_N e|| + ||a_n - a_N||_F and ||a_N||_F + max_n
    ||a_n - a_N||_F are tight, so on e = 1 every value ties its bound
    and the other blocks' values within rounding."""
    t, c = rng.uniform(0.5, 2.0, size=2)
    steps = 1.0 + rng.integers(0, 4, size=count) * 2.0 ** -50
    blocks = []
    for d in MULTI.dims:
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u /= np.linalg.norm(u)
        top = t + c * steps
        top[-1] = t
        blocks.append(top[:, None, None] * np.outer(u, u.conj()))
    return blocks


# kinds of `screen_stacks`
SCREEN_KINDS = ["random", "trajectory", "decoys", "equal", "zeros",
                "indefinite", "negative", "nan", "ties", "spread", "inf",
                "flat"]


def screen_stacks(kind, count, scale, seed):
    """Per-block stacks over MULTI of `count` operators of one kind,
    times `scale`."""
    rng = np.random.default_rng(seed)
    if kind == "trajectory":
        channel = random_kraus_channel(MULTI, 3, stream(seed, "screen"))
        x = random_operator(MULTI, stream(seed, "element"), kind="positive")
        vecs = np.array([vec for _, vec in ergodic_averages(channel, x,
                                                            count - 1)])
    else:
        vecs = (rng.standard_normal((count, MULTI.vec_dim))
                + 1j * rng.standard_normal((count, MULTI.vec_dim)))
    if kind == "decoys":
        # a tight bound at the top value first, then operators of the
        # same top value whose looser bounds fill the floor pass
        t = rng.uniform(0.5, 2.0)  # varies the rounding of the bounds
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        vecs *= 0.3
        for rows, diagonal in ((slice(0, 1), [0, 0, t]),
                               (slice(1, 10), [t, t, 0])):
            block = q @ np.diag(diagonal) @ q.conj().T
            vecs[rows] = Operator(MULTI, [block, np.zeros((2, 2)),
                                          np.zeros((1, 1))]).vec()
    elif kind == "equal":
        vecs[:] = vecs[0]
    elif kind == "zeros":
        vecs[rng.random(count) < 0.5] = 0.0
    elif kind == "nan":
        vecs[rng.integers(count), rng.integers(MULTI.vec_dim)] = np.nan
    elif kind == "inf":
        vecs[rng.integers(count), rng.integers(MULTI.vec_dim)] = np.inf
    blocks = [np.array(s) for s in MULTI.block_stacks(vecs)]
    if kind in ("indefinite", "negative"):
        blocks = [hermitian(b) for b in blocks]
    if kind == "negative":  # every top eigenvalue well below zero
        blocks = [b - 6.0 * np.eye(b.shape[-1]) for b in blocks]
    if kind == "ties":
        blocks = tied_blocks(count, rng)
    if kind == "spread":  # the later blocks lie far below the first
        blocks = [b * 10.0 ** (-4 * i) for i, b in enumerate(blocks)]
    if kind == "flat":  # a zero block and a subnormal one
        blocks[1] = blocks[1] * 0.0
        blocks[2] = blocks[2] * 1e-310
    return tuple(scale * b for b in blocks)


SCREEN_SETTINGS = settings(max_examples=160, deadline=None, derandomize=True)


def loop_peel_stops(stack, stops, mode):
    """`loop_peel` of the `PEEL_CASES` kernel of mode on per-block
    stacks, one run per stop, as `peel` returns them."""
    ops = [Operator(MULTI, blocks) for blocks in zip(*stack)]
    top = PEEL_CASES[mode][1]
    return [loop_peel(MULTI, ops, level, budget, top)
            for level, budget in stops]


class TestSupScreen:
    """The screened `compressed_sup` equals an SVD of every compression,
    and `peel` the per-operator loop, bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @SCREEN_SETTINGS
    @given(kind=st.sampled_from(SCREEN_KINDS),
           count=st.integers(1, 40),
           scale=st.sampled_from([1e-150, 1e-6, 1.0, 1e6, 1e150]),
           seed=st.integers(0, 2 ** 31))
    def test_sup_and_peel_equal_their_oracles(self, kind, count, scale,
                                              seed):
        stack = screen_stacks(kind, count, scale, seed)
        screens = screens_of(stack)
        projections = [Projection.identity(MULTI),
                       random_projection(MULTI, stream(seed, "projection"))]
        for e in projections:
            for mode in MODES:
                expected = outcome(svd_every_compression, stack, e, mode)
                # the checker's sup, and the sup without screens
                same_outcome(outcome(compressed_sup, stack, e, mode, screens),
                             expected)
                same_outcome(outcome(compressed_sup, stack, e, mode),
                             expected)
        top = outcome(compressed_sup, stack, projections[0])
        top = top if isinstance(top, float) else 1.0
        # the last stop ends after the first removal, so it shows the
        # first choice of the greedy order
        stops = [(-np.inf, np.inf), (0.3 * top, np.inf), (0.1 * top, 2.5),
                 (-np.inf, 1.0)]
        for mode in MODES:
            expected = outcome(loop_peel_stops, stack, stops, mode)
            same_outcome(outcome(peel, MULTI, stack, stops, mode), expected)
            if kind == "nan":
                assert expected is np.linalg.LinAlgError

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_within_rounding(self, mode):
        # the values tie their bounds and each other within rounding, so
        # only the slack keeps the n and blocks that hold the sup
        e = Projection.identity(MULTI)
        for seed in range(300):
            stack = screen_stacks("ties", 24, 1.0, seed)
            assert (compressed_sup(stack, e, mode, screens_of(stack))
                    == svd_every_compression(stack, e, mode))

    def test_block_skip(self, monkeypatch):
        # blocks far below the sup are skipped whole: no compression of
        # them is formed, and the sup is the oracle's
        compressed, compress = [], maximal.compress

        def counting(stack, basis, mode):
            compressed.append(stack.shape[-1])
            return compress(stack, basis, mode)

        monkeypatch.setattr("ncergodic.algebra.compress", counting)
        for seed in range(20):
            stack = screen_stacks("spread", 40, 1.0, seed)
            e = Projection.identity(MULTI)
            compressed.clear()
            for mode in MODES:
                assert (compressed_sup(stack, e, mode, screens_of(stack))
                        == svd_every_compression(stack, e, mode))
            assert compressed and set(compressed) == {3}

    def test_screen_engages_on_certify_mix8(self, workloads, monkeypatch):
        # one sup over the identity at the workload's horizon compresses
        # a few of the 257 averages, and the exact SVD sees no others
        channel, x, _, _ = mix8(workloads, "random-positive")
        horizon = workloads.WORKLOADS["certify-mix8"][1]()["horizon"]
        checker = CheckerStacks(channel, x, horizon)
        stacks, screens = checker.stacks, checker.screens
        e = Projection.identity(channel.algebra)
        compressed, evaluated = [], []
        compress, svd = maximal.compress, np.linalg.svd

        def compressing(stack, basis, mode):
            compressed.append(len(stack))
            return compress(stack, basis, mode)

        def counting(a, *args, **kwargs):
            evaluated.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr("ncergodic.algebra.compress", compressing)
        monkeypatch.setattr(np.linalg, "svd", counting)
        sup = compressed_sup(stacks, e, "two_sided", screens)
        assert 1 + SCREEN_HEAD_COUNT <= sum(compressed) < (horizon + 1) / 4
        assert sum(evaluated) <= sum(compressed)
        # the sup without screens compresses every average
        compressed.clear()
        assert compressed_sup(stacks, e) == sup
        assert sum(compressed) == horizon + 1
        assert svd_every_compression(stacks, e, "two_sided") == sup


def level_set_cuts(channel, stacks):
    """Every cut of the level-set strategy, ascending threshold; each
    stack is summed in order, as the strategy sums it."""
    mean = Operator(channel.algebra, [complex(1.0 / len(stacks[0]))
                                      * np.cumsum(stack, axis=0)[-1]
                                      for stack in stacks])
    dec = eigh(mean)
    return [dec.projection_where(lambda lam, t=t: lam <= t)
            for t in dec.eigenvalues]


def eager_level_set(cuts, stacks, level, budget):
    """Level-set search over cuts all built beforehand."""
    feasible = [c for c in cuts if c.defect() <= budget]
    if not feasible or compressed_sup(stacks, feasible[0]) > level:
        return None
    lo, hi, best = 0, len(feasible) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        if compressed_sup(stacks, feasible[mid]) <= level:
            best, lo = feasible[mid], mid + 1
        else:
            hi = mid - 1
    return best


LEVEL_ALGEBRA = AlgebraSpec(((16, 1.0), (8, 0.5)))


def level_set_cases():
    rng = stream(420, "level-set")
    for _ in range(2):
        yield (random_kraus_channel(LEVEL_ALGEBRA, 3, rng),
               random_operator(LEVEL_ALGEBRA, rng, kind="positive"))
    # the identity keeps the degenerate spectrum of x: clustered cuts
    yield (identity_channel(LEVEL_ALGEBRA),
           LEVEL_ALGEBRA.diagonal(np.repeat([0.2, 0.5, 1.0, 3.0], 6)))


class TestLevelSet:
    def test_matches_eager_search_with_few_cuts(self, monkeypatch):
        built = []
        projection_where = SpectralDecomposition.projection_where

        def counting(self, predicate):
            built.append(predicate)
            return projection_where(self, predicate)

        outcomes = set()
        for channel, x in level_set_cases():
            checker = CheckerStacks(channel, x, 8)
            stacks = checker.stacks
            cuts = level_set_cuts(channel, stacks)
            defects = [c.defect() for c in cuts]
            sups = [compressed_sup(stacks, c) for c in cuts]
            k = len(cuts) // 2
            # exact ties with a cut's defect or sup, values between cuts,
            # and the extremes
            budgets = [np.inf, 0.0, defects[k], (defects[k] + defects[1]) / 2]
            levels = [10 * max(sups), sups[0], sups[k],
                      (sups[k] + sups[-1]) / 2]
            stops, expected_all = [], []
            for budget in budgets:
                for level in levels:
                    expected = eager_level_set(cuts, stacks, level, budget)
                    stops.append((level, budget))
                    expected_all.append(expected)
                    monkeypatch.setattr(SpectralDecomposition,
                                        "projection_where", counting)
                    built.clear()
                    [got] = maximal._strategy_level_set(
                        checker, [(level, budget)])
                    monkeypatch.undo()
                    bound = 2 * math.ceil(math.log2(len(cuts) + 1)) + 1
                    assert len(built) <= bound
                    if expected is None:
                        assert got is None
                    else:
                        assert np.array_equal(got.operator.vec(),
                                              expected.operator.vec())
                    outcomes.add((len(cuts), expected is None))
            # one call over every stop shares its cuts and gives the same
            for got, expected in zip(
                    maximal._strategy_level_set(checker, stops),
                    expected_all):
                assert (got is None) == (expected is None)
                if got is not None:
                    assert np.array_equal(got.operator.vec(),
                                          expected.operator.vec())
        # found and not found, on the generic and the clustered spectrum
        assert outcomes == {(24, True), (24, False), (4, True), (4, False)}


CELL_HORIZON = 32


def found_yeadon_cell():
    """A seeded weak (1,1) cell at CELL_HORIZON whose witness is found and
    kills part of the first block."""
    rng = stream(430, "checker")
    channel = random_kraus_channel(MULTI, 3, rng)
    x = random_operator(MULTI, rng, kind="positive", uniform_norm=1.0)
    [report] = yeadon_witness_search(CheckerStacks(channel, x, CELL_HORIZON),
                                     [0.5])
    assert report.found
    assert 0 < report.projection.rank(0) < MULTI.dims[0]
    return channel, x, report


class TestCheckerRejects:
    def test_rotated_projection_fails_sup(self):
        channel, x, report = found_yeadon_cell()
        e = report.projection
        # swap one basis vector of block 0 for one from the killed range:
        # the rank, so the defect, is unchanged
        bases = [e.block_basis(i) for i in range(MULTI.num_blocks)]
        killed = e.complement().block_basis(0)
        bases[0] = np.concatenate([killed[:, :1], bases[0][:, 1:]], axis=1)
        tampered = Projection.from_basis(MULTI, bases)
        assert tampered.defect() == pytest.approx(e.defect())
        # measured on the stacks that the found witness passed on
        checker = CheckerStacks(channel, x, CELL_HORIZON)
        assert check_witness(checker, e, report.trace_budget,
                             report.sup_budget, method="peel").checker_passed
        outcome = check_witness(checker, tampered, report.trace_budget,
                                report.sup_budget, method="tampered")
        assert outcome.trace_defect <= outcome.trace_budget
        assert outcome.sup_compression > outcome.sup_budget
        assert not outcome.checker_passed

    def test_budget_just_below_measurement_fails(self):
        channel, x, report = found_yeadon_cell()
        e, checker = report.projection, CheckerStacks(channel, x, CELL_HORIZON)
        defect, sup = report.trace_defect, report.sup_compression
        exact = check_witness(checker, e, defect, sup, tol=0.0,
                              method="exact")
        assert exact.checker_passed
        low_sup = check_witness(checker, e, defect, np.nextafter(sup, 0.0),
                                tol=0.0, method="low-sup")
        assert low_sup.trace_defect <= low_sup.trace_budget
        assert low_sup.sup_compression > low_sup.sup_budget
        assert not low_sup.checker_passed
        low_trace = check_witness(checker, e, np.nextafter(defect, 0.0), sup,
                                  tol=0.0, method="low-trace")
        assert low_trace.trace_defect > low_trace.trace_budget
        assert low_trace.sup_compression <= low_trace.sup_budget
        assert not low_trace.checker_passed

    def test_method_is_a_keyword(self):
        # a positional mode cannot be read as a method
        channel, x, report = found_yeadon_cell()
        checker = CheckerStacks(channel, x, CELL_HORIZON)
        with pytest.raises(TypeError):
            check_witness(checker, report.projection, report.trace_budget,
                          report.sup_budget, "two_sided", 0.0, "peel")
        with pytest.raises(TypeError):
            check_witness(checker, report.projection, report.trace_budget,
                          report.sup_budget)

    @pytest.mark.parametrize("beta,bound", [
        (None, 1.0), (UNIT, 1.0),
        (WeightSequence("constant", period=[1.0], bound=2.0), 2.0),
        (WeightSequence("periodic", period=[1, 1j, -1, -1j]), 1.0)])
    def test_weight_bound_is_the_checkers(self, beta, bound):
        # a weight identically one checks the plain averages, but its
        # reports keep its declared bound
        channel, x, report = found_yeadon_cell()
        checker = CheckerStacks(channel, x, CELL_HORIZON, beta)
        assert (checker.beta is None) == (beta is None
                                          or beta.is_constant_one)
        checked = check_witness(checker, report.projection,
                                report.trace_budget, report.sup_budget,
                                method="peel")
        assert checked.weight_bound == checker.weight_bound == bound


def diagonal_cell():
    """A positive x on a four-atom diagonal algebra under the identity
    channel."""
    algebra = AlgebraSpec(((1, 1.0), (1, 0.5), (1, 2.0), (1, 1.0)))
    return identity_channel(algebra), algebra.diagonal([0.1, 3.0, 0.5, 2.0])


class TestWeakOneOneIsPlain:
    """The weak (1,1) entry points bound the plain averages: they refuse a
    checker of weighted ones, and a weight identically one is plain."""

    BETA = WeightSequence("periodic", period=[1.0, 1j, -1.0, -1j])

    def test_yeadon_refuses_weighted_checker(self):
        channel, x, report = found_yeadon_cell()
        with pytest.raises(ValueError, match="plain"):
            yeadon_witness_search(
                CheckerStacks(channel, x, CELL_HORIZON, self.BETA), [0.5])
        [unit] = yeadon_witness_search(
            CheckerStacks(channel, x, CELL_HORIZON, UNIT), [0.5])
        same_result(unit, report)

    def test_hopf_refuses_weighted_checker(self):
        channel, x = diagonal_cell()
        with pytest.raises(ValueError, match="plain"):
            hopf_witness_commutative(
                CheckerStacks(channel, x, 4, self.BETA), [1.0])
        [unit] = hopf_witness_commutative(CheckerStacks(channel, x, 4, UNIT),
                                          [1.0])
        [plain] = hopf_witness_commutative(CheckerStacks(channel, x, 4),
                                           [1.0])
        same_result(unit, plain)
        assert plain.found and plain.projection.rank() == 2


class TestOneSearchPassPerCheck:
    def certify_counts(self, tmp_path, monkeypatch, eps_grid):
        """Recurrence passes and checked candidates of one yeadon certify
        run over `eps_grid`."""
        counts = {"averages": 0, "check": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(maximal, fn.__name__, wrapper)

        counting("averages", maximal.ergodic_averages)
        counting("check", maximal.check_witness)
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["certify"] = {"methods": ["yeadon"], "eps_grid": eps_grid,
                             "p_grid": [1],
                             "element": {"kind": "random-positive"}}
        path = tmp_path / "yeadon.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert code == 0
        return counts

    def test_yeadon_cell_counts(self, tmp_path, monkeypatch):
        counts = self.certify_counts(tmp_path, monkeypatch, [0.2])
        assert counts["check"] >= 1
        assert counts["averages"] == 1

    def test_one_search_pass_per_eps_grid(self, tmp_path, monkeypatch):
        # the checker's one recurrence pass serves the search over the
        # whole grid and the check of every candidate of the element
        counts = self.certify_counts(tmp_path, monkeypatch,
                                     [0.05, 0.2, 0.5, 1.0])
        assert counts["check"] >= 4
        assert counts["averages"] == 1


MIX8_GRID = [0.1, 0.25, 0.5, 1.0]


def same_result(a, b):
    """Every field, the found flag and the projection blocks agree
    exactly."""
    assert type(a) is type(b) is WitnessReport
    for f in dataclasses.fields(WitnessReport):
        got, expected = getattr(a, f.name), getattr(b, f.name)
        if f.name == "projection":
            assert all(np.array_equal(g, e) for g, e in
                       zip(got.operator.blocks, expected.operator.blocks))
        else:
            assert got == expected, f.name


def mix8(workloads, kind):
    """The certify-mix8 channel, element and weights; a shorter horizon
    keeps the winning strategies of the full one at a quarter of the
    cost."""
    config = workloads.WORKLOADS["certify-mix8"][1]()
    algebra = AlgebraSpec.from_json(config["algebra"])
    channel = channel_from_spec(
        algebra, config["channel"],
        run_seed=derive_seed(config["seed"], "cell", 0))
    x = cli.element_from_spec(
        algebra, dict(config["certify"]["element"], kind=kind),
        stream(config["seed"], "element", 0))
    beta = WeightSequence.from_json(config["certify"]["weights"])
    return channel, x, beta, 64


def cycle96(workloads):
    """The certify-cycle96 channel, element and horizon."""
    config = workloads.WORKLOADS["certify-cycle96"][1]()
    algebra = AlgebraSpec.from_json(config["algebra"])
    channel = channel_from_spec(algebra, config["channel"])
    x = cli.element_from_spec(algebra, config["certify"]["element"], None)
    return channel, x, config["horizon"]


class TestGridEqualsSingleEps:
    """One search over an eps grid returns what one search per eps does."""

    def assert_grid_equals_single(self, search, grid):
        results = search(grid)
        assert len(results) == len(grid)
        for eps, result in zip(grid, results):
            [single] = search([eps])
            same_result(result, single)
        return results

    def test_yeadon_and_lp(self, workloads):
        channel, x, _, horizon = mix8(workloads, "random-positive")
        yeadon = self.assert_grid_equals_single(
            lambda grid: yeadon_witness_search(
                CheckerStacks(channel, x, horizon), grid),
            MIX8_GRID)
        lp = self.assert_grid_equals_single(
            lambda grid: weighted_witness(
                CheckerStacks(channel, x, horizon), 2.0, grid),
            MIX8_GRID)
        assert [r.method for r in yeadon] == ["floor", "floor", "level-set",
                                              "level-set"]
        assert [r.method for r in lp] == [f"weighted[{r.method}]"
                                          for r in yeadon]

    def test_weighted_and_one_sided(self, workloads):
        channel, x, beta, horizon = mix8(workloads, "random")
        weighted = self.assert_grid_equals_single(
            lambda grid: weighted_witness(
                CheckerStacks(channel, x, horizon, beta), 2.0, grid),
            MIX8_GRID)
        one_sided = self.assert_grid_equals_single(
            lambda grid: one_sided_witness(
                CheckerStacks(channel, x, horizon, beta), 2.0, grid),
            MIX8_GRID)
        # identity wins at eps = 1, the floor bound or level-set below
        for results in (weighted, one_sided):
            assert all(r.found for r in results)
            assert "identity" not in " ".join(r.method for r in results[:3])
            assert "floor" in results[0].method
            assert "level-set" in results[2].method
            assert "identity" in results[3].method

    def test_part_failure_is_the_meet_on_x(self, workloads, monkeypatch):
        # a part that is not found makes the cell not found, and the report
        # is still the meet of every part's candidate, measured on x
        # against the cell's own budgets
        channel, x, beta, horizon = mix8(workloads, "random")
        candidates = []
        weak_pp = maximal._weak_pp

        def failing_first_part(*args, **kwargs):
            results = weak_pp(*args, **kwargs)
            if not candidates:  # the first part fails at the first eps
                results[0] = dataclasses.replace(results[0], found=False)
            candidates.append(results)
            return results

        monkeypatch.setattr(maximal, "_weak_pp", failing_first_part)
        results = weighted_witness(CheckerStacks(channel, x, horizon, beta),
                                   2.0, MIX8_GRID)
        # every part is searched over the whole grid
        assert [len(c) for c in candidates] == [len(MIX8_GRID)] * 4
        assert not results[0].found
        assert all(r.found for r in results[1:])
        report, eps = results[0], MIX8_GRID[0]
        meet = projection_meet_all([c[0].projection for c in candidates])
        assert all(np.array_equal(g, e) for g, e in
                   zip(report.projection.operator.blocks,
                       meet.operator.blocks))
        assert (report.trace_budget, report.sup_budget) == \
            part_meet_budgets("weighted", 4, lp_norm(x, 2.0), 2.0,
                              beta.bound, beta.is_constant_one, eps)
        assert report.weight_bound == beta.bound
        checker = CheckerStacks(channel, x, horizon, beta)
        assert report.sup_compression == fresh_sup(checker, meet, "two_sided")
        assert report.trace_defect == meet.defect()
        assert report.checker_passed == report.within_budgets()

    def test_hopf(self, workloads):
        channel, x, horizon = cycle96(workloads)
        grid = [1.0, 2.0, 4.0, 8.0]
        results = self.assert_grid_equals_single(
            lambda g: hopf_witness_commutative(
                CheckerStacks(channel, x, horizon), g),
            grid)
        ranks = [r.projection.rank() for r in results]
        assert ranks == sorted(ranks) and ranks[0] < ranks[-1]




def part_meet_budgets(method, parts, norm, p, c, trivial, eps):
    """The (trace, sup) budgets of a found multi-part witness, as the
    docstrings of `weighted_witness` and `one_sided_witness` state
    them."""
    r = norm / eps
    if method == "weighted":
        per_part = 2.0 * eps if trivial else 12.0 * c * eps
        return parts * r ** p, parts * per_part
    if trivial:
        return 2.0 * parts * r ** p, parts * math.sqrt(2.0) * eps
    return (3.0 * parts * r ** p,
            parts * 2.0 * math.sqrt(c) * (2.0 + math.sqrt(c)) * eps)


class TestPartMeetBudgets:
    """Every found multi-part witness on the certify-mix8 channel carries
    its builder's closed-form budgets for its number of parts."""

    @pytest.mark.parametrize("weight", ["constant-one", "period-4"])
    @pytest.mark.parametrize("method,kind,parts", [
        ("weighted", "random-positive", 1),
        ("weighted", "random-hermitian", 2),
        ("weighted", "random", 4),
        ("one-sided", "random-hermitian", 1),
        ("one-sided", "random", 2)])
    def test_found_budgets(self, workloads, method, kind, parts, weight):
        channel, x, beta, horizon = mix8(workloads, kind)
        if weight == "constant-one":
            beta = UNIT
        builder = weighted_witness if method == "weighted" else \
            one_sided_witness
        p = 2.0
        norm = lp_norm(x, p)
        reports = builder(CheckerStacks(channel, x, horizon, beta), p,
                          MIX8_GRID)
        found = [(eps, r) for eps, r in zip(MIX8_GRID, reports) if r.found]
        assert found
        for eps, report in found:
            assert report.method.startswith(f"{method}[")
            assert report.method.count("+") == parts - 1
            assert report.weight_bound == beta.bound
            assert (report.trace_budget, report.sup_budget) == \
                part_meet_budgets(method, parts, norm, p, beta.bound,
                                  beta.is_constant_one, eps)


def fresh_stacks(checker):
    """The stacks of a fresh recurrence pass of the checker's element and
    weight, the tests' reference apart from `CheckerStacks.stacks`."""
    vecs = np.array([vec for _, vec in ergodic_averages(
        checker.channel, checker.x, checker.horizon, checker.beta)])
    return checker.channel.algebra.block_stacks(vecs)


def fresh_sup(checker, e, mode):
    """The compressed sup of e on the stacks of a fresh recurrence pass,
    as the checker measured it before it shared one pass per element."""
    return compressed_sup(fresh_stacks(checker), e, mode)


def count_passes(monkeypatch):
    """Recurrence passes, in total and of the checker."""
    counts = {"all": 0, "checker": 0}
    averages, stacks = maximal.ergodic_averages, CheckerStacks.stacks.func

    def counting_averages(*args, **kwargs):
        counts["all"] += 1
        return averages(*args, **kwargs)

    def counting_checker(self):
        counts["checker"] += 1
        return stacks(self)

    checker_stacks = functools.cached_property(counting_checker)
    checker_stacks.__set_name__(CheckerStacks, "stacks")
    monkeypatch.setattr(maximal, "ergodic_averages", counting_averages)
    monkeypatch.setattr(CheckerStacks, "stacks", checker_stacks)
    return counts


BUILDERS = {
    "yeadon": ("random-positive", lambda ch, x, beta, n:
               yeadon_witness_search(CheckerStacks(ch, x, n), MIX8_GRID)),
    "lp": ("random-positive", lambda ch, x, beta, n:
           weighted_witness(CheckerStacks(ch, x, n), 2.0, MIX8_GRID)),
    "weighted": ("random", lambda ch, x, beta, n: weighted_witness(
        CheckerStacks(ch, x, n, beta), 2.0, MIX8_GRID)),
    "one-sided": ("random", lambda ch, x, beta, n: one_sided_witness(
        CheckerStacks(ch, x, n, beta), 2.0, MIX8_GRID)),
    "hopf": (None, lambda ch, x, beta, n: hopf_witness_commutative(
        CheckerStacks(ch, x, n), [1.0, 2.0, 4.0, 8.0])),
}


def run_builder(workloads, monkeypatch, name):
    """Run the BUILDERS entry `name` on its workload; returns its channel
    and horizon, every (checker, report) it checked, and its recurrence
    passes."""
    kind, build = BUILDERS[name]
    if kind is None:
        (channel, x, horizon), beta = cycle96(workloads), None
    else:
        channel, x, beta, horizon = mix8(workloads, kind)
    candidates = []
    check = maximal.check_witness

    def recording(checker, e, *args, **kwargs):
        report = check(checker, e, *args, **kwargs)
        candidates.append((checker, report))
        return report

    monkeypatch.setattr(maximal, "check_witness", recording)
    passes = count_passes(monkeypatch)
    build(channel, x, beta, horizon)
    monkeypatch.undo()
    return channel, horizon, candidates, passes


class TestCheckerStacks:
    """One checker pass per element measures every candidate exactly as
    a fresh pass per candidate does."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_shared_pass_equals_fresh_pass(self, workloads, monkeypatch,
                                           name):
        channel, horizon, candidates, passes = run_builder(
            workloads, monkeypatch, name)
        assert len(candidates) >= len(MIX8_GRID)
        elements = set()
        for checker, report in candidates:
            e = report.projection
            assert checker.channel is channel and checker.horizon == horizon
            assert report.sup_compression == fresh_sup(checker, e,
                                                       report.mode)
            assert report.trace_defect == e.defect()
            elements.add((checker.x.vec().tobytes(), id(checker.beta)))
        assert 1 <= passes["checker"] <= len(elements)
        # the search reads its checker's stacks: no pass of its own
        assert passes["checker"] == passes["all"]

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_shared_stacks_stay_the_fresh_pass(self, workloads, monkeypatch,
                                               name):
        # the search reads the checker's stacks as its input; they are
        # read-only, and after the builder still hold the bytes of a
        # fresh pass
        _, _, candidates, _ = run_builder(workloads, monkeypatch, name)
        checkers = {id(c): c for c, _ in candidates if "stacks" in vars(c)}
        assert checkers
        for checker in checkers.values():
            for stack, fresh in zip(checker.stacks, fresh_stacks(checker),
                                    strict=True):
                assert not stack.flags.writeable
                assert stack.shape == fresh.shape
                assert stack.tobytes() == fresh.tobytes()
                with pytest.raises(ValueError):
                    stack[0] = 0.0

    def test_zero_projection_needs_no_pass(self, monkeypatch):
        channel, x, report = found_yeadon_cell()
        passes = count_passes(monkeypatch)
        checker = CheckerStacks(channel, x, CELL_HORIZON)
        total_trace = sum(d * w for d, w in MULTI.blocks)
        zero = check_witness(checker, Projection(MULTI.zero()), total_trace,
                             0.0, tol=0.0, method="zero")
        assert zero.sup_compression == 0.0 and zero.checker_passed
        assert zero.trace_defect == total_trace
        assert passes["all"] == 0
        # the first nonzero candidate runs the pass; later ones reuse it
        for e in (Projection.identity(MULTI), report.projection):
            outcome = check_witness(checker, e, report.trace_budget,
                                    report.sup_budget, method="rechecked")
            assert outcome.sup_compression == fresh_sup(checker, e,
                                                        "two_sided")
        assert passes["all"] == 1

    def test_recheck_reads_the_first_measurement(self, workloads,
                                                 monkeypatch):
        # at p = 1 and a weight identically one, weighted_witness re-checks
        # on a positive x's checker stacks the candidates its inner search
        # has checked there; every candidate is still checked, but the
        # checker measures each (projection, mode) once.  The strategies
        # measure through the checker, so every call comes from its `sup`.
        channel, x, _, horizon = mix8(workloads, "random-positive")
        measured, checked = [], []
        sup, check = maximal.compressed_sup, maximal.check_witness

        def measuring(stacks, e, mode="two_sided", screens=None):
            if inspect.currentframe().f_back.f_code is \
                    CheckerStacks.sup.__code__:
                measured.append((stacks, e, mode))
            return sup(stacks, e, mode, screens)

        def checking(checker, e, *args, **kwargs):
            checked.append((checker, e))
            return check(checker, e, *args, **kwargs)

        monkeypatch.setattr(maximal, "compressed_sup", measuring)
        monkeypatch.setattr(maximal, "check_witness", checking)
        weighted_witness(CheckerStacks(channel, x, horizon, UNIT), 1.0,
                         MIX8_GRID)
        keys = [(id(stacks), id(e), mode) for stacks, e, mode in measured]
        assert keys and len(set(keys)) == len(keys)
        rechecked = [(id(c), id(e)) for c, e in checked if e.rank()]
        assert len(set(rechecked)) < len(rechecked)

    def test_pass_holds_one_array_of_the_averages(self):
        # the averages go into one preallocated array, so the pass peaks
        # near the stacks' own bytes
        channel, x, _ = found_yeadon_cell()
        horizon = 1024
        checker = CheckerStacks(channel, x, horizon)
        tracemalloc.start()
        try:
            stacks = checker.stacks
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (horizon + 1) * MULTI.vec_dim * 16
        assert stacks[0].base.nbytes == size
        assert peak < 1.25 * size
        for stack, fresh in zip(stacks, fresh_stacks(checker), strict=True):
            assert stack.tobytes() == fresh.tobytes()

    def test_negative_horizon_is_refused(self):
        channel, x, _ = found_yeadon_cell()
        with pytest.raises(ValueError):
            CheckerStacks(channel, x, -1)


class TestPassesPerBuilder:
    """Recurrence passes of the meet builders on the certify-mix8 channel:
    per part one checker pass of part^p, which its search reads, and one
    checker pass of x for the meet.  A positive x at p = 1 and a weight
    identically one is its own part^p with plain averages, so its search
    reads x's stacks and adds no pass; lp is this builder on plain
    checker stacks.  Builders handed one checker share its pass."""

    @pytest.mark.parametrize("kind,build,passes", [
        ("random", lambda ch, x, beta, n: weighted_witness(
            CheckerStacks(ch, x, n, beta), 2.0, MIX8_GRID), 4 + 1),
        ("random", lambda ch, x, beta, n: one_sided_witness(
            CheckerStacks(ch, x, n, beta), 2.0, MIX8_GRID), 2 + 1),
        ("random-positive", lambda ch, x, beta, n: cli._CERTIFY_BUILDERS[
            "lp"](CheckerStacks(ch, x, n), 1.0, MIX8_GRID), 1),
        ("random-positive", lambda ch, x, beta, n: cli._CERTIFY_BUILDERS[
            "lp"](CheckerStacks(ch, x, n), 2.0, MIX8_GRID), 2),
        ("random-positive", lambda ch, x, beta, n: weighted_witness(
            CheckerStacks(ch, x, n, UNIT), 1.0, MIX8_GRID), 1),
        # x's weighted stacks once for both methods: 5 + 3 - 1
        ("random", lambda ch, x, beta, n: [
            build(checker, 2.0, MIX8_GRID)
            for checker in [CheckerStacks(ch, x, n, beta)]
            for build in (weighted_witness, one_sided_witness)], 7),
        # yeadon's pass of x serves lp at p = 1 and 2: 1 + 0 + 1
        ("random-positive", lambda ch, x, beta, n: [
            cli._CERTIFY_BUILDERS[method](checker, p, MIX8_GRID)
            for checker in [CheckerStacks(ch, x, n)]
            for method, p in [("yeadon", 1.0), ("lp", 1.0), ("lp", 2.0)]],
         2),
    ], ids=["weighted-4-parts", "one-sided-2-parts", "lp-p1", "lp-p2",
            "weighted-unit-p1", "weighted-one-sided-shared",
            "yeadon-lp-shared"])
    def test_passes(self, workloads, monkeypatch, kind, build, passes):
        channel, x, beta, horizon = mix8(workloads, kind)
        counts = count_passes(monkeypatch)
        build(channel, x, beta, horizon)
        assert counts["all"] == passes


FLOOR_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
FLOOR_ALGEBRAS = st.lists(st.tuples(st.integers(1, 3),
                                    st.sampled_from([0.5, 1.0, 2.0])),
                          min_size=1, max_size=3).map(
                              lambda blocks: AlgebraSpec(tuple(blocks)))


def eigvalsh_calls(monkeypatch):
    """The shapes of the stacks that `maximal` hands to eigvalsh, one per
    call."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        if inspect.currentframe().f_back.f_code.co_filename \
                == maximal.__file__:
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


class TestFloorBound:
    """The floor bound closes a weak (1,1) stop only where e = 0 is the
    one witness, with the report `peel` gives there."""

    @FLOOR_SETTINGS
    @given(algebra=FLOOR_ALGEBRAS, seed=st.integers(0, 2 ** 31),
           mixture=st.booleans(), horizon=st.sampled_from([4, 16, 32]))
    def test_peel_returns_the_zero_projection_where_it_fires(
            self, algebra, seed, mixture, horizon):
        rng = stream(seed, "floor")
        channel = (random_unitary_mixture(algebra, 2, rng) if mixture
                   else random_kraus_channel(algebra, 1 + seed % 3, rng))
        x = random_operator(algebra, rng, kind="positive", uniform_norm=1.0)
        checker = CheckerStacks(channel, x, horizon)
        floor = checker.floors.min()
        top = checker.sup(Projection.identity(algebra), "two_sided")
        grid = [eps for eps in (floor / 2, floor * (1 - 1e-6), top / 2,
                                0.9 * top, 0.99 * top) if eps > 0]
        reports = yeadon_witness_search(checker, grid)
        for eps, report in zip(grid, reports):
            if report.method != "floor":
                continue
            [(e, _)] = peel(algebra, checker.stacks,
                            [(eps, report.trace_budget)], "two_sided")
            assert e.rank() == 0
            peeled = check_witness(checker, e, report.trace_budget, eps,
                                   method="peel")
            same_result(report, dataclasses.replace(peeled, method="floor"))
        # on one block tau(x) >= floor * tau(1), so half the floor fires
        if algebra.num_blocks == 1 and floor > 4 * DEFAULT_TOL:
            assert reports[0].method == "floor"

    @FLOOR_SETTINGS
    @given(weights=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1,
                            max_size=5),
           seed=st.integers(0, 2 ** 31), horizon=st.sampled_from([2, 8, 16]))
    def test_never_fires_where_a_nonzero_witness_exists(self, weights, seed,
                                                        horizon):
        # every nonzero projection of a diagonal algebra is an atom subset
        algebra = AlgebraSpec(tuple((1, w) for w in weights))
        channel = random_substochastic(algebra, stream(seed, "channel"))
        x = algebra.diagonal(stream(seed, "element").random(len(weights)))
        checker = CheckerStacks(channel, x, horizon)
        floor = checker.floors.min()
        grid = [eps for eps in (floor / 2, floor - 3 * DEFAULT_TOL,
                                floor - DEFAULT_TOL / 2, floor, 1.5 * floor)
                if eps > 0]
        for eps, report in zip(grid, yeadon_witness_search(checker, grid)):
            witnesses = [
                mask for mask in itertools.product((0, 1), repeat=len(weights))
                if any(mask) and check_witness(
                    checker, Projection.from_indicator(algebra, mask),
                    report.trace_budget, eps, method="oracle").checker_passed]
            if witnesses:
                assert report.method != "floor"
            assert report.found and report.checker_passed

    @pytest.mark.parametrize("gap,fires", [
        (-DEFAULT_TOL, False), (0.0, False), (DEFAULT_TOL / 2, False),
        (1.5 * DEFAULT_TOL, False), (2.5 * DEFAULT_TOL, True),
        (0.5, True)])
    def test_margin_and_tie(self, gap, fires):
        # every average of x = 1 under the identity map is 1, so the floor
        # is 1 and eps = 1 - gap; within the margin the search runs
        algebra = AlgebraSpec(((2, 1.0), (1, 0.5)))
        checker = CheckerStacks(identity_channel(algebra), algebra.identity(),
                                4)
        assert checker.floors.tolist() == [1.0, 1.0]
        [report] = yeadon_witness_search(checker, [1.0 - gap])
        assert (report.method == "floor") == fires
        assert report.found and report.checker_passed
        if fires:
            assert report.projection.rank() == 0

    def test_budget_below_the_total_trace_stays_open(self):
        # 2 T on x = 1 is not DS+: its averages grow above every eps, while
        # ||x||_1 / eps stays below tau(1); e = 0 would fail its budget
        algebra = AlgebraSpec(((2, 1.0),))
        channel = scale_channel(identity_channel(algebra), 2.0)
        checker = CheckerStacks(channel, algebra.identity(), 8)
        assert checker.floors.min() > 4.0
        [report] = maximal._yeadon_search(checker, [4.0])
        assert report.trace_budget < 2.0
        assert report.method != "floor" and not report.found

    def test_at_most_one_full_pass_per_checker(self, workloads,
                                               monkeypatch):
        # the last average decides every certify-mix8 stop whose budget
        # admits e = 0: one matrix per block, read once per checker
        channel, x, _, horizon = mix8(workloads, "random-positive")
        calls = eigvalsh_calls(monkeypatch)
        checker = CheckerStacks(channel, x, horizon)
        yeadon_witness_search(checker, MIX8_GRID)
        weighted_witness(checker, 1.0, MIX8_GRID)
        yeadon_witness_search(checker, [0.05])
        assert calls == [(1, 8, 8)]
        # three searches over a spread of eps: the last floors once and
        # at most one full pass, per block; MULTI's blocks differ in
        # size, so no shape repeats
        rng = stream(7, "floor")
        multi = CheckerStacks(random_kraus_channel(MULTI, 2, rng),
                              random_operator(MULTI, rng, kind="positive"), 8)
        calls.clear()
        for grid in ([1e-3, 0.1, 1.0], [0.5], [0.2, 0.3]):
            yeadon_witness_search(multi, grid)
        assert len(set(calls)) == len(calls)
        assert set(calls) <= {(n, d, d) for n in (1, 9) for d in MULTI.dims}

    def test_one_full_pass_where_the_last_average_leaves_it_open(
            self, monkeypatch):
        # the swap of two atoms on x = (1, 0) at horizon 2: M_2 = (2/3,
        # 1/3), so the last average gives 1/3, while the floors are
        # (1, 1/2); at eps = 0.4 only the full pass closes the stop
        algebra = AlgebraSpec(((1, 1.0), (1, 1.0)))
        channel = substochastic(algebra, [[0, 1], [1, 0]])
        checker = CheckerStacks(channel, algebra.diagonal([1.0, 0.0]), 2)
        calls = eigvalsh_calls(monkeypatch)
        [report] = yeadon_witness_search(checker, [0.4])
        assert report.method == "floor" and report.found
        assert checker.last_floor == pytest.approx(1 / 3)
        assert checker.floors.tolist() == [1.0, 0.5]
        assert calls == [(1, 1, 1), (1, 1, 1), (3, 1, 1), (3, 1, 1)]

    @FLOOR_SETTINGS
    @given(algebra=FLOOR_ALGEBRAS, seed=st.integers(0, 2 ** 31),
           mixture=st.booleans(), horizon=st.sampled_from([2, 8, 32]))
    def test_lazy_floor_equals_full_pass(self, algebra, seed, mixture,
                                         horizon):
        rng = stream(seed, "lazy-floor")
        channel = (random_unitary_mixture(algebra, 2, rng) if mixture
                   else random_kraus_channel(algebra, 1 + seed % 3, rng))
        x = random_operator(algebra, rng, kind="positive", uniform_norm=1.0)
        probe = CheckerStacks(channel, x, horizon)
        floor, last = probe.floors.min(), probe.last_floor
        assert last <= floor
        # eps at the floor and at the last floor, exact ties of the test
        # floor > eps + 2 DEFAULT_TOL, and values between and beyond
        ties = [floor, last, floor - 2 * DEFAULT_TOL, last - 2 * DEFAULT_TOL,
                (floor + last) / 2, floor / 2, last / 2, 2 * floor]
        grid = [eps for eps in ties if eps > 0]
        lazy = CheckerStacks(channel, x, horizon)
        forced = CheckerStacks(channel, x, horizon)
        forced.last_floor = -np.inf  # the full pass decides every stop
        for got, expected in zip(yeadon_witness_search(lazy, grid),
                                 yeadon_witness_search(forced, grid),
                                 strict=True):
            same_result(got, expected)

    def test_slices_hold_no_copy_of_the_stack(self, workloads, monkeypatch):
        # the 257 averages of 64 entries of certify-mix8 at its horizon
        # exceed one slice: slices of at most SLICE_ENTRIES entries give
        # the floors of one whole-stack call
        channel, x, _, _ = mix8(workloads, "random-positive")
        horizon = workloads.WORKLOADS["certify-mix8"][1]()["horizon"]
        checker = CheckerStacks(channel, x, horizon)
        whole = [np.linalg.eigvalsh(hermitian(stack))[:, 0].max()
                 for stack in checker.stacks]
        calls = eigvalsh_calls(monkeypatch)
        assert np.array_equal(checker.floors, whole)
        assert len(calls) > 1
        assert sum(n for n, _, _ in calls) == horizon + 1
        assert all(n * d * d <= util.SLICE_ENTRIES for n, d, _ in calls)


def hopf_cut_defect(checker, u):
    """Defect of the Hopf cut in the joint eigenbasis u of averages that
    commute: the trace of the columns of u whose running maximum
    max_n <u_j, M_n(x) u_j> exceeds the level, per level."""
    running = [np.einsum("kj,nkl,lj->nj", ub.conj(), stack, ub).real.max(axis=0)
               for ub, stack in zip(u.blocks, checker.stacks)]
    weights = checker.channel.algebra.weights
    return lambda eps: sum(w * np.count_nonzero(r > eps)
                           for w, r in zip(weights, running))


class TestCommutingNonDiagonal:
    """Averages that commute but are not diagonal: the search finds every
    eps with the defect of the Hopf cut in their joint eigenbasis, though
    no strategy rotates into that basis."""

    def check(self, channel, x, u, grid, horizon=24):
        checker = CheckerStacks(channel, x, horizon)
        defect = hopf_cut_defect(checker, u)
        reports = yeadon_witness_search(checker, grid)
        for eps, report in zip(grid, reports):
            assert report.found and report.checker_passed, eps
            assert report.trace_defect == pytest.approx(defect(eps), abs=1e-9)
        return [defect(eps) for eps in grid]

    def test_rotated_cyclic_shift(self):
        # the Kraus maps u E_{j+1,j} u* move x = u e_11 u* round the
        # cycle; direction j has running maximum 1/(j+1), and the grid
        # avoids those ties (0.2 would be one)
        algebra = AlgebraSpec(((6, 1.0),))
        u = random_unitary_operator(algebra, stream(3, "commuting"))
        [ub] = u.blocks
        shift = [Operator(algebra, [ub @ np.outer(np.eye(6)[(j + 1) % 6],
                                                  np.eye(6)[j]) @ ub.conj().T])
                 for j in range(6)]
        x = Operator(algebra, [ub @ np.diag([1.0, 0, 0, 0, 0, 0]) @ ub.conj().T])
        grid = [0.1, 0.22, 0.4, 0.6, 0.9]
        assert self.check(kraus_channel(algebra, shift), x, u, grid) == \
            [6, 4, 2, 1, 1]

    def test_identity_on_two_blocks(self):
        algebra = AlgebraSpec(((4, 1.0), (3, 0.5)))
        u = random_unitary_operator(algebra, stream(4, "commuting"))
        spectra = ([0.9, 0.5, 0.3, 0.05], [0.7, 0.2, 0.1])
        x = Operator(algebra, [ub @ np.diag(d) @ ub.conj().T
                               for ub, d in zip(u.blocks, spectra)])
        grid = [0.15, 0.35, 0.6, 0.8, 0.95]
        assert self.check(identity_channel(algebra), x, u, grid) == \
            [4.0, 2.5, 1.5, 1.0, 0.0]
