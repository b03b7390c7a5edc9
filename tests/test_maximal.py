import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ncergodic import cli, maximal
from ncergodic.algebra import (AlgebraSpec, Operator, Projection,
                              compressed_sup)
from ncergodic.dynamics import (ergodic_averages, identity_channel,
                                random_kraus_channel)
from ncergodic.maximal import (check_witness, is_found,
                               measure_compressions, peel,
                               yeadon_witness_search)
from ncergodic.rng import random_operator, random_projection, stream
from ncergodic.spectral import SpectralDecomposition, eigh
from ncergodic.weights import WeightSequence

FIXTURES = Path(cli.__file__).parent / "fixtures"
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))
MODES = ("two_sided", "one_sided")


def stacks(ops):
    return MULTI.block_stacks([op.vec() for op in ops])


def loop_norm(x, e, mode):
    """Per-block loop of ||e x e|| or ||x e|| with a 2-norm per block."""
    best = 0.0
    for i in range(x.algebra.num_blocks):
        basis = e.block_basis(i)
        if basis.shape[1] == 0:
            continue
        c = (basis.conj().T @ x.block(i) @ basis if mode == "two_sided"
             else x.block(i) @ basis)
        best = max(best, float(np.linalg.norm(c, 2)))
    return best


def loop_peel(algebra, ops, level, budget, mode):
    """Per-operator peeling loop: operators outer, blocks inner, strict >."""
    bases = [np.eye(d, dtype=complex) for d in algebra.dims]
    defect = 0.0
    while True:
        worst_value, worst = -np.inf, None
        for op in ops:
            for i, basis in enumerate(bases):
                if basis.shape[1] == 0:
                    continue
                if mode == "one_sided":
                    block = op.block(i) @ basis
                    gram = block.conj().T @ block
                    lam, vecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
                    value = float(np.sqrt(max(lam[-1], 0.0)))
                    direction = vecs[:, -1]
                elif mode == "two_sided":
                    comp = basis.conj().T @ op.block(i) @ basis
                    _, s, vh = np.linalg.svd(comp)
                    value, direction = float(s[0]), vh[0].conj()
                else:
                    comp = basis.conj().T @ op.block(i) @ basis
                    lam, vecs = np.linalg.eigh((comp + comp.conj().T) / 2.0)
                    value, direction = float(lam[-1]), vecs[:, -1]
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
    beta = WeightSequence.periodic([1.0, 1j, -1.0, -1j])
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
            assert measure_compressions(channel, x, proj, len(ops) - 1,
                                        mode, beta) == expected

    def test_single_operator_norms(self):
        _, _, _, ops, rng = weighted_trajectory(401, horizon=3)
        e = random_projection(MULTI, rng)
        for op in ops:
            for mode in MODES:  # a stack of one
                assert compressed_sup(stacks([op]), e, mode) == \
                    loop_norm(op, e, mode)

    def test_zero_projection_and_unknown_mode(self):
        _, _, _, ops, _ = weighted_trajectory(402, horizon=3)
        assert compressed_sup(stacks(ops), Projection.zero(MULTI)) == 0.0
        with pytest.raises(ValueError):
            compressed_sup(stacks(ops), Projection.identity(MULTI), "both")


def diag_op(*diagonals):
    return Operator(MULTI, [np.diag(np.asarray(v, dtype=complex))
                            for v in diagonals])


PEEL_MODES = ("hermitian", "two_sided", "one_sided")


class TestPeelAgainstLoop:
    def assert_same(self, ops, level, budget, mode):
        e, defect = peel(MULTI, stacks(ops), level, budget, mode)
        e_loop, defect_loop = loop_peel(MULTI, ops, level, budget, mode)
        assert defect == defect_loop
        assert np.array_equal(e.operator.vec(), e_loop.operator.vec())
        return e, defect

    @pytest.mark.parametrize("mode", PEEL_MODES)
    def test_random_trajectories(self, mode):
        for seed in range(4):
            _, _, _, ops, _ = weighted_trajectory(410 + seed)
            if mode == "hermitian":
                ops = [op.hermitian_part() for op in ops]
            top = max(loop_norm(op, Projection.identity(MULTI), "two_sided")
                      for op in ops)
            for level, budget in ((0.3 * top, np.inf), (0.1 * top, 2.5)):
                self.assert_same(ops, level, budget, mode)

    @pytest.mark.parametrize("mode", PEEL_MODES)
    def test_tie_across_operators(self, mode):
        # equal top values in different directions; the budget allows one
        # removal, which must take the first operator's direction
        ops = [diag_op([0, 1, 0], [0, 0], [0]),
               diag_op([1, 0, 0], [0, 0], [0])]
        e, defect = self.assert_same(ops, 0.5, 1.0, mode)
        assert defect == 1.0
        assert np.allclose(np.diag(e.operator.block(0)), [1, 0, 1])

    @pytest.mark.parametrize("mode", PEEL_MODES)
    def test_tie_across_blocks(self, mode):
        # block 0 (weight 1) and block 1 (weight 0.25) tie; block 0 goes
        # first, after which block 1 no longer fits the budget
        ops = [diag_op([1, 0, 0], [1, 0], [0])]
        e, defect = self.assert_same(ops, 0.5, 1.0, mode)
        assert defect == 1.0
        assert e.rank(0) == 2 and e.rank(1) == 2

    @pytest.mark.parametrize("mode", PEEL_MODES)
    def test_operator_order_before_block_order(self, mode):
        # the first operator's tie in block 1 beats the second operator's
        # in block 0; the block 0 removal then no longer fits the budget
        ops = [diag_op([0, 0, 0], [1, 0], [0]),
               diag_op([1, 0, 0], [0, 0], [0])]
        e, defect = self.assert_same(ops, 0.5, 1.0, mode)
        assert defect == 0.25
        assert e.rank(0) == 3 and e.rank(1) == 1


def level_set_cuts(channel, stacks):
    """Every cut of the level-set strategy, ascending threshold."""
    mean = Operator(channel.algebra, [complex(1.0 / len(stacks[0]))
                                      * maximal._ordered_sum(stack)
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
            stacks = maximal._average_stacks(channel, x, 8)
            cuts = level_set_cuts(channel, stacks)
            defects = [c.defect() for c in cuts]
            sups = [compressed_sup(stacks, c) for c in cuts]
            k = len(cuts) // 2
            # exact ties with a cut's defect or sup, values between cuts,
            # and the extremes
            budgets = [np.inf, 0.0, defects[k], (defects[k] + defects[1]) / 2]
            levels = [10 * max(sups), sups[0], sups[k],
                      (sups[k] + sups[-1]) / 2]
            for budget in budgets:
                for level in levels:
                    expected = eager_level_set(cuts, stacks, level, budget)
                    monkeypatch.setattr(SpectralDecomposition,
                                        "projection_where", counting)
                    built.clear()
                    got = maximal._strategy_level_set(channel, x, stacks,
                                                      level, budget)
                    monkeypatch.undo()
                    bound = 2 * math.ceil(math.log2(len(cuts) + 1)) + 1
                    assert len(built) <= bound
                    if expected is None:
                        assert got is None
                    else:
                        assert np.array_equal(got.operator.vec(),
                                              expected.operator.vec())
                    outcomes.add((len(cuts), expected is None))
        # found and not found, on the generic and the clustered spectrum
        assert outcomes == {(24, True), (24, False), (4, True), (4, False)}


def found_yeadon_cell():
    """A seeded weak (1,1) cell whose witness is found and kills part of
    the first block."""
    rng = stream(430, "checker")
    channel = random_kraus_channel(MULTI, 3, rng)
    x = random_operator(MULTI, rng, kind="positive", uniform_norm=1.0)
    report = yeadon_witness_search(channel, x, 0.5, 32)
    assert is_found(report)
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
        outcome = check_witness(channel, x, tampered, report.horizon,
                                report.trace_budget, report.sup_budget)
        assert outcome.passed_trace
        assert outcome.sup_value > report.sup_budget
        assert not outcome.passed_sup and not outcome.passed

    def test_budget_just_below_measurement_fails(self):
        channel, x, report = found_yeadon_cell()
        e, n = report.projection, report.horizon
        defect, sup = report.trace_defect, report.sup_compression
        exact = check_witness(channel, x, e, n, defect, sup, tol=0.0)
        assert exact.passed
        low_sup = check_witness(channel, x, e, n, defect,
                                np.nextafter(sup, 0.0), tol=0.0)
        assert low_sup.passed_trace and not low_sup.passed_sup
        low_trace = check_witness(channel, x, e, n,
                                  np.nextafter(defect, 0.0), sup, tol=0.0)
        assert not low_trace.passed_trace and low_trace.passed_sup


class TestOneSearchPassPerCheck:
    def test_yeadon_cell_counts(self, tmp_path, monkeypatch):
        counts = {"averages": 0, "check": 0, "finalize": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(maximal, fn.__name__, wrapper)

        counting("averages", maximal.ergodic_averages)
        counting("check", maximal.check_witness)
        counting("finalize", maximal._finalize)
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["certify"] = {"methods": ["yeadon"], "eps_grid": [0.2],
                             "p_grid": [1],
                             "element": {"kind": "random-positive"}}
        path = tmp_path / "yeadon.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert code == 0
        assert counts["finalize"] >= 1
        assert counts["check"] == counts["finalize"]
        assert counts["averages"] == 1 + counts["check"]
