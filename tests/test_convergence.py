import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ncergodic import cli, convergence
from ncergodic.algebra import (AlgebraSpec, Operator, Projection,
                              compressed_sup)
from ncergodic.convergence import (CONDITION_III_TRACES, au_witness,
                                   bau_witness, besicovitch_experiment,
                                   condition_iii, trajectory)
from ncergodic.dynamics import random_kraus_channel, unitary_conjugation
from ncergodic.maximal import peel
from ncergodic.ncnorms import Lorentz, Lp, Measure, Uniform
from ncergodic.rng import random_operator, stream
from ncergodic.util import dyadic_schedule
from ncergodic.weights import WeightSequence

FIXTURES = Path(cli.__file__).parent / "fixtures"
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))
NORMS = (Uniform(), Lp(2.0))


@pytest.fixture
def apply_calls(monkeypatch):
    """List that gets one entry per channel step of the averages
    recurrence in `convergence`: every average after M_0 costs one
    superoperator product."""
    calls = []
    averages = convergence.ergodic_averages

    def counting_averages(*args, **kwargs):
        for n, vec in averages(*args, **kwargs):
            if n:
                calls.append(n)
            yield n, vec

    monkeypatch.setattr(convergence, "ergodic_averages", counting_averages)
    return calls


class TestOnePassPerCell:
    def test_converge_cell_applies_horizon_times(self, tmp_path,
                                                 apply_calls):
        path = FIXTURES / "m2_unitary.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["converge", "--config", str(path),
                             "--out", str(tmp_path)])
        assert code == 0
        assert len(apply_calls) == json.loads(path.read_text())["horizon"]

    def test_converge_cell_forms_each_residual_once(self, tmp_path,
                                                    monkeypatch):
        # the witnesses stack the tail deviations that the trajectory
        # kept, so a cell subtracts limit - M_n once per scheduled n
        calls = []
        subtract = Operator.__sub__

        def counting_subtract(a, b):
            calls.append(1)
            return subtract(a, b)

        monkeypatch.setattr(Operator, "__sub__", counting_subtract)
        path = FIXTURES / "m2_unitary.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["converge", "--config", str(path),
                             "--out", str(tmp_path)])
        assert code == 0
        horizon = json.loads(path.read_text())["horizon"]
        assert len(calls) == len(dyadic_schedule(horizon))

    def test_besicovitch_applies_horizon_times(self, apply_calls):
        rng = stream(300, "conv")
        channel = random_kraus_channel(MULTI, 3, rng)
        x = random_operator(MULTI, rng)
        beta = WeightSequence("periodic", period=[1.0, 1j, -1.0, -1j])
        report = besicovitch_experiment(channel, x, beta, 64, NORMS)
        assert len(apply_calls) == 64
        assert report.trajectory.schedule == [1, 2, 4, 8, 16, 32, 64]


def run_fixture_converge(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["converge", "--config",
                         str(FIXTURES / "m2_unitary.json"),
                         "--out", str(tmp_path)])
    assert code == 0
    return json.loads((tmp_path / "converge.json").read_text())["summary"]


class TestMeanConvergence:
    def test_fixture_verdict(self, tmp_path):
        # x is off-diagonal and the map flips its sign, so M_n(x) is
        # x/(n+1) for even n and the limit is 0: the residual at
        # n = 512 over the one at n = 128 is 129/513
        cell = run_fixture_converge(tmp_path)["cells"][0]
        verdicts = cell["mean_convergence"]
        assert set(verdicts) == {"inf", "L2", "L(3,2)"}
        for verdict in verdicts.values():
            assert verdict["decay_ratio"] == pytest.approx(129 / 513,
                                                           rel=1e-12)
            assert verdict["converged"] is True

    def test_condition_iii_closed_form(self, tmp_path):
        summary = run_fixture_converge(tmp_path)
        assert set(summary["condition_iii"]) == {"L2", "L(3,2)"}
        lorentz = summary["condition_iii"]["L(3,2)"]
        assert lorentz["ratios"] == pytest.approx(
            [1.22474487, 0.26386328, 0.05684762, 0.01224745], rel=1e-6)
        for p, q in [(3, 2), (2, 1), (1.5, 1), (2, 3), (1, 1)]:
            report = condition_iii(Lorentz(p, q))
            assert report["traces"] == CONDITION_III_TRACES
            assert report["ratios"] == pytest.approx(
                [(p / q) ** (1 / q) * t ** (1 / p - 1)
                 for t in CONDITION_III_TRACES], rel=1e-12)
            assert report["vanishes_at_infinity"] == (p > 1)
        assert condition_iii(Lp(2.0))["ratios"] == pytest.approx(
            [t ** -0.5 for t in CONDITION_III_TRACES], rel=1e-12)

    def test_measure_gets_no_verdict(self):
        channel = random_kraus_channel(MULTI, 2, stream(305, "conv"))
        x = random_operator(MULTI, stream(306, "conv"))
        norms = (Uniform(), Measure())
        report = trajectory(channel, x, 16, norms)
        assert set(report.residuals) == {"inf", "measure"}
        assert set(report.verdicts) == {"inf"}

    def test_slow_rotation_is_not_converged(self):
        # the phase exp(2 pi i / 700) turns less than once within 512
        # steps: the residual falls by about 0.342 from n = 128, just
        # short of the 0.3 the verdict asks for (the fixture's 129/513
        # passes it)
        algebra = AlgebraSpec(((2, 1.0),))
        u = Operator(algebra, [np.diag([1.0, np.exp(2j * np.pi / 700)])])
        x = Operator(algebra, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        report = trajectory(unitary_conjugation(u), x, 512, NORMS)
        for spec in NORMS:
            res = report.residuals[spec.label]
            verdict = report.verdicts[spec.label]
            assert verdict["decay_ratio"] == res[-1] / res[-3]
            assert verdict["decay_ratio"] == pytest.approx(0.342, abs=1e-3)
            assert verdict["converged"] is False


class TestWeightedTrajectory:
    def test_unit_weight_is_the_plain_average(self):
        channel = random_kraus_channel(MULTI, 3, stream(307, "conv"))
        x = random_operator(MULTI, stream(308, "conv"))
        plain = trajectory(channel, x, 64, NORMS)
        weighted = trajectory(channel, x, 64, NORMS,
                              WeightSequence("constant", period=[1.0]))
        assert weighted.schedule == plain.schedule
        assert (weighted.limit - plain.limit).uniform_norm() <= \
            1e-12 * plain.limit.uniform_norm()
        for spec in NORMS:
            assert weighted.residuals[spec.label] == pytest.approx(
                plain.residuals[spec.label], rel=1e-12)

    def test_besicovitch_experiment_runs_the_trajectory(self):
        channel = random_kraus_channel(MULTI, 3, stream(309, "conv"))
        x = random_operator(MULTI, stream(310, "conv"))
        beta = WeightSequence("periodic", period=[1.0, 1j, -1.0, -1j])
        report = besicovitch_experiment(channel, x, beta, 32, NORMS)
        expected = trajectory(channel, x, 32, NORMS, beta)
        got = report.trajectory
        assert got.schedule == expected.schedule
        assert np.array_equal(got.limit.vec(), expected.limit.vec())
        assert got.residuals == expected.residuals
        assert got.verdicts == expected.verdicts
        assert set(report.cauchy) == {"inf", "L2", "measure"}


def deviation_case(case):
    """A trajectory to peel: the m2_unitary fixture's sign flip on M_2, a
    random Kraus channel on MULTI, or that channel under a period-4
    weight."""
    if case == "m2_unitary":
        algebra = AlgebraSpec(((2, 1.0),))
        u = Operator(algebra, [np.diag([1.0, -1.0])])
        x = Operator(algebra, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        return trajectory(unitary_conjugation(u), x, 512, NORMS)
    rng = stream(311, "conv")
    channel = random_kraus_channel(MULTI, 3, rng)
    x = random_operator(MULTI, rng)
    if case == "random-kraus":
        return trajectory(channel, x, 64, NORMS)
    beta = WeightSequence("periodic", period=[1.0, 1j, -1.0, -1j])
    return trajectory(channel, x, 32, NORMS, beta)


def profile_per_n(report, e, mode):
    """The profile measured once per scheduled n: the sup of the
    compressed deviations over the tail points m >= n."""
    tail_points = [n for n in report.schedule if n >= report.horizon // 2]
    tail = report.limit.algebra.block_stacks(
        [(report.limit - report.averages[n]).vec() for n in tail_points])
    return [compressed_sup([s[sum(m < n for m in tail_points):]
                            for s in tail], e, mode)
            for n in report.schedule]


class TestDeviationWitnesses:
    @pytest.mark.parametrize("build", [au_witness, bau_witness])
    def test_budget_and_profile(self, build):
        rng = stream(301, "conv")
        channel = random_kraus_channel(MULTI, 3, rng)
        x = random_operator(MULTI, rng)
        eps, horizon = 0.6, 64
        report = trajectory(channel, x, horizon, NORMS)
        witness = build(report, eps)
        assert witness.trace_defect <= eps
        assert witness.projection.defect() == pytest.approx(
            witness.trace_defect)
        assert witness.schedule == report.schedule
        assert all(a >= b for a, b in zip(witness.profile,
                                          witness.profile[1:]))

    @pytest.mark.parametrize("build", [au_witness, bau_witness])
    @pytest.mark.parametrize("case", ["m2_unitary", "random-kraus",
                                      "period-4"])
    def test_profile_measures_each_tail_suffix_once(self, monkeypatch,
                                                    build, case):
        report = deviation_case(case)
        mode = "one_sided" if build is au_witness else "two_sided"
        measured = []
        sup = convergence.compressed_sup

        def measuring(stacks, e, mode):
            measured.append(e)
            return sup(stacks, e, mode)

        monkeypatch.setattr(convergence, "compressed_sup", measuring)
        witness = build(report, 1.0)  # peels a direction
        monkeypatch.undo()
        tail_points = [n for n in report.schedule
                       if n >= report.horizon // 2]
        assert len(measured) == len(tail_points) < len(report.schedule)
        assert [v.hex() for v in witness.profile] == [
            v.hex() for v in profile_per_n(report, witness.projection, mode)]

    def test_rejects_non_positive_eps(self):
        channel = random_kraus_channel(MULTI, 2, stream(302, "conv"))
        report = trajectory(channel, MULTI.identity(), 8, ())
        with pytest.raises(ValueError):
            au_witness(report, 0.0)


def stacks(ops):
    return MULTI.block_stacks([op.vec() for op in ops])


def stack_of_one(mode):
    """||e op e|| or ||op e||: `compressed_sup` of the stack of one."""
    return lambda op, e: compressed_sup(stacks([op]), e, mode)


def hermitian_top(op, e):
    """Largest eigenvalue of the Hermitian part of e op e over blocks."""
    best = -np.inf
    for i in range(op.algebra.num_blocks):
        basis = e.block_basis(i)
        if basis.shape[1]:
            c = basis.conj().T @ op.block(i) @ basis
            best = max(best, np.linalg.eigvalsh((c + c.conj().T) / 2)[-1])
    return best


# case -> (mode of `peel`, measure of its result).  The "hermitian" case
# measures the two-sided peel by lambda_max of the Hermitian part, the
# measure of the deleted hermitian mode; the operators here are positive,
# where the two agree.
MEASURES = {"hermitian": ("two_sided", hermitian_top),
            "two_sided": ("two_sided", stack_of_one("two_sided")),
            "one_sided": ("one_sided", stack_of_one("one_sided"))}


class TestPeel:
    @pytest.mark.parametrize("case", sorted(MEASURES))
    def test_stops_at_level(self, case):
        mode, measure = MEASURES[case]
        rng = stream(303, "peel", case)
        ops = [random_operator(MULTI, rng, kind="positive")
               for _ in range(3)]
        level = 0.5 * max(measure(op, Projection.identity(MULTI))
                          for op in ops)
        [(e, defect)] = peel(MULTI, stacks(ops), [(level, np.inf)], mode)
        assert 0 < defect == pytest.approx(e.defect())
        assert max(measure(op, e) for op in ops) <= level

    @pytest.mark.parametrize("case", sorted(MEASURES))
    def test_stops_before_budget(self, case):
        mode, measure = MEASURES[case]
        rng = stream(304, "peel", case)
        ops = [random_operator(MULTI, rng, kind="positive")]
        budget = 2.0  # below the weight 3.0 of the 1x1 block
        [(e, defect)] = peel(MULTI, stacks(ops), [(0.0, budget)], mode)
        assert defect <= budget
        assert defect == pytest.approx(e.defect())
        # the next removal would have passed the budget
        assert max(measure(op, e) for op in ops) > 0.0

    @pytest.mark.parametrize("case", sorted(MEASURES))
    def test_emptied_blocks(self, case):
        mode, _ = MEASURES[case]
        # every direction of every block is peeled; emptied bases are
        # skipped and the loop ends with the zero projection
        [(e, defect)] = peel(MULTI, stacks([MULTI.identity()]),
                             [(0.5, np.inf)], mode)
        assert defect == pytest.approx(MULTI.identity().trace().real)
        assert e.rank() == 0

    def test_unknown_mode(self):
        for mode in ("diagonal", "hermitian"):
            with pytest.raises(ValueError):
                peel(MULTI, stacks([MULTI.identity()]), [(0.5, 1.0)], mode)
