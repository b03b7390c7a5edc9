import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ncergodic import cli, convergence
from ncergodic.algebra import (AlgebraSpec, Projection, compressed_norm,
                              one_sided_norm)
from ncergodic.convergence import (NormSpec, au_witness, bau_witness,
                                   besicovitch_experiment, trajectory)
from ncergodic.dynamics import random_kraus_channel
from ncergodic.maximal import peel
from ncergodic.rng import random_operator, stream
from ncergodic.weights import WeightSequence

FIXTURES = Path(cli.__file__).parent / "fixtures"
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))
NORMS = (NormSpec.uniform(), NormSpec.lp(2))


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

    def test_besicovitch_applies_horizon_times(self, apply_calls):
        rng = stream(300, "conv")
        channel = random_kraus_channel(MULTI, 3, rng)
        x = random_operator(MULTI, rng)
        beta = WeightSequence.periodic([1.0, 1j, -1.0, -1j])
        report = besicovitch_experiment(channel, x, beta, 64, NORMS)
        assert len(apply_calls) == 64
        assert report.schedule == [1, 2, 4, 8, 16, 32, 64]


class TestDeviationWitnesses:
    @pytest.mark.parametrize("build", [au_witness, bau_witness])
    def test_budget_profile_and_report_reuse(self, build):
        rng = stream(301, "conv")
        channel = random_kraus_channel(MULTI, 3, rng)
        x = random_operator(MULTI, rng)
        eps, horizon = 0.6, 64
        fresh = build(channel, x, eps, horizon)
        reused = build(channel, x, eps, horizon,
                       report=trajectory(channel, x, horizon, NORMS))
        for witness in (fresh, reused):
            assert witness.trace_defect <= eps
            assert witness.projection.defect() == pytest.approx(
                witness.trace_defect)
            assert all(a >= b for a, b in zip(witness.profile,
                                              witness.profile[1:]))
        assert fresh.trace_defect == reused.trace_defect
        assert fresh.profile == reused.profile
        assert np.array_equal(fresh.projection.operator.vec(),
                              reused.projection.operator.vec())

    def test_rejects_non_positive_eps(self):
        channel = random_kraus_channel(MULTI, 2, stream(302, "conv"))
        with pytest.raises(ValueError):
            au_witness(channel, MULTI.identity(), 0.0, 8)


def hermitian_top(op, e):
    """Largest eigenvalue of the Hermitian part of e op e over blocks."""
    best = -np.inf
    for i in range(op.algebra.num_blocks):
        basis = e.block_basis(i)
        if basis.shape[1]:
            c = basis.conj().T @ op.block(i) @ basis
            best = max(best, np.linalg.eigvalsh((c + c.conj().T) / 2)[-1])
    return best


def stacks(ops):
    return MULTI.block_stacks([op.vec() for op in ops])


MEASURES = {"hermitian": hermitian_top, "two_sided": compressed_norm,
            "one_sided": one_sided_norm}


class TestPeel:
    @pytest.mark.parametrize("mode", sorted(MEASURES))
    def test_stops_at_level(self, mode):
        rng = stream(303, "peel", mode)
        ops = [random_operator(MULTI, rng, kind="positive")
               for _ in range(3)]
        level = 0.5 * max(MEASURES[mode](op, Projection.identity(MULTI))
                          for op in ops)
        e, defect = peel(MULTI, stacks(ops), level, np.inf, mode)
        assert 0 < defect == pytest.approx(e.defect())
        assert max(MEASURES[mode](op, e) for op in ops) <= level

    @pytest.mark.parametrize("mode", sorted(MEASURES))
    def test_stops_before_budget(self, mode):
        rng = stream(304, "peel", mode)
        ops = [random_operator(MULTI, rng, kind="positive")]
        budget = 2.0  # below the weight 3.0 of the 1x1 block
        e, defect = peel(MULTI, stacks(ops), 0.0, budget, mode)
        assert defect <= budget
        assert defect == pytest.approx(e.defect())
        # the next removal would have passed the budget
        assert max(MEASURES[mode](op, e) for op in ops) > 0.0

    @pytest.mark.parametrize("mode", sorted(MEASURES))
    def test_emptied_blocks(self, mode):
        # every direction of every block is peeled; emptied bases are
        # skipped and the loop ends with the zero projection
        e, defect = peel(MULTI, stacks([MULTI.identity()]), 0.5, np.inf,
                         mode)
        assert defect == pytest.approx(MULTI.identity().trace().real)
        assert e.rank() == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            peel(MULTI, stacks([MULTI.identity()]), 0.5, 1.0, "diagonal")
