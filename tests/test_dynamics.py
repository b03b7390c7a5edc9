import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergodic import dynamics
from ncergodic.algebra import AlgebraSpec, Operator
from ncergodic.convergence import trajectory
from ncergodic.dynamics import (CHANNEL_KINDS, Channel, _hermitian_superop,
                                channel_from_spec, compose,
                                convex_combine, ergodic_averages,
                                fixed_point, identity_channel, kraus_channel,
                                pinching,
                                random_kraus_channel, random_substochastic,
                                random_unitary_mixture, rotated_fixed_point,
                                scale_channel, schur_multiplier,
                                substochastic, unitary_conjugation,
                                verify_ds)
from ncergodic.errors import ChannelConstructionError, SemisimplicityError
from ncergodic.ncnorms import (Lorentz, Lp, Uniform, lp_norm,
                               singular_function)
from ncergodic.rng import random_operator, random_unitary_operator, stream
from ncergodic.util import DEFAULT_TOL, EIG_CLUSTER_TOL
from ncergodic.weights import WeightSequence

M2 = AlgebraSpec(((2, 1.0),))
M4 = AlgebraSpec(((4, 1.0),))
DIAG2 = AlgebraSpec(((1, 1.0), (1, 1.0)))
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))
CYCLE6 = AlgebraSpec(((1, 1.0),) * 6)
DIAG3 = AlgebraSpec(((1, 1.0), (1, 0.5), (1, 2.0)))
PHASES = (1.0, -1.0, 1j, -1j, np.exp(2j * np.pi / 6))


def mat(entries, algebra=M2):
    return Operator(algebra, [np.array(entries, dtype=complex)])


def average(ch, x, n, beta=None):
    """M_{beta,n}(x): the last vector `ergodic_averages` yields."""
    for _, vec in ergodic_averages(ch, x, n, beta):
        pass
    return Operator.from_vec(ch.algebra, vec)


class TestVerifyDS:
    def test_unitary_conjugation_all_pass(self):
        rng = stream(70, "ds")
        u = random_unitary_operator(M4, rng)
        ch = unitary_conjugation(u)
        report = verify_ds(ch)
        assert report.is_ds_plus
        unit = M4.identity()
        assert ch.apply(unit).allclose(unit, tol=1e-10)
        assert report.adjoint_unit_value == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_row_column_sums(self):
        p = np.array([[0.5, 0.5], [0.25, 0.25]])
        ch = substochastic(DIAG2, p)
        report = verify_ds(ch)
        assert report.is_ds_plus
        assert report.subunital_value == pytest.approx(1.0)
        assert report.adjoint_unit_value == pytest.approx(0.75)

    def test_row_sum_violation_reported(self):
        # the constructor builds; verify_ds reads the row sum 1.5 off T(1)
        report = substochastic(DIAG2, np.array([[1.0, 0.5],
                                                [0.0, 0.5]])).verification
        assert report.positive and report.trace_nonincreasing
        assert not report.subunital
        assert report.subunital_value == pytest.approx(1.5)
        assert not report.is_ds_plus

    def test_negative_entry_is_unverified(self):
        # the Choi blocks of a diagonal algebra are the entries P_ij
        report = substochastic(DIAG2, np.array([[0.5, -0.25],
                                                [0.0, 0.5]])).verification
        assert report.evidence == "unverified"
        assert report.choi_min_eigenvalue == pytest.approx(-0.25)
        assert not report.is_ds_plus

    def test_report_carries_failures(self):
        # a non-contractive map built directly: report, not exception
        ch = Channel(M2, 2.0 * np.eye(4, dtype=complex), kind="inflate")
        report = verify_ds(ch)
        assert not report.subunital
        assert report.subunital_value == pytest.approx(2.0)

    @staticmethod
    def dense_adjoint_unit_value(ch):
        """Largest eigenvalue of T*(1) from the dense trace adjoint
        W^-1 S^H W, W = diag(w) the block weight of each entry."""
        algebra = ch.algebra
        w = np.concatenate([np.full(d * d, wt) for d, wt in algebra.blocks])
        adjoint = (ch.superop.conj().T * w[None, :]) / w[:, None]
        image = Operator.from_vec(algebra, adjoint @ algebra.identity().vec())
        herm = (image + image.adjoint()) * 0.5
        return max(np.linalg.eigvalsh(b)[-1] for b in herm.blocks)

    def test_adjoint_unit_value_matches_dense_adjoint(self):
        rng = stream(75, "adjoint")
        weighted = AlgebraSpec(((1, 2.0), (1, 1.0)))
        # weighted column sum of column 1: 2.0 * 0.9 / 1.0 = 1.8
        expanding = Channel(weighted, np.array([[0.0, 0.9], [0.0, 0.0]]))
        maps = [random_kraus_channel(MULTI, 3, rng),
                random_unitary_mixture(MULTI, 2, rng), expanding]
        for ch in maps:
            want = self.dense_adjoint_unit_value(ch)
            got = ch.verification.adjoint_unit_value
            assert abs(got - want) <= 1e-12 * abs(want)
        assert expanding.verification.adjoint_unit_value == \
            pytest.approx(1.8, rel=1e-12)
        assert not expanding.verification.trace_nonincreasing
        assert not expanding.verification.is_ds_plus

    def test_construction_keeps_one_dense_superoperator(self):
        # T*(1) is read from the superoperator, never from a dense copy
        algebra = AlgebraSpec(((16, 1.0), (4, 0.5)))
        bare = random_kraus_channel(algebra, 3, stream(76, "memory"))
        dense = bare.superop.nbytes
        assert dense == algebra.vec_dim ** 2 * 16
        tracemalloc.start()
        try:
            ch = Channel(algebra, bare.superop, kraus=bare.kraus)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ch.verification.is_ds_plus
        assert kept <= 1.1 * dense
        assert peak < 1.5 * dense


class TestConstructors:
    def test_pinching_is_ds(self):
        ch = pinching(M2, [0, 1])
        assert ch.verification.is_ds_plus
        x = mat([[1, 5], [7, 2]])
        assert ch.apply(x).allclose(mat([[1, 0], [0, 2]]), tol=1e-12)

    def test_schur_multiplier(self):
        ch = schur_multiplier(M2, [np.array([[1.0, 0.5], [0.5, 1.0]])])
        assert ch.verification.is_ds_plus
        x = mat([[1, 2], [2, 1]])
        assert ch.apply(x).allclose(mat([[1, 1], [1, 1]]), tol=1e-10)

    def test_schur_rejects_non_psd(self):
        with pytest.raises(ChannelConstructionError):
            schur_multiplier(M2, [np.array([[1.0, 2.0], [2.0, 1.0]])])

    def test_convex_combination_is_ds(self):
        rng = stream(71, "ctor")
        u = random_unitary_operator(M2, rng)
        ch = convex_combine([unitary_conjugation(u), pinching(M2, [0, 1])],
                            [0.5, 0.5])
        assert ch.verification.is_ds_plus

    def test_compose_keeps_ds(self):
        rng = stream(72, "ctor")
        a = unitary_conjugation(random_unitary_operator(M2, rng))
        b = pinching(M2, [0, 1])
        assert compose(a, b).verification.is_ds_plus

    def test_kraus_reports_expanding_family(self):
        # T = 2 id: completely positive, neither subunital nor
        # trace-nonincreasing; verify_ds says so, the constructor builds
        ch = kraus_channel(M2, [M2.identity(), M2.identity()])
        report = ch.verification
        assert report.evidence == "kraus"
        assert report.subunital_value == pytest.approx(2.0)
        assert report.adjoint_unit_value == pytest.approx(2.0)
        assert not report.subunital and not report.trace_nonincreasing
        assert not report.is_ds_plus

    def test_schur_diagonal_above_one_reported(self):
        # T(1) = T*(1) = diag(m) for a Schur multiplier
        report = schur_multiplier(
            M2, [np.array([[2.0, 0.5], [0.5, 1.0]])]).verification
        assert report.positive
        assert report.subunital_value == pytest.approx(2.0)
        assert report.adjoint_unit_value == pytest.approx(2.0)
        assert not report.is_ds_plus

    def test_complex_multiple_is_unverified(self):
        rng = stream(73, "ctor")
        u = random_unitary_operator(M2, rng)
        ch = scale_channel(unitary_conjugation(u), 1j)
        assert ch.kraus is None
        assert ch.verification.evidence == "unverified"
        assert not ch.verification.positive
        assert not ch.verification.is_ds_plus

    def test_substochastic_weighted_columns(self):
        alg = AlgebraSpec(((1, 2.0), (1, 1.0)))
        # column j=1 weighted sum: (2*0.9)/1 = 1.8 > 1, read off T*(1)
        report = substochastic(
            alg, np.array([[0.0, 0.9], [0.0, 0.0]])).verification
        assert report.subunital
        assert not report.trace_nonincreasing
        assert report.adjoint_unit_value == pytest.approx(1.8)
        assert not report.is_ds_plus
        ok = substochastic(alg, np.array([[0.0, 0.5], [0.9, 0.0]]))
        assert ok.verification.is_ds_plus


class TestErgodicAverage:
    def test_identity_channel(self):
        rng = stream(74, "avg")
        x = random_operator(M2, rng)
        assert average(identity_channel(M2), x, 17).allclose(x)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            average(identity_channel(M2), M2.identity(), -1)

    def test_alternating_sign_example(self):
        ch = unitary_conjugation(mat([[1, 0], [0, -1]]))
        x = mat([[0, 1], [1, 0]])
        assert average(ch, x, 1).uniform_norm() < 1e-14
        assert average(ch, x, 2).allclose(x * (1 / 3), tol=1e-12)

    def test_iterator_matches_direct(self):
        # against (1/(n+1)) sum_k S^k vec(x) with S the superoperator
        rng = stream(75, "avg")
        ch = random_kraus_channel(M4, 3, rng)
        x = random_operator(M4, rng)
        for n, vec in ergodic_averages(ch, x, 5):
            direct = sum(np.linalg.matrix_power(ch.superop, k) @ x.vec()
                         for k in range(n + 1)) / (n + 1)
            assert Operator.from_vec(M4, vec).allclose(
                Operator.from_vec(M4, direct), tol=1e-12)

    @pytest.mark.parametrize("period", [None, [1.0, 1j, -1.0, -1j]])
    def test_vectors_match_operator_recurrence(self, period):
        # bit for bit against the Operator form of the recurrence, one
        # Channel.apply per step, blocks of odd and unit size included
        rng = stream(75, "vec", period is None)
        ch = random_kraus_channel(MULTI, 3, rng)
        x = random_operator(MULTI, rng)
        beta = (None if period is None
                else WeightSequence("periodic", period=period))
        values = None if beta is None else beta.values(21)
        current = x
        running = x if values is None else x * values[0]
        for n, vec in ergodic_averages(ch, x, 20, beta):
            assert np.array_equal(vec, (running * (1.0 / (n + 1))).vec())
            current = ch.apply(current)
            running = running + (current if values is None
                                 else current * values[n + 1])

    def test_rejects_operator_of_another_algebra(self):
        with pytest.raises(ChannelConstructionError):
            average(identity_channel(M2), M4.identity(), 3)

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    def test_lp_contraction(self, p):
        rng = stream(76, "avg", p)
        for _ in range(5):
            ch = random_kraus_channel(M4, 3, rng)
            x = random_operator(M4, rng)
            bound = lp_norm(x, p)
            for n in (1, 4, 16):
                assert lp_norm(average(ch, x, n), p) <= bound + 1e-9

    def test_positivity_preserved(self):
        rng = stream(77, "avg")
        ch = random_kraus_channel(M4, 2, rng)
        x = random_operator(M4, rng, kind="positive")
        assert average(ch, x, 9).is_positive()

    def test_commutative_embedding(self):
        # diagonal algebra: channel equals classical matrix-vector iteration
        rng = stream(78, "avg")
        alg = AlgebraSpec(((1, 1.0),) * 5)
        ch = random_substochastic(alg, rng)
        p = ch.superop.real
        v = rng.random(5)
        x = alg.diagonal(v)
        acc = v.copy()
        current = v.copy()
        for n, vec in ergodic_averages(ch, x, 8):
            if n:
                current = p @ current
                acc += current
            avg = Operator.from_vec(alg, vec)
            got = np.array([b[0, 0].real for b in avg.blocks])
            assert np.allclose(got, acc / (n + 1), atol=1e-12)


class TestWeightedAverage:
    def test_constant_one_reduces(self):
        rng = stream(79, "wavg")
        ch = random_kraus_channel(M2, 2, rng)
        x = random_operator(M2, rng)
        beta = WeightSequence("constant", period=[1.0])
        assert average(ch, x, 7, beta).allclose(average(ch, x, 7),
                                                tol=1e-12)

    def test_alternating_identity_closed_form(self):
        ch = identity_channel(M2)
        rng = stream(80, "wavg")
        x = random_operator(M2, rng)
        beta = WeightSequence("periodic", period=[1.0, -1.0])
        for n in (2, 6, 10):
            assert average(ch, x, n, beta).allclose(x * (1.0 / (n + 1)),
                                                    tol=1e-12)
        for n in (1, 5, 9):
            assert average(ch, x, n, beta).uniform_norm() < 1e-13

    def test_shift_decomposition_identity(self):
        # M_beta = M_{Re beta + C} + i M_{Im beta + C} - C(1+i) M
        rng = stream(81, "wavg")
        ch = random_kraus_channel(M4, 3, rng)
        x = random_operator(M4, rng)
        period = [1.0, 1j, -1.0, -1j]
        beta = WeightSequence("periodic", period=period)
        c = beta.bound
        re_shift = WeightSequence("periodic",
                                  period=[v.real + c for v in period])
        im_shift = WeightSequence("periodic",
                                  period=[v.imag + c for v in period])
        for n in (3, 9):
            rebuilt = (average(ch, x, n, re_shift)
                       + average(ch, x, n, im_shift) * 1j
                       - average(ch, x, n) * (c * (1 + 1j)))
            assert rebuilt.allclose(average(ch, x, n, beta), tol=1e-10)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
    def test_lorentz_bound_6c(self, p, q):
        rng = stream(82, "wavg", p, q)
        beta = WeightSequence("periodic", period=[2.0, -2.0, 2j])
        c = beta.bound
        for _ in range(5):
            ch = random_kraus_channel(M4, 3, rng)
            x = random_operator(M4, rng)
            norm = Lorentz(p, q)
            bound = 6 * c * norm.value(singular_function(x))
            for n in (1, 8, 32):
                assert norm.value(singular_function(
                    average(ch, x, n, beta))) <= bound + 1e-9

    def test_bound_violation_rejected(self):
        beta = WeightSequence("periodic", period=[1.0, 3.0])
        beta.bound = 2.0  # tamper: declared bound below actual values
        ch = identity_channel(M2)
        with pytest.raises(ValueError):
            average(ch, M2.identity(), 4, beta)


class TestAveragedChannels:
    def test_shifted_channels_subunital_after_scaling(self):
        # the shifted coefficients lie in [0, 2C], so ||M_{Re beta+C,n}(1)||
        # and ||M_{Im beta+C,n}(1)|| stay <= 2C for a subunital channel
        rng = stream(84, "cesaro")
        ch = random_kraus_channel(M4, 2, rng)
        period = [1.0, -1j]
        c = WeightSequence("periodic", period=period).bound
        for part in (lambda v: v.real, lambda v: v.imag):
            shifted = WeightSequence("periodic",
                                     period=[part(v) + c for v in period])
            for n in (1, 6, 17):
                value = average(ch, M4.identity(), n, shifted).uniform_norm()
                assert value <= 2 * c + 1e-12


class TestFixedPoint:
    def test_identity(self):
        rng = stream(85, "fp")
        x = random_operator(M2, rng)
        assert fixed_point(identity_channel(M2), x).allclose(x, tol=1e-10)

    def test_phase_conjugation_keeps_diagonal(self):
        ch = unitary_conjugation(mat([[1, 0], [0, 1j]]))
        rng = stream(86, "fp")
        x = random_operator(M2, rng)
        expected = mat(np.diag(np.diag(x.block(0))))
        got = fixed_point(ch, x)
        assert got.allclose(expected, tol=1e-9)
        assert ch.apply(got).allclose(got, tol=1e-9)

    def test_doubly_stochastic_cycle_perron(self):
        n = 5
        alg = AlgebraSpec(((1, 1.0),) * n)
        p = np.roll(np.eye(n), 1, axis=0)
        ch = substochastic(alg, p)
        rng = stream(87, "fp")
        v = rng.random(n)
        x = alg.diagonal(v)
        got = fixed_point(ch, x)
        expected = alg.diagonal(np.full(n, v.mean()))
        assert got.allclose(expected, tol=1e-9)

    def test_averages_converge_to_fixed_point(self):
        rng = stream(88, "fp")
        ch = random_unitary_mixture(M4, 3, rng, min_gap=0.05)
        x = random_operator(M4, rng)
        x_hat = fixed_point(ch, x)
        res = [(x_hat - Operator.from_vec(M4, vec)).uniform_norm()
               for n, vec in ergodic_averages(ch, x, 512)
               if n in (64, 512)]
        assert res[1] < res[0]
        assert res[1] < 0.05 * x.uniform_norm()

    def test_semisimplicity_guard(self):
        # Jordan block at eigenvalue 1 is not power bounded
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        ch = Channel(M2, bad, kind="jordan")
        with pytest.raises(SemisimplicityError):
            fixed_point(ch, M2.identity())

    def test_no_eigenvalue_one_gives_zero(self):
        ch = scale_channel(identity_channel(M2), 0.5)
        rng = stream(89, "fp")
        x = random_operator(M2, rng)
        assert fixed_point(ch, x).uniform_norm() < 1e-12

    def test_rotated_fixed_point(self):
        ch = unitary_conjugation(mat([[1, 0], [0, -1]]))
        x = mat([[0, 1], [1, 0]])
        # off-diagonal part lives at superoperator eigenvalue -1
        got = rotated_fixed_point(ch, x, -1.0)
        assert got.allclose(x, tol=1e-10)
        assert rotated_fixed_point(ch, x, 1.0).uniform_norm() < 1e-12


class TestRateAndSpectrum:
    def test_bounded_rate_for_root_of_unity_spectrum(self):
        # peripheral spectrum {1, -1}: (n+1) * residual stays bounded
        ch = unitary_conjugation(mat([[1, 0], [0, -1]]))
        x = mat([[0.3, 1], [1, -0.2]])
        x_hat = fixed_point(ch, x)
        values = [(n + 1) * (x_hat - Operator.from_vec(M2, vec)).uniform_norm()
                  for n, vec in ergodic_averages(ch, x, 128)]
        assert max(values) <= 2.0 * x.uniform_norm() + 1e-9

    def test_gap_of_strict_contraction(self):
        ch = scale_channel(identity_channel(M2), 0.5)
        assert ch.spectral_gap() == pytest.approx(0.5)

    def test_gap_of_identity(self):
        assert identity_channel(M2).spectral_gap() == pytest.approx(1.0)


class TestChannelSpecs:
    def test_unitary_spec_roundtrip(self):
        spec = {"kind": "unitary",
                "matrix": {"blocks": [[[1, 0], [0, 0], [0, 0], [-1, 0]]]}}
        ch = channel_from_spec(M2, spec)
        assert ch.kind == "unitary"
        assert ch.verification.is_ds_plus

    def test_random_specs_deterministic(self):
        spec = {"kind": "random-kraus", "num_ops": 3, "seed": 5}
        a = channel_from_spec(M4, spec, run_seed=11)
        b = channel_from_spec(M4, spec, run_seed=11)
        c = channel_from_spec(M4, spec, run_seed=12)
        assert np.array_equal(a.superop, b.superop)
        assert not np.allclose(a.superop, c.superop)

    def test_nested_convex_spec(self):
        spec = {"kind": "convex",
                "children": [{"kind": "identity"},
                             {"kind": "pinching", "labels": [0, 1]}],
                "probabilities": [0.25, 0.75]}
        assert channel_from_spec(M2, spec).verification.is_ds_plus

    def test_unknown_kind(self):
        with pytest.raises(ChannelConstructionError):
            channel_from_spec(M2, {"kind": "warp"})


def schur_projection(superop, cluster_tol=1e-8):
    """Reference spectral projection at eigenvalue 1 from a sorted Schur
    form and a Sylvester solve (dense n x n result)."""
    t, z, sdim = scipy.linalg.schur(
        superop, output="complex",
        sort=lambda lam: abs(lam - 1.0) <= cluster_tol)
    n = superop.shape[0]
    if sdim == 0:
        return np.zeros((n, n), dtype=complex)
    if sdim == n:
        return np.eye(n, dtype=complex)
    x = scipy.linalg.solve_sylvester(t[:sdim, :sdim], -t[sdim:, sdim:],
                                     t[:sdim, sdim:])
    block = np.zeros((n, n), dtype=complex)
    block[:sdim, :sdim] = np.eye(sdim)
    block[:sdim, sdim:] = x
    return z @ block @ z.conj().T


def oracle_channels():
    """Six channels from each of five families, with peripheral
    eigenvalues at the roots of unity in PHASES."""
    rng = stream(90, "oracle")
    shift = np.roll(np.eye(6), 1, axis=0)
    out = []
    for i in range(6):
        out.append(random_kraus_channel(MULTI, 3, rng, margin=0.0))
        out.append(random_unitary_mixture(MULTI, 2, rng))
        out.append(pinching(MULTI, rng.integers(0, 3, size=6)))
        angles = 2 * np.pi / 12 * rng.integers(0, 12, size=6)
        out.append(unitary_conjugation(MULTI.diagonal(np.exp(1j * angles))))
        out.append(substochastic(
            CYCLE6, np.linalg.matrix_power(shift, i + 1) if i < 5
            else 0.5 * (np.eye(6) + shift)))
    return out


class TestPeripheralProjection:
    def test_matches_schur_oracle(self):
        rng = stream(91, "oracle")
        covered = set()
        for ch in oracle_channels():
            for phase in PHASES:
                x = random_operator(ch.algebra, rng)
                proj = schur_projection(complex(phase) * ch.superop)
                expected = proj @ x.vec()
                got = rotated_fixed_point(ch, x, phase).vec()
                assert np.max(np.abs(got - expected)) <= 1e-12
                if np.any(proj):
                    covered.add((ch.kind, phase))
        # every phase is a peripheral eigenvalue of some channel; the
        # random Kraus family (spectral radius < 1) covers the empty cluster
        assert {phase for _, phase in covered} == set(PHASES)
        assert {kind for kind, _ in covered} == {
            "convex", "pinching", "unitary", "substochastic"}

    @pytest.mark.parametrize("algebra", [M4, MULTI])
    def test_limit_commutes_with_kraus_operators(self, algebra):
        # Arias-Gheondea-Gudder: for unital trace-preserving Kraus maps
        # Fix(T) is the commutant of {a_k, a_k*}.
        rng = stream(92, "agg", algebra.dims)
        for _ in range(3):
            ch = random_unitary_mixture(algebra, 3, rng)
            x_hat = fixed_point(ch, random_operator(algebra, rng))
            assert x_hat.uniform_norm() > 1e-3
            assert ch.apply(x_hat).allclose(x_hat, tol=1e-10)
            for a in ch.kraus:
                for b in (a, a.adjoint()):
                    assert (x_hat @ b - b @ x_hat).uniform_norm() < 1e-10

    def test_oblique_idempotent_takes_same_path(self):
        # an uncertified, non-normal map with a semisimple cluster at 1:
        # the limit is the oblique projection itself, not an orthogonal one
        rng = stream(96, "oblique")
        n = MULTI.vec_dim
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        proj = s @ np.diag([1.0] * 3 + [0.0] * (n - 3)) @ np.linalg.inv(s)
        ch = Channel(MULTI, proj, kind="oblique")
        x = random_operator(MULTI, rng)
        got = fixed_point(ch, x).vec()
        assert np.allclose(got, proj @ x.vec(), atol=1e-10)
        assert np.allclose(got, schur_projection(proj) @ x.vec(), atol=1e-10)

    def test_jordan_block_at_minus_one(self):
        bad = -np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        ch = Channel(M2, bad, kind="jordan")
        with pytest.raises(SemisimplicityError):
            rotated_fixed_point(ch, M2.identity(), -1)
        assert fixed_point(ch, M2.identity()).uniform_norm() == 0.0

    def test_spectrum_computed_once(self, monkeypatch):
        ch = random_unitary_mixture(MULTI, 2, stream(93, "cache"))
        x = random_operator(MULTI, stream(94, "cache"))
        calls = []
        eigvals = np.linalg.eigvals

        def counting_eigvals(a):
            calls.append(a.shape)
            return eigvals(a)

        def forbidden(*args, **kwargs):
            raise AssertionError("Schur form computed")

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(scipy.linalg, "schur", forbidden)
        fixed_point(ch, x)
        for phase in PHASES[1:]:
            rotated_fixed_point(ch, x, phase)
        ch.spectral_gap()
        assert calls == [(MULTI.vec_dim, MULTI.vec_dim)]

    def test_cached_spectrum_is_read_only(self):
        ch = random_kraus_channel(M2, 2, stream(95, "cache"))
        eigs = ch.eigenvalues()
        assert not eigs.flags.writeable
        with pytest.raises(ValueError):
            eigs[0] = 0.0
        assert ch.eigenvalues() is eigs

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31),
           blocks=st.sampled_from([((2, 1.0), (1, 0.5)),
                                   ((3, 1.0), (2, 0.25), (1, 3.0)),
                                   ((2, 2.0), (2, 0.5))]),
           family=st.sampled_from(["kraus", "unitary-mixture"]))
    def test_limit_is_fixed_and_idempotent(self, seed, blocks, family):
        algebra = AlgebraSpec(blocks)
        rng = stream(seed, "property", family)
        if family == "kraus":
            ch = random_kraus_channel(algebra, 3, rng, margin=0.0)
        else:
            ch = random_unitary_mixture(algebra, 2, rng)
        x_hat = fixed_point(ch, random_operator(algebra, rng))
        assert ch.apply(x_hat).allclose(x_hat, tol=1e-9)
        assert fixed_point(ch, x_hat).allclose(x_hat, tol=1e-9)


def kind_spec(kind, algebra, rng):
    """A spec of `kind` on `algebra` with seeded data; the substochastic
    kinds need a diagonal algebra."""
    if kind in ("identity", "random-kraus", "random-substochastic"):
        return {"kind": kind, "seed": 2}
    if kind in ("unitary", "unitary-mixture"):
        return {"kind": kind, "seed": 3}
    if kind == "pinching":
        return {"kind": kind,
                "labels": rng.integers(0, 2, size=sum(algebra.dims)).tolist()}
    if kind == "schur":
        blocks = []
        for d in algebra.dims:
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            gram = (v / np.linalg.norm(v, axis=0)).conj().T @ (
                v / np.linalg.norm(v, axis=0))  # PSD, unit diagonal
            blocks.append([[z.real, z.imag] for z in gram.ravel()])
        return {"kind": kind, "matrices": {"blocks": blocks}}
    if kind == "substochastic":
        n, w = algebra.num_blocks, np.array(algebra.weights)
        p = rng.random((n, n))
        p *= 0.9 / max(p.sum(axis=1).max(), ((w[:, None] * p).sum(0) / w).max())
        return {"kind": kind, "matrix": p.tolist()}
    if kind == "kraus":
        ops = [random_operator(algebra, rng) for _ in range(2)]
        return {"kind": kind, "operators": [
            (a * (0.5 / a.uniform_norm())).to_json() for a in ops]}
    if kind in ("convex", "compose"):
        spec = {"kind": kind, "children": [{"kind": "random-kraus", "seed": 4},
                                           {"kind": "unitary-mixture"}]}
        if kind == "convex":
            spec["probabilities"] = [0.3, 0.7]
        return spec
    assert kind == "scaled"
    return {"kind": kind, "child": {"kind": "random-kraus"},
            "factor": [0.5, 0.0]}


# every kind on a diagonal algebra, every kind but the substochastic
# ones on a 3-block algebra
KIND_CASES = ([(kind, DIAG3) for kind in CHANNEL_KINDS]
              + [(kind, MULTI) for kind in CHANNEL_KINDS
                 if "substochastic" not in kind])


def eigvals_dtypes(monkeypatch):
    """Record the dtype of every matrix np.linalg.eigvals receives."""
    seen = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(a):
        seen.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    return seen


class TestHermitianSpectrum:
    def test_builder_equals_explicit_change_of_basis(self):
        # two blocks; tests/test_slicing.py builds it one row at a time
        algebra = AlgebraSpec(((9, 1.0), (2, 0.5)))
        ch = random_kraus_channel(algebra, 3, stream(97, "basis"))
        # Q column by column: per block E_ii, then (E_ij + E_ji)/sqrt 2,
        # then i(E_ij - E_ji)/sqrt 2, pairs i < j in row-major order
        columns = []
        for off, d in zip(algebra.block_offsets(), algebra.dims):
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            terms = ([[(i, i, 1.0)] for i in range(d)]
                     + [[(i, j, 0.5 ** 0.5), (j, i, 0.5 ** 0.5)]
                        for i, j in pairs]
                     + [[(i, j, 1j * 0.5 ** 0.5), (j, i, -1j * 0.5 ** 0.5)]
                        for i, j in pairs])
            for term in terms:
                col = np.zeros(algebra.vec_dim, dtype=complex)
                for i, j, c in term:
                    col[off + i * d + j] = c
                columns.append(col)
        q = np.stack(columns, axis=1)
        assert np.allclose(q.conj().T @ q, np.eye(algebra.vec_dim))
        explicit = q.conj().T @ ch.superop @ q
        got = _hermitian_superop(algebra, ch.superop)
        assert got.dtype == np.float64
        assert np.max(np.abs(explicit.imag)) < 1e-14
        assert np.allclose(got, explicit.real, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,algebra", KIND_CASES)
    def test_real_path_matches_complex_spectrum(self, kind, algebra,
                                                monkeypatch):
        spec = kind_spec(kind, algebra, stream(98, kind))
        ch = channel_from_spec(algebra, spec, run_seed=5)
        want = np.linalg.eigvals(ch.superop)
        seen = eigvals_dtypes(monkeypatch)
        got = ch.eigenvalues()
        assert seen == [np.float64]
        assert got.dtype == np.complex128
        # a real matrix: eigenvalues in exact conjugate pairs
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))
        distance = np.abs(got[:, None] - want[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(distance)
        n = want.size
        tol = 100 * n * np.finfo(float).eps * np.linalg.norm(ch.superop, 2)
        assert distance[rows, cols].max() <= tol

    def test_complex_maps_keep_the_complex_superoperator(self, monkeypatch):
        rng = stream(99, "complex")
        a = random_unitary_mixture(MULTI, 2, rng)
        b = random_kraus_channel(MULTI, 3, rng)
        maps = [scale_channel(a, 1j),
                Channel(MULTI, 0.5 * a.superop + 0.5j * b.superop)]
        real_combination = Channel(MULTI, 0.5 * a.superop - 0.25 * b.superop)
        want = [np.linalg.eigvals(ch.superop) for ch in maps]
        seen = eigvals_dtypes(monkeypatch)
        for ch, expected in zip(maps, want):
            # the Hermitian test of `verify_ds` fails
            assert ch.verification.choi_min_eigenvalue is None
            assert np.array_equal(ch.eigenvalues(), expected)
        real_combination.eigenvalues()
        assert seen == [np.complex128, np.complex128, np.float64]

    def test_cluster_counts_and_gap_match_complex_spectrum(self):
        for ch in oracle_channels():
            old = np.linalg.eigvals(ch.superop)
            for phase in PHASES:
                assert ch.eigenspace_dim(phase) == np.count_nonzero(
                    np.abs(phase * old - 1.0) <= EIG_CLUSTER_TOL)
            outside = np.abs(old[np.abs(old - 1.0) > EIG_CLUSTER_TOL])
            old_gap = 1.0 - outside.max() if outside.size else 1.0
            assert abs(ch.spectral_gap() - old_gap) <= 1e-12


def transpose_superop(algebra):
    """x -> x^T blockwise: positive, not completely positive."""
    perm = np.concatenate([off + np.arange(d * d).reshape(d, d).T.ravel()
                           for off, d in zip(algebra.block_offsets(),
                                             algebra.dims)])
    return np.eye(algebra.vec_dim, dtype=complex)[perm]


def choi_oracle(ch):
    """Smallest eigenvalue of sum_ce E_ce (x) T(E_ce)_i over the block
    pairs (i, j), E_ce the matrix units of block j, from `Channel.apply`."""
    algebra = ch.algebra
    values = []
    for j, d_in in enumerate(algebra.dims):
        for i, d_out in enumerate(algebra.dims):
            choi = 0
            for c in range(d_in):
                for e in range(d_in):
                    blocks = [np.zeros((d, d), dtype=complex)
                              for d in algebra.dims]
                    blocks[j][c, e] = 1.0
                    image = ch.apply(Operator(algebra, blocks)).block(i)
                    choi = choi + np.kron(blocks[j], image)
            assert np.abs(choi - choi.conj().T).max() <= 1e-14
            values.append(np.linalg.eigvalsh(choi)[0])
    return min(values)


class TestChoiCertificate:
    def test_margin_matches_matrix_unit_oracle(self):
        rng = stream(104, "choi")
        bare = random_kraus_channel(MULTI, 3, rng)
        maps = [Channel(MULTI, bare.superop),
                Channel(MULTI, 0.5 * transpose_superop(MULTI)),
                random_substochastic(DIAG3, rng),
                convex_combine([random_substochastic(DIAG3, rng),
                                scale_channel(identity_channel(DIAG3), 0.5)],
                               [0.5, 0.5])]
        for ch in maps:
            assert ch.kraus is None
            assert abs(ch.verification.choi_min_eigenvalue
                       - choi_oracle(ch)) <= 1e-12
        assert [ch.verification.evidence for ch in maps] == [
            "choi", "unverified", "choi", "choi"]

    def test_diagonal_verdict_is_entrywise(self):
        # 1x1 blocks: each Choi matrix is one entry P_ij
        rng = stream(105, "choi")
        for k in range(16):
            p = rng.standard_normal((3, 3)) if k < 4 else rng.random((3, 3))
            p[rng.integers(3), rng.integers(3)] = (
                -2.0, -2 * DEFAULT_TOL, -0.5 * DEFAULT_TOL, 0.0)[k % 4]
            report = Channel(DIAG3, p).verification
            assert report.positive == (p.min() >= -DEFAULT_TOL)
            assert report.choi_min_eigenvalue == p.min()
            assert report.evidence == ("choi" if report.positive
                                       else "unverified")

    def test_maps_that_are_not_cp_are_unverified(self):
        transpose = Channel(MULTI, transpose_superop(MULTI))
        half = Channel(MULTI, 0.5 * transpose_superop(MULTI))
        imaginary = scale_channel(identity_channel(MULTI), 1j)
        margins = [ch.verification.choi_min_eigenvalue
                   for ch in (transpose, half, imaginary)]
        assert margins[:2] == pytest.approx([-1.0, -0.5], abs=1e-12)
        assert margins[2] is None
        for ch in (transpose, half, imaginary):
            assert ch.verification.evidence == "unverified"
            assert not ch.verification.positive
            assert not ch.verification.is_ds_plus
        # the transpose fails positivity only
        assert transpose.verification.subunital
        assert transpose.verification.trace_nonincreasing

    @pytest.mark.parametrize("kind,algebra", KIND_CASES)
    def test_only_maps_without_kraus_data_build_choi_matrices(
            self, kind, algebra, monkeypatch):
        calls = []
        choi = dynamics._choi_min_eigenvalue

        def recording(*args):
            calls.append(kind)
            return choi(*args)

        monkeypatch.setattr(dynamics, "_choi_min_eigenvalue", recording)
        ch = channel_from_spec(algebra, kind_spec(kind, algebra,
                                                  stream(106, kind)))
        want = "choi" if "substochastic" in kind else "kraus"
        assert ch.verification.evidence == want
        assert len(calls) == (want == "choi")
        assert (ch.verification.choi_min_eigenvalue is None) == (
            want == "kraus")
        assert ch.verification.is_ds_plus


def certified_channels():
    """Kraus, convex and substochastic channels with margin > 0, all
    certified positive with r = sqrt(||T(1)|| ||T*(1)||) < 1."""
    rng = stream(100, "certified")
    out = []
    for algebra in (MULTI, DIAG3):
        for _ in range(2):
            kraus = random_kraus_channel(algebra, 3, rng, margin=0.05)
            mixture = random_unitary_mixture(algebra, 2, rng)
            out += [kraus, convex_combine([kraus, mixture], [0.5, 0.5])]
    out += [random_substochastic(DIAG3, rng) for _ in range(2)]
    return out


def dense_gap(eigs):
    outside = np.abs(eigs[np.abs(eigs - 1.0) > EIG_CLUSTER_TOL])
    return float(1.0 - outside.max()) if outside.size else 1.0


def forbid_eigvals(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense spectrum computed")

    monkeypatch.setattr(np.linalg, "eigvals", forbidden)


def counting_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


class TestCertifiedContraction:
    @pytest.mark.parametrize("index", range(len(certified_channels())))
    def test_counts_and_gap_match_dense_without_eigvals(self, index,
                                                        monkeypatch):
        ch = certified_channels()[index]
        eigs = np.linalg.eigvals(ch.superop)
        x = random_operator(ch.algebra, stream(101, "certified", index))
        forbid_eigvals(monkeypatch)
        assert ch.verification.evidence in ("kraus", "choi")
        assert np.abs(eigs).max() <= ch.spectral_radius_bound < 1.0
        assert ch.spectrum == "certified-contraction"
        for phase in PHASES:
            assert ch.eigenspace_dim(phase) == np.count_nonzero(
                np.abs(phase * eigs - 1.0) <= EIG_CLUSTER_TOL)
            assert rotated_fixed_point(ch, x, phase).uniform_norm() == 0.0
        assert fixed_point(ch, x).uniform_norm() == 0.0
        assert abs(ch.spectral_gap() - dense_gap(eigs)) <= 1e-12
        assert ch.spectrum == "certified-contraction"

    @pytest.mark.parametrize("case", ["unverified", "unital"])
    def test_other_maps_keep_the_dense_path(self, case, monkeypatch):
        if case == "unverified":
            # 0.5 transpose: r = 0.5, but not completely positive
            ch = Channel(MULTI, 0.5 * transpose_superop(MULTI), kind="custom")
            assert not ch.verification.positive
            assert ch.spectral_radius_bound is None
        else:
            ch = random_unitary_mixture(MULTI, 2, stream(102, "dense", case))
            assert ch.spectral_radius_bound >= 1.0 - EIG_CLUSTER_TOL
        calls = counting_eigvals(monkeypatch)
        assert ch.spectrum == "dense"
        gap = ch.spectral_gap()
        counts = [ch.eigenspace_dim(phase) for phase in PHASES]
        assert calls == [(MULTI.vec_dim, MULTI.vec_dim)]
        eigs = ch.eigenvalues()
        assert gap == dense_gap(eigs)
        assert counts == [int(np.count_nonzero(
            np.abs(phase * eigs - 1.0) <= EIG_CLUSTER_TOL))
            for phase in PHASES]

    def test_exhausted_restart_budget_falls_back(self, monkeypatch):
        ch = certified_channels()[0]
        want = dense_gap(np.linalg.eigvals(ch.superop))
        monkeypatch.setattr(dynamics, "_KRYLOV_DIM", 2)
        monkeypatch.setattr(dynamics, "_KRYLOV_RESTARTS", 1)
        assert dynamics._krylov_spectral_radius(
            ch._matvec(), MULTI.identity().vec()) is None
        calls = counting_eigvals(monkeypatch)
        assert abs(ch.spectral_gap() - want) <= 1e-12
        assert ch.spectral_gap() == dense_gap(ch.eigenvalues())
        assert calls == [(MULTI.vec_dim, MULTI.vec_dim)]
        assert ch.spectrum == "dense"
        assert ch.eigenspace_dim() == 0

    def test_restarts_reach_the_dense_gap(self, monkeypatch):
        # a 4-vector Krylov space needs many restarts on the 14-dimensional
        # MULTI maps, so the residual rule decides the accuracy
        channels = [ch for ch in certified_channels() if ch.algebra == MULTI]
        want = [dense_gap(np.linalg.eigvals(ch.superop)) for ch in channels]
        monkeypatch.setattr(dynamics, "_KRYLOV_DIM", 4)
        monkeypatch.setattr(dynamics, "_KRYLOV_RESTARTS", 200)
        forbid_eigvals(monkeypatch)
        for ch, gap in zip(channels, want):
            assert abs(ch.spectral_gap() - gap) <= 1e-12

    def test_invariant_krylov_space_is_exact(self, monkeypatch):
        # 0.5 T: the start vec(1) spans an invariant space at once
        ch = scale_channel(identity_channel(MULTI), 0.5)
        forbid_eigvals(monkeypatch)
        assert ch.spectral_gap() == 0.5
        zero = scale_channel(identity_channel(MULTI), 0.0)
        assert zero.spectral_gap() == 1.0


# the block sizes of the besicovitch benchmark workload
BLOCKS_16_8_4 = AlgebraSpec(((16, 1.0), (8, 0.5), (4, 2.0)))
# the 8th roots of unity and two irrational angles
RANGE_PHASES = tuple(np.exp(2j * np.pi * k / 8) for k in range(8)) + (
    np.exp(1j), np.exp(1j * np.sqrt(2)))
KRAUS_CASES = [(kind, algebra) for algebra in (MULTI, BLOCKS_16_8_4)
               for kind in CHANNEL_KINDS if "substochastic" not in kind]


def recording_range_check(monkeypatch):
    """Record (phase, verdict) of every numerical-range check."""
    seen = []
    check = Channel._numerical_range_excludes

    def recording(self, phase):
        seen.append((phase, check(self, phase)))
        return seen[-1][1]

    monkeypatch.setattr(Channel, "_numerical_range_excludes", recording)
    return seen


class TestNumericalRange:
    @pytest.mark.parametrize("kind,algebra", KRAUS_CASES)
    def test_never_contradicts_the_dense_count(self, kind, algebra):
        # a cleared phase has count 0; on this corpus the converse holds
        # too, so every count 0 is proved without the spectrum
        ch = channel_from_spec(algebra, kind_spec(kind, algebra,
                                                  stream(107, kind)))
        assert ch.kraus
        eigs = np.linalg.eigvals(ch.superop)
        want = [int(np.count_nonzero(np.abs(phase * eigs - 1.0)
                                     <= EIG_CLUSTER_TOL))
                for phase in RANGE_PHASES]
        cleared = [ch._numerical_range_excludes(phase)
                   for phase in RANGE_PHASES]
        assert cleared == [count == 0 for count in want]
        assert [ch.eigenspace_dim(phase) for phase in RANGE_PHASES] == want

    def test_unital_mixture_proves_empty_clusters_without_eigvals(
            self, monkeypatch):
        ch = random_unitary_mixture(MULTI, 2, stream(108, "range"))
        x = random_operator(MULTI, stream(109, "range"))
        assert ch.spectral_radius_bound >= 1.0 - EIG_CLUSTER_TOL
        forbid_eigvals(monkeypatch)
        for phase in (1j, -1.0, -1j):
            assert ch.eigenspace_dim(phase) == 0
            assert rotated_fixed_point(ch, x, phase).uniform_norm() == 0.0
        assert ch.spectrum == "numerical-range"

    @pytest.mark.parametrize("case", ["unitary", "mixture"])
    def test_a_refuted_phase_takes_eigvals_once(self, case, monkeypatch):
        rng = stream(110, "fallback", case)
        if case == "unitary":
            # phase*T has eigenvalue 1 at the conjugate of T's eigenvalue
            # farthest from 1; a factorization fails
            ch = unitary_conjugation(random_unitary_operator(MULTI, rng))
            eigs = np.linalg.eigvals(ch.superop)
            lam = eigs[np.argmax(np.abs(eigs - 1.0))]
            phase = np.conj(lam) / abs(lam)
        else:
            # T(1) = 1: vec(1) refutes every block before a factorization
            ch = random_unitary_mixture(MULTI, 2, rng)
            eigs = np.linalg.eigvals(ch.superop)
            phase = 1.0
        assert ch.spectral_radius_bound >= 1.0 - EIG_CLUSTER_TOL
        seen = recording_range_check(monkeypatch)
        factored = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(a):
            factored.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        calls = counting_eigvals(monkeypatch)
        assert ch.eigenspace_dim(phase) == np.count_nonzero(
            np.abs(phase * eigs - 1.0) <= EIG_CLUSTER_TOL) >= 1
        assert seen == [(phase, False)]
        assert bool(factored) == (case == "unitary")
        assert calls == [(MULTI.vec_dim, MULTI.vec_dim)]
        # the dense spectrum answers every later phase
        for later in PHASES:
            ch.eigenspace_dim(later)
        assert len(seen) == 1 and len(calls) == 1
        assert ch.spectrum == "dense"

    def test_substochastic_map_never_factors(self, monkeypatch):
        # the identity matrix: r = 1, and no Kraus data
        ch = substochastic(DIAG3, np.eye(3))
        assert ch.kraus is None
        assert ch.spectral_radius_bound == pytest.approx(1.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("Cholesky factorization computed")

        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        calls = counting_eigvals(monkeypatch)
        assert ch.eigenspace_dim(-1.0) == 0
        assert ch.eigenspace_dim(1.0) == 3
        assert calls == [(DIAG3.vec_dim, DIAG3.vec_dim)]
        assert ch.spectrum == "dense"


class TestKrausForm:
    """`dynamics._kraus_product` against the dense superoperator, and the
    spectral gap's Arnoldi on it."""

    @pytest.mark.parametrize("algebra", [
        MULTI, BLOCKS_16_8_4, AlgebraSpec(((2, 1.0), (2, 0.5)) * 3)])
    def test_product_equals_the_dense_product(self, algebra):
        rng = stream(104, "kraus-form", algebra.dims)
        kraus = random_kraus_channel(algebra, 3, rng)
        mixture = random_unitary_mixture(algebra, 3, rng)
        channels = [kraus, mixture, compose(kraus, mixture),
                    scale_channel(mixture, 0.5)]
        for ch in channels:
            product = dynamics._kraus_product(ch.algebra, ch.kraus)
            for _ in range(3):
                v = random_operator(algebra, rng).vec()
                want = ch.superop @ v
                assert (np.linalg.norm(product(v) - want)
                        <= 1e-13 * np.linalg.norm(want))

    @pytest.mark.parametrize("algebra,dense", [
        (AlgebraSpec(((20, 1.0),)), False), (BLOCKS_16_8_4, True),
        (MULTI, True), (AlgebraSpec(((1, 1.0),) * 96), True)])
    def test_certified_gap_takes_the_cheaper_product(self, algebra, dense,
                                                     monkeypatch):
        # 3 Kraus operators cost 2 * 3 * 20^3 multiply-adds and one
        # block's fixed cost against 400^2 dense on one 20x20 block; on
        # blocks (16, 8, 4) the fixed cost of three blocks, on MULTI the
        # 6 * 36 multiply-adds alone and on 96 blocks of size 1 the fixed
        # costs outweigh 336^2, 14^2 and 96^2
        class Counting(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counting.products += 1
                return np.asarray(self) @ other

        ch = random_kraus_channel(algebra, 3, stream(105, "kraus-form"),
                                  margin=0.05)
        want = dense_gap(np.linalg.eigvals(ch.superop))
        ch.superop = ch.superop.view(Counting)
        forbid_eigvals(monkeypatch)
        assert ch.spectrum == "certified-contraction"
        assert abs(ch.spectral_gap() - want) <= 1e-12
        assert (Counting.products > 0) == dense


class TestTrajectoryOracle:
    @pytest.mark.parametrize("family", ["certified", "unital"])
    def test_final_residual_matches_schur_oracle(self, family):
        rng = stream(103, "trajectory", family)
        if family == "certified":
            ch = random_kraus_channel(MULTI, 3, rng, margin=0.05)
        else:
            ch = random_unitary_mixture(MULTI, 2, rng)
        x = random_operator(MULTI, rng)
        horizon = 64
        norms = (Uniform(), Lp(2.0), Lorentz(3.0, 2.0))
        report = trajectory(ch, x, horizon, norms)
        proj = schur_projection(ch.superop)
        assert np.any(proj) == (family == "unital")
        limit = Operator.from_vec(MULTI, proj @ x.vec())
        final = average(ch, x, horizon)
        assert report.schedule[-1] == horizon
        diff = limit - final
        want = {"inf": diff.uniform_norm(), "L2": lp_norm(diff, 2.0),
                "L(3,2)": Lorentz(3.0, 2.0).value(singular_function(diff))}
        assert set(want) == {spec.label for spec in norms}
        for label, value in want.items():
            assert report.residuals[label][-1] == pytest.approx(
                value, rel=1e-9, abs=1e-12)


def kron_superop(algebra, ops):
    """Superoperator of x -> sum_k a_k x a_k* by the np.kron formula: one
    d^2 x d^2 temporary per Kraus term and block, added into zeros."""
    n = algebra.vec_dim
    out = np.zeros((n, n), dtype=complex)
    for i, (off, d) in enumerate(zip(algebra.block_offsets(), algebra.dims)):
        sl = slice(off, off + d * d)
        for a in ops:
            out[sl, sl] += np.kron(a.block(i), a.block(i).conj())
    return out


def summed_superop(algebra, spec, run_seed):
    """Oracle superoperator of `spec`: `kron_superop` for Kraus data,
    sum(p * S) for mixtures, whole-matrix products for `compose` and
    `scaled`.  The Kraus operators are the constructor's, which this does
    not test, except that a unitary mixture redraws its unitaries."""
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(algebra.vec_dim, dtype=complex)
    if kind == "unitary-mixture":
        rng = stream(run_seed, "unitary-mixture", spec.get("seed", 0))
        num = int(spec.get("num", 3))
        parts = [kron_superop(algebra,
                              [random_unitary_operator(algebra, rng).adjoint()])
                 for _ in range(num)]
        return sum(p * s for p, s in zip(np.full(num, 1.0 / num), parts))
    if kind == "convex":
        probabilities = np.asarray(spec["probabilities"], dtype=float)
        return sum(p * summed_superop(algebra, child, run_seed)
                   for p, child in zip(probabilities, spec["children"]))
    if kind == "compose":
        outer, inner = (summed_superop(algebra, child, run_seed)
                        for child in spec["children"])
        return outer @ inner
    if kind == "scaled":
        re, im = spec["factor"]
        return complex(re, im) * summed_superop(algebra, spec["child"],
                                                run_seed)
    return kron_superop(algebra, channel_from_spec(algebra, spec,
                                                   run_seed).kraus)


BLOCK3 = AlgebraSpec(((4, 1.0), (3, 0.5), (2, 2.0)))
BUILT_KINDS = ("kraus", "pinching", "schur", "unitary", "unitary-mixture",
               "convex", "compose", "scaled")
# a mixture whose second child has no Kraus data, and a nested mixture
MIXED_CONVEX = {"kind": "convex", "probabilities": [0.25, 0.5, 0.25],
                "children": [{"kind": "random-kraus", "seed": 1},
                             {"kind": "scaled", "child": {"kind": "unitary"},
                              "factor": [0.5, 0.5]},
                             {"kind": "convex", "probabilities": [0.5, 0.5],
                              "children": [{"kind": "identity"},
                                           {"kind": "unitary-mixture"}]}]}
# children that are -0.0 off their blocks: the sum starts from +0, so
# the mixture is +0.0 there
NEGATIVE_CONVEX = {"kind": "convex", "probabilities": [0.5, 0.5],
                   "children": [{"kind": "scaled", "factor": [-0.5, 0.0],
                                 "child": {"kind": "unitary"}},
                                {"kind": "scaled", "factor": [-1.0, 0.0],
                                 "child": {"kind": "random-kraus"}}]}


def traced_peak(build):
    """(build(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestOneSuperoperatorBuild:
    @pytest.mark.parametrize("algebra", [MULTI, BLOCK3])
    @pytest.mark.parametrize("kind", BUILT_KINDS)
    def test_bytes_equal_kron_and_sum_oracle(self, kind, algebra):
        for run_seed in (0, 7):
            spec = kind_spec(kind, algebra, stream(run_seed, "bytes", kind))
            ch = channel_from_spec(algebra, spec, run_seed)
            want = summed_superop(algebra, spec, run_seed)
            assert ch.superop.tobytes() == want.tobytes()

    @pytest.mark.parametrize("algebra", [MULTI, BLOCK3])
    @pytest.mark.parametrize("spec", [MIXED_CONVEX, NEGATIVE_CONVEX])
    def test_convex_without_kraus_data_bytes(self, spec, algebra):
        ch = channel_from_spec(algebra, spec, 3)
        assert ch.kraus is None
        want = summed_superop(algebra, spec, 3)
        assert ch.superop.tobytes() == want.tobytes()

    def test_generator_and_list_give_the_same_mixture(self):
        def parts():
            rng = stream(9, "parts")
            return [random_kraus_channel(BLOCK3, 2, rng),
                    unitary_conjugation(random_unitary_operator(BLOCK3, rng)),
                    identity_channel(BLOCK3)]
        probabilities = [0.2, 0.3, 0.5]
        listed = convex_combine(parts(), probabilities)
        streamed = convex_combine(iter(parts()), probabilities)
        assert listed.superop.tobytes() == streamed.superop.tobytes()
        assert len(listed.kraus) == len(streamed.kraus) == 4

    def test_kraus_build_holds_one_superoperator(self):
        algebra = AlgebraSpec(((28, 1.0),))
        random_kraus_channel(M2, 3, stream(1, "warm"))
        ch, peak = traced_peak(
            lambda: random_kraus_channel(algebra, 3, stream(2, "peak")))
        assert ch.superop.nbytes == 784 ** 2 * 16
        assert peak <= 1.25 * ch.superop.nbytes

    def test_mixture_build_holds_two_superoperators(self):
        algebra = AlgebraSpec(((16, 1.0), (8, 0.5), (4, 2.0)))
        random_unitary_mixture(M2, 3, stream(1, "warm"))
        ch, peak = traced_peak(
            lambda: random_unitary_mixture(algebra, 3, stream(4, "peak")))
        assert ch.kind == "convex" and len(ch.kraus) == 3
        assert peak <= 2.5 * ch.superop.nbytes

    def test_callers_writeable_array_is_copied(self):
        mine = np.eye(4, dtype=complex)
        ch = Channel(M2, mine)
        assert mine.flags.writeable
        assert not np.shares_memory(ch.superop, mine)
        mine[0, 0] = 5.0
        assert ch.superop[0, 0] == 1.0
        assert not ch.superop.flags.writeable

    def test_read_only_complex_array_is_kept(self):
        frozen = np.eye(4, dtype=complex)
        frozen.flags.writeable = False
        assert Channel(M2, frozen).superop is frozen
        # another dtype, a Fortran-ordered array or a read-only view of a
        # writeable array is copied, read-only
        writeable = np.eye(4, dtype=complex)
        for other in (np.eye(4), np.asfortranarray(frozen + 1j * frozen.T),
                      writeable[:]):
            other.flags.writeable = False
            kept = Channel(M2, other).superop
            assert kept is not other and not kept.flags.writeable
            assert kept.dtype == complex and np.array_equal(kept, other)

    def test_derived_channels_hold_one_new_superoperator(self):
        algebra = AlgebraSpec(((16, 1.0),))
        a = random_kraus_channel(algebra, 2, stream(5, "own"))
        for build in (lambda: scale_channel(a, 0.5), lambda: compose(a, a),
                      lambda: identity_channel(algebra)):
            ch, peak = traced_peak(build)
            assert not ch.superop.flags.writeable
            assert peak <= 1.25 * ch.superop.nbytes, ch.kind

    def test_ragged_superoperator_is_a_construction_error(self):
        with pytest.raises(ChannelConstructionError, match="superoperator"):
            Channel(M2, [[1, 2], [3]])

    def test_convex_refuses_another_algebra_of_equal_size(self):
        diag4 = AlgebraSpec(((1, 1.0),) * 4)
        assert diag4.vec_dim == M2.vec_dim
        for children in ([identity_channel(diag4), identity_channel(M2)],
                         (identity_channel(a) for a in (M2, diag4))):
            with pytest.raises(ChannelConstructionError,
                               match="different algebras"):
                convex_combine(children, [0.5, 0.5])

    @pytest.mark.parametrize("count, probabilities", [
        (0, []), (0, [1.0]), (2, [0.5, 0.25, 0.25]), (3, [0.5, 0.5]),
        (1, [])])
    def test_convex_counts_generator_input(self, count, probabilities):
        for children in ([identity_channel(M2)] * count,
                         (identity_channel(M2) for _ in range(count))):
            with pytest.raises(ChannelConstructionError, match="matching"):
                convex_combine(children, probabilities)
