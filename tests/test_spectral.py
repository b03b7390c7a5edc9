import numpy as np
import pytest

from ncergodic.algebra import AlgebraSpec, Operator, Projection
from ncergodic.errors import NotHermitianError, NotPositiveError
from ncergodic.rng import random_operator, random_projection, stream
from ncergodic.spectral import (abs_value, eigh, positive_power,
                                projection_complement, projection_meet,
                                spectral_cutoff, spectral_projection,
                                truncate_hermitian)

M2 = AlgebraSpec(((2, 1.0),))
MIXED = AlgebraSpec(((3, 1.0), (2, 0.5)))


def herm(algebra, rng):
    return random_operator(algebra, rng, kind="hermitian")


class TestEigh:
    def test_diagonal(self):
        x = Operator(M2, [np.diag([3.0, 1.0]).astype(complex)])
        dec = eigh(x)
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_flip(self):
        x = Operator(M2, [np.array([[0, 1], [1, 0]], dtype=complex)])
        dec = eigh(x)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_rejects_non_hermitian(self):
        x = Operator(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(NotHermitianError):
            eigh(x)

    def test_reconstruction(self):
        rng = stream(20, "eigh")
        for _ in range(10):
            x = herm(MIXED, rng)
            dec = eigh(x)
            assert dec.reconstruct().allclose(x, tol=1e-10)

    def test_projections_resolve_identity(self):
        rng = stream(21, "eigh")
        x = herm(MIXED, rng)
        dec = eigh(x)
        total = MIXED.zero()
        for proj in dec.projections:
            total = total + proj.operator
        assert total.allclose(MIXED.identity(), tol=1e-10)
        for i, p in enumerate(dec.projections):
            for q in dec.projections[i + 1:]:
                assert (p.operator @ q.operator).uniform_norm() < 1e-10

    def test_functional_calculus_homomorphism(self):
        rng = stream(22, "eigh")
        f = lambda t: t ** 2 - 1.0
        g = lambda t: 2.0 * t + 0.5
        for _ in range(5):
            x = herm(MIXED, rng)
            dec = eigh(x)
            lhs = dec.apply(lambda t: f(t) * g(t))
            rhs = dec.apply(f) @ dec.apply(g)
            assert lhs.allclose(rhs, tol=1e-10)

    def test_degenerate_clustering(self):
        # identical eigenvalues across blocks merge into one projection
        dec = eigh(MIXED.identity())
        assert len(dec.projections) == 1
        assert dec.projections[0].operator.allclose(MIXED.identity())


class TestAbsValue:
    def test_nilpotent(self):
        x = Operator(M2, [np.array([[0, 2], [0, 0]], dtype=complex)])
        assert abs_value(x).allclose(
            Operator(M2, [np.diag([0.0, 2.0]).astype(complex)]), tol=1e-12)

    def test_hermitian_spectrum_folds(self):
        x = Operator(M2, [np.diag([-1.0, 2.0]).astype(complex)])
        assert np.allclose(np.linalg.eigvalsh(abs_value(x).block(0)),
                           [1.0, 2.0])

    def test_square_identity(self):
        rng = stream(23, "abs")
        for _ in range(10):
            x = random_operator(MIXED, rng)
            ax = abs_value(x)
            assert (ax @ ax).trace() == pytest.approx(
                (x.adjoint() @ x).trace(), abs=1e-10)
            assert ax.uniform_norm() == pytest.approx(x.uniform_norm(),
                                                      abs=1e-10)
            assert ax.is_positive()


class TestSpectralProjection:
    def test_interval(self):
        x = Operator(M2, [np.diag([3.0, 1.0]).astype(complex)])
        e = spectral_projection(x, 0.0, 2.0)
        assert e.operator.allclose(
            Operator(M2, [np.diag([0.0, 1.0]).astype(complex)]), tol=1e-12)

    def test_whole_line(self):
        rng = stream(24, "proj")
        x = herm(MIXED, rng)
        assert spectral_projection(x).operator.allclose(MIXED.identity(),
                                                        tol=1e-12)

    def test_chebyshev(self):
        rng = stream(25, "proj")
        for _ in range(10):
            x = herm(MIXED, rng)
            eps = 0.5
            e = spectral_projection(x, eps, None, closed_lower=False)
            positive_part = eigh(x).apply(lambda t: max(t, 0.0))
            assert e.trace() <= positive_part.trace().real / eps + 1e-10

    def test_complementary_intervals(self):
        rng = stream(26, "proj")
        x = herm(MIXED, rng)
        cut = 0.3
        low = spectral_projection(x, None, cut, closed_upper=True)
        high = spectral_projection(x, cut, None, closed_lower=False)
        assert (low.operator + high.operator).allclose(MIXED.identity(),
                                                       tol=1e-10)

    def test_commutes_with_input(self):
        rng = stream(27, "proj")
        x = herm(MIXED, rng)
        e = spectral_projection(x, 0.0, None)
        comm = x @ e.operator - e.operator @ x
        assert comm.uniform_norm() < 1e-9


class TestSpectralCutoff:
    def test_worked_example(self):
        x = Operator(M2, [np.diag([3.0, 1.0]).astype(complex)])
        x_eps, cert = spectral_cutoff(x, 2.0, 2.0)
        assert x_eps.allclose(
            Operator(M2, [np.diag([0.0, 1.0]).astype(complex)]), tol=1e-12)
        assert cert.satisfied

    def test_large_eps_keeps_everything(self):
        rng = stream(28, "cutoff")
        x = random_operator(MIXED, rng, kind="positive")
        x_eps, cert = spectral_cutoff(x, x.uniform_norm() + 1.0, 3.0)
        assert x_eps.allclose(x, tol=1e-12)
        assert cert.satisfied

    def test_small_eps_invertible(self):
        x = Operator(M2, [np.diag([2.0, 0.5]).astype(complex)])
        x_eps, cert = spectral_cutoff(x, 1e-6, 2.0)
        assert x_eps.uniform_norm() < 1e-12
        assert cert.satisfied  # lam <= eps^(1-p) lam^p for lam >= eps

    def test_rejects_non_positive(self):
        x = Operator(M2, [np.diag([-1.0, 1.0]).astype(complex)])
        with pytest.raises(NotPositiveError):
            spectral_cutoff(x, 1.0, 2.0)

    def test_order_bound_random(self):
        rng = stream(29, "cutoff")
        for _ in range(10):
            x = random_operator(MIXED, rng, kind="positive")
            _, cert = spectral_cutoff(x, 0.8, 1.5)
            assert cert.satisfied


class TestPositivePower:
    def test_matches_eigenvalues(self):
        x = Operator(M2, [np.diag([4.0, 9.0]).astype(complex)])
        assert positive_power(x, 0.5).allclose(
            Operator(M2, [np.diag([2.0, 3.0]).astype(complex)]), tol=1e-12)


class TestTruncateHermitian:
    def test_drops_large_eigenvalues(self):
        x = Operator(M2, [np.diag([3.0, -1.0]).astype(complex)])
        assert truncate_hermitian(x, 2.0).allclose(
            Operator(M2, [np.diag([0.0, -1.0]).astype(complex)]), tol=1e-12)

    def test_noop_above_norm(self):
        rng = stream(30, "trunc")
        x = herm(MIXED, rng)
        assert truncate_hermitian(x, x.uniform_norm() + 1.0).allclose(
            x, tol=1e-10)


class TestProjectionLattice:
    def test_meet_with_identity(self):
        rng = stream(31, "meet")
        e = random_projection(MIXED, rng)
        met = projection_meet(e, Projection.identity(MIXED))
        assert met.operator.allclose(e.operator, tol=1e-9)

    def test_orthogonal_rank_ones(self):
        e = Projection(Operator(M2, [np.diag([1.0, 0.0]).astype(complex)]))
        f = Projection(Operator(M2, [np.diag([0.0, 1.0]).astype(complex)]))
        assert projection_meet(e, f).rank() == 0

    def test_defect_subadditive(self):
        rng = stream(32, "meet")
        for _ in range(10):
            e = random_projection(MIXED, rng)
            f = random_projection(MIXED, rng)
            meet = projection_meet(e, f)
            assert meet.defect() <= e.defect() + f.defect() + 1e-9

    def test_idempotent_commutative_dominated(self):
        rng = stream(33, "meet")
        e = random_projection(MIXED, rng)
        f = random_projection(MIXED, rng)
        ef = projection_meet(e, f)
        fe = projection_meet(f, e)
        assert ef.operator.allclose(fe.operator, tol=1e-9)
        assert projection_meet(ef, ef).operator.allclose(ef.operator,
                                                         tol=1e-9)
        # dominated by both arguments in operator order
        for other in (e, f):
            diff = other.operator - ef.operator
            assert min(np.linalg.eigvalsh(b).min() if b.size else 0.0
                       for b in diff.blocks) > -1e-9

    def test_complement(self):
        rng = stream(34, "meet")
        e = random_projection(MIXED, rng)
        total = e.operator + projection_complement(e).operator
        assert total.allclose(MIXED.identity(), tol=1e-10)
