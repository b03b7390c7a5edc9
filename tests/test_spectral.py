import numpy as np
import pytest

from ncergodic.algebra import AlgebraSpec, Operator, Projection
from ncergodic.errors import NotHermitianError
from ncergodic.rng import random_operator, random_projection, stream
from ncergodic.spectral import eigh, positive_power, projection_meet

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
            total = MIXED.zero()
            for lam, proj in zip(dec.eigenvalues, dec.projections):
                total = total + proj.operator * lam
            assert total.allclose(x, tol=1e-10)

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
        # on indicators: 1_{A and B}(x) = 1_A(x) 1_B(x)
        rng = stream(22, "eigh")
        f = lambda t: t > -0.5
        g = lambda t: t < 0.8
        for _ in range(5):
            dec = eigh(herm(MIXED, rng))
            lhs = dec.projection_where(lambda t: f(t) and g(t))
            rhs = dec.projection_where(f).operator @ \
                dec.projection_where(g).operator
            assert lhs.operator.allclose(rhs, tol=1e-10)

    def test_degenerate_clustering(self):
        # identical eigenvalues across blocks merge into one projection
        dec = eigh(MIXED.identity())
        assert len(dec.projections) == 1
        assert dec.projections[0].operator.allclose(MIXED.identity())


class TestSpectralProjection:
    def test_interval(self):
        x = Operator(M2, [np.diag([3.0, 1.0]).astype(complex)])
        e = eigh(x).projection_where(lambda t: 0.0 <= t <= 2.0)
        assert e.operator.allclose(
            Operator(M2, [np.diag([0.0, 1.0]).astype(complex)]), tol=1e-12)

    def test_whole_line(self):
        rng = stream(24, "proj")
        x = herm(MIXED, rng)
        assert eigh(x).projection_where(lambda t: True).operator.allclose(
            MIXED.identity(), tol=1e-12)

    def test_chebyshev(self):
        rng = stream(25, "proj")
        for _ in range(10):
            x = herm(MIXED, rng)
            eps = 0.5
            dec = eigh(x)
            e = dec.projection_where(lambda t: t > eps)
            positive_trace = sum(max(lam, 0.0) * proj.trace() for lam, proj
                                 in zip(dec.eigenvalues, dec.projections))
            assert e.trace() <= positive_trace / eps + 1e-10

    def test_complementary_intervals(self):
        rng = stream(26, "proj")
        x = herm(MIXED, rng)
        cut = 0.3
        low = eigh(x).projection_where(lambda t: t <= cut)
        high = eigh(x).projection_where(lambda t: t > cut)
        assert (low.operator + high.operator).allclose(MIXED.identity(),
                                                       tol=1e-10)

    def test_commutes_with_input(self):
        rng = stream(27, "proj")
        x = herm(MIXED, rng)
        e = eigh(x).projection_where(lambda t: t >= 0.0)
        comm = x @ e.operator - e.operator @ x
        assert comm.uniform_norm() < 1e-9


class TestPositivePower:
    def test_matches_eigenvalues(self):
        x = Operator(M2, [np.diag([4.0, 9.0]).astype(complex)])
        assert positive_power(x, 0.5).allclose(
            Operator(M2, [np.diag([2.0, 3.0]).astype(complex)]), tol=1e-12)


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
        total = e.operator + e.complement().operator
        assert total.allclose(MIXED.identity(), tol=1e-10)
