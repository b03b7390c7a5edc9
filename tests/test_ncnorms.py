import numpy as np
import pytest
from scipy.integrate import quad

from ncergodic.algebra import AlgebraSpec, Operator
from ncergodic.errors import UnsupportedNormError
from ncergodic.ncnorms import (SingularFunction, lorentz_norm, lp_norm,
                               measure_distance, projection_lorentz_norm,
                               singular_function, submajorizes)
from ncergodic.rng import random_operator, stream

M2 = AlgebraSpec(((2, 1.0),))
WEIGHTED = AlgebraSpec(((1, 0.5), (1, 1.5)))
MIXED = AlgebraSpec(((3, 1.0), (2, 0.5)))


def diag(values, algebra=M2):
    return Operator(algebra, [np.diag(np.asarray(values, dtype=complex))])


def quad_lorentz(sf: SingularFunction, p, q):
    """Independent quadrature oracle for the Lorentz integral."""
    total = 0.0
    for k in range(sf.values.size):
        a, b, v = sf.bounds[k], sf.bounds[k + 1], sf.values[k]
        piece, _ = quad(lambda t: (t ** (1.0 / p) * v) ** q / t, a, b,
                        points=None, limit=200)
        total += piece
    return total ** (1.0 / q)


class TestSingularFunction:
    def test_identity_m2(self):
        sf = singular_function(M2.identity())
        assert sf.to_csv_rows() == [(0.0, 1.0)]
        assert sf.total_support == pytest.approx(2.0)

    def test_diag_standard(self):
        sf = singular_function(diag([3, 1]))
        assert sf.to_csv_rows() == [(0.0, 3.0), (1.0, 1.0)]

    def test_diag_weighted(self):
        x = Operator(WEIGHTED, [np.array([[3.0]]), np.array([[1.0]])])
        sf = singular_function(x)
        # threshold enumeration of the inf definition:
        # tau(e_lam_perp) jumps at the weights 0.5 and 2.0
        assert sf.to_csv_rows() == [(0.0, 3.0), (0.5, 1.0)]

    def test_right_continuity_at_breakpoints(self):
        sf = singular_function(diag([3, 1]))
        assert sf.mu(1.0) == pytest.approx(1.0)   # right-hand value
        assert sf.mu(0.999999) == pytest.approx(3.0)
        assert sf.mu(2.0) == 0.0

    def test_monotone_nonincreasing(self):
        rng = stream(40, "mu")
        for _ in range(10):
            x = random_operator(MIXED, rng)
            sf = singular_function(x)
            grid = np.linspace(0, sf.total_support * 1.1, 101)
            vals = sf.mu(grid)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_support_bounded_by_total_trace(self):
        rng = stream(41, "mu")
        x = random_operator(MIXED, rng)
        assert singular_function(x).total_support <= MIXED.total_trace + 1e-12


class TestLpNorm:
    def test_direct_formula(self):
        assert lp_norm(diag([3, 1]), 2) == pytest.approx(np.sqrt(10))

    def test_mu_integral_cross_check(self):
        x = diag([3, 1])
        sf = singular_function(x)
        assert sf.lp_norm(2) ** 2 == pytest.approx(10.0, abs=1e-10)
        assert lp_norm(x, 2) == pytest.approx(sf.lp_norm(2), abs=1e-10)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_triangle_inequality(self, p):
        rng = stream(42, "lp", p)
        for _ in range(10):
            x = random_operator(MIXED, rng)
            y = random_operator(MIXED, rng)
            assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-10

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_routes_agree_random(self, p):
        rng = stream(43, "lp", p)
        for _ in range(10):
            x = random_operator(MIXED, rng)
            assert lp_norm(x, p) == pytest.approx(
                singular_function(x).lp_norm(p), abs=1e-10)

    def test_infinity_matches_uniform(self):
        rng = stream(44, "lp")
        x = random_operator(MIXED, rng)
        assert lp_norm(x, np.inf) == pytest.approx(x.uniform_norm())

    def test_rejects_small_p(self):
        with pytest.raises(UnsupportedNormError):
            lp_norm(M2.identity(), 0.5)

    def test_invariances(self):
        rng = stream(45, "lp")
        x = random_operator(MIXED, rng)
        blocks = []
        for b in x.blocks:  # |x| = (x* x)^(1/2) from the SVD of x
            _, sv, vh = np.linalg.svd(b)
            blocks.append((vh.conj().T * sv) @ vh)
        abs_x = Operator(MIXED, blocks)
        for p in (1, 2, 3):
            assert lp_norm(x.adjoint(), p) == pytest.approx(lp_norm(x, p),
                                                            abs=1e-10)
            assert lp_norm(abs_x, p) == pytest.approx(lp_norm(x, p),
                                                      abs=1e-10)


class TestLorentzNorm:
    def test_projection_value(self):
        e = diag([1, 0])
        assert lorentz_norm(e, 2, 1) == pytest.approx(2.0, abs=1e-12)

    def test_pp_equals_lp(self):
        assert lorentz_norm(diag([3, 1]), 2, 2) == pytest.approx(
            np.sqrt(10), abs=1e-10)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (1.5, 1), (2, 3)])
    def test_closed_form_matches_quadrature(self, p, q):
        rng = stream(46, "lorentz", p, q)
        for _ in range(5):
            x = random_operator(MIXED, rng)
            sf = singular_function(x)
            assert lorentz_norm(x, p, q) == pytest.approx(
                quad_lorentz(sf, p, q), abs=1e-10)

    def test_rank_one_projection_weighted(self):
        for t0, p, q in [(0.5, 2, 1), (1.5, 3, 2), (0.25, 1.5, 1)]:
            alg = AlgebraSpec(((1, t0),))
            e = Operator(alg, [np.array([[1.0]])])
            expected = (p / q) ** (1.0 / q) * t0 ** (1.0 / p)
            assert lorentz_norm(e, p, q) == pytest.approx(expected,
                                                          abs=1e-10)
            assert projection_lorentz_norm(t0, p, q) == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 1.5)])
    def test_rejects_unsupported_region(self, p, q):
        with pytest.raises(UnsupportedNormError):
            lorentz_norm(M2.identity(), p, q)

    def test_equivalent_norm_rejected_for_p_below_q(self):
        with pytest.raises(UnsupportedNormError):
            lorentz_norm(M2.identity(), 2, 3, variant="norm")
        # where the quasi-norm is a norm the variant is allowed
        assert lorentz_norm(M2.identity(), 3, 2, variant="norm") == \
            pytest.approx(lorentz_norm(M2.identity(), 3, 2))

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_pp_equals_lp_random(self, p):
        rng = stream(47, "lorentz", p)
        for _ in range(5):
            x = random_operator(MIXED, rng)
            assert lorentz_norm(x, p, p) == pytest.approx(lp_norm(x, p),
                                                          abs=1e-10)


class TestSubmajorization:
    def test_reflexive(self):
        rng = stream(48, "submaj")
        x = random_operator(MIXED, rng)
        assert submajorizes(x, x)

    def test_worked_example(self):
        x, y = diag([3, 1]), diag([2, 2])
        assert singular_function(x).cumulative(1.0) == pytest.approx(3.0)
        assert singular_function(x).cumulative(2.0) == pytest.approx(4.0)
        assert submajorizes(x, y)
        assert not submajorizes(y, x)

    def test_hardy_littlewood_monotone(self):
        # y's values are a doubly-substochastic mix of x's, so x
        # submajorizes y and every (q <= p) Lorentz norm must shrink
        rng = stream(49, "submaj")
        n = 6
        alg = AlgebraSpec(((1, 1.0),) * n)
        for _ in range(20):
            xv = np.sort(rng.random(n))[::-1] * 3.0
            perms = [rng.permutation(n) for _ in range(4)]
            probs = rng.dirichlet(np.ones(4))
            ds = sum(prob * np.eye(n)[perm] for prob, perm in zip(probs, perms))
            shrink = rng.uniform(0.2, 1.0, size=n)
            yv = shrink * (ds @ xv)
            x = alg.diagonal(xv)
            y = alg.diagonal(yv)
            assert submajorizes(x, y)
            for p, q in [(2, 1), (3, 2), (2, 2)]:
                assert lorentz_norm(y, p, q) <= lorentz_norm(x, p, q) + 1e-10


class TestMeasureMetric:
    def test_zero_distance(self):
        rng = stream(51, "metric")
        x = random_operator(MIXED, rng)
        assert measure_distance(x, x) == 0.0

    def test_small_difference_equals_uniform_norm(self):
        # below the first trace weight the crossing happens at ||diff||
        x = diag([0.3, 0.1])
        assert measure_distance(x, M2.zero()) == pytest.approx(0.3)

    def test_triangle_inequality(self):
        rng = stream(52, "metric")
        for _ in range(20):
            x = random_operator(MIXED, rng)
            y = random_operator(MIXED, rng)
            z = random_operator(MIXED, rng)
            assert measure_distance(x, z) <= measure_distance(x, y) + \
                measure_distance(y, z) + 1e-12

    def test_bounded_by_support(self):
        # a huge difference saturates at the support length, not the norm
        x = diag([100.0, 50.0])
        assert measure_distance(x, M2.zero()) == pytest.approx(2.0)
