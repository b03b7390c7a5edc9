import numpy as np
import pytest
from scipy.integrate import quad

from ncergodic.algebra import AlgebraSpec, Operator
from ncergodic.errors import UnsupportedNormError
from ncergodic.ncnorms import (NORM_KINDS, Lorentz, Lp, Measure,
                               SingularFunction, Uniform, lp_norm,
                               norm_from_json, singular_function)
from ncergodic.rng import random_operator, stream

M2 = AlgebraSpec(((2, 1.0),))
WEIGHTED = AlgebraSpec(((1, 0.5), (1, 1.5)))
MIXED = AlgebraSpec(((3, 1.0), (2, 0.5)))


def diag(values, algebra=M2):
    return Operator(algebra, [np.diag(np.asarray(values, dtype=complex))])


def lorentz_norm(x, p, q):
    return Lorentz(p, q).value(singular_function(x))


def cumulative(sf: SingularFunction, s):
    """Exact integral of mu over (0, s]."""
    if s <= 0:
        return 0.0
    return float(np.dot(sf.values, np.diff(np.minimum(sf.bounds, s))))


def submajorizes(x: Operator, y: Operator) -> bool:
    """Oracle for the submajorization order: True iff integral_0^s mu(y)
    <= integral_0^s mu(x) for all s > 0.

    Both cumulatives are piecewise linear with kinks only at the two
    breakpoint sets, so checking the union of breakpoints (plus the far
    end) is exact, up to an absolute 1e-12.
    """
    mx, my = singular_function(x), singular_function(y)
    points = np.union1d(mx.bounds, my.bounds)
    points = points[points > 0]
    far = max(mx.total_support, my.total_support, 1.0)
    points = np.append(points, far)
    return all(cumulative(my, s) <= cumulative(mx, s) + 1e-12
               for s in points)


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
        assert sf.values.tolist() == [1.0]
        assert sf.bounds.tolist() == [0.0, 2.0]
        assert sf.total_support == pytest.approx(2.0)

    def test_diag_standard(self):
        sf = singular_function(diag([3, 1]))
        assert sf.values.tolist() == [3.0, 1.0]
        assert sf.bounds.tolist() == [0.0, 1.0, 2.0]

    def test_diag_weighted(self):
        x = Operator(WEIGHTED, [np.array([[3.0]]), np.array([[1.0]])])
        sf = singular_function(x)
        # threshold enumeration of the inf definition:
        # tau(e_lam_perp) jumps at the weights 0.5 and 2.0
        assert sf.values.tolist() == [3.0, 1.0]
        assert sf.bounds.tolist() == [0.0, 0.5, 2.0]

    def test_right_continuity_at_breakpoints(self):
        # values[k] holds on [bounds[k], bounds[k+1]): mu(1) = 1 is the
        # right-hand value, and mu = 0 from t = 2 on
        sf = singular_function(diag([3, 1]))
        assert sf.bounds.tolist() == [0.0, 1.0, 2.0]
        assert sf.values.tolist() == [3.0, 1.0]

    def test_monotone_nonincreasing(self):
        rng = stream(40, "mu")
        for _ in range(10):
            x = random_operator(MIXED, rng)
            sf = singular_function(x)
            assert np.all(np.diff(sf.values) < 0)
            assert np.all(sf.values > 0)
            assert np.all(np.diff(sf.bounds) > 0)

    def test_support_bounded_by_total_trace(self):
        rng = stream(41, "mu")
        x = random_operator(MIXED, rng)
        total_trace = sum(d * w for d, w in MIXED.blocks)
        assert singular_function(x).total_support <= total_trace + 1e-12

    def test_construction_sorts_and_merges(self):
        # 1, 3, 1 on unit steps -> 3 on [0, 1), 1 on [1, 3)
        sf = SingularFunction([1.0, 3.0, 1.0], [1.0, 1.0, 1.0])
        assert sf.values.tolist() == [3.0, 1.0]
        assert sf.bounds.tolist() == [0.0, 1.0, 3.0]

    def test_construction_drops_zero_steps(self):
        sf = SingularFunction([2.0, 0.0, 1.0], [1.0, 5.0, 0.0])
        assert sf.values.tolist() == [2.0]
        assert sf.bounds.tolist() == [0.0, 1.0]
        assert sf.total_support == 1.0

    def test_construction_is_equimeasurable(self):
        # sorting and merging keep the distribution: the integral of mu
        # and of mu^2 equal the step sums of the unsorted input
        rng = stream(44, "mu")
        for _ in range(20):
            m = int(rng.integers(1, 7))
            values = rng.uniform(0.0, 2.0, size=m)
            lengths = rng.uniform(0.0, 10.0, size=m)
            sf = SingularFunction(values, lengths)
            assert sf.lp_norm(1) == pytest.approx(
                np.sum(values * lengths), rel=1e-12)
            assert sf.lp_norm(2) ** 2 == pytest.approx(
                np.sum(values ** 2 * lengths), rel=1e-12)
            assert sf.total_support == pytest.approx(
                np.sum(lengths[values > 0]), rel=1e-12)

    @pytest.mark.parametrize("values,lengths", [
        ([1.0, 2.0], [1.0, -1.0]), ([-1.0], [1.0]), ([1.0], [1.0, 2.0])])
    def test_construction_rejects_malformed_steps(self, values, lengths):
        with pytest.raises(ValueError):
            SingularFunction(values, lengths)


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
            assert Lorentz(p, q).fundamental(t0) == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 1.5), (0.5, 1), (2, 0.5),
                                     (np.inf, 1), (2, np.nan)])
    def test_rejects_unsupported_region(self, p, q):
        # refused once, when the kind is built
        with pytest.raises(UnsupportedNormError):
            Lorentz(p, q)

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
        assert cumulative(singular_function(x), 1.0) == pytest.approx(3.0)
        assert cumulative(singular_function(x), 2.0) == pytest.approx(4.0)
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


def measure_distance(x, y):
    return Measure().value(singular_function(x - y))


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


class TestKinds:
    def test_from_json_reads_only_the_kinds_own_fields(self):
        assert norm_from_json({"kind": "uniform", "p": 2}) == Uniform()
        assert norm_from_json({"kind": "lp", "p": 2, "q": 3}) == Lp(2)
        assert norm_from_json({"kind": "lorentz", "p": 3, "q": 2}) \
            == Lorentz(3, 2)
        assert norm_from_json({"kind": "measure", "q": 1}) == Measure()
        assert set(NORM_KINDS) == {"uniform", "lp", "lorentz", "measure"}

    def test_labels(self):
        kinds = (Uniform(), Lp(2), Lp(1.5), Lorentz(3, 2), Measure())
        assert [kind.label for kind in kinds] == [
            "inf", "L2", "L1.5", "L(3,2)", "measure"]

    def test_of_reads_the_shared_singular_function_but_for_lp(self):
        x = random_operator(MIXED, stream(53, "kinds"))
        sf = singular_function(x)
        calls = []

        def singular():
            calls.append(1)
            return sf

        assert Lp(2).of(x, singular) == lp_norm(x, 2)
        assert calls == []
        for kind in (Uniform(), Lorentz(3, 2), Measure()):
            assert kind.of(x, singular) == kind.value(sf)
        assert len(calls) == 3
        assert Uniform().value(sf) == pytest.approx(x.uniform_norm(),
                                                    rel=1e-12)
