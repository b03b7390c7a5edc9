import numpy as np
import pytest

from ncergodic.errors import UnsupportedNormError
from ncergodic.funcspace import boyd_estimate, dilation_norm_estimate
from ncergodic.ncnorms import SingularFunction
from ncergodic.rng import stream


def random_step(rng, max_steps=6):
    m = int(rng.integers(1, max_steps + 1))
    return SingularFunction(rng.uniform(0.0, 2.0, size=m),
                            rng.uniform(0.1, 10.0, size=m))


def dilated(f, s):
    """D_s f (t) = f(t / s): every step stretched by the factor s."""
    return SingularFunction(f.values, np.diff(f.bounds) * s)


def indicator(length):
    return SingularFunction([1.0], [length])


class TestBoyd:
    def test_lp(self):
        p_est, q_est = boyd_estimate(2)
        assert p_est == pytest.approx(2.0, rel=0.05)
        assert q_est == pytest.approx(2.0, rel=0.05)

    def test_lorentz(self):
        p_est, q_est = boyd_estimate(3, 1)
        assert p_est == pytest.approx(3.0, rel=0.05)
        assert q_est == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize("p,q", [(1.5, None), (2, 1), (3, 2), (1.5, 2)])
    def test_family_grid(self, p, q):
        p_est, q_est = boyd_estimate(p, q)
        assert p_est == pytest.approx(p, rel=0.05)
        assert q_est == pytest.approx(p, rel=0.05)

    def test_indicator_lower_bound(self):
        # the estimate dominates the single-test-function ratio
        f = indicator(1.0)
        for s in (0.25, 4.0):
            ratio = dilated(f, s).lp_norm(2) / f.lp_norm(2)
            assert dilation_norm_estimate(s, 2) >= ratio - 1e-12

    def test_characteristic_ratio_exact(self):
        # ||D_s chi||_{p,q} / ||chi||_{p,q} = s^(1/p) exactly
        for p, q in [(2, 1), (3, 2)]:
            f = indicator(4.0)
            for s in (0.5, 8.0):
                ratio = dilated(f, s).lorentz_norm(p, q) / f.lorentz_norm(p, q)
                assert ratio == pytest.approx(s ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(2, None), (1.5, None), (2, 1), (3, 2)])
    def test_estimate_is_the_dilation_norm(self, p, q):
        # every step function scales by s^(1/p), so the indicators are
        # extremal and the estimate is ||D_s|| itself
        def norm(f):
            return f.lp_norm(p) if q is None else f.lorentz_norm(p, q)

        rng = stream(62, "dilate")
        for s in (0.25, 3.0):
            estimate = dilation_norm_estimate(s, p, q)
            assert estimate == pytest.approx(s ** (1.0 / p), rel=1e-12)
            for _ in range(5):
                f = random_step(rng)
                assert norm(dilated(f, s)) == pytest.approx(
                    estimate * norm(f), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(2, None), (3, 2)])
    def test_estimate_is_multiplicative(self, p, q):
        # D_2 D_3 = D_6, and the estimate is the exact operator norm
        assert dilation_norm_estimate(6.0, p, q) == pytest.approx(
            dilation_norm_estimate(2.0, p, q)
            * dilation_norm_estimate(3.0, p, q), rel=1e-12)
        assert dilation_norm_estimate(1.0, p, q) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [0.0, -2.0])
    def test_rejects_bad_factor(self, s):
        with pytest.raises(ValueError):
            dilation_norm_estimate(s, 2)

    @pytest.mark.parametrize("p,q", [(0.5, None), (0.5, 1), (2, 0.5), (1, 2)])
    def test_rejects_unsupported_norm(self, p, q):
        with pytest.raises(UnsupportedNormError):
            boyd_estimate(p, q)

    def test_rejects_one_sided_grid(self):
        with pytest.raises(ValueError):
            boyd_estimate(2, s_grid=[2.0, 4.0])
        with pytest.raises(ValueError):
            boyd_estimate(2, s_grid=[])
