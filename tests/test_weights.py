import numpy as np
import pytest

from ncergodic import weights
from ncergodic.weights import (TrigPolynomial, WeightSequence,
                               besicovitch_deviation)


class TestTrigPolynomial:
    def test_alternating(self):
        p = TrigPolynomial((1.0,), (-1.0,))
        assert p.eval(0) == pytest.approx(1.0)
        assert p.eval(5) == pytest.approx(-1.0)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            TrigPolynomial((1.0,), (0.5,))

    def test_cosine_bound(self):
        theta = 0.37
        lam = np.exp(2j * np.pi * theta)
        p = TrigPolynomial((1.0, 1.0), (lam, np.conj(lam)))
        ks = np.arange(500)
        vals = p.eval(ks)
        assert np.allclose(vals.imag, 0.0, atol=1e-10)
        assert np.max(np.abs(vals)) <= 2.0 + 1e-12
        assert np.allclose(vals.real, 2 * np.cos(2 * np.pi * theta * ks),
                           atol=1e-10)

    def test_periodic_dft_exact(self):
        values = [1.0, 1j, -2.0, 0.5]
        p = TrigPolynomial.from_periodic(values)
        for k in range(12):
            assert p.eval(k) == pytest.approx(values[k % 4], abs=1e-12)

    def test_json_roundtrip(self):
        p = TrigPolynomial((1.0, 0.5j), (1.0, -1.0))
        q = TrigPolynomial.from_json(p.to_json())
        assert q.coefficients == p.coefficients
        assert q.frequencies == p.frequencies


class TestWeightSequence:
    def test_periodic_lookup(self):
        beta = WeightSequence.periodic([1, 1j, -1, -1j])
        assert beta.eval(5) == 1j
        assert beta.bound == pytest.approx(1.0)

    def test_constant_one_flag(self):
        assert WeightSequence.constant(1.0).is_constant_one
        assert not WeightSequence.periodic([1, 0]).is_constant_one

    def test_bound_certified_on_samples(self):
        cases = [
            WeightSequence.periodic([1, 1j, -1, -1j]),
            WeightSequence.rotation(1.0 / 7.0),
            WeightSequence.trig_with_decay(TrigPolynomial((1.0,), (-1.0,)),
                                           1.0),
        ]
        ks = np.unique(np.logspace(0, 6, 80).astype(int))
        for beta in cases:
            vals = np.array([beta.eval(int(k)) for k in ks])
            assert np.max(np.abs(vals)) <= beta.bound + 1e-12

    def test_values_window_matches_eval(self):
        beta = WeightSequence.rotation(0.3)
        window = beta.values(50)
        for k in (0, 7, 50):
            assert window[k] == pytest.approx(beta.eval(k), abs=1e-12)

    def test_json_roundtrip(self):
        beta = WeightSequence.trig_with_decay(
            TrigPolynomial((1.0,), (-1.0,)), 0.5)
        again = WeightSequence.from_json(beta.to_json())
        assert again.eval(17) == pytest.approx(beta.eval(17), abs=1e-12)


class TestBesicovitchDeviation:
    def test_exact_match_profile_zero(self):
        poly = TrigPolynomial((1.0,), (-1.0,))
        beta = WeightSequence.from_trig(poly)
        profile = besicovitch_deviation(beta, poly, 200)
        assert np.max(profile.averages) < 1e-12
        assert profile.limsup_estimate < 1e-12

    def test_harmonic_tail(self):
        poly = TrigPolynomial((1.0,), (-1.0,))
        beta = WeightSequence.trig_with_decay(poly, 1.0)
        profile = besicovitch_deviation(beta, poly, 1000)
        harmonic = np.sum(1.0 / np.arange(1, 1002))
        assert profile.averages[1000] == pytest.approx(harmonic / 1001,
                                                       abs=1e-12)

    def test_period_two_fourier(self):
        # [1, 0] is exactly 1/2 + (1/2)(-1)^k
        beta = WeightSequence.periodic([1.0, 0.0])
        poly = TrigPolynomial((0.5, 0.5), (1.0, -1.0))
        profile = besicovitch_deviation(beta, poly, 500)
        assert np.max(profile.averages) <= 1e-10

    def test_periodic_generators_certify(self):
        for beta in (WeightSequence.periodic([1, 0, 2]),
                     WeightSequence.constant(0.5),
                     WeightSequence.rotation(1.0 / 7.0)):
            cert = beta.besicovitch_certificate(eps_grid=(1e-3, 1e-6),
                                                horizon=256)
            assert cert.certified
            for entry in cert.entries:
                assert entry.limsup_estimate <= 1e-10

    def test_decay_generator_certifies_at_long_horizon(self):
        beta = WeightSequence.trig_with_decay(
            TrigPolynomial((1.0,), (-1.0,)), 1.0)
        cert = beta.besicovitch_certificate(eps_grid=(0.05,), horizon=512)
        assert cert.certified
        assert cert.horizon == 512

    def test_one_deviation_profile_per_certificate(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return besicovitch_deviation(*args)

        monkeypatch.setattr(weights, "besicovitch_deviation", counting)
        beta = WeightSequence.trig_with_decay(
            TrigPolynomial((1.0,), (-1.0,)), 1.0)
        cert = beta.besicovitch_certificate(eps_grid=(0.5, 0.05, 1e-6),
                                            horizon=64)
        assert len(calls) == 1
        limsup = besicovitch_deviation(*calls[0]).limsup_estimate
        assert [(e.eps, e.limsup_estimate, e.satisfied)
                for e in cert.entries] == [
            (eps, limsup, limsup < eps) for eps in (0.5, 0.05, 1e-6)]
