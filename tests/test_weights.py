import json

import numpy as np
import pytest

from ncergodic import weights
from ncergodic.weights import (CERTIFICATE_EPS, CERTIFICATE_HORIZON,
                               TrigPolynomial, WeightSequence,
                               besicovitch_deviation)
from test_cli import run_cli


class TestTrigPolynomial:
    def test_alternating(self):
        p = TrigPolynomial((1.0,), (-1.0,))
        assert p.eval([0, 5]) == pytest.approx([1.0, -1.0])

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
        assert p.eval(np.arange(12)) == pytest.approx(
            np.resize(values, 12), abs=1e-12)

    def test_rounding_coefficients_are_zero(self):
        # the rounded DFT of i^k leaves about 1e-16 at -1 and -i, below
        # its bound 4 * 2^-52, so those are stored as 0, as is the exact
        # 0 at 1
        p = TrigPolynomial.from_periodic([1, 1j, -1, -1j])
        assert p.coefficients.count(0) == 3
        assert p.coefficients[1] == pytest.approx(1.0, abs=1e-15)
        assert p.eval(np.arange(8)) == pytest.approx(
            [1j ** k for k in range(8)], abs=1e-15)


class TestWeightSequence:
    def test_periodic_lookup(self):
        beta = WeightSequence("periodic", period=[1, 1j, -1, -1j])
        assert beta.values(5)[5] == 1j
        assert beta.bound == pytest.approx(1.0)

    def test_constant_one_flag(self):
        assert WeightSequence("constant", period=[1.0]).is_constant_one
        assert WeightSequence("periodic", period=[1, 1]).is_constant_one
        assert not WeightSequence("periodic", period=[1, 0]).is_constant_one

    @pytest.mark.parametrize("z", [1.0, 0.5, -2.0, 1j, 0.3 - 0.4j])
    def test_constant_is_period_one(self, z):
        # the periodic path on one entry gives the bits of the former
        # constant path: np.full, and the polynomial z * 1^k
        beta = WeightSequence("constant", period=[z])
        assert beta.bound == abs(z)
        assert beta.values(9).tobytes() == np.full(10, z, complex).tobytes()
        assert beta.approximating_polynomial() == TrigPolynomial((z,), (1.0,))

    def test_trig_ignores_a_stray_period(self):
        poly = {"coefficients": [[0.5, 0], [0.5, 0]],
                "frequencies": [[1, 0], [0, 1]]}
        plain = WeightSequence.from_json({"kind": "trig", "poly": poly})
        stray = WeightSequence.from_json({"kind": "trig", "poly": poly,
                                          "period": [[3, 0]]})
        assert stray.values(16).tobytes() == plain.values(16).tobytes()
        assert stray.bound == plain.bound
        assert stray.approximating_polynomial() == \
            plain.approximating_polynomial()
        assert not stray.is_constant_one

    def test_bound_certified_on_samples(self):
        cases = [
            WeightSequence("periodic", period=[1, 1j, -1, -1j]),
            WeightSequence("trig", poly=TrigPolynomial(
                (1.0,), (np.exp(2j * np.pi / 7.0),))),
            WeightSequence("trig_decay",
                           poly=TrigPolynomial((1.0,), (-1.0,)), decay=1.0),
        ]
        ks = np.unique(np.logspace(0, 6, 80).astype(int))
        for beta in cases:
            vals = beta.values(int(ks[-1]))[ks]
            assert np.max(np.abs(vals)) <= beta.bound + 1e-12

    def test_values_match_generator(self):
        beta = WeightSequence(
            "trig_decay", poly=TrigPolynomial((1.0,), (np.exp(0.6j * np.pi),)),
            decay=0.5)
        window = beta.values(50)
        for k in (0, 7, 50):
            assert window[k] == pytest.approx(
                np.exp(0.6j * np.pi * k) + 0.5 / (k + 1), abs=1e-12)


def deviation_max(beta, poly, n_max):
    """max_{n <= n_max} a_n: the tails [n/2, n] of the dyadic horizons
    n = 1, 2, 4, ..., n_max cover every n."""
    return max(besicovitch_deviation(beta, poly, 2 ** j)
               for j in range(int(np.log2(n_max)) + 1))


class TestBesicovitchDeviation:
    def test_exact_match_profile_zero(self):
        poly = TrigPolynomial((1.0,), (-1.0,))
        beta = WeightSequence("trig", poly=poly)
        assert deviation_max(beta, poly, 256) < 1e-12
        assert besicovitch_deviation(beta, poly, 200) < 1e-12

    def test_harmonic_tail(self):
        # a_n = H_{n+1} / (n+1) falls in n, so the tail sup over
        # [500, 1000] is its value at n = 500
        poly = TrigPolynomial((1.0,), (-1.0,))
        beta = WeightSequence("trig_decay", poly=poly, decay=1.0)
        harmonic = np.sum(1.0 / np.arange(1, 502))
        assert besicovitch_deviation(beta, poly, 1000) == pytest.approx(
            harmonic / 501, abs=1e-12)

    def test_period_two_fourier(self):
        # [1, 0] is exactly 1/2 + (1/2)(-1)^k
        beta = WeightSequence("periodic", period=[1.0, 0.0])
        poly = TrigPolynomial((0.5, 0.5), (1.0, -1.0))
        assert deviation_max(beta, poly, 512) <= 1e-10


class TestBesicovitchCertificate:
    def test_periodic_generators_certify(self):
        for beta in (WeightSequence("periodic", period=[1, 0, 2]),
                     WeightSequence("constant", period=[0.5]),
                     WeightSequence("trig", poly=TrigPolynomial(
                         (1.0,), (np.exp(2j * np.pi / 7.0),)))):
            assert beta.besicovitch_certificate() is True
            assert besicovitch_deviation(
                beta, beta.approximating_polynomial(),
                CERTIFICATE_HORIZON) <= 1e-10

    @pytest.mark.parametrize("decay,certified", [(0.1, True), (1.0, False)])
    def test_decay_generator_against_eps(self, decay, certified):
        # the tail sup is decay * H_2049 / 2049: about 4e-4 for 0.1, and
        # 4e-3 for 1.0, which lies between CERTIFICATE_EPS and 0.1
        poly = TrigPolynomial((1.0,), (-1.0,))
        beta = WeightSequence("trig_decay", poly=poly, decay=decay)
        deviation = besicovitch_deviation(beta, poly, CERTIFICATE_HORIZON)
        harmonic = np.sum(1.0 / np.arange(1, CERTIFICATE_HORIZON // 2 + 2))
        assert deviation == pytest.approx(
            decay * harmonic / (CERTIFICATE_HORIZON // 2 + 1), rel=1e-12)
        if not certified:
            assert CERTIFICATE_EPS < deviation < 0.1
        assert beta.besicovitch_certificate() is certified

    def test_nan_deviation_is_not_certified(self):
        beta = WeightSequence("constant", period=[float("nan")])
        assert beta.besicovitch_certificate() is False

    def test_one_deviation_per_certificate(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return besicovitch_deviation(*args)

        monkeypatch.setattr(weights, "besicovitch_deviation", counting)
        beta = WeightSequence("trig_decay",
                              poly=TrigPolynomial((1.0,), (-1.0,)), decay=1.0)
        certified = beta.besicovitch_certificate()
        assert len(calls) == 1
        assert calls[0][2] == CERTIFICATE_HORIZON
        assert certified == (besicovitch_deviation(*calls[0])
                             < CERTIFICATE_EPS)


_MIX = {"seed": 5, "algebra": {"blocks": [[2, 1.0], [1, 0.5]]},
        "channel": {"kind": "unitary-mixture", "num": 2, "seed": 1}}
_SECTIONS = {
    "certify": {"methods": ["yeadon", "lp", "weighted", "one-sided"],
                "eps_grid": [0.25, 1.0], "p_grid": [2],
                "element": {"kind": "random"}},
    "besicovitch": {"element": {"kind": "random-hermitian"},
                    "norms": [{"kind": "uniform"}, {"kind": "lp", "p": 2}]},
}


def csv_bytes(tmp_path, subcommand, weights, tag):
    config = {**_MIX, subcommand: {**_SECTIONS[subcommand],
                                   "weights": weights}}
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(config))
    assert run_cli(subcommand, "--config", str(path), "--out",
                   str(tmp_path / tag), "--horizon", "32") == 0
    return (tmp_path / tag / f"{subcommand}.csv").read_bytes()


class TestConstantIsPeriodic:
    """A constant weight is a periodic weight of period 1, on the CLI."""

    def test_unit_period_certifies_as_constant_one(self, tmp_path):
        # both are identically one, so both check plain averages at C = 1
        assert csv_bytes(tmp_path, "certify", {
            "kind": "periodic", "period": [[1, 0], [1, 0]]}, "periodic") \
            == csv_bytes(tmp_path, "certify", {
                "kind": "constant", "period": [[1, 0]]}, "constant")

    @pytest.mark.parametrize("subcommand", ["certify", "besicovitch"])
    def test_constant_equals_period_one(self, tmp_path, subcommand):
        constant, periodic = (
            csv_bytes(tmp_path, subcommand,
                      {"kind": kind, "period": [[0, 1]], "C": 2}, kind)
            for kind in ("constant", "periodic"))
        assert constant == periodic
