"""Trigonometric polynomials and bounded Besicovitch weight sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightBoundError

# Unimodularity tolerance for trig-polynomial frequencies.
FREQ_TOL = 1e-12

# Default horizon when certifying a sequence as bounded Besicovitch.
CERTIFICATE_HORIZON = 4096
CERTIFICATE_EPS_GRID = (0.1, 0.01, 0.001)

# The "kind" values `WeightSequence` accepts, each with the JSON field
# that carries its generator; the CLI schema reads them.
WEIGHT_KINDS = {"constant": "period", "periodic": "period",
                "trig": "poly", "trig_decay": "poly"}


@dataclass(frozen=True)
class TrigPolynomial:
    """P(k) = sum_j z_j * lambda_j^k with unimodular frequencies."""

    coefficients: tuple
    frequencies: tuple

    def __post_init__(self):
        z = tuple(complex(c) for c in self.coefficients)
        lam = tuple(complex(f) for f in self.frequencies)
        if len(z) != len(lam):
            raise ValueError("coefficients/frequencies length mismatch")
        for f in lam:
            if abs(abs(f) - 1.0) > FREQ_TOL:
                raise ValueError(f"frequency {f} is not unimodular")
        object.__setattr__(self, "coefficients", z)
        object.__setattr__(self, "frequencies", lam)

    def eval(self, k):
        """P(k), vectorized over integer k >= 0.

        Powers are taken by angle arithmetic, lambda^k =
        exp(i k arg(lambda)), so the phases stay exactly unimodular and
        the certified bound sum|z_j| holds at every k.
        """
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        z = np.array(self.coefficients)
        angles = np.angle(np.array(self.frequencies))
        phases = np.exp(1j * np.mod(k_arr[:, None] * angles[None, :],
                                    2.0 * np.pi))
        out = (z[None, :] * phases).sum(axis=1)
        return complex(out[0]) if np.ndim(k) == 0 else out

    def bound(self) -> float:
        """Certified sup bound sum_j |z_j|."""
        return float(sum(abs(c) for c in self.coefficients))

    @classmethod
    def from_periodic(cls, values) -> "TrigPolynomial":
        """Exact finite-Fourier representation of a periodic sequence.

        For period m the frequencies are the m-th roots of unity and the
        coefficients the inverse DFT of one period, so P(k) reproduces
        the sequence exactly for every k.
        """
        values = np.asarray(values, dtype=complex)
        m = values.size
        if m == 0:
            raise ValueError("period must be non-empty")
        omega = np.exp(2j * np.pi / m)
        coeffs = [complex(np.mean(values * omega ** (-j * np.arange(m))))
                  for j in range(m)]
        freqs = [omega ** j for j in range(m)]
        return cls(tuple(coeffs), tuple(freqs))

    def to_json(self):
        return {"coefficients": [[c.real, c.imag] for c in self.coefficients],
                "frequencies": [[f.real, f.imag] for f in self.frequencies]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(complex(a, b) for a, b in data["coefficients"]),
                   tuple(complex(a, b) for a, b in data["frequencies"]))


class WeightSequence:
    """Bounded weight sequence beta_k with a certified bound C.

    Generators: constant value, periodic list, trigonometric polynomial,
    or trig polynomial plus a c/(k+1) decay term.  The bound is certified
    structurally by the generator (|beta_k| <= C for every k).
    """

    __slots__ = ("kind", "period", "poly", "decay", "bound")

    def __init__(self, kind, period=None, poly=None, decay=0.0, bound=None):
        self.kind = kind
        self.period = None if period is None else tuple(complex(v) for v in period)
        self.poly = poly
        self.decay = complex(decay)
        if kind == "constant":
            certified = abs(self.period[0])
        elif kind == "periodic":
            certified = max(abs(v) for v in self.period)
        elif kind == "trig":
            certified = poly.bound()
        elif kind == "trig_decay":
            certified = poly.bound() + abs(self.decay)
        else:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.bound = float(bound) if bound is not None else float(certified)
        if certified > self.bound + 1e-12:
            raise WeightBoundError(
                f"generator bound {certified} exceeds declared bound {self.bound}")
        if self.bound <= 0:
            # the decomposition through Re/Im shifts needs C > 0
            self.bound = max(self.bound, 1.0)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value=1.0) -> "WeightSequence":
        return cls("constant", period=[value])

    @classmethod
    def periodic(cls, values) -> "WeightSequence":
        return cls("periodic", period=values)

    @classmethod
    def from_trig(cls, poly: TrigPolynomial) -> "WeightSequence":
        return cls("trig", poly=poly)

    @classmethod
    def trig_with_decay(cls, poly: TrigPolynomial, decay) -> "WeightSequence":
        return cls("trig_decay", poly=poly, decay=decay)

    @classmethod
    def rotation(cls, angle_fraction) -> "WeightSequence":
        """beta_k = exp(2 pi i f k), a single-frequency polynomial."""
        lam = np.exp(2j * np.pi * angle_fraction)
        return cls("trig", poly=TrigPolynomial((1.0,), (lam,)))

    # -- evaluation -------------------------------------------------------

    def eval(self, k) -> complex:
        if k < 0:
            raise ValueError("weights are indexed by k >= 0")
        if self.kind == "constant":
            return self.period[0]
        if self.kind == "periodic":
            return self.period[k % len(self.period)]
        if self.kind == "trig":
            return self.poly.eval(k)
        return self.poly.eval(k) + self.decay / (k + 1)

    def values(self, n_max: int) -> np.ndarray:
        """beta_0 ... beta_n as one array."""
        ks = np.arange(n_max + 1)
        if self.kind == "constant":
            return np.full(n_max + 1, self.period[0], dtype=complex)
        if self.kind == "periodic":
            reps = np.resize(np.array(self.period, dtype=complex), n_max + 1)
            return reps
        base = self.poly.eval(ks)
        if self.kind == "trig_decay":
            base = base + self.decay / (ks + 1)
        return base

    @property
    def is_constant_one(self) -> bool:
        return self.kind == "constant" and self.period[0] == 1

    # -- Besicovitch certification ----------------------------------------

    def approximating_polynomial(self) -> TrigPolynomial:
        """Trig polynomial the generator is built from (exact for
        constant/periodic/trig; drops the decay tail for trig_decay)."""
        if self.kind == "constant":
            return TrigPolynomial((self.period[0],), (1.0,))
        if self.kind == "periodic":
            return TrigPolynomial.from_periodic(self.period)
        return self.poly

    def besicovitch_certificate(self, eps_grid=CERTIFICATE_EPS_GRID,
                                horizon=CERTIFICATE_HORIZON):
        """Finite-horizon certificate that the sequence is bounded
        Besicovitch.

        For each target eps the generator's own polynomial is proposed
        as witness and the tail Cesaro deviation is measured; the true
        limsup is not computable, so the horizon is reported alongside
        each estimate.
        """
        entries = []
        witness = self.approximating_polynomial()
        for eps in eps_grid:
            profile = besicovitch_deviation(self, witness, horizon)
            entries.append(CertificateEntry(float(eps), witness,
                                            profile.limsup_estimate,
                                            profile.limsup_estimate < eps))
        return BesicovitchCertificate(tuple(entries), horizon,
                                      all(e.satisfied for e in entries))

    def to_json(self):
        data = {"kind": self.kind, "C": self.bound}
        if self.period is not None:
            data["period"] = [[v.real, v.imag] for v in self.period]
        if self.poly is not None:
            data["poly"] = self.poly.to_json()
        if self.decay != 0:
            data["decay"] = [self.decay.real, self.decay.imag]
        return data

    @classmethod
    def from_json(cls, data) -> "WeightSequence":
        period = ([complex(a, b) for a, b in data["period"]]
                  if "period" in data else None)
        poly = (TrigPolynomial.from_json(data["poly"])
                if "poly" in data else None)
        decay = complex(*data["decay"]) if "decay" in data else 0.0
        return cls(data["kind"], period=period, poly=poly, decay=decay,
                   bound=data.get("C"))


@dataclass(frozen=True)
class CertificateEntry:
    eps: float
    witness: TrigPolynomial
    limsup_estimate: float
    satisfied: bool


@dataclass(frozen=True)
class BesicovitchCertificate:
    entries: tuple
    horizon: int
    certified: bool


@dataclass
class DeviationProfile:
    """Cesaro deviation averages a_n = mean_{k<=n} |beta_k - P(k)|."""

    averages: np.ndarray
    limsup_estimate: float
    horizon: int


def besicovitch_deviation(beta: WeightSequence, poly: TrigPolynomial,
                          n_max: int) -> DeviationProfile:
    """Deviation profile of a weight sequence against a trig polynomial.

    Returns all running averages a_0..a_{n_max} and the tail estimate
    sup_{n >= n_max/2} a_n standing in for the limsup.
    """
    if n_max < 1:
        raise ValueError("horizon must be >= 1")
    ks = np.arange(n_max + 1)
    deviations = np.abs(beta.values(n_max) - poly.eval(ks))
    averages = np.cumsum(deviations) / (ks + 1.0)
    tail = averages[n_max // 2:]
    return DeviationProfile(averages, float(tail.max()), n_max)
