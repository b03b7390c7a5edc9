"""Trigonometric polynomials and bounded Besicovitch weight sequences.

Each generator certifies its bound structurally.  The Besicovitch
verdict is one bool: the tail Cesaro deviation from the generator's own
polynomial over a finite horizon is below CERTIFICATE_EPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightBoundError

# Unimodularity tolerance for trig-polynomial frequencies.
FREQ_TOL = 1e-12

# Horizon and tolerance of the bounded-Besicovitch certificate.
CERTIFICATE_HORIZON = 4096
CERTIFICATE_EPS = 0.001

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

    def eval(self, ks) -> np.ndarray:
        """P(k) for each k of an array of integers k >= 0.

        Powers are taken by angle arithmetic, lambda^k =
        exp(i k arg(lambda)), so the phases stay exactly unimodular and
        the certified bound sum|z_j| holds at every k.
        """
        ks = np.asarray(ks, dtype=float)
        z = np.array(self.coefficients)
        angles = np.angle(np.array(self.frequencies))
        phases = np.exp(1j * np.mod(ks[:, None] * angles[None, :],
                                    2.0 * np.pi))
        return (z[None, :] * phases).sum(axis=1)

    def bound(self) -> float:
        """Certified sup bound sum_j |z_j|."""
        return float(sum(abs(c) for c in self.coefficients))

    @classmethod
    def from_periodic(cls, values) -> "TrigPolynomial":
        """Exact finite-Fourier representation of a periodic sequence.

        For period m the frequencies are the m-th roots of unity and the
        coefficients the inverse DFT of one period, so P(k) reproduces
        the sequence exactly for every k.

        A coefficient whose modulus lies below m 2^-52 B, B = max|beta|,
        is stored as exactly 0.  That is the rounding bound of the mean:
        its m terms beta_k omega^(-jk) have modulus at most B, and taken
        exact to a few units of u = 2^-53 they sum with an error of at
        most (m - 1) u m B, which the mean divides by m.  So, to first
        order, a coefficient that is exactly 0 comes out with modulus at
        most about (m + a few) u B <= 2 m u B = m 2^-52 B.  The bound
        does not cover the error of the powers themselves: they are
        taken at exponents up to (m - 1)^2, and their error grows with
        the exponent, so for a long period a coefficient that is exactly
        0 can come out above the bound.  It is then kept as computed,
        which costs one rotated limit that is 0 and changes no value.
        The period [1, i, -1, -i] has one nonzero coefficient, at i,
        where the rounded DFT leaves about 1e-16 at -1 and -i, and its
        limit takes one rotated Cesaro limit, not three.
        """
        values = np.asarray(values, dtype=complex)
        m = values.size
        if m == 0:
            raise ValueError("period must be non-empty")
        omega = np.exp(2j * np.pi / m)
        rounding = m * 2.0 ** -52 * float(np.abs(values).max())
        coeffs = [complex(np.mean(values * omega ** (-j * np.arange(m))))
                  for j in range(m)]
        coeffs = [c if abs(c) >= rounding else 0j for c in coeffs]
        freqs = [omega ** j for j in range(m)]
        return cls(tuple(coeffs), tuple(freqs))

    @classmethod
    def from_json(cls, data):
        return cls(tuple(complex(a, b) for a, b in data["coefficients"]),
                   tuple(complex(a, b) for a, b in data["frequencies"]))


class WeightSequence:
    """Bounded weight sequence beta_k with a certified bound C.

    Generators: periodic list (a constant weight is a periodic weight of
    period 1), trigonometric polynomial, or trig polynomial plus a
    c/(k+1) decay term.  The kind picks the generator, so a period given
    with a trig kind is ignored.  The bound is certified structurally by
    the generator (|beta_k| <= C for every k).
    """

    __slots__ = ("kind", "period", "poly", "decay", "bound")

    def __init__(self, kind, period=None, poly=None, decay=0.0, bound=None):
        self.kind = kind
        self.period = None if period is None else tuple(complex(v) for v in period)
        self.poly = poly
        self.decay = complex(decay)
        if kind in ("constant", "periodic"):
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

    # -- evaluation -------------------------------------------------------

    def values(self, n_max: int) -> np.ndarray:
        """beta_0 ... beta_n as one array."""
        if self.kind in ("constant", "periodic"):
            return np.resize(np.array(self.period, dtype=complex), n_max + 1)
        ks = np.arange(n_max + 1)
        base = self.poly.eval(ks)
        if self.kind == "trig_decay":
            base = base + self.decay / (ks + 1)
        return base

    @property
    def is_constant_one(self) -> bool:
        return (self.kind in ("constant", "periodic")
                and all(v == 1 for v in self.period))

    # -- Besicovitch certification ----------------------------------------

    def approximating_polynomial(self) -> TrigPolynomial:
        """Trig polynomial the generator is built from (exact for
        constant/periodic/trig; drops the decay tail for trig_decay)."""
        if self.kind in ("constant", "periodic"):
            return TrigPolynomial.from_periodic(self.period)
        return self.poly

    def besicovitch_certificate(self) -> bool:
        """Finite-horizon certificate that the sequence is bounded
        Besicovitch: the tail Cesaro deviation from the generator's own
        polynomial over CERTIFICATE_HORIZON is below CERTIFICATE_EPS (the
        true limsup is not computable; a NaN deviation fails)."""
        deviation = besicovitch_deviation(
            self, self.approximating_polynomial(), CERTIFICATE_HORIZON)
        return deviation < CERTIFICATE_EPS

    @classmethod
    def from_json(cls, data) -> "WeightSequence":
        period = ([complex(a, b) for a, b in data["period"]]
                  if "period" in data else None)
        poly = (TrigPolynomial.from_json(data["poly"])
                if "poly" in data else None)
        decay = complex(*data["decay"]) if "decay" in data else 0.0
        return cls(data["kind"], period=period, poly=poly, decay=decay,
                   bound=data.get("C"))


def besicovitch_deviation(beta: WeightSequence, poly: TrigPolynomial,
                          n_max: int) -> float:
    """Tail Cesaro deviation of a weight sequence from a trig polynomial.

    Of the running averages a_n = mean_{k<=n} |beta_k - P(k)|, returns
    sup_{n_max/2 <= n <= n_max} a_n, the estimate standing in for the
    limsup.
    """
    ks = np.arange(n_max + 1)
    deviations = np.abs(beta.values(n_max) - poly.eval(ks))
    averages = np.cumsum(deviations) / (ks + 1.0)
    return float(averages[n_max // 2:].max())
