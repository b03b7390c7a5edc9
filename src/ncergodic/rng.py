"""Counter-based random streams and random algebra elements.

Every experiment cell derives its own Philox stream from the run seed and
a structured cell key, so results do not depend on scheduling order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .algebra import AlgebraSpec, Operator, Projection


def stream(seed, *key) -> np.random.Generator:
    """Philox generator keyed by (seed, key parts).

    Parameters
    ----------
    seed : int
        64-bit run seed from the configuration.
    *key
        Any sequence of ints/floats/strings identifying the cell.
    """
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *key)))


def derive_seed(seed, *key) -> int:
    """128-bit integer derived by hashing (seed, key parts)."""
    material = json.dumps([int(seed), [repr(k) for k in key]],
                          separators=(",", ":")).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "little")


def _ginibre(rng, dim):
    return (rng.standard_normal((dim, dim)) +
            1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def random_operator(algebra: AlgebraSpec, rng, kind="general",
                    uniform_norm=None) -> Operator:
    """Random element of the algebra.

    kind is one of "general", "hermitian", "positive".  When uniform_norm
    is given the result is rescaled to that largest singular value.
    """
    blocks = []
    for dim, _ in algebra.blocks:
        g = _ginibre(rng, dim)
        if kind == "hermitian":
            g = (g + g.conj().T) / 2.0
        elif kind == "positive":
            g = g @ g.conj().T
        elif kind != "general":
            raise ValueError(f"unknown operator kind {kind!r}")
        blocks.append(g)
    x = Operator(algebra, blocks)
    if uniform_norm is not None:
        current = x.uniform_norm()
        if current > 0:
            x = x * (uniform_norm / current)
    return x


def random_unitary_operator(algebra: AlgebraSpec, rng) -> Operator:
    """Haar-ish random block unitary via QR of a Ginibre matrix."""
    blocks = []
    for dim, _ in algebra.blocks:
        q, r = np.linalg.qr(_ginibre(rng, dim))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        blocks.append(q)
    return Operator(algebra, blocks)


def random_projection(algebra: AlgebraSpec, rng):
    """Random projection: per block, a coordinate subspace of
    Binomial(dim, 1/2) rank rotated by a random unitary."""
    u = random_unitary_operator(algebra, rng)
    blocks = []
    for i, (dim, _) in enumerate(algebra.blocks):
        rank = int(rng.binomial(dim, 0.5))
        mask = np.zeros(dim)
        mask[:rank] = 1.0
        ub = u.block(i)
        blocks.append(ub @ np.diag(mask).astype(complex) @ ub.conj().T)
    return Projection(Operator(algebra, blocks))
