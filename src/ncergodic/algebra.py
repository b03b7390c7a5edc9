"""Finite tracial matrix algebras: elements, trace, involution, order.

The ambient object is a finite direct sum of full complex matrix blocks
M_{d_1} (+) ... (+) M_{d_r} carrying the weighted trace
tau(x) = sum_i w_i * tr(x_i) with strictly positive weights w_i.  Every
element is bounded, so all the L_p spaces coincide with the algebra as
sets and the norms below are honest finite formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AlgebraMismatchError, NotHermitianError,
                     ProjectionCertificateError)
from .util import resolve_tol, short_hash


@dataclass(frozen=True)
class AlgebraSpec:
    """Block dimensions and trace weights of the ambient algebra.

    blocks is an ordered tuple of (dim, weight) pairs; dim >= 1 and
    weight > 0.  The total trace tau(1) = sum_i weight_i * dim_i.
    """

    blocks: tuple

    def __post_init__(self):
        norm = tuple((int(d), float(w)) for d, w in self.blocks)
        if not norm:
            raise ValueError("algebra needs at least one block")
        for d, w in norm:
            if d < 1:
                raise ValueError(f"block dimension must be >= 1, got {d}")
            if not (w > 0):
                raise ValueError(f"trace weight must be > 0, got {w}")
        object.__setattr__(self, "blocks", norm)

    @property
    def dims(self):
        return tuple(d for d, _ in self.blocks)

    @property
    def weights(self):
        return tuple(w for _, w in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_trace(self) -> float:
        return float(sum(w * d for d, w in self.blocks))

    @property
    def vec_dim(self) -> int:
        """Dimension of the vectorized algebra (sum of dim_i^2)."""
        return int(sum(d * d for d, _ in self.blocks))

    @property
    def is_diagonal(self) -> bool:
        return all(d == 1 for d, _ in self.blocks)

    def block_offsets(self):
        """Start offset of each block in the row-major vectorization."""
        offs, pos = [], 0
        for d, _ in self.blocks:
            offs.append(pos)
            pos += d * d
        return offs

    def block_stacks(self, vecs):
        """Per-block views, each shaped (m, d_i, d_i), of m vectorized
        operators stacked as the rows of an (m, vec_dim) array."""
        vecs = np.asarray(vecs)
        return tuple(vecs[:, off:off + d * d].reshape(-1, d, d)
                     for off, d in zip(self.block_offsets(), self.dims))

    def identity(self) -> "Operator":
        return Operator(self, [np.eye(d, dtype=complex) for d in self.dims])

    def zero(self) -> "Operator":
        return Operator(self, [np.zeros((d, d), dtype=complex)
                               for d in self.dims])

    def diagonal(self, values) -> "Operator":
        """Operator with given diagonal entries (diagonal algebras: the
        entries themselves; general blocks: per-block diagonal fill)."""
        values = np.asarray(values, dtype=complex).ravel()
        if values.size != sum(self.dims):
            raise AlgebraMismatchError("diagonal length mismatch")
        blocks, pos = [], 0
        for d in self.dims:
            blocks.append(np.diag(values[pos:pos + d]))
            pos += d
        return Operator(self, blocks)

    def to_json(self):
        return {"blocks": [[d, w] for d, w in self.blocks]}

    @classmethod
    def from_json(cls, data) -> "AlgebraSpec":
        return cls(tuple((d, w) for d, w in data["blocks"]))

    def content_hash(self) -> str:
        return short_hash(self.to_json())


class Operator:
    """Element of a block matrix algebra.

    Immutable: block arrays are copied on construction and marked
    read-only.  Arithmetic returns new operators; `@` is the operator
    product, `*` scales by a complex number.
    """

    __slots__ = ("algebra", "_blocks")

    def __init__(self, algebra: AlgebraSpec, blocks):
        if len(blocks) != algebra.num_blocks:
            raise AlgebraMismatchError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}")
        arrays = []
        for (d, _), b in zip(algebra.blocks, blocks):
            arr = np.array(b, dtype=complex)
            if arr.shape != (d, d):
                raise AlgebraMismatchError(
                    f"block shape {arr.shape} does not match dim {d}")
            arr.flags.writeable = False
            arrays.append(arr)
        self.algebra = algebra
        self._blocks = tuple(arrays)

    @property
    def blocks(self):
        return self._blocks

    def block(self, i) -> np.ndarray:
        return self._blocks[i]

    def _require_same(self, other):
        if not isinstance(other, Operator):
            raise TypeError("expected an Operator")
        if other.algebra != self.algebra:
            raise AlgebraMismatchError("operators live in different algebras")

    # -- *-algebra structure -------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        return Operator(self.algebra,
                        [a + b for a, b in zip(self._blocks, other._blocks)])

    def __sub__(self, other):
        self._require_same(other)
        return Operator(self.algebra,
                        [a - b for a, b in zip(self._blocks, other._blocks)])

    def __neg__(self):
        return Operator(self.algebra, [-a for a in self._blocks])

    def __mul__(self, scalar):
        return Operator(self.algebra,
                        [complex(scalar) * a for a in self._blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __matmul__(self, other):
        self._require_same(other)
        return Operator(self.algebra,
                        [a @ b for a, b in zip(self._blocks, other._blocks)])

    def adjoint(self) -> "Operator":
        return Operator(self.algebra, [a.conj().T for a in self._blocks])

    def trace(self) -> complex:
        return complex(sum(w * np.trace(b)
                           for (_, w), b in zip(self.algebra.blocks,
                                                self._blocks)))

    def uniform_norm(self) -> float:
        """Largest singular value across blocks."""
        return max(float(np.linalg.norm(b, 2)) for b in self._blocks)

    # -- certificates ---------------------------------------------------

    def is_hermitian(self, tol=None) -> bool:
        tol = resolve_tol(tol)
        return all(np.linalg.norm(b - b.conj().T, 2) <= tol
                   for b in self._blocks)

    def is_positive(self, tol=None) -> bool:
        tol = resolve_tol(tol)
        if not self.is_hermitian(tol):
            return False
        return all(b.shape[0] == 0 or
                   float(np.linalg.eigvalsh(b)[0]) >= -tol
                   for b in self._blocks)

    def hermitian_part(self) -> "Operator":
        return (self + self.adjoint()) * 0.5

    def skew_part(self) -> "Operator":
        """(x - x*)/(2i), the imaginary Hermitian component."""
        return (self - self.adjoint()) * (-0.5j)

    def allclose(self, other, tol=1e-12) -> bool:
        self._require_same(other)
        return all(np.allclose(a, b, atol=tol, rtol=0.0)
                   for a, b in zip(self._blocks, other._blocks))

    # -- vectorization (row-major per block, blocks concatenated) -------

    def vec(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in self._blocks])

    @classmethod
    def from_vec(cls, algebra: AlgebraSpec, v) -> "Operator":
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != algebra.vec_dim:
            raise AlgebraMismatchError("vector length mismatch")
        blocks, pos = [], 0
        for d in algebra.dims:
            blocks.append(v[pos:pos + d * d].reshape(d, d))
            pos += d * d
        return cls(algebra, blocks)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {"blocks": [[[float(z.real), float(z.imag)] for z in b.reshape(-1)]
                           for b in self._blocks]}

    @classmethod
    def from_json(cls, algebra: AlgebraSpec, data) -> "Operator":
        blocks = []
        for d, flat in zip(algebra.dims, data["blocks"]):
            arr = np.array([complex(re, im) for re, im in flat],
                           dtype=complex).reshape(d, d)
            blocks.append(arr)
        return cls(algebra, blocks)

    def __repr__(self):
        return f"Operator(dims={self.algebra.dims})"


def hermitian_decompose(x: Operator, tol=None):
    """Split x into four positive operators with
    x = (x1 - x2) + i(x3 - x4).

    x1, x2 are the positive/negative parts of the Hermitian component,
    x3, x4 those of the skew component.  Each part satisfies
    mu(part) <= mu(component) pointwise, hence contracts every
    symmetric norm of x.
    """
    parts = []
    for comp in (x.hermitian_part(), x.skew_part()):
        pos_blocks, neg_blocks = [], []
        for b in comp.blocks:
            lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
            pos = (vecs * np.clip(lam, 0.0, None)) @ vecs.conj().T
            neg = (vecs * np.clip(-lam, 0.0, None)) @ vecs.conj().T
            pos_blocks.append(pos)
            neg_blocks.append(neg)
        parts.append(Operator(x.algebra, pos_blocks))
        parts.append(Operator(x.algebra, neg_blocks))
    return tuple(parts)


class Projection:
    """Certified self-adjoint idempotent.

    Construction verifies ||e^2 - e|| <= tol, ||e - e*|| <= tol and that
    all eigenvalues sit within tol of {0, 1}; the stored operator is the
    cleaned version obtained by rounding eigenvalues to {0, 1}.
    """

    __slots__ = ("operator", "_bases")

    def __init__(self, op: Operator, tol=None):
        tol = resolve_tol(tol)
        bases = []
        clean_blocks = []
        for b in op.blocks:
            herm_defect = float(np.linalg.norm(b - b.conj().T, 2))
            idem_defect = float(np.linalg.norm(b @ b - b, 2))
            if herm_defect > tol:
                raise ProjectionCertificateError(
                    f"not self-adjoint (defect {herm_defect:.2e})")
            if idem_defect > tol:
                raise ProjectionCertificateError(
                    f"not idempotent (defect {idem_defect:.2e})")
            lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
            dist = np.minimum(np.abs(lam), np.abs(lam - 1.0))
            if lam.size and float(dist.max()) > tol:
                raise ProjectionCertificateError(
                    f"eigenvalue {lam[np.argmax(dist)]:.6g} not in {{0,1}}")
            keep = lam > 0.5
            basis = vecs[:, keep]
            bases.append(basis)
            clean_blocks.append(basis @ basis.conj().T)
        self.operator = Operator(op.algebra, clean_blocks)
        self._bases = tuple(bases)

    @property
    def algebra(self) -> AlgebraSpec:
        return self.operator.algebra

    @classmethod
    def identity(cls, algebra: AlgebraSpec) -> "Projection":
        return cls(algebra.identity())

    @classmethod
    def zero(cls, algebra: AlgebraSpec) -> "Projection":
        return cls(algebra.zero())

    @classmethod
    def from_basis(cls, algebra: AlgebraSpec, bases) -> "Projection":
        """Projection onto the span of the given per-block column bases
        (orthonormalized here via QR; an empty basis gives a zero block)."""
        blocks = []
        for d, basis in zip(algebra.dims, bases):
            basis = np.asarray(basis, dtype=complex).reshape(d, -1)
            if basis.shape[1] == 0:
                blocks.append(np.zeros((d, d), dtype=complex))
                continue
            q, _ = np.linalg.qr(basis)
            blocks.append(q @ q.conj().T)
        return cls(Operator(algebra, blocks))

    @classmethod
    def from_indicator(cls, algebra: AlgebraSpec, mask) -> "Projection":
        """Diagonal projection from a 0/1 mask over all diagonal slots."""
        mask = np.asarray(mask, dtype=float).ravel()
        return cls(algebra.diagonal(mask))

    def block_basis(self, i) -> np.ndarray:
        """Orthonormal columns spanning the range inside block i."""
        return self._bases[i]

    def rank(self, i=None) -> int:
        if i is not None:
            return self._bases[i].shape[1]
        return sum(b.shape[1] for b in self._bases)

    def complement(self) -> "Projection":
        return Projection(self.algebra.identity() - self.operator)

    def defect(self) -> float:
        """tau(1 - e), the trace missing from the projection."""
        return float((self.algebra.identity() - self.operator).trace().real)

    def trace(self) -> float:
        return float(self.operator.trace().real)


def compressed_sup(stacks, e: Projection, mode="two_sided") -> float:
    """max over a stack of operators a of ||e a e|| ("two_sided") or
    ||a e|| ("one_sided"), computed on the range of e with one batched
    SVD per block; `stacks` holds one (m, d_i, d_i) array per block (see
    `AlgebraSpec.block_stacks`).  Exactly zero for e = 0."""
    if mode not in ("two_sided", "one_sided"):
        raise ValueError(f"unknown mode {mode!r}")
    best = 0.0
    for i, stack in enumerate(stacks):
        basis = e.block_basis(i)
        if basis.shape[1] == 0 or len(stack) == 0:
            continue
        c = (basis.conj().T @ stack @ basis if mode == "two_sided"
             else stack @ basis)
        best = max(best, float(np.linalg.svd(c, compute_uv=False)[:, 0].max()))
    return best


def require_hermitian(x: Operator, tol=None, what="operator"):
    if not x.is_hermitian(tol):
        raise NotHermitianError(f"{what} is not self-adjoint within tolerance")
