"""Finite tracial matrix algebras: elements, trace, involution, order.

The ambient object is a finite direct sum of full complex matrix blocks
M_{d_1} (+) ... (+) M_{d_r} carrying the weighted trace
tau(x) = sum_i w_i * tr(x_i) with strictly positive weights w_i.  Every
element is bounded, so all the L_p spaces coincide with the algebra as
sets and the norms below are honest finite formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AlgebraMismatchError, NotHermitianError,
                     ProjectionCertificateError)
from .util import DEFAULT_TOL, short_hash


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

    def is_hermitian(self) -> bool:
        return all(np.linalg.norm(b - b.conj().T, 2) <= DEFAULT_TOL
                   for b in self._blocks)

    def is_positive(self) -> bool:
        if not self.is_hermitian():
            return False
        return all(b.shape[0] == 0 or
                   float(np.linalg.eigvalsh(b)[0]) >= -DEFAULT_TOL
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
        lengths = [len(flat) for flat in data["blocks"]]
        if lengths != [d * d for d in algebra.dims]:
            raise AlgebraMismatchError(f"block lengths {lengths} do not fit "
                                       f"dims {algebra.dims} (d*d each)")
        return cls(algebra, [
            np.reshape([complex(re, im) for re, im in flat], (d, d))
            for d, flat in zip(algebra.dims, data["blocks"])])

    def __repr__(self):
        return f"Operator(dims={self.algebra.dims})"


def hermitian_decompose(x: Operator):
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


def _defect_norm(a) -> float:
    """||a||_2 where it may exceed DEFAULT_TOL, else an upper bound on it.

    The Frobenius norm is at least the 2-norm, so one of at most
    DEFAULT_TOL/2 stands in for it: the half-tol margin covers the rounding
    of both norms, so a test against DEFAULT_TOL gives the 2-norm's verdict
    without its SVD.  A larger defect is the 2-norm itself, as an error
    message prints it."""
    frobenius = float(np.linalg.norm(a))
    if frobenius <= DEFAULT_TOL / 2:
        return frobenius
    return float(np.linalg.norm(a, 2))


class Projection:
    """Certified self-adjoint idempotent.

    Construction verifies ||e^2 - e||, ||e - e*|| <= DEFAULT_TOL and that
    all eigenvalues sit within DEFAULT_TOL of {0, 1}; the stored operator
    is the cleaned version obtained by rounding eigenvalues to {0, 1}.
    """

    __slots__ = ("operator", "_bases")

    def __init__(self, op: Operator):
        bases = []
        clean_blocks = []
        for b in op.blocks:
            herm_defect = _defect_norm(b - b.conj().T)
            idem_defect = _defect_norm(b @ b - b)
            if herm_defect > DEFAULT_TOL:
                raise ProjectionCertificateError(
                    f"not self-adjoint (defect {herm_defect:.2e})")
            if idem_defect > DEFAULT_TOL:
                raise ProjectionCertificateError(
                    f"not idempotent (defect {idem_defect:.2e})")
            lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
            dist = np.minimum(np.abs(lam), np.abs(lam - 1.0))
            if lam.size and float(dist.max()) > DEFAULT_TOL:
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


# The screens of `screened_top` and `compressed_sup`: how many matrices
# of largest bound set the floor, and the slack, in units of the stack's
# largest entry, that covers rounding in the bounds and in the exact
# values (of order k^3 * 2^-52 in those units for k x k blocks, so for up
# to a few hundred rows).
SCREEN_FLOOR_COUNT = 8
SCREEN_SLACK = 1e-8
_NORMAL_MIN = float(np.finfo(float).tiny)


def _power_of_two_scale(stack):
    """The power of two that puts the largest real or imaginary part of
    the stack in [1/4, 1), where no square of an entry that matters
    underflows or overflows; scaling by it is exact.  None where that
    part is not a finite normal number (NaN, inf, zero, subnormal)."""
    largest = max(float(np.abs(stack.real).max()),
                  float(np.abs(stack.imag).max()))
    if not _NORMAL_MIN <= largest < np.inf:
        return None
    # 2 half >= the exponent of the largest part
    half = -(-int(np.frexp(largest)[1]) // 2)
    return 2.0 ** (-2 * half)


def _largest(values, count):
    """Indices of the `count` largest values, largest first, by repeated
    argmax, not numpy's sort code, which on first use adds about 0.4 MiB
    to the peak resident memory of a certify run."""
    remaining = np.array(values, dtype=float)
    first = np.empty(count, dtype=np.intp)
    for j in range(count):
        first[j] = np.argmax(remaining)
        remaining[first[j]] = -np.inf
    return first


def _top_eigenvalue_bound(h):
    """Upper bound on lambda_max of each Hermitian matrix in the stack h:
    m + ||h - m 1||_F sqrt((k-1)/k) with m = tr(h)/k (Wolkowicz and
    Styan, Linear Algebra Appl. 29, 1980); it is at most ||h||_F.  The
    spread is summed from the entries of h - m 1, so it does not cancel."""
    k = h.shape[-1]
    diagonal = np.arange(k)
    diag = h[:, diagonal, diagonal].real
    mean = diag.mean(axis=-1)
    squares = h.real ** 2 + h.imag ** 2
    squares[:, diagonal, diagonal] = (diag - mean[:, None]) ** 2
    return mean + np.sqrt(squares.sum(axis=(-2, -1)) * ((k - 1) / k))


def screened_top(stack, exact):
    """The exact top values of the matrices in `stack` that can reach the
    largest one, with the exact outputs that go with them.

    exact(sub) maps a sub-stack to a tuple of arrays whose first holds
    sigma_max(a) of each matrix a.  Returns (index, outputs): the indices
    of the matrices evaluated, in no set order, and exact(stack[index]).

    The screen bounds lambda_max(a* a), the square of sigma_max(a), by
    `_top_eigenvalue_bound`, on the stack scaled by `_power_of_two_scale`.
    The SCREEN_FLOOR_COUNT matrices of largest bound are evaluated first;
    the best of their values is the floor.  One more batched call
    evaluates the matrices whose bound plus SCREEN_SLACK reaches the
    floor.  A matrix left out has a value strictly below the floor, so it
    is neither the largest value nor tied with it.  LAPACK runs on each
    matrix of a batch alone, so every value and vector is bit-identical
    to a call on the whole stack.  A stack of at most SCREEN_FLOOR_COUNT
    matrices, or one that `_power_of_two_scale` does not scale, is
    evaluated whole.
    """
    m = len(stack)
    every = np.arange(m)
    if m <= SCREEN_FLOOR_COUNT:
        return every, exact(stack)
    scale = _power_of_two_scale(stack)
    if scale is None:
        return every, exact(stack)
    scaled = stack * scale
    bound = _top_eigenvalue_bound(scaled.conj().swapaxes(-1, -2) @ scaled)
    first = _largest(bound, SCREEN_FLOOR_COUNT)
    head = exact(stack[first])
    floor = (float(head[0].max()) * scale) ** 2
    keep = ~(bound + SCREEN_SLACK < floor)  # a NaN floor keeps every one
    keep[first] = False
    rest = np.flatnonzero(keep)
    if rest.size == 0:
        return first, head
    tail = exact(stack[rest])
    return (np.concatenate([first, rest]),
            tuple(np.concatenate([h, t]) for h, t in zip(head, tail)))


class SupScreen(NamedTuple):
    """What `compressed_sup` knows of one block's stack a_0, ..., a_N
    before it sees a projection, in the stack's own units.

    distances[n] = ||a_n - a_N||_F.  reach = ||a_N||_F + max_n
    distances[n] bounds ||a_n|| for every n, so it bounds every
    compression of the block.  slack is SCREEN_SLACK in units of the
    stack's largest real or imaginary part.  head holds N and then the
    SCREEN_FLOOR_COUNT other n of largest distance, the averages that
    `compressed_sup` measures first."""

    distances: np.ndarray
    reach: float
    slack: float
    head: np.ndarray


def sup_screen(stack, rows):
    """The `SupScreen` of one block's stack, or None where
    `_power_of_two_scale` does not scale it.  The distances are taken on
    the scaled stack, `rows` matrices at a time, so no second copy of a
    large stack is held, and then scaled back exactly."""
    scale = _power_of_two_scale(stack)
    if scale is None:
        return None
    last = stack[-1] * scale
    distances = np.concatenate([
        np.linalg.norm(stack[n:n + rows] * scale - last, axis=(-2, -1))
        for n in range(0, len(stack), rows)])
    reach = (float(np.linalg.norm(last)) + float(distances.max())) / scale
    others = distances[:-1]
    head = np.append(len(stack) - 1,
                     _largest(others, min(SCREEN_FLOOR_COUNT, len(others))))
    return SupScreen(distances / scale, reach, SCREEN_SLACK / scale, head)


def compress(stack, basis, mode):
    """The compressions of a stack of operators a of one block to the
    range of its orthonormal columns b: b* a b ("two_sided"), whose norm
    is ||e a e||, or a b ("one_sided"), whose norm is ||a e||."""
    if mode == "two_sided":
        return basis.conj().T @ stack @ basis
    if mode == "one_sided":
        return stack @ basis
    raise ValueError(f"unknown mode {mode!r}")


def _svd_top(c):
    return (np.linalg.svd(c, compute_uv=False)[:, 0],)


def compressed_sup(stacks, e: Projection, mode="two_sided",
                   screens=None) -> float:
    """max over a stack of operators a of ||e a e|| ("two_sided") or
    ||a e|| ("one_sided"), computed on the range of e; `stacks` holds one
    (m, d_i, d_i) array per block (see `AlgebraSpec.block_stacks`).
    Exactly zero for e = 0.

    Each block is measured through `screened_top`, which runs its batched
    SVD only on the compressions whose bound can reach the block's
    largest norm.  `screens`, one `sup_screen` per block, lets the sup
    skip more.  A compression shrinks norms, so with r = a_N and
    delta_n = ||a_n - r||_F, ||e a_n e|| <= ||e r e|| + delta_n and
    ||a_n e|| <= ||r e|| + delta_n.  The blocks run in decreasing reach,
    and a block whose reach plus slack is below the best value so far is
    skipped.  In a block, N and the n of largest delta_n are measured
    first; only the n whose bound plus slack reaches the best value are
    compressed, and `screened_top` measures them.  Every n or block left
    out lies strictly below the sup, and LAPACK treats each matrix of a
    batch alone, so the float is the one an SVD of every compression
    gives.  A block without a screen is compressed whole and never
    skipped."""
    screens = screens or (None,) * len(stacks)
    # the unscreened blocks first, then in decreasing reach
    order = sorted(range(len(stacks)), key=lambda i: -np.inf
                   if screens[i] is None else -screens[i].reach)
    best = 0.0
    for i in order:
        stack, screen, basis = stacks[i], screens[i], e.block_basis(i)
        if screen is None:
            c = compress(stack, basis, mode)
            if c.size:
                _, (top,) = screened_top(c, _svd_top)
                best = max(best, float(top.max()))
            continue
        if not basis.shape[1] or screen.reach + screen.slack < best:
            continue
        (head,) = _svd_top(compress(stack[screen.head], basis, mode))
        best = max(best, float(head.max()))
        # head[0] is the norm of the compressed reference a_N
        keep = ~(head[0] + screen.distances + screen.slack < best)
        keep[screen.head] = False
        rest = np.flatnonzero(keep)
        if rest.size:
            _, (top,) = screened_top(compress(stack[rest], basis, mode),
                                     _svd_top)
            best = max(best, float(top.max()))
    return best


def require_hermitian(x: Operator, what="operator"):
    if not x.is_hermitian():
        raise NotHermitianError(f"{what} is not self-adjoint within tolerance")
