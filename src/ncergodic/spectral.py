"""Clustered Hermitian eigendecomposition, positive powers and meets of
projections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Operator, Projection, require_hermitian
from .errors import NotPositiveError
from .util import EIG_CLUSTER_TOL, MEET_KERNEL_TOL, resolve_tol


@dataclass
class SpectralDecomposition:
    """Clustered eigenvalues with mutually orthogonal eigenprojections.

    eigenvalues are ascending cluster representatives (weighted means of
    the raw eigenvalues merged within the cluster tolerance); projections
    sum to the identity blockwise.
    """

    algebra: AlgebraSpec
    eigenvalues: np.ndarray
    projections: list

    def projection_where(self, predicate) -> Projection:
        """Sum of eigenprojections whose eigenvalue satisfies the predicate."""
        bases = []
        for i, d in enumerate(self.algebra.dims):
            cols = [p.block_basis(i) for lam, p in
                    zip(self.eigenvalues, self.projections)
                    if predicate(float(lam)) and p.block_basis(i).shape[1]]
            if cols:
                bases.append(np.concatenate(cols, axis=1))
            else:
                bases.append(np.zeros((d, 0), dtype=complex))
        return Projection.from_basis(self.algebra, bases)


def eigh(x: Operator, tol=None, cluster_tol=EIG_CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian element.

    Eigenvalues are collected across all blocks and merged into clusters
    of width cluster_tol; each cluster owns one (block-diagonal)
    eigenprojection.  Merging keeps meets and interval projections
    stable at degenerate eigenvalues.
    """
    require_hermitian(x, tol, "eigh input")
    entries = []  # (eigenvalue, block index, eigenvector column)
    for i, b in enumerate(x.blocks):
        lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
        for k in range(lam.size):
            entries.append((float(lam[k]), i, vecs[:, k]))
    entries.sort(key=lambda t: t[0])

    clusters = []
    for item in entries:
        if clusters and item[0] - clusters[-1][-1][0] <= cluster_tol:
            clusters[-1].append(item)
        else:
            clusters.append([item])

    eigenvalues = []
    projections = []
    for cluster in clusters:
        eigenvalues.append(sum(t[0] for t in cluster) / len(cluster))
        bases = []
        for i, d in enumerate(x.algebra.dims):
            cols = [t[2].reshape(d, 1) for t in cluster if t[1] == i]
            if cols:
                bases.append(np.concatenate(cols, axis=1))
            else:
                bases.append(np.zeros((d, 0), dtype=complex))
        projections.append(Projection.from_basis(x.algebra, bases))
    return SpectralDecomposition(x.algebra, np.array(eigenvalues), projections)


def positive_power(x: Operator, p: float, tol=None) -> Operator:
    """x^p for positive x via functional calculus (tiny negative
    eigenvalues from roundoff are clipped to zero)."""
    tol = resolve_tol(tol)
    if not x.is_positive(tol):
        raise NotPositiveError("positive_power needs a positive operator")
    blocks = []
    for b in x.blocks:
        lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
        lam = np.clip(lam, 0.0, None)
        blocks.append((vecs * lam ** p) @ vecs.conj().T)
    return Operator(x.algebra, blocks)


def projection_meet(e: Projection, f: Projection,
                    kernel_tol=MEET_KERNEL_TOL) -> Projection:
    """Projection onto range(e) intersect range(f).

    Computed as the kernel of e_perp + f_perp: eigenvectors with
    eigenvalue below kernel_tol span the intersection.  This is the
    numerically robust equivalent of intersecting ranges directly.
    """
    if e.algebra != f.algebra:
        raise ValueError("projections live in different algebras")
    obstruction = e.complement().operator + f.complement().operator
    bases = []
    for i, d in enumerate(e.algebra.dims):
        b = obstruction.block(i)
        lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
        keep = lam <= kernel_tol
        bases.append(vecs[:, keep])
    return Projection.from_basis(e.algebra, bases)


def projection_meet_all(projections, kernel_tol=MEET_KERNEL_TOL) -> Projection:
    """Meet of a non-empty family, folded pairwise."""
    projections = list(projections)
    if not projections:
        raise ValueError("need at least one projection")
    out = projections[0]
    for f in projections[1:]:
        out = projection_meet(out, f, kernel_tol)
    return out
