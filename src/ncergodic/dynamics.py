"""Dunford-Schwartz maps on block algebras: construction, verification,
ergodic averages and exact Cesaro limits.

One recurrence, `ergodic_averages`, yields the plain averages M_n and
the Besicovitch-weighted averages M_{beta,n} alike (the plain ones are
beta = 1), as vectors multiplied by the superoperator step by step.

A channel is stored as a dense superoperator on the vectorized algebra,
whose spectrum it computes once and caches for the spectral gap and the
exact Cesaro limits.  A map that preserves Hermiticity, as every
positive map does, has a real matrix in the Hermitian basis of each
block, and its spectrum is computed from that real matrix; any other
map keeps the complex superoperator.  A channel is DS+ when it is
positive, subunital and trace-nonincreasing on positives; for positive
maps subunitality already gives the uniform-norm contraction, and
trace-nonincreasing is equivalent to subunitality of the trace adjoint,
T*(1) <= 1.  DS+ is the one contract of the ergodic theorems (Yeadon,
Math. Proc. Cambridge 1977): any linear map can be built and verified,
but only a DS+ channel is meant for averages, witnesses and limits.
Constructors build: they check only what their data and kind need
(shapes, a diagonal algebra, a Hermitian positive semidefinite
multiplier, a unitary), and `verify_ds` alone decides DS+, once per
channel.

Each superoperator is built once, in place, and never copied: a Kraus
map adds its terms a row of kron(a, conj(a)) at a time into its block,
a mixture adds its channels one at a time into one accumulator, and
`Channel` keeps a read-only, C-contiguous complex128 array that owns its
data as it is.  Building a channel therefore holds one dense
superoperator and temporaries of a few rows; a mixture holds two, its
accumulator and the channel being added.  Any other array, a caller's
writeable one or a view of it included, is copied, so a channel never
freezes or aliases an array that its caller can still write.

`verify_ds` certifies positivity as complete positivity: by Kraus data,
which compositions, mixtures and multiples by c >= 0 pass on, or by
Choi's theorem (Choi, Linear Algebra Appl. 1975), under which a map on
the sum of the M_{d_i} is completely positive exactly when every
block-pair Choi matrix is positive semidefinite.  A positive map that is
not completely positive, such as the transpose, is left unverified.

A certified map skips the dense spectrum when it is a strict
contraction.  Positive maps have ||T||_inf = ||T(1)|| and
||T||_1 = ||T*(1)||, so Riesz-Thorin interpolation between L_1 and
L_inf gives rho(T) <= ||T||_2 <= r = sqrt(||T(1)|| ||T*(1)||), both
factors taken from `verify_ds`.  When r < 1 - EIG_CLUSTER_TOL no
eigenvalue of phase*T lies within EIG_CLUSTER_TOL of 1, for any
unimodular phase, so every cluster count is 0 and every Cesaro limit
is 0.  The spectral gap is then 1 - rho(T), and rho(T) comes from a
restarted Arnoldi run started at vec(1).  By the noncommutative
Perron-Frobenius theorem (Evans and Hoegh-Krohn, J. London Math. Soc.
1978) rho(T) is an eigenvalue of T and of T*, with a positive
eigenvector psi of T*; the start has overlap tau(psi) > 0 with it, so
the Krylov space reaches rho(T).  A run that does not converge within
its restart budget falls back to the dense spectrum.  The Arnoldi run
takes its product as a function (`Channel._matvec`): a map with Kraus
data a_1..a_k applies x -> sum_k a_k x a_k* block by block, 2 k d_i^3
complex multiply-adds and a fixed cost per block against vec_dim^2 for
the dense product, and uses it when that costs less, so the gap of a
certified Kraus contraction on a few large blocks reads no dense
matrix.  The recurrence keeps the dense product, whose rounding the
recorded averages carry.

A map with Kraus data whose bound r does not settle a cluster count,
a unital or trace-preserving one with r = 1, can still settle the
count 0 without its spectrum.  Its superoperator is block diagonal,
one block S_i per block of the algebra, and every eigenvalue mu of a
matrix A lies in its numerical range {v* A v : |v| = 1}
(Toeplitz-Hausdorff; Horn and Johnson, Topics in Matrix Analysis, 1991,
ch. 1), so Re mu <= lambda_max(Herm A) with Herm A = (A + A*)/2.  When
(1 - EIG_CLUSTER_TOL) I - Herm(phase S_i) has a Cholesky factor for
every block, Re(phase lambda) < 1 - EIG_CLUSTER_TOL for every
eigenvalue lambda of T, and the cluster of phase*T at 1 is empty.  One
factorization of a d_i^2 x d_i^2 matrix per block costs a fraction of
the dense spectrum; the first one that fails hands this and every later
count to the dense spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Operator
from .errors import ChannelConstructionError, SemisimplicityError
from .rng import random_operator, random_unitary_operator, stream
from .util import DEFAULT_TOL, EIG_CLUSTER_TOL, row_slices

# Krylov dimension and restart budget of `_krylov_spectral_radius`;
# a run stops once the top Ritz value's residual is within
# _KRYLOV_RTOL of its modulus.
_KRYLOV_DIM = 30
_KRYLOV_RESTARTS = 20
_KRYLOV_RTOL = 1e-12

# The fixed cost of one block of a Kraus-form product (`_kraus_product`),
# its slicing, reshapes and two matmul calls, counted in the dense
# product's complex multiply-adds: about 3-9 us per block against a
# dense rate of 2-7 multiply-adds per ns, measured with NumPy's
# OpenBLAS on a 2-vCPU x86-64 host.  Without it a map on 96 blocks of
# size 1 would take the Kraus form, at 280-300 us per product against
# 4 us dense.
_KRAUS_BLOCK_COST = 2 ** 15


class Channel:
    """Linear map on the algebra, stored as a dense superoperator.

    Vectorization is row-major per block, blocks concatenated.
    `verification` is the `verify_ds` report taken at construction.
    `superop` is read-only.  A read-only, C-contiguous complex128 ndarray
    that owns its data is kept as it is, which is how the constructors
    hand over the one array they build; anything else, a view included,
    is copied, so a caller's writeable array is never frozen or aliased.
    """

    __slots__ = ("algebra", "superop", "kraus", "kind", "verification",
                 "_eigenvalues", "_numerical_range")

    def __init__(self, algebra: AlgebraSpec, superop, kraus=None,
                 kind="custom"):
        n = algebra.vec_dim
        if not (type(superop) is np.ndarray and superop.dtype == complex
                and superop.flags.c_contiguous and superop.flags.owndata
                and not superop.flags.writeable):
            try:
                superop = np.array(superop, dtype=complex)
            except ValueError as exc:  # a ragged matrix
                raise ChannelConstructionError(
                    f"superoperator: {exc}") from exc
            superop.flags.writeable = False
        if superop.shape != (n, n):
            raise ChannelConstructionError(
                f"superoperator must be {n}x{n}, got {superop.shape}")
        self.algebra = algebra
        self.superop = superop
        self.kraus = tuple(kraus) if kraus else None
        self.kind = kind
        self._eigenvalues = None
        self._numerical_range = False  # a count was settled without eigvals
        self.verification = verify_ds(self)

    # -- application ------------------------------------------------------

    def apply(self, x: Operator) -> Operator:
        if x.algebra != self.algebra:
            raise ChannelConstructionError("operator from a different algebra")
        return Operator.from_vec(self.algebra, self.superop @ x.vec())

    def eigenvalues(self) -> np.ndarray:
        """Superoperator spectrum, computed once, cached read-only.

        A map with T(x*) = T(x)* has a real matrix in Hermitian
        coordinates (`_hermitian_superop`), with the same spectrum, and
        real `eigvals` takes about a quarter of the complex flops.
        `verify_ds` has decided which maps these are: those with Kraus
        data and those that pass the Hermitian test of their Choi
        matrices.  Any other map (a complex multiple) keeps `eigvals` of
        the complex superoperator.
        """
        if self._eigenvalues is None:
            report = self.verification
            hermitian = (report.evidence == "kraus"
                         or report.choi_min_eigenvalue is not None)
            eigs = np.asarray(np.linalg.eigvals(
                _hermitian_superop(self.algebra, self.superop) if hermitian
                else self.superop), dtype=complex)
            eigs.flags.writeable = False
            self._eigenvalues = eigs
        return self._eigenvalues

    @property
    def spectral_radius_bound(self):
        """r = sqrt(||T(1)|| ||T*(1)||) >= rho(T) (Riesz-Thorin) when
        `verify_ds` certified the map positive; None otherwise."""
        report = self.verification
        if not report.positive:
            return None
        return float(np.sqrt(max(
            report.subunital_value * report.adjoint_unit_value, 0.0)))

    def _strict_contraction(self) -> bool:
        r = self.spectral_radius_bound
        return r is not None and r < 1.0 - EIG_CLUSTER_TOL

    @property
    def spectrum(self) -> str:
        """"certified-contraction" when the cluster counts come from the
        bound r, "numerical-range" when every count asked came from
        `_numerical_range_excludes`, and "dense" otherwise or once the
        dense spectrum has been computed."""
        if self._eigenvalues is None:
            if self._strict_contraction():
                return "certified-contraction"
            if self._numerical_range:
                return "numerical-range"
        return "dense"

    def eigenspace_dim(self, phase=1.0) -> int:
        """Eigenvalues of phase*T within EIG_CLUSTER_TOL of 1 (dim Fix(T)).

        0 without a spectrum when r = `spectral_radius_bound` is below
        1 - EIG_CLUSTER_TOL: every eigenvalue has |lambda| <= r, so
        |phase lambda - 1| >= 1 - r > EIG_CLUSTER_TOL.  Otherwise, while
        no dense spectrum is cached, 0 when the numerical range of
        phase*T stays left of 1 - EIG_CLUSTER_TOL, which one Cholesky
        factorization per block proves (`_numerical_range_excludes`):
        every eigenvalue lies in the numerical range, so
        |phase lambda - 1| >= 1 - Re(phase lambda) > EIG_CLUSTER_TOL.
        Any other count is read from the dense spectrum.
        """
        if self._strict_contraction():
            return 0
        if self._eigenvalues is None and self._numerical_range_excludes(phase):
            self._numerical_range = True
            return 0
        return int(np.count_nonzero(
            np.abs(phase * self.eigenvalues() - 1.0) <= EIG_CLUSTER_TOL))

    def _numerical_range_excludes(self, phase) -> bool:
        """True when (1 - EIG_CLUSTER_TOL) I - Herm(phase S_i) factors by
        Cholesky for every diagonal block S_i of the superoperator; False
        at the first block that does not, and for a map without Kraus data,
        whose superoperator need not be block diagonal.

        A block is refuted without a factorization when the unit vector
        vec(1)/sqrt(d_i) already reaches the bound, as it does at phase 1
        for a unital or trace-preserving map.  Otherwise its shifted
        Hermitian part is built in `row_slices` into one array, exactly
        Hermitian: entry (a, b) negates (phase S[a, b] + conj(phase
        S[b, a])) / 2.
        """
        if not self.kraus:
            return False
        for off, d in zip(self.algebra.block_offsets(), self.algebra.dims):
            m = d * d
            block = self.superop[off:off + m, off:off + m]
            unit = np.arange(d) * (d + 1)  # the entries of vec(1) in block
            if ((phase * block[np.ix_(unit, unit)].sum()).real / d
                    >= 1.0 - EIG_CLUSTER_TOL):
                return False
            shifted = np.empty((m, m), dtype=complex)
            for rows in row_slices(m, m):
                shifted[rows] = -0.5 * (phase * block[rows]
                                        + (phase * block[:, rows]).conj().T)
            shifted.flat[::m + 1] += 1.0 - EIG_CLUSTER_TOL
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                return False
        return True

    def spectral_gap(self) -> float:
        """1 minus the largest |eigenvalue| outside the cluster at 1.

        For a certified strict contraction (r < 1 - EIG_CLUSTER_TOL, see
        `eigenspace_dim`) the cluster is empty and the gap is 1 - rho(T),
        with rho(T) from `_krylov_spectral_radius` unless the dense
        spectrum is cached already or the Krylov run gives up; otherwise
        it is read from the cached dense spectrum.
        """
        if self._eigenvalues is None and self._strict_contraction():
            radius = _krylov_spectral_radius(self._matvec(),
                                             self.algebra.identity().vec())
            if radius is not None:
                return 1.0 - radius
        eigs = self.eigenvalues()
        outside = np.abs(eigs[np.abs(eigs - 1.0) > EIG_CLUSTER_TOL])
        return float(1.0 - outside.max()) if outside.size else 1.0

    def _matvec(self):
        """v -> superop @ v as a function: in Kraus form
        (`_kraus_product`) for a map with Kraus data a_1..a_k whose
        products cost less, 2 k sum_i d_i^3 + _KRAUS_BLOCK_COST per
        block < vec_dim^2 complex multiply-adds; the dense product
        otherwise."""
        algebra, kraus = self.algebra, self.kraus
        if kraus and (sum(2 * len(kraus) * d ** 3 + _KRAUS_BLOCK_COST
                          for d in algebra.dims) < algebra.vec_dim ** 2):
            return _kraus_product(algebra, kraus)
        superop = self.superop
        return lambda v: superop @ v

    def __repr__(self):
        return f"Channel(kind={self.kind!r}, dims={self.algebra.dims})"


def _weight_vector(algebra: AlgebraSpec) -> np.ndarray:
    parts = [np.full(d * d, w) for d, w in algebra.blocks]
    return np.concatenate(parts)


def _kraus_product(algebra: AlgebraSpec, kraus):
    """The product v -> vec T(x), x the operator with vec x = v, of
    T(x) = sum_k a_k x a_k*, without the superoperator.

    Per block, of size d, the k Kraus blocks are stacked once, as the
    (k d, d) columns [a_1; ...; a_k] and [a_1*; ...; a_k*].  A product
    then takes every a_k x in one matmul of the first column with x, and
    sum_k (a_k x) a_k* in one matmul of the row [a_1 x, ..., a_k x] with
    the second: 2 k d^3 complex multiply-adds against d^4 for the
    block's dense rows, plus the fixed cost of the block's calls
    (`_KRAUS_BLOCK_COST`).
    """
    blocks = []
    for i, (off, d) in enumerate(zip(algebra.block_offsets(), algebra.dims)):
        stack = np.stack([a.block(i) for a in kraus])
        blocks.append((slice(off, off + d * d), d, stack.reshape(-1, d),
                       stack.conj().transpose(0, 2, 1).reshape(-1, d)))
    k = len(kraus)

    def product(v):
        out = np.empty(v.shape, dtype=complex)
        for rows, d, column, adjoints in blocks:
            terms = (column @ v[rows].reshape(d, d)).reshape(k, d, d)
            out[rows] = (terms.transpose(1, 0, 2).reshape(d, -1)
                         @ adjoints).ravel()
        return out

    return product


def _krylov_spectral_radius(matvec, start):
    """Largest |eigenvalue| of the map v -> matvec(v) by explicitly
    restarted Arnoldi, or None when the restart budget runs out.

    Each cycle builds a Krylov basis of _KRYLOV_DIM vectors (classical
    Gram-Schmidt, applied twice, with coefficients conj(B conj(w)) for
    the basis rows B, so that no conjugated copy of B is made) and
    restarts on the Ritz vector of the top-modulus Ritz value theta.
    The run stops once that Ritz pair's residual |h_{k+1,k}| |y_k| is at
    most _KRYLOV_RTOL |theta|; an invariant Krylov space (breakdown)
    gives residual 0.  Seen from vec(1), a positive map's top Ritz value
    converges to rho(T) (module docstring).  `Channel.spectral_gap`
    passes `Channel._matvec`, the Kraus form where it is cheaper.
    """
    m = min(_KRYLOV_DIM, start.size)
    basis = np.empty((m + 1, start.size), dtype=complex)
    hess = np.empty((m + 1, m), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    for _ in range(_KRYLOV_RESTARTS):
        hess[:] = 0.0
        k = m
        for j in range(m):
            w = matvec(basis[j])
            for _ in range(2):
                coeffs = (basis[:j + 1] @ w.conj()).conj()
                w = w - coeffs @ basis[:j + 1]
                hess[:j + 1, j] += coeffs
            beta = np.linalg.norm(w)
            hess[j + 1, j] = beta
            if beta <= np.finfo(float).eps * np.linalg.norm(hess[:j + 2, j]):
                k = j + 1
                break
            basis[j + 1] = w / beta
        theta, vecs = np.linalg.eig(hess[:k, :k])
        top = int(np.argmax(np.abs(theta)))
        if (abs(hess[k, k - 1]) * abs(vecs[k - 1, top])
                <= _KRYLOV_RTOL * abs(theta[top])):
            return float(abs(theta[top]))
        ritz = vecs[:, top] @ basis[:k]
        basis[0] = ritz / np.linalg.norm(ritz)
    return None


def _hermitian_superop(algebra: AlgebraSpec, superop):
    """Q* S Q as a float64 matrix, for a map S with T(x*) = T(x)*: these
    are exactly the maps for which Q* S Q is real, so the imaginary part
    dropped is rounding (`Channel.eigenvalues` decides which maps).

    Q is the per-block unitary change from the row-major vectorization
    to the Hermitian basis {E_ii, (E_ij + E_ji)/sqrt 2,
    i(E_ij - E_ji)/sqrt 2 : i < j}.  Column a of Q is
    u_a e_{p_a} + v_a e_{q_a}, so each row of Q* S Q combines two rows
    and two columns of S, and Q is never formed.  The rows are built in
    `row_slices` into one float64 output.
    """
    p, q, u, v = [], [], [], []
    r = np.sqrt(0.5)
    for off, d in zip(algebra.block_offsets(), algebra.dims):
        diag = off + np.arange(d) * (d + 1)
        i, j = np.triu_indices(d, 1)
        upper, lower = off + i * d + j, off + j * d + i
        pairs = np.ones(upper.size)
        p += [diag, upper, upper]
        q += [diag, lower, lower]
        u += [np.ones(d), r * pairs, 1j * r * pairs]
        v += [np.zeros(d), r * pairs, -1j * r * pairs]
    p, q = np.concatenate(p), np.concatenate(q)
    u, v = np.concatenate(u), np.concatenate(v)
    n = p.size
    out = np.empty((n, n))
    for rows in row_slices(n, n):
        left = (u[rows, None].conj() * superop[p[rows]]
                + v[rows, None].conj() * superop[q[rows]])
        out[rows] = (left[:, p] * u + left[:, q] * v).real
    return out


def _choi_min_eigenvalue(algebra: AlgebraSpec, superop):
    """Smallest eigenvalue over the Choi matrices of all block pairs, or
    None when one of them is not Hermitian within DEFAULT_TOL.

    The pair (i, j) restricts the map to M_{d_j} -> M_{d_i}; its Choi
    matrix sum_ce E_ce (x) T(E_ce) has entries C_ij[(c,a),(e,b)] =
    S_ij[(a,b),(c,e)], S_ij its block of the superoperator.  So every
    C_ij is Hermitian exactly when S[(a,b),(c,e)] = conj S[(b,a),(e,c)]
    throughout, T(x*) = T(x)*; that is tested on the superoperator in
    `row_slices`, entry for entry the differences of C - C^H, without a
    full-size temporary.  The pairs of equal (d_i, d_j) then form one
    stack, gathered by one fancy index straight into Choi order and
    handed to one batched `eigvalsh` before the next stack is gathered.
    """
    offsets = algebra.block_offsets()
    swap = np.concatenate([off + np.arange(d * d).reshape(d, d).T.ravel()
                           for off, d in zip(offsets, algebra.dims)])
    for rows in row_slices(swap.size, swap.size):
        mirror = superop[swap[rows]][:, swap]
        if np.abs(superop[rows] - mirror.conj()).max() > DEFAULT_TOL:
            return None
    groups = {}
    for off, d in zip(offsets, algebra.dims):
        groups.setdefault(d, []).append(off)
    minima = []
    for d_out, out_offs in groups.items():
        # index axes (out block, in block, c, a, e, b): rows give the
        # output entry (a, b), cols the input entry (c, e)
        rows = np.add.outer(out_offs, np.arange(d_out * d_out)).reshape(
            -1, 1, 1, d_out, 1, d_out)
        for d_in, in_offs in groups.items():
            cols = np.add.outer(in_offs, np.arange(d_in * d_in)).reshape(
                1, -1, d_in, 1, d_in, 1)
            m = d_in * d_out
            choi = superop[rows, cols].reshape(-1, m, m)
            minima.append(float(np.linalg.eigvalsh(choi)[:, 0].min()))
    return min(minima)


@dataclass
class DSVerification:
    """Outcome of the three Dunford-Schwartz checks.  `positive` means
    certified completely positive, with `evidence` "kraus" or "choi", else
    "unverified"; `choi_min_eigenvalue` is None when it was not needed
    (Kraus data) or not defined (a non-Hermitian Choi matrix)."""

    positive: bool
    evidence: str
    choi_min_eigenvalue: float | None
    subunital: bool
    subunital_value: float
    trace_nonincreasing: bool
    adjoint_unit_value: float

    @property
    def is_ds_plus(self) -> bool:
        return self.positive and self.subunital and self.trace_nonincreasing


def verify_ds(channel: Channel) -> DSVerification:
    """Verify the DS+ conditions of a channel, reporting all failures.

    (a) complete positivity: by construction for a channel with Kraus
        data, otherwise when every block-pair Choi matrix is Hermitian
        with smallest eigenvalue >= -tol (`_choi_min_eigenvalue`);
    (b) subunitality ||T(1)|| <= 1 + tol, which for positive maps is the
        uniform-norm contraction;
    (c) largest eigenvalue of the trace-adjoint applied to the identity
        <= 1 + tol, equivalent to trace-nonincreasing on positives;
    all with tol = DEFAULT_TOL.
    """
    tol = DEFAULT_TOL
    margin = None
    if channel.kraus:
        evidence = "kraus"
    else:
        margin = _choi_min_eigenvalue(channel.algebra, channel.superop)
        evidence = ("choi" if margin is not None and margin >= -tol
                    else "unverified")

    algebra = channel.algebra
    unit = algebra.identity()
    unit_image = channel.apply(unit)
    subunital_value = unit_image.uniform_norm()
    # T*(1) for <x, y> = tau(x* y): T* = W^-1 S^H W with W = diag(w), read
    # as one row-vector product with S, so no second dense matrix is built
    w = _weight_vector(algebra)
    adjoint_image = Operator.from_vec(
        algebra, ((w * unit.vec()).conj() @ channel.superop).conj() / w)
    herm = (adjoint_image + adjoint_image.adjoint()) * 0.5
    adjoint_unit_value = max(float(np.linalg.eigvalsh(b)[-1].real)
                             for b in herm.blocks)

    return DSVerification(
        positive=evidence != "unverified",
        evidence=evidence,
        choi_min_eigenvalue=margin,
        subunital=bool(subunital_value <= 1.0 + tol),
        subunital_value=float(subunital_value),
        trace_nonincreasing=bool(adjoint_unit_value <= 1.0 + tol),
        adjoint_unit_value=float(adjoint_unit_value),
    )


# ---------------------------------------------------------------------
# Constructors.  Each returns a channel carrying its DS+ verification.
# ---------------------------------------------------------------------

def _frozen(superop: np.ndarray) -> np.ndarray:
    """superop, which the caller has just built, marked read-only, so
    that `Channel` keeps it without a copy."""
    superop.flags.writeable = False
    return superop


def _kraus_superop(algebra: AlgebraSpec, ops) -> np.ndarray:
    """Superoperator of x -> sum_k a_k x a_k*: per block, the sum of
    kron(a_k, conj(a_k)) in the order of ops, returned read-only.

    Row (r, k) of kron(a, conj(a)) holds a[r, j] conj(a)[k, l] at
    column (j, l), so each Kraus term is added into the block's
    (d, d, d, d) view of the output over the r of one `row_slices` slice
    at a time, with the products and the additions of `np.kron`: no
    d^2 x d^2 temporary is built.
    """
    n = algebra.vec_dim
    out = np.zeros((n, n), dtype=complex)
    for i, (off, d) in enumerate(zip(algebra.block_offsets(), algebra.dims)):
        sl = slice(off, off + d * d)
        view = out[sl, sl].reshape(d, d, d, d)
        for a in ops:
            blk = a.block(i)
            # the operand shapes of np.kron's product, which fix its bits
            conj = blk.conj()[None, :, None, :]
            for r in row_slices(d, d ** 3):
                view[r] += np.multiply(blk[r, None, :, None], conj)
    return _frozen(out)


def kraus_channel(algebra: AlgebraSpec, ops, kind="kraus") -> Channel:
    """T(x) = sum_k a_k x a_k*, completely positive by construction;
    `verify_ds` decides whether it is subunital and trace-nonincreasing."""
    return Channel(algebra, _kraus_superop(algebra, ops), kraus=ops, kind=kind)


def identity_channel(algebra: AlgebraSpec) -> Channel:
    return Channel(algebra, _frozen(np.eye(algebra.vec_dim, dtype=complex)),
                   kraus=[algebra.identity()], kind="identity")


def unitary_conjugation(u: Operator) -> Channel:
    """x -> u* x u for a block unitary u."""
    algebra = u.algebra
    defect = max(float(np.linalg.norm(
        b.conj().T @ b - np.eye(b.shape[0]), 2)) for b in u.blocks)
    if defect > DEFAULT_TOL:
        raise ChannelConstructionError(f"not unitary (defect {defect:.2e})")
    return kraus_channel(algebra, [u.adjoint()], kind="unitary")


def pinching(algebra: AlgebraSpec, labels) -> Channel:
    """Conditional expectation x -> sum_j p_j x p_j.

    labels assigns a group id to every diagonal slot (per block,
    concatenated); each group's diagonal indicator is one Kraus
    projection.  Equal labels within a block keep that sub-block of x.
    """
    labels = np.asarray(labels).ravel()
    total = sum(algebra.dims)
    if labels.size != total:
        raise ChannelConstructionError(
            f"need one label per diagonal slot ({total})")
    ops = []
    for g in sorted(set(labels.tolist())):
        mask = (labels == g).astype(float)
        ops.append(algebra.diagonal(mask))
    return kraus_channel(algebra, ops, kind="pinching")


def schur_multiplier(algebra: AlgebraSpec, mats) -> Channel:
    """Entrywise multiplier x_i -> m_i (*) x_i per block.

    Requires every m_i Hermitian positive semidefinite; the Kraus
    decomposition diag(sqrt(mu_k) v_k) comes from the eigendecomposition
    of m_i.  T(1) = T*(1) = diag(m), so `verify_ds` finds the map DS+
    exactly when every diagonal entry is at most 1.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != algebra.num_blocks:
        raise ChannelConstructionError("one multiplier matrix per block")
    ops = []
    total = sum(algebra.dims)
    offsets = np.concatenate([[0], np.cumsum(algebra.dims)])
    for i, (d, m) in enumerate(zip(algebra.dims, mats)):
        if m.shape != (d, d):
            raise ChannelConstructionError("multiplier shape mismatch")
        if np.linalg.norm(m - m.conj().T, 2) > DEFAULT_TOL:
            raise ChannelConstructionError("multiplier must be Hermitian")
        lam, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
        if lam[0] < -DEFAULT_TOL:
            raise ChannelConstructionError(
                f"multiplier not PSD (min eig {lam[0]:.2e})")
        for k in range(d):
            if lam[k] <= 0:
                continue
            col = np.zeros(total, dtype=complex)
            col[offsets[i]:offsets[i] + d] = np.sqrt(lam[k]) * vecs[:, k]
            ops.append(algebra.diagonal(col))
    return kraus_channel(algebra, ops, kind="schur")


def substochastic(algebra: AlgebraSpec, matrix) -> Channel:
    """Markov-type map on a diagonal algebra: (T x)_i = sum_j P_ij x_j.

    Requires all blocks 1x1.  `verify_ds` decides DS+: the block-pair
    Choi matrices are the entries P_ij, T(1) holds the row sums and T*(1)
    the weighted column sums sum_i w_i P_ij / w_j.
    """
    if not algebra.is_diagonal:
        raise ChannelConstructionError(
            "substochastic channels need a diagonal algebra (all blocks 1x1)")
    n = algebra.num_blocks
    try:
        p = np.asarray(matrix, dtype=float)
    except ValueError as exc:  # a ragged matrix
        raise ChannelConstructionError(f"matrix: {exc}") from exc
    if p.shape != (n, n):
        raise ChannelConstructionError(f"matrix must be {n}x{n}")
    return Channel(algebra, _frozen(p.astype(complex)), kind="substochastic")


def convex_combine(channels, probabilities) -> Channel:
    """Convex combination of channels (DS+ is closed under these), all on
    one algebra.

    `channels` may be any iterable, a generator included, and is read
    one channel at a time: p_k S_k is added into one zeroed accumulator
    in `row_slices`, so that the accumulator, the current channel and one
    slice are alive, and no channel is kept once it is added.  The sums
    are those of sum(p_k S_k), 0 + p_0 S_0 + p_1 S_1 + ..., bit for bit.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    mismatch = "need matching channels/probabilities"
    if probabilities.size == 0:
        raise ChannelConstructionError(mismatch)
    if np.any(probabilities < 0) or abs(probabilities.sum() - 1.0) > 1e-12:
        raise ChannelConstructionError("probabilities must be a distribution")
    count, algebra, superop, kraus = 0, None, None, []
    # a plain loop with `del`, not zip or enumerate, whose reused result
    # tuple would keep the last channel alive while the next is built
    for ch in channels:
        if count == probabilities.size:
            raise ChannelConstructionError(mismatch)
        if algebra is None:
            algebra, n = ch.algebra, ch.algebra.vec_dim
            superop = np.zeros((n, n), dtype=complex)
        elif ch.algebra != algebra:
            raise ChannelConstructionError("channels on different algebras")
        p = probabilities[count]
        for rows in row_slices(n, n):
            superop[rows] += p * ch.superop[rows]
        if kraus is not None and ch.kraus:
            kraus.extend(a * np.sqrt(p) for a in ch.kraus)
        else:
            kraus = None
        count += 1
        del ch
    if count != probabilities.size:
        raise ChannelConstructionError(mismatch)
    return Channel(algebra, _frozen(superop), kraus=kraus, kind="convex")


def scale_channel(channel: Channel, factor) -> Channel:
    """factor * T.  A real factor c >= 0 keeps Kraus data, as sqrt(c) a_k;
    without them (any other factor) `verify_ds` decides positivity by the
    Choi test."""
    factor = complex(factor)
    kraus = None
    if factor.imag == 0 and factor.real >= 0 and channel.kraus:
        kraus = [a * np.sqrt(factor.real) for a in channel.kraus]
    return Channel(channel.algebra, _frozen(factor * channel.superop),
                   kraus=kraus, kind=f"scaled-{channel.kind}")


def compose(outer: Channel, inner: Channel) -> Channel:
    """outer after inner."""
    if outer.algebra != inner.algebra:
        raise ChannelConstructionError("channels on different algebras")
    kraus = None
    if outer.kraus and inner.kraus:
        kraus = [a @ b for a in outer.kraus for b in inner.kraus]
    return Channel(outer.algebra, _frozen(outer.superop @ inner.superop),
                   kraus=kraus, kind="compose")


# ---------------------------------------------------------------------
# Random ensembles.
# ---------------------------------------------------------------------

def random_kraus_channel(algebra: AlgebraSpec, num_ops, rng,
                         margin=1e-3) -> Channel:
    """Seeded random Kraus channel strictly inside DS+.

    Kraus operators get independent standard complex Gaussian entries
    and are jointly rescaled so the larger of ||sum a a*|| and
    ||sum a* a|| equals 1 - margin, which keeps both DS checks strictly
    satisfied.
    """
    ops = [random_operator(algebra, rng) for _ in range(num_ops)]
    forward = sum((a @ a.adjoint() for a in ops[1:]),
                  ops[0] @ ops[0].adjoint())
    backward = sum((a.adjoint() @ a for a in ops[1:]),
                   ops[0].adjoint() @ ops[0])
    scale = max(forward.uniform_norm(), backward.uniform_norm())
    factor = np.sqrt((1.0 - margin) / scale)
    return kraus_channel(algebra, [a * factor for a in ops],
                         kind="random-kraus")


def random_unitary_mixture(algebra: AlgebraSpec, num_unitaries, rng,
                           min_gap=None) -> Channel:
    """Uniform mixture of random unitary conjugations (unital,
    trace-preserving DS+).  With min_gap set, redraws, at most 64 times,
    until the superoperator spectral gap reaches it."""
    for _ in range(64):
        parts = (unitary_conjugation(random_unitary_operator(algebra, rng))
                 for _ in range(num_unitaries))
        ch = convex_combine(parts, np.full(num_unitaries,
                                           1.0 / num_unitaries))
        if min_gap is None or ch.spectral_gap() >= min_gap:
            return ch
    raise ChannelConstructionError(
        f"no mixture with spectral gap >= {min_gap} in 64 draws")


def random_substochastic(algebra: AlgebraSpec, rng) -> Channel:
    """Random substochastic channel on a diagonal algebra: a random
    doubly-stochastic-like matrix shrunk until both sum conditions hold
    with a slack of 0.05."""
    n = algebra.num_blocks
    p = rng.random((n, n))
    w = np.array(algebra.weights)
    p /= max(np.max(p.sum(axis=1)),
             np.max((w[:, None] * p).sum(axis=0) / w))
    return substochastic(algebra, 0.95 * p)


# ---------------------------------------------------------------------
# Averages.
# ---------------------------------------------------------------------

def ergodic_averages(channel: Channel, x: Operator, n_max: int, beta=None):
    """Yield (n, vec M_{beta,n}(x)) for n = 0..n_max, one superoperator
    product per step, where M_{beta,n}(x) = (1/(n+1)) sum_{k<=n} beta_k
    T^k(x) and vec is the vectorization of `Operator.vec`.

    beta=None gives the plain averages M_n (beta = 1) without a per-step
    multiply.  A negative n_max, or a beta whose values exceed its
    declared bound on the window, raises ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if x.algebra != channel.algebra:
        raise ChannelConstructionError("operator from a different algebra")
    values = None
    if beta is not None:
        values = beta.values(n_max)
        if np.max(np.abs(values)) > beta.bound + 1e-12:
            raise ValueError("weight bound violated on the requested window")
    superop = channel.superop
    current = x.vec()
    running = current if values is None else complex(values[0]) * current
    for n in range(n_max + 1):
        yield n, complex(1.0 / (n + 1)) * running
        if n == n_max:
            return
        current = superop @ current
        running = running + (current if values is None
                             else complex(values[n + 1]) * current)


# ---------------------------------------------------------------------
# Exact Cesaro limits.
# ---------------------------------------------------------------------

def _peripheral_projection(channel, x, phase) -> Operator:
    """Component of x at eigenvalue 1 of phase*T: D^-1 V (U*V)^-1 U* D x,
    V and U the last k right/left singular vectors of D(phase*T - I)D^-1
    for k = `Channel.eigenspace_dim(phase)` and D = diag(sqrt w).  A
    Jordan part shrinks the kernel or makes U*V singular, and raises."""
    k = channel.eigenspace_dim(phase)
    if k == 0:
        return channel.algebra.zero()
    scale = np.sqrt(_weight_vector(channel.algebra))
    scaled = phase * channel.superop * np.outer(scale, 1.0 / scale)
    u, s, vh = np.linalg.svd(scaled - np.eye(scale.size))
    left, right = u[:, -k:], vh[-k:].conj().T
    overlap = left.conj().T @ right
    if (s[-k]**2 > EIG_CLUSTER_TOL
            or np.linalg.cond(overlap)**2 * EIG_CLUSTER_TOL > 1):
        raise SemisimplicityError("peripheral eigenvalue cluster is not "
                                  "semisimple; the map is not power-bounded")
    coeffs = np.linalg.solve(overlap, left.conj().T @ (scale * x.vec()))
    return Operator.from_vec(channel.algebra, (right @ coeffs) / scale)


def fixed_point(channel: Channel, x: Operator) -> Operator:
    """Exact Cesaro limit of M_n(x): the eigenvalue-1 component of x, 0
    when the spectrum misses 1.  A DS+ map contracts L_1 and L_inf,
    so by Riesz-Thorin L_2(tau): then Fix(T) = Fix(T*), U*V is unitary
    and V (U*V)^-1 U* is the tau-orthogonal projection.  A nilpotent part
    at 1 (not power-bounded) raises SemisimplicityError."""
    return _peripheral_projection(channel, x, 1.0)


def rotated_fixed_point(channel: Channel, x: Operator, phase) -> Operator:
    """Cesaro limit of the phase-twisted averages (1/(n+1)) sum phase^k
    T^k(x): `fixed_point` of phase*T, the eigenvalue-conj(phase) part."""
    phase = complex(phase)
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError("phase must be unimodular")
    return _peripheral_projection(channel, x, phase)


# ---------------------------------------------------------------------
# JSON channel specifications (CLI and config files).
# ---------------------------------------------------------------------

# The "kind" values `channel_from_spec` accepts; the CLI schema reads them.
CHANNEL_KINDS = ("identity", "unitary", "pinching", "schur", "substochastic",
                 "kraus", "random-kraus", "unitary-mixture",
                 "random-substochastic", "convex", "compose", "scaled")


def channel_from_spec(algebra: AlgebraSpec, spec, run_seed=0) -> Channel:
    """Build a channel from its JSON description.

    Random kinds ("random-kraus", "unitary-mixture",
    "random-substochastic") derive their stream from (run_seed, the
    spec's "seed" field), so identical configs rebuild identical
    channels.
    """
    kind = spec["kind"]
    if kind == "identity":
        return identity_channel(algebra)
    if kind == "unitary":
        if "matrix" in spec:
            u = Operator.from_json(algebra, spec["matrix"])
        else:
            u = random_unitary_operator(
                algebra, stream(run_seed, "unitary", spec.get("seed", 0)))
        return unitary_conjugation(u)
    if kind == "pinching":
        return pinching(algebra, spec["labels"])
    if kind == "schur":
        return schur_multiplier(
            algebra, Operator.from_json(algebra, spec["matrices"]).blocks)
    if kind == "substochastic":
        return substochastic(algebra, spec["matrix"])
    if kind == "kraus":
        ops = [Operator.from_json(algebra, item) for item in spec["operators"]]
        return kraus_channel(algebra, ops)
    if kind == "random-kraus":
        rng = stream(run_seed, "random-kraus", spec.get("seed", 0))
        return random_kraus_channel(algebra, int(spec.get("num_ops", 3)), rng,
                                    margin=spec.get("margin", 1e-3))
    if kind == "unitary-mixture":
        rng = stream(run_seed, "unitary-mixture", spec.get("seed", 0))
        return random_unitary_mixture(algebra, int(spec.get("num", 3)), rng,
                                      min_gap=spec.get("min_gap"))
    if kind == "random-substochastic":
        rng = stream(run_seed, "random-substochastic", spec.get("seed", 0))
        return random_substochastic(algebra, rng)
    if kind == "convex":
        children = (channel_from_spec(algebra, c, run_seed)
                    for c in spec["children"])
        return convex_combine(children, spec["probabilities"])
    if kind == "compose":
        children = [channel_from_spec(algebra, c, run_seed)
                    for c in spec["children"]]
        if len(children) != 2:
            raise ChannelConstructionError("compose takes exactly two children")
        return compose(children[0], children[1])
    if kind == "scaled":
        child = channel_from_spec(algebra, spec["child"], run_seed)
        re, im = spec["factor"]
        return scale_channel(child, complex(re, im))
    raise ChannelConstructionError(f"unknown channel kind {kind!r}")
