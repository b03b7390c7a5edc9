import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergodic.algebra import (AlgebraSpec, Operator, Projection, defect_norm,
                               hermitian, hermitian_decompose, spectral_map)
from ncergodic.errors import (AlgebraMismatchError,
                              ProjectionCertificateError)
from ncergodic.ncnorms import lp_norm
from ncergodic.rng import random_operator, random_projection, stream
from ncergodic.spectral import positive_power
from ncergodic.util import DEFAULT_TOL

M2 = AlgebraSpec(((2, 1.0),))
WEIGHTED = AlgebraSpec(((1, 0.5), (1, 1.5)))
MULTI = AlgebraSpec(((3, 1.0), (2, 0.25), (1, 3.0)))


def op(blocks, algebra=M2):
    return Operator(algebra, blocks)


class TestAlgebraSpec:
    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            AlgebraSpec(((0, 1.0),))
        with pytest.raises(ValueError):
            AlgebraSpec(((2, 0.0),))
        with pytest.raises(ValueError):
            AlgebraSpec(())

    def test_json_roundtrip(self):
        data = WEIGHTED.to_json()
        assert data == {"blocks": [[1, 0.5], [1, 1.5]]}
        assert AlgebraSpec.from_json(data) == WEIGHTED


class TestTrace:
    def test_identity_m2(self):
        assert M2.identity().trace() == pytest.approx(2.0)

    def test_weighted_identity(self):
        assert WEIGHTED.identity().trace() == pytest.approx(2.0)

    def test_traceless_nilpotent(self):
        x = op([np.array([[0, 1], [0, 0]])])
        assert x.trace() == pytest.approx(0.0)

    def test_linear(self):
        rng = stream(3, "trace")
        x = random_operator(M2, rng)
        y = random_operator(M2, rng)
        lhs = (x * 2.5 + y * (1 - 2j)).trace()
        rhs = 2.5 * x.trace() + (1 - 2j) * y.trace()
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_positive_on_squares(self):
        rng = stream(4, "trace")
        for _ in range(20):
            x = random_operator(WEIGHTED, rng)
            val = (x.adjoint() @ x).trace()
            assert val.imag == pytest.approx(0.0, abs=1e-12)
            assert val.real >= -1e-12

    def test_tracial_property(self):
        rng = stream(5, "trace")
        alg = AlgebraSpec(((3, 0.7), (2, 2.0)))
        for _ in range(20):
            x = random_operator(alg, rng)
            y = random_operator(alg, rng)
            assert (x @ y).trace() == pytest.approx((y @ x).trace(),
                                                    abs=1e-12)

    def test_faithful(self):
        rng = stream(6, "trace")
        for _ in range(10):
            x = random_operator(WEIGHTED, rng)
            if abs((x.adjoint() @ x).trace()) < 1e-18:
                assert x.uniform_norm() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            Operator(M2, [np.eye(3)])
        with pytest.raises(AlgebraMismatchError):
            op([np.eye(2)]) + WEIGHTED.identity()


class TestStarAlgebra:
    def test_adjoint_example(self):
        x = op([np.array([[0, 1], [0, 0]])])
        assert np.allclose(x.adjoint().block(0), [[0, 0], [1, 0]])

    def test_identity_neutral(self):
        rng = stream(7, "star")
        x = random_operator(M2, rng)
        assert (x @ M2.identity()).allclose(x)

    def test_product_adjoint(self):
        rng = stream(8, "star")
        alg = AlgebraSpec(((2, 1.0), (3, 0.5)))
        for _ in range(10):
            x = random_operator(alg, rng)
            y = random_operator(alg, rng)
            assert (x @ y).adjoint().allclose(y.adjoint() @ x.adjoint(),
                                              tol=1e-12)

    def test_trace_of_adjoint(self):
        rng = stream(9, "star")
        x = random_operator(M2, rng)
        assert x.adjoint().trace() == pytest.approx(np.conj(x.trace()),
                                                    abs=1e-12)

    def test_blocks_are_immutable(self):
        x = M2.identity()
        with pytest.raises(ValueError):
            x.block(0)[0, 0] = 5.0


class TestHermitianDecompose:
    def test_positive_passthrough(self):
        x = op([np.diag([2.0, 1.0]).astype(complex)])
        x1, x2, x3, x4 = hermitian_decompose(x)
        assert x1.allclose(x)
        for part in (x2, x3, x4):
            assert part.uniform_norm() < 1e-12

    def test_imaginary_identity(self):
        x = M2.identity() * 1j
        x1, x2, x3, x4 = hermitian_decompose(x)
        assert x3.allclose(M2.identity())
        for part in (x1, x2, x4):
            assert part.uniform_norm() < 1e-12

    def test_symmetric_flip(self):
        # eigenvalues +-1 split into two rank-one positive parts
        x = op([np.array([[0, 1], [1, 0]], dtype=complex)])
        x1, x2, x3, x4 = hermitian_decompose(x)
        for part in (x1, x2):
            eigs = np.linalg.eigvalsh(part.block(0))
            assert eigs == pytest.approx([0.0, 1.0], abs=1e-12)
        assert x3.uniform_norm() < 1e-12
        assert x4.uniform_norm() < 1e-12

    def test_reassembly_and_certificates(self):
        rng = stream(10, "decompose")
        alg = AlgebraSpec(((3, 1.0), (2, 0.25)))
        for _ in range(10):
            x = random_operator(alg, rng)
            parts = hermitian_decompose(x)
            rebuilt = (parts[0] - parts[1]) + (parts[2] - parts[3]) * 1j
            assert rebuilt.allclose(x, tol=1e-12)
            for part in parts:
                assert part.is_positive()

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, np.inf])
    def test_parts_contract_lp(self, p):
        rng = stream(11, "decompose")
        x = random_operator(AlgebraSpec(((4, 1.0),)), rng)
        bound = lp_norm(x, p)
        for part in hermitian_decompose(x):
            assert lp_norm(part, p) <= bound + 1e-10


class TestUniformNorm:
    def test_identity(self):
        assert M2.identity().uniform_norm() == pytest.approx(1.0)

    def test_diagonal(self):
        assert op([np.diag([3.0, 1.0]).astype(complex)]).uniform_norm() == \
            pytest.approx(3.0)

    def test_submultiplicative_and_cstar(self):
        rng = stream(12, "norm")
        for _ in range(10):
            x = random_operator(M2, rng)
            y = random_operator(M2, rng)
            assert (x @ y).uniform_norm() <= \
                x.uniform_norm() * y.uniform_norm() + 1e-10
            assert (x.adjoint() @ x).uniform_norm() == \
                pytest.approx(x.uniform_norm() ** 2, rel=1e-10)


class TestOperatorSerialization:
    def test_roundtrip(self):
        rng = stream(13, "json")
        x = random_operator(WEIGHTED, rng)
        data = x.to_json()
        assert Operator.from_json(WEIGHTED, data).allclose(x, tol=0)

    def test_row_major_pairs(self):
        x = op([np.array([[1, 2j], [0, -1]], dtype=complex)])
        assert x.to_json() == {
            "blocks": [[[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.0]]]}


class TestProjection:
    def test_certificate_rejects_non_idempotent(self):
        with pytest.raises(ProjectionCertificateError):
            Projection(op([np.diag([0.5, 1.0]).astype(complex)]))

    def test_certificate_rejects_non_hermitian(self):
        with pytest.raises(ProjectionCertificateError):
            Projection(op([np.array([[1, 1], [0, 0]], dtype=complex)]))

    def test_complement_and_defect(self):
        e = Projection(op([np.diag([1.0, 0.0]).astype(complex)]))
        assert e.defect() == pytest.approx(1.0)
        assert e.complement().operator.allclose(
            op([np.diag([0.0, 1.0]).astype(complex)]))

    def test_weighted_defect(self):
        e = Projection(Operator(WEIGHTED, [np.array([[0.0]]),
                                           np.array([[1.0]])]))
        assert e.defect() == pytest.approx(0.5)


def recording_norm_orders(monkeypatch):
    """The `ord` of every np.linalg.norm call made from here on."""
    orders, norm = [], np.linalg.norm

    def recording(a, ord=None, *args, **kwargs):
        orders.append(ord)
        return norm(a, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording)
    return orders


def two_norm_verdict(b):
    """The certificate's error message for block b as two 2-norms decide
    it, or None where it accepts b."""
    herm = float(np.linalg.norm(b - b.conj().T, 2))
    idem = float(np.linalg.norm(b @ b - b, 2))
    if herm > DEFAULT_TOL:
        return f"not self-adjoint (defect {herm:.2e})"
    if idem > DEFAULT_TOL:
        return f"not idempotent (defect {idem:.2e})"
    lam = np.linalg.eigvalsh((b + b.conj().T) / 2.0)
    dist = np.minimum(np.abs(lam), np.abs(lam - 1.0))
    if float(dist.max()) > DEFAULT_TOL:
        return f"eigenvalue {lam[np.argmax(dist)]:.6g} not in {{0,1}}"
    return None


class TestProjectionDefectScreen:
    """The Frobenius screen of the certificate keeps the verdict and the
    message of its 2-norms, and skips their SVDs on a clean projection."""

    @pytest.mark.parametrize("kind", ["hermitian", "skew", "rank-one"])
    @pytest.mark.parametrize("scale", [0.05, 0.2, 0.45, 0.5, 0.55, 0.9,
                                       0.99, 1.01, 1.5, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_and_message_of_the_two_norms(self, kind, scale, seed):
        # a perturbation of 2-norm scale * tol whose Frobenius norm is up
        # to sqrt(6) times larger, so the screen passes, or hands over to
        # the SVD, on either side of the tolerance
        d, rng = 6, stream(seed, "defect-screen")
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "rank-one":
            g = np.outer(g[0], g[1].conj())
        elif kind == "hermitian":
            g = g + g.conj().T
        else:
            g = g - g.conj().T
        g *= scale * DEFAULT_TOL / np.linalg.norm(g, 2)
        b = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex) + g
        algebra = AlgebraSpec(((d, 1.0),))
        expected = two_norm_verdict(b)
        if expected is None:
            e = Projection(Operator(algebra, [b]))
            assert e.rank() == 3
        else:
            with pytest.raises(ProjectionCertificateError) as info:
                Projection(Operator(algebra, [b]))
            assert str(info.value) == expected

    def test_clean_projection_takes_no_svd(self, monkeypatch):
        orders = recording_norm_orders(monkeypatch)
        Projection.from_basis(WEIGHTED, [np.ones((1, 1)), np.zeros((1, 0))])
        e = random_projection(AlgebraSpec(((5, 1.0), (3, 2.0))),
                              stream(3, "projection"))
        assert e.rank() > 0
        assert orders and 2 not in orders


def ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# a defect of c * g, g a Ginibre matrix, with c from 1e-12 to 1e-6: the
# 2-norm crosses DEFAULT_TOL inside this range for every size below
SCALES = st.floats(-12.0, -6.0).map(lambda exponent: 10.0 ** exponent)
SEEDS = st.integers(0, 2 ** 32 - 1)


class TestDefectNorm:
    @settings(max_examples=300, deadline=None)
    @given(scale=SCALES, seed=SEEDS, d=st.integers(1, 6))
    def test_verdict_and_value_of_the_two_norm(self, scale, seed, d):
        a = scale * ginibre(stream(seed, "defect-norm"), d)
        value, two_norm = defect_norm(a), float(np.linalg.norm(a, 2))
        assert (value <= DEFAULT_TOL) == (two_norm <= DEFAULT_TOL)
        if value > DEFAULT_TOL:
            assert value == two_norm

    @settings(max_examples=150, deadline=None)
    @given(scale=SCALES, seed=SEEDS)
    def test_is_hermitian_gives_the_two_norm_verdict(self, scale, seed):
        rng = stream(seed, "is-hermitian")
        x = random_operator(MULTI, rng, kind="hermitian")
        y = Operator(MULTI, [b + scale * ginibre(rng, b.shape[0])
                             for b in x.blocks])
        assert y.is_hermitian() == all(
            np.linalg.norm(b - b.conj().T, 2) <= DEFAULT_TOL
            for b in y.blocks)

    def test_exactly_hermitian_takes_no_svd(self, monkeypatch):
        x = random_operator(MULTI, stream(5, "is-hermitian"),
                            kind="hermitian")
        orders = recording_norm_orders(monkeypatch)
        assert x.is_hermitian()
        assert orders == [None] * MULTI.num_blocks


def decompose_per_block(x):
    """hermitian_decompose as a per-block eigh loop."""
    parts = []
    for comp in (x.hermitian_part(), x.skew_part()):
        pos_blocks, neg_blocks = [], []
        for b in comp.blocks:
            lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
            pos_blocks.append((vecs * np.clip(lam, 0.0, None))
                              @ vecs.conj().T)
            neg_blocks.append((vecs * np.clip(-lam, 0.0, None))
                              @ vecs.conj().T)
        parts += [pos_blocks, neg_blocks]
    return parts


def power_per_block(x, p):
    """positive_power as a per-block eigh loop."""
    blocks = []
    for b in x.blocks:
        lam, vecs = np.linalg.eigh((b + b.conj().T) / 2.0)
        lam = np.clip(lam, 0.0, None)
        blocks.append((vecs * lam ** p) @ vecs.conj().T)
    return blocks


def same_bits(x, blocks):
    return all(a.tobytes() == b.tobytes() for a, b in zip(x.blocks, blocks))


class TestSpectralMap:
    def test_hermitian_part_of_a_stack_is_that_of_each_block(self):
        stack = np.stack([ginibre(stream(6, "stack", k), 4)
                          for k in range(5)])
        h = hermitian(stack)
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))
        assert all(h[k].tobytes() == hermitian(stack[k]).tobytes()
                   for k in range(len(stack)))

    @pytest.mark.parametrize("kind", ["general", "hermitian", "positive"])
    def test_decompose_is_the_per_block_loop_bit_for_bit(self, kind):
        rng = stream(7, "decompose-bits")
        for _ in range(5):
            x = random_operator(MULTI, rng, kind=kind)
            parts = hermitian_decompose(x)
            assert len(parts) == 4
            assert all(same_bits(part, blocks) for part, blocks
                       in zip(parts, decompose_per_block(x)))

    @pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 3])
    def test_positive_power_is_the_per_block_loop_bit_for_bit(self, p):
        rng = stream(8, "power-bits")
        for kind in ("positive", "hermitian"):
            x = random_operator(MULTI, rng, kind=kind)
            assert same_bits(positive_power(x, p), power_per_block(x, p))

    def test_one_eigh_per_block_for_all_functions(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        x = random_operator(MULTI, stream(9, "map"), kind="hermitian")
        identity, square, unit = spectral_map(
            x, lambda lam: lam, np.square, np.ones_like)
        assert calls == [(d, d) for d in MULTI.dims]
        assert identity.allclose(x)
        assert square.allclose(x @ x, tol=1e-10)
        assert unit.allclose(MULTI.identity())
