import numpy as np
import pytest

from ncergodic.algebra import (AlgebraSpec, Operator, Projection,
                               hermitian_decompose)
from ncergodic.errors import (AlgebraMismatchError,
                              ProjectionCertificateError)
from ncergodic.ncnorms import lp_norm
from ncergodic.rng import random_operator, random_projection, stream
from ncergodic.util import DEFAULT_TOL

M2 = AlgebraSpec(((2, 1.0),))
WEIGHTED = AlgebraSpec(((1, 0.5), (1, 1.5)))


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
        orders, norm = [], np.linalg.norm

        def recording(a, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(a, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", recording)
        Projection.from_basis(WEIGHTED, [np.ones((1, 1)), np.zeros((1, 0))])
        e = random_projection(AlgebraSpec(((5, 1.0), (3, 2.0))),
                              stream(3, "projection"))
        assert e.rank() > 0
        assert orders and 2 not in orders
