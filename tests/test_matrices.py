import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jsrkit import (
    DimensionOverflow,
    MatrixSet,
    NonConvergence,
    ShapeError,
    as_matrix,
    check_lift_identities,
    frobenius_norm,
    kron,
    op_norm,
    refine,
    sandwich_profiles,
    spectral_radius,
)

import oracles


def square(dim, lo=-5.0, hi=5.0):
    """Strategy yielding a dim x dim complex matrix with bounded entries."""
    elem = st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=32)
    flat = st.lists(elem, min_size=2 * dim * dim, max_size=2 * dim * dim)
    return flat.map(
        lambda xs: np.array(xs[: dim * dim], dtype=complex).reshape(dim, dim)
        + 1j * np.array(xs[dim * dim :], dtype=complex).reshape(dim, dim)
    )


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        assert a.flags["C_CONTIGUOUS"]

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            as_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ShapeError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            as_matrix([1, 2, 3])


class TestOpNorm:
    def test_column_shear(self):
        # largest singular value of [[1,1],[0,1]] is the golden ratio
        a = [[1, 1], [0, 1]]
        assert op_norm(a) == pytest.approx(oracles.PHI, rel=1e-12)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(square(3))
    def test_matches_svd(self, a):
        assert op_norm(a) == pytest.approx(oracles.svd_norm(a), rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(square(2), square(2))
    def test_submultiplicative(self, a, b):
        lhs = op_norm(a @ b)
        assert lhs <= op_norm(a) * op_norm(b) * (1.0 + 1e-9) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(square(3), st.floats(-4.0, 4.0, allow_nan=False))
    def test_absolutely_homogeneous(self, a, c):
        assert op_norm(c * a) == pytest.approx(abs(c) * op_norm(a), rel=1e-9, abs=1e-12)

    def test_frobenius_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = oracles.random_set(rng, 4, 1, complex_entries=True)[0]
            assert frobenius_norm(a) >= op_norm(a) - 1e-12


class TestSpectralRadius:
    def test_shear_has_radius_one(self):
        assert spectral_radius([[1, 1], [0, 1]]) == pytest.approx(1.0, rel=1e-12)

    def test_nilpotent_is_exactly_zero(self):
        assert spectral_radius([[0, 1], [0, 0]]) == 0.0

    def test_rotation(self):
        assert spectral_radius([[0, -1], [1, 0]]) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(square(3))
    def test_never_exceeds_norm(self, a):
        assert spectral_radius(a) <= op_norm(a) * (1.0 + 1e-9) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(square(3))
    def test_matches_eigvals(self, a):
        assert spectral_radius(a) == pytest.approx(oracles.eig_rho(a), rel=1e-9, abs=1e-12)


def test_lapack_failure_is_non_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NonConvergence, match="eigenvalue iteration"):
        spectral_radius(np.eye(2))
    with pytest.raises(NonConvergence, match="norm eigensolve"):
        op_norm(np.eye(2))
    # the engine types the failure, so its callers raise it too
    M = MatrixSet.from_matrices(oracles.GOLDEN)
    with pytest.raises(NonConvergence, match="norm eigensolve"):
        refine(M, 0.01)
    with pytest.raises(NonConvergence, match="eigenvalue iteration"):
        refine(M, 0.01, frobenius=True)
    with pytest.raises(NonConvergence, match="norm eigensolve"):
        sandwich_profiles(M, 3)
    with pytest.raises(NonConvergence, match="eigenvalue iteration"):
        check_lift_identities(M, 2)


class TestKron:
    def test_shape_and_values(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.eye(2, dtype=complex)
        k = kron(a, b)
        assert k.shape == (4, 4)
        assert np.array_equal(k, np.kron(a, b))

    def test_eigenvalues_are_pairwise_products(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = oracles.random_set(rng, 3, 1, complex_entries=True)[0]
            b = oracles.random_set(rng, 4, 1, complex_entries=True)[0]
            got = np.sort_complex(np.linalg.eigvals(kron(a, b)))
            want = np.sort_complex(
                np.array([x * y for x in np.linalg.eigvals(a) for y in np.linalg.eigvals(b)])
            )
            scale = max(1.0, float(np.abs(want).max()))
            assert np.max(np.abs(got - want)) <= 1e-7 * scale

    def test_dimension_cap(self):
        a = np.eye(70, dtype=complex)
        with pytest.raises(DimensionOverflow):
            kron(a, a)


class TestNormConfig:
    def test_frobenius_mode_switches_op_norm(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        assert op_norm(a, frobenius=True) == pytest.approx(np.sqrt(3.0), rel=1e-12)
