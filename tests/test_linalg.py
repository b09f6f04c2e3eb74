import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detconvex import linalg
from detconvex.errors import DimensionError, NotPositiveDefiniteError, ParameterError
from detconvex.linalg import (
    PosDefMatrix,
    SymMatrix,
    det,
    frob_inner,
    jacobi_eigen,
    random_posdef,
    random_sym,
)

from conftest import max_entry

LOG_RANGE = (math.log(0.1), math.log(10.0))


def sym_matrices(max_n=6, scale=10.0):
    return st.integers(1, max_n).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False, width=64),
        )
    ).map(SymMatrix)


class TestSymMatrix:
    def test_lower_triangle_authoritative(self):
        m = SymMatrix(np.array([[1.0, 99.0], [2.0, 3.0]]))
        assert m.a[0, 1] == m.a[1, 0] == 2.0

    def test_exact_symmetry_by_construction(self):
        gen = np.random.Generator(np.random.PCG64(5))
        a = gen.standard_normal((4, 4))
        m = SymMatrix(a)
        assert np.array_equal(m.a, m.a.T)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            SymMatrix(np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_entries_read_only(self):
        m = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_add_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            SymMatrix.identity(2) + SymMatrix.identity(3)


class TestFrobInner:
    def test_identity_with_itself(self):
        assert frob_inner(SymMatrix.identity(3), SymMatrix.identity(3)) == 3.0

    def test_slope_witness_direction(self):
        h = SymMatrix.from_diag([1.0, -1.0, 0.0])
        assert frob_inner(h, h) == 2.0

    def test_zero_annihilates(self):
        a = random_sym(4, 1.0, seed=11)
        assert frob_inner(a, SymMatrix.zero(4)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frob_inner(np.eye(2), np.eye(3))

    @given(sym_matrices(max_n=4), sym_matrices(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_in_arguments(self, a, b):
        if a.n != b.n:
            return
        assert frob_inner(a, b) == frob_inner(b, a)

    def test_orthogonal_invariance(self):
        # rotating both arguments by the same orthogonal frame preserves
        # the inner product
        for seed in range(5):
            c = random_posdef(4, LOG_RANGE, seed=100 + seed)
            q = c.eigen.q
            a = random_sym(4, 2.0, seed=200 + seed).a
            b = random_sym(4, 2.0, seed=300 + seed).a
            plain = frob_inner(a, b)
            rotated = frob_inner(q @ a @ q.T, q @ b @ q.T)
            assert abs(plain - rotated) <= 1e-12 * max(1.0, abs(plain))


class TestDet:
    def test_identity(self):
        for n in range(1, 6):
            assert det(SymMatrix.identity(n)) == 1.0

    def test_diagonal_exact(self):
        assert det(SymMatrix.from_diag([1.0, 1.0, 2.0])) == 2.0
        assert det(SymMatrix.from_diag([2.0, 3.0, 4.0])) == 24.0

    def test_singular(self):
        v = np.array([1.0, 2.0, -1.0])
        assert det(np.outer(v, v)) == 0.0

    def test_matches_eigenvalue_product(self):
        for seed in range(10):
            c = random_posdef(4, LOG_RANGE, seed=seed)
            prod = float(np.prod(c.eigenvalues))
            assert abs(c.det - prod) <= 1e-10 * abs(prod)

    def test_directional_derivative(self):
        # Jacobi's formula: d/dt det(C + tH) at 0 is det C <C^-1, H>; check
        # against central differences
        c = random_posdef(4, LOG_RANGE, seed=77)
        h = random_sym(4, 1.0, seed=78)
        analytic = c.det * frob_inner(c.inverse, h)
        step = 1e-6
        fd = (det(c.base.a + step * h.a) - det(c.base.a - step * h.a)) / (2 * step)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


class TestJacobiEigen:
    def test_two_by_two(self):
        eig = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0], rtol=1e-12)

    def test_diagonal_input_gives_signed_permutation(self):
        eig = jacobi_eigen(SymMatrix.from_diag([3.0, 1.0, 2.0]))
        assert np.array_equal(eig.eigenvalues, [1.0, 2.0, 3.0])
        assert np.array_equal(np.abs(eig.q), np.eye(3)[:, [1, 2, 0]])

    def test_extreme_scales(self):
        # the Jacobi solver squared entries in its stopping test, so at
        # these scales it returned the unrotated diagonal [2, 2]
        for scale in (1e-200, 1e200):
            eig = jacobi_eigen(scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
            assert np.allclose(eig.eigenvalues / scale, [1.0, 3.0], rtol=1e-12)

    def test_eigenvalues_ascending(self):
        eig = jacobi_eigen(random_sym(6, 3.0, seed=9))
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    @given(sym_matrices())
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthogonality(self, m):
        eig = jacobi_eigen(m)
        bound = 1e-12 * (1.0 + max_entry(m.a))
        assert max_entry((eig.q * eig.eigenvalues) @ eig.q.T - m.a) <= bound
        assert max_entry(eig.q.T @ eig.q - np.eye(m.n)) <= 1e-12


class TestPosDefMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_diag([1.0, -1.0])

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_sym(SymMatrix(np.outer([1.0, 2.0], [1.0, 2.0])))

    def test_relative_positivity_floor(self):
        # eigenvalue below 1e-12 * ||A|| counts as not positive definite
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_diag([1.0, 1e-14])
        PosDefMatrix.from_diag([1.0, 1e-10])  # above the floor

    def test_inverse_roundtrip(self):
        for seed in range(8):
            c = random_posdef(5, LOG_RANGE, seed=seed)
            assert max_entry(c.base.a @ c.inverse.a - np.eye(5)) <= 1e-10

    def test_eigenvalues_positive_sorted(self):
        c = random_posdef(4, LOG_RANGE, seed=3)
        assert np.all(c.eigenvalues > 0)
        assert np.all(np.diff(c.eigenvalues) >= 0)


class TestRandomPosdef:
    def test_deterministic(self):
        a = random_posdef(3, LOG_RANGE, seed=7)
        b = random_posdef(3, LOG_RANGE, seed=7)
        assert np.array_equal(a.base.a, b.base.a)

    def test_degenerate_range_gives_identity(self):
        c = random_posdef(3, (0.0, 0.0), seed=123)
        assert max_entry(c.base.a - np.eye(3)) <= 1e-12

    def test_eigenvalues_inside_range(self):
        c = random_posdef(3, LOG_RANGE, seed=7)
        assert np.all(c.eigenvalues >= 0.1 - 1e-12)
        assert np.all(c.eigenvalues <= 10.0 + 1e-12)

    def test_bad_range_rejected(self):
        with pytest.raises(ParameterError):
            random_posdef(3, (1.0, 0.0), seed=1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            random_posdef(0, LOG_RANGE, seed=1)

    def test_overflowing_range_rejected(self):
        # exp of the log eigenvalues overflows to inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ParameterError):
            random_posdef(3, (800.0, 800.0), seed=1)


class TestRequirePosdefStack:
    def test_accepts_draws(self):
        seeds = np.random.SeedSequence(8).generate_state(20, dtype=np.uint64)
        linalg.require_posdef_stack(linalg.random_posdef_stack(4, LOG_RANGE, seeds))

    def test_names_first_sample_below_floor(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13]), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(NotPositiveDefiniteError, match="sample 1"):
            linalg.require_posdef_stack(stack)


class TestRandomSym:
    def test_deterministic(self):
        assert np.array_equal(random_sym(4, 1.0, seed=3).a, random_sym(4, 1.0, seed=3).a)

    def test_bounded_and_symmetric(self):
        m = random_sym(4, 1.0, seed=3)
        assert np.max(np.abs(m.a)) <= 1.0
        assert np.array_equal(m.a, m.a.T)

    def test_zero_scale_gives_zero_matrix(self):
        assert np.array_equal(random_sym(3, 0.0, seed=5).a, np.zeros((3, 3)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ParameterError):
            random_sym(3, -1.0, seed=5)

