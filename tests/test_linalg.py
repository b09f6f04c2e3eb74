import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detconvex import cli, linalg
from detconvex.errors import DimensionError, NotPositiveDefiniteError, ParameterError
from detconvex.linalg import (
    PosDefMatrix,
    det,
    frob_inner,
    jacobi_eigen,
    random_posdef,
    random_sym,
    symmetric,
)

from conftest import max_entry

LOG_RANGE = (math.log(0.1), math.log(10.0))
EPS = float(np.finfo(float).eps)


def sym_matrices(max_n=6, scale=10.0):
    return st.integers(1, max_n).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False, width=64),
        )
    ).map(symmetric)


class TestFrobNorm:
    @given(sym_matrices(scale=1e100))
    @settings(max_examples=200, deadline=None)
    def test_plain_sum_of_squares_where_normal(self, m):
        squares = np.sum(m**2)
        if np.isfinite(squares) and squares >= np.finfo(float).tiny:
            assert linalg.frob_norm(m) == float(np.sqrt(squares))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_extreme_scales(self, scale):
        a = np.array([[3.0, 1.0], [1.0, -2.0]])
        assert linalg.frob_norm(a * scale) == pytest.approx(math.sqrt(15.0) * scale, rel=1e-15)

    def test_rescaled_norms_on_a_stack(self):
        stack = np.stack([np.diag([1e200, 3.0]), np.diag([1e-200, 3e-200]), np.eye(2) * 7.0])
        expected = [linalg.frob_norm(m) for m in stack[:2]] + [7.0 * math.sqrt(2.0)]
        assert linalg._rescaled_norms(stack).tolist() == expected

    def test_zero_matrix(self):
        assert linalg.frob_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_a_matrix_gives_a_float(self, scale):
        # plain and rescaled sums alike, not a 0-d array
        norm = linalg.frob_norm(np.eye(3) * scale)
        assert isinstance(norm, float) and np.ndim(norm) == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_is_inf_without_a_warning(self):
        big = np.full((2, 2), 1.5e308)
        assert linalg.frob_norm(big) == math.inf
        stack = np.stack([big, np.eye(2), -big])
        assert linalg.frob_norm(stack).tolist() == [math.inf, math.sqrt(2.0), math.inf]

    def test_stack_gives_each_matrix_its_own_norm(self):
        # the same bits as one matrix at a time, plain sums and rescales alike
        gen = np.random.default_rng(5)
        for n in range(1, 17):
            scales = 10.0 ** gen.uniform(-300, 300, size=(40, 1, 1))
            stack = gen.standard_normal((40, n, n)) * scales
            norms = linalg.frob_norm(stack)
            assert isinstance(norms, np.ndarray) and norms.shape == (40,)
            assert norms.tolist() == [linalg.frob_norm(m) for m in stack]

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionError):
            linalg.frob_norm(np.ones(3))


class TestSymMatrix:
    """The rule for a symmetric matrix entering the package, ``symmetric``,
    and its use by ``PosDefMatrix.from_sym``."""

    def test_lower_triangle_authoritative(self):
        a = np.array([[3.0, 99.0], [1.0, 2.0]])
        m = symmetric(a)
        assert m[0, 1] == m[1, 0] == 1.0
        assert a[0, 1] == 99.0
        assert np.array_equal(PosDefMatrix.from_sym(a).a, m)

    def test_exact_symmetry_by_construction(self):
        gen = np.random.Generator(np.random.PCG64(5))
        m = symmetric(gen.standard_normal((4, 4)))
        assert np.array_equal(m, m.T)

    def test_rejects_non_square(self):
        for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.ones(3), np.ones((1, 2, 2))):
            with pytest.raises(DimensionError):
                symmetric(bad)
            with pytest.raises(DimensionError):
                PosDefMatrix.from_sym(bad)

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            a = np.array([[1.0, 0.0], [bad, 1.0]])
            with pytest.raises(ParameterError):
                symmetric(a)
            with pytest.raises(ParameterError):
                PosDefMatrix.from_sym(a)

    def test_entries_read_only(self):
        c = PosDefMatrix.from_diag([1.0, 2.0, 3.0])
        for m in (symmetric(np.eye(3)), c.a, c.inverse, c.eigenvalues, c.q):
            with pytest.raises(ValueError):
                m[0] = 5.0


class TestFrobInner:
    def test_identity_with_itself(self):
        assert frob_inner(np.eye(3), np.eye(3)) == 3.0

    def test_slope_witness_direction(self):
        h = np.diag([1.0, -1.0, 0.0])
        assert frob_inner(h, h) == 2.0

    def test_zero_annihilates(self):
        a = random_sym(4, seed=11, count=1)[0]
        assert frob_inner(a, np.zeros((4, 4))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frob_inner(np.eye(2), np.eye(3))

    @given(sym_matrices(max_n=4), sym_matrices(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_in_arguments(self, a, b):
        if a.shape != b.shape:
            return
        assert frob_inner(a, b) == frob_inner(b, a)

    def test_orthogonal_invariance(self):
        # rotating both arguments by the same orthogonal frame preserves
        # the inner product
        for seed in range(5):
            c = random_posdef(4, LOG_RANGE, seed=100 + seed)
            q = c.q
            a = 2.0 * random_sym(4, seed=200 + seed, count=1)[0]
            b = 2.0 * random_sym(4, seed=300 + seed, count=1)[0]
            plain = frob_inner(a, b)
            rotated = frob_inner(q @ a @ q.T, q @ b @ q.T)
            assert abs(plain - rotated) <= 1e-12 * max(1.0, abs(plain))


class TestDet:
    def test_identity(self):
        for n in range(1, 6):
            assert det(np.eye(n)) == 1.0

    def test_diagonal_exact(self):
        assert det(np.diag([1.0, 1.0, 2.0])) == 2.0
        assert det(np.diag([2.0, 3.0, 4.0])) == 24.0

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
        h = random_sym(4, seed=78, count=1)[0]
        analytic = c.det * frob_inner(c.inverse, h)
        step = 1e-6
        fd = (det(c.a + step * h) - det(c.a - step * h)) / (2 * step)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


class TestJacobiEigen:
    def test_two_by_two(self):
        eigenvalues, q = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigenvalues, [1.0, 3.0], rtol=1e-12)
        # only the lower triangle is read, the one symmetric() keeps
        lower, lower_q = jacobi_eigen(np.array([[2.0, 99.0], [1.0, 2.0]]))
        assert np.array_equal(lower, eigenvalues) and np.array_equal(lower_q, q)

    def test_diagonal_input_gives_signed_permutation(self):
        eigenvalues, q = jacobi_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(eigenvalues, [1.0, 2.0, 3.0])
        assert np.array_equal(np.abs(q), np.eye(3)[:, [1, 2, 0]])

    def test_extreme_scales(self):
        # the Jacobi solver squared entries in its stopping test, so at
        # these scales it returned the unrotated diagonal [2, 2]
        for scale in (1e-200, 1e200):
            eigenvalues, _ = jacobi_eigen(scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
            assert np.allclose(eigenvalues / scale, [1.0, 3.0], rtol=1e-12)

    def test_eigenvalues_ascending(self):
        eigenvalues, _ = jacobi_eigen(3.0 * random_sym(6, seed=9, count=1)[0])
        assert np.all(np.diff(eigenvalues) >= 0)

    @given(sym_matrices())
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthogonality(self, m):
        eigenvalues, q = jacobi_eigen(m)
        bound = 1e-12 * (1.0 + max_entry(m))
        assert max_entry((q * eigenvalues) @ q.T - m) <= bound
        assert max_entry(q.T @ q - np.eye(len(m))) <= 1e-12


class TestPosDefMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_diag([1.0, -1.0])

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_sym(np.outer([1.0, 2.0], [1.0, 2.0]))

    def test_relative_positivity_floor(self):
        # eigenvalue below 1e-12 * ||A|| counts as not positive definite
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_diag([1.0, 1e-14])
        PosDefMatrix.from_diag([1.0, 1e-10])  # above the floor

    def test_floor_at_extreme_scales(self):
        # the Frobenius norm squared the entries: 1e200 gave the floor inf,
        # 1e-200 the floor 0
        big = PosDefMatrix.from_diag([1e200, 1e200])
        assert big.eigenvalues[0] == 1e200
        tiny = PosDefMatrix.from_diag([1e-200, 1e-200])
        assert linalg.POSDEF_EIG_FLOOR * linalg.frob_norm(tiny.a) > 0
        with pytest.raises(NotPositiveDefiniteError, match="floor 1.000e\\+188"):
            PosDefMatrix.from_diag([1e200, 1.0])

    def test_subnormal_spectrum_is_below_the_floor(self):
        # above the relative floor, but 1/eig overflows: an error, not a
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in ([1e-320], [1e-310, 1e-310], [5e-324, 5e-324, 5e-324]):
                with pytest.raises(NotPositiveDefiniteError, match="floor 2.225e-308"):
                    PosDefMatrix.from_diag(d)
            assert np.all(np.isfinite(PosDefMatrix.from_diag([3e-308, 3e-308]).inverse))

    def test_inverse_roundtrip(self):
        for seed in range(8):
            c = random_posdef(5, LOG_RANGE, seed=seed)
            assert max_entry(c.a @ c.inverse - np.eye(5)) <= 1e-10

    def test_eigenvalues_positive_sorted(self):
        c = random_posdef(4, LOG_RANGE, seed=3)
        assert np.all(c.eigenvalues > 0)
        assert np.all(np.diff(c.eigenvalues) >= 0)


class TestRandomPosdef:
    def test_deterministic(self):
        a = random_posdef(3, LOG_RANGE, seed=7)
        b = random_posdef(3, LOG_RANGE, seed=7)
        assert np.array_equal(a.a, b.a)

    def test_degenerate_range_gives_identity(self):
        c = random_posdef(3, (0.0, 0.0), seed=123)
        assert max_entry(c.a - np.eye(3)) <= 1e-12

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


DRAW_DIMS = [1, 2, 3, 5, 10, 64]


def _frames(n, count, seed):
    z = np.random.default_rng(seed).standard_normal((count, n * (n + 1) // 2 - 1))
    return linalg._householder_frames(z, n)


class TestHouseholderDraw:
    """The frames and spectra of ``random_posdef_stack``.  A product of
    n - 1 computed reflections is orthogonal to a small multiple of n eps
    (Higham 2002, Lemma 19.3), and the eigenvalues of the rounded C lie
    within that multiple of n eps |C|_2 = n cond eps lambda_min of the
    drawn ones; c = 8 leaves a margin of about 2.5 over the largest error
    seen in 20 000 draws per n."""

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_frames_are_orthogonal(self, n):
        q = _frames(n, 200, seed=n)
        err = np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max()
        assert err <= 8 * n * EPS

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_spectrum_is_the_drawn_one(self, n):
        c, logs = linalg.random_posdef_stack(n, LOG_RANGE, 60 + n, 200)
        lam = np.sort(np.exp(logs), axis=1)
        cond = lam[:, -1] / lam[:, 0]
        bound = 8 * n * cond * EPS * lam[:, 0]
        assert np.all(np.abs(np.linalg.eigvalsh(c) - lam) <= bound[:, None])

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_haar_moments(self, n):
        # each entry of a Haar frame has E q^2 = 1/n and E q^4 =
        # 3/(n(n+2)); the signs the draw leaves out do not change them
        count = 4000 if n <= 10 else 2000
        z = np.random.default_rng(70 + n).standard_normal((count, n * (n + 1) // 2 - 1))
        # per entry, the sums of q^2, q^4 and q^8, 250 frames at a time
        sums = np.zeros((3, n, n))
        for rows in np.array_split(z, count // 250):
            squares = linalg._householder_frames(rows, n) ** 2
            sums += [np.sum(squares**p, axis=0) for p in (1, 2, 4)]
        mean2, mean4, mean8 = sums / count
        for mean, second, moment in ((mean2, mean4, 1 / n), (mean4, mean8, 3 / (n * (n + 2)))):
            standard_error = np.sqrt((second - mean**2) / count)
            assert np.all(np.abs(mean - moment) <= 5 * standard_error), moment


class TestRequirePosdefStack:
    def test_accepts_draws(self):
        linalg.require_posdef_stack(linalg.random_posdef_stack(4, LOG_RANGE, 8, 20)[0])

    def test_names_first_sample_below_floor(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13]), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(NotPositiveDefiniteError, match="sample 1"):
            linalg.require_posdef_stack(stack)


    def test_floor_at_extreme_scales(self):
        linalg.require_posdef_stack(np.stack([np.diag([1e200, 1e200]), np.diag([1e-200, 1e-200])]))
        with pytest.raises(NotPositiveDefiniteError, match="sample 1: .* floor 1.000e\\+188"):
            linalg.require_posdef_stack(np.stack([np.eye(2), np.diag([1e200, 1.0])]))
        with pytest.raises(NotPositiveDefiniteError, match="sample 0: .* floor 1.000e-212"):
            linalg.require_posdef_stack(np.diag([1e-200, 1e-215])[None])


def _spectrum_near_floor(n, rel, exponent, seed):
    """A rotated matrix whose smallest eigenvalue sits at (1 + rel) times
    the positivity floor of its diagonal form, scaled by 10**exponent."""
    gen = np.random.default_rng(seed)
    lam = gen.uniform(1.0, 10.0, size=n)
    lam[0] = linalg.POSDEF_EIG_FLOOR * math.sqrt(np.sum(lam[1:] ** 2)) * (1.0 + rel)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return symmetric((q * (lam * 10.0**exponent)) @ q.T)


def _spectrum_at_margin(n, k, exponent, seed):
    """A rotated matrix whose smallest eigenvalue sits k margins of the
    Cholesky floor proof, 4 (n+1)^2 eps times the norm, above the
    positivity floor of its diagonal form, scaled by 10**exponent."""
    gen = np.random.default_rng(seed)
    lam = gen.uniform(1.0, 10.0, size=n)
    norm = math.sqrt(np.sum(lam[1:] ** 2))
    lam[0] = (linalg.POSDEF_EIG_FLOOR + k * 4.0 * (n + 1) ** 2 * EPS) * norm
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return symmetric((q * (lam * 10.0**exponent)) @ q.T)


def _first_below_floor(a):
    """The message naming the first matrix of a stack that
    ``PosDefMatrix.from_sym`` refuses, from one ``eigh`` per matrix, or
    None when it accepts them all."""
    for i, row in enumerate(a):
        smallest = np.linalg.eigh(row)[0][0]
        floor = float(linalg.posdef_floor(row))
        refused = TestOneFloorRule._raises(PosDefMatrix.from_sym, row)
        assert refused == (smallest <= floor)
        if refused:
            return (
                f"sample {i}: smallest eigenvalue {smallest:.3e} below the "
                f"positivity floor {floor:.3e}"
            )
    return None


class TestOneFloorRule:
    """``PosDefMatrix.from_sym`` and ``require_posdef_stack`` apply one
    positivity floor, so each accepts exactly what the other does."""

    @staticmethod
    def _raises(check, a) -> bool:
        try:
            check(a)
        except NotPositiveDefiniteError:
            return True
        return False

    @given(
        st.integers(1, 6),
        st.floats(-1e-3, 1e-3),
        st.integers(-200, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_near_floor_spectra(self, n, rel, exponent, seed):
        a = _spectrum_near_floor(n, rel, exponent, seed)
        assert self._raises(PosDefMatrix.from_sym, a) == self._raises(
            linalg.require_posdef_stack, a[None]
        )

    @given(st.integers(1, 6), st.integers(-323, -300), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_subnormal_spectra(self, n, exponent, seed):
        # the relative floor is far below these spectra; the absolute one
        # (the smallest normal float) decides
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        a = symmetric((q * (gen.uniform(1.0, 10.0, size=n) * 10.0**exponent)) @ q.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._raises(PosDefMatrix.from_sym, a) == self._raises(
                linalg.require_posdef_stack, a[None]
            )

    def test_both_sides_of_the_floor_are_covered(self):
        outcomes = {
            self._raises(PosDefMatrix.from_sym, _spectrum_near_floor(4, rel, e, seed))
            for rel in (-1e-3, 1e-3)
            for e in (-200, 0, 200)
            for seed in range(5)
        }
        assert outcomes == {True, False}
        subnormal = {
            self._raises(linalg.require_posdef_stack, np.diag([d, d])[None])
            for d in (1e-310, 3e-308)
        }
        assert subnormal == {True, False}

    @staticmethod
    def _assert_stack_verdict(a):
        want = _first_below_floor(a)
        if want is None:
            linalg.require_posdef_stack(a)
        else:
            with pytest.raises(NotPositiveDefiniteError) as raised:
                linalg.require_posdef_stack(a)
            assert str(raised.value) == want

    @given(
        st.integers(1, cli.MAX_DIM),
        st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.integers(-200, 200)), min_size=1, max_size=4),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_row_stacks(self, n, near, ordinary, seed):
        # near-floor rows at random positions among ordinary draws
        gen = np.random.default_rng(seed)
        rows = list(linalg.random_posdef_stack(n, LOG_RANGE, seed, ordinary)[0])
        for rel, exponent in near:
            row = _spectrum_near_floor(n, rel, exponent, int(gen.integers(2**32)))
            rows.insert(int(gen.integers(len(rows) + 1)), row)
        self._assert_stack_verdict(np.stack(rows))

    @pytest.mark.parametrize("n", [2, 5, cli.MAX_DIM])
    def test_rows_the_proof_leaves_to_eigh(self, n):
        draws = linalg.random_posdef_stack(n, LOG_RANGE, 40 + n, 5)[0]
        # above the floor by about a fifth of the proof's margin: far
        # beyond the error of eigh, but not proven
        close = _spectrum_near_floor(n, 2e-4 * (n + 1) ** 2, 0, 2)
        below = _spectrum_near_floor(n, -0.5, 0, 3)
        a = np.stack([draws[0], close, draws[1], below, draws[2], below])
        floors = linalg.posdef_floor(a)
        assert linalg._floor_proven(a, floors).tolist() == [True, False, True, False, True, False]
        assert np.linalg.eigh(close)[0][0] > floors[1]
        self._assert_stack_verdict(a)
        with pytest.raises(NotPositiveDefiniteError, match="^sample 3: "):
            linalg.require_posdef_stack(a)
        linalg.require_posdef_stack(a[:3])

    @given(
        st.integers(1, cli.MAX_DIM),
        st.floats(0.0, 4.0),
        st.integers(-200, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_proven_row_is_above_the_floor_by_eigh(self, n, k, exponent, seed):
        a = _spectrum_at_margin(n, k, exponent, seed)
        floor = linalg.posdef_floor(a[None])
        if linalg._floor_proven(a[None], floor)[0]:
            assert np.linalg.eigh(a)[0][0] > floor[0]

    def test_both_sides_of_the_proof_are_covered(self):
        for n in (2, 3, 10, cli.MAX_DIM):
            for seed in range(3):
                proven = [
                    bool(linalg._floor_proven(a[None], linalg.posdef_floor(a[None]))[0])
                    for a in (_spectrum_at_margin(n, k, 0, seed) for k in (0.0, 4.0))
                ]
                assert proven == [False, True]


class TestSeedWords:
    def test_words_of_the_seed_sequence(self):
        expected = np.random.SeedSequence(17).generate_state(12, dtype=np.uint64)
        assert np.array_equal(linalg.seed_words(17, 12), expected)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed -1 must be >= 0"):
            linalg.seed_words(-1, 4)


class TestRandomSym:
    def test_deterministic(self):
        assert np.array_equal(random_sym(4, seed=3, count=2), random_sym(4, seed=3, count=2))

    def test_bounded_and_symmetric(self):
        m = random_sym(4, seed=3, count=1)[0]
        assert isinstance(m, np.ndarray) and m.shape == (4, 4)
        assert np.max(np.abs(m)) <= 1.0
        assert np.array_equal(m, m.T)

