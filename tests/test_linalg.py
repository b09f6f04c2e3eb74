import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detconvex import certifier, cli, detcalculus, linalg
from detconvex.errors import NotPositiveDefiniteError, ParameterError
from detconvex.linalg import (
    PosDefMatrix,
    det,
    jacobi_eigen,
    random_posdef_array,
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
        with pytest.raises(ParameterError):
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
            with pytest.raises(ParameterError):
                symmetric(bad)
            with pytest.raises(ParameterError):
                PosDefMatrix.from_sym(bad)

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            a = np.array([[1.0, 0.0], [bad, 1.0]])
            with pytest.raises(ParameterError):
                symmetric(a)
            with pytest.raises(ParameterError):
                PosDefMatrix.from_sym(a)

    def test_entries_read_only(self):
        c = PosDefMatrix.from_sym(np.diag([1.0, 2.0, 3.0]))
        for m in (symmetric(np.eye(3)), c.a):
            with pytest.raises(ValueError):
                m[0] = 5.0


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
            c = random_posdef_array(4, seed=seed)
            prod = float(np.prod(np.linalg.eigvalsh(c)))
            assert abs(det(c) - prod) <= 1e-10 * abs(prod)

    def test_directional_derivative(self):
        # Jacobi's formula: d/dt det(C + tH) at 0 is det C <C^-1, H>; check
        # against central differences
        c = random_posdef_array(4, seed=77)
        h = random_sym(4, seed=78, count=1)[0]
        analytic = det(c) * np.sum(np.linalg.inv(c) * h)
        step = 1e-6
        fd = (det(c + step * h) - det(c - step * h)) / (2 * step)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


def _mp_det_error(m, got):
    """|got / det(m) - 1| with det(m) from mpmath's LU at 50 digits, and
    ln det(m)."""
    with mpmath.workdps(50):
        ref = mpmath.det(mpmath.matrix(m.tolist()))
        return float(abs(mpmath.mpf(got) / ref - 1)), float(mpmath.log(ref))


class TestCholeskyPosdef:
    # The determinant exp(2 sum log L_ii) of a backward-stable factor has
    # a relative error of about n cond(C) eps, and exp adds the absolute
    # error of its argument, about n |ln det C| eps: the bound is 8 times
    # their sum.
    @staticmethod
    def _bound(m, log_det):
        n = m.shape[-1]
        return 8.0 * n * (np.linalg.cond(m) + abs(log_det)) * EPS

    @pytest.mark.parametrize("n, count", [(1, 8), (2, 8), (3, 8), (10, 8), (64, 2)])
    def test_random_stacks_match_mpmath(self, n, count):
        c = linalg.random_posdef_stack(n, 5, count)[0]
        dets = linalg.cholesky_posdef(c)
        assert dets.shape == (count,)
        for m, got in zip(c, dets):
            err, log_det = _mp_det_error(m, got)
            assert err <= self._bound(m, log_det), (n, err)

    @pytest.mark.parametrize("s", [1e-300, 1e-3, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_scaled_identity_stencils_match_mpmath(self, s, n):
        # C = s^(1/n) I with the witnesses' directions, and the oracle's
        # stencil C + o T H at each, whose determinants span about 1e-300
        # to 1e300
        for kind in (certifier.KIND_POSITIVE_FPRIME, certifier.KIND_SECOND_ORDER):
            if kind == certifier.KIND_POSITIVE_FPRIME and n < 2:
                continue
            c, h = certifier.witness_pair(kind, s, n)
            steps, stencil = detcalculus._stencil(c.a[None], h[None])
            # the centre C is the stencil's first point
            points = c.a + (steps[0] * detcalculus._OFFSETS)[:, None, None] * h
            dets = linalg.cholesky_posdef(points)
            assert np.array_equal(points[0], c.a) and np.array_equal(dets, stencil[0])
            for m, got in zip(points, dets):
                err, log_det = _mp_det_error(m, got)
                assert err <= self._bound(m, log_det), (kind, err)

    def test_a_member_with_no_factor_raises_and_is_named(self):
        # an indefinite, a singular and a negative definite member each
        # make the stacked LAPACK call fail; the first such member is named
        # by its index over the stack's leading axes.  (A NaN entry need
        # not: LAPACK may factor it with a NaN diagonal, so the oracle
        # refuses non-finite pairs before their stencil.)
        c = linalg.random_posdef_stack(3, 9, 3)[0]
        v = np.array([1.0, 2.0, -1.0])
        for bad in (np.diag([1.0, -1.0, 2.0]), np.outer(v, v), -c[2]):
            stack = np.stack([c[0], c[1], bad, c[2], -c[0]])
            with pytest.raises(NotPositiveDefiniteError, match=r"matrix \(2,\) of the stack"):
                linalg.cholesky_posdef(stack)
            with pytest.raises(NotPositiveDefiniteError, match=r"matrix \(1, 0\) of the stack"):
                linalg.cholesky_posdef(stack[:4].reshape(2, 2, 3, 3))
        # in a stack, each member gets the determinant it gets alone
        dets = linalg.cholesky_posdef(c)
        for m, got in zip(c, dets):
            assert got == linalg.cholesky_posdef(m)
            assert got == pytest.approx(np.linalg.det(m), rel=1e-13)

    def test_stencil_shape_is_kept(self):
        c, h = linalg.random_pairs(4, 3, 5)
        points = c[:, None] + 1e-3 * detcalculus._OFFSETS[:, None, None] * h[:, None]
        dets = linalg.cholesky_posdef(points)
        assert dets.shape == (5, len(detcalculus._OFFSETS))
        assert np.array_equal(dets, linalg.cholesky_posdef(points.reshape(-1, 4, 4)).reshape(dets.shape))


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
            PosDefMatrix.from_sym(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_sym(np.outer([1.0, 2.0], [1.0, 2.0]))

    def test_relative_positivity_floor(self):
        # eigenvalue below 1e-12 * ||A|| counts as not positive definite
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix.from_sym(np.diag([1.0, 1e-14]))
        PosDefMatrix.from_sym(np.diag([1.0, 1e-10]))  # above the floor

    def test_floor_at_extreme_scales(self):
        # the Frobenius norm squared the entries: 1e200 gave the floor inf,
        # 1e-200 the floor 0
        big = PosDefMatrix.from_sym(np.diag([1e200, 1e200]))
        assert jacobi_eigen(big.a)[0][0] == 1e200
        tiny = PosDefMatrix.from_sym(np.diag([1e-200, 1e-200]))
        assert linalg.POSDEF_EIG_FLOOR * linalg.frob_norm(tiny.a) > 0
        with pytest.raises(NotPositiveDefiniteError, match="floor 1.000e\\+188"):
            PosDefMatrix.from_sym(np.diag([1e200, 1.0]))

    def test_subnormal_spectrum_is_below_the_floor(self):
        # above the relative floor, but 1/eig overflows: an error, not a
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in ([1e-320], [1e-310, 1e-310], [5e-324, 5e-324, 5e-324]):
                with pytest.raises(NotPositiveDefiniteError, match="floor 2.225e-308"):
                    PosDefMatrix.from_sym(np.diag(d))
            # at the smallest accepted spectrum C^-1 is finite: with H =
            # C^(1/2), <H C^-1, C^-1 H> = tr C^-1 = 2 / 3e-308
            c = PosDefMatrix.from_sym(np.diag([3e-308, 3e-308]))
            inner, cross = detcalculus.hess_terms(c.a, np.sqrt(c.a))
            assert np.isfinite(inner) and cross == pytest.approx(2 / 3e-308, rel=1e-15)


class TestRandomPosdef:
    def test_deterministic(self):
        a = random_posdef_array(3, seed=7)
        b = random_posdef_array(3, seed=7)
        assert np.array_equal(a, b)

    def test_eigenvalues_inside_range(self):
        eigenvalues = np.linalg.eigvalsh(random_posdef_array(3, seed=7))
        assert np.all(eigenvalues >= 0.1 - 1e-12)
        assert np.all(eigenvalues <= 10.0 + 1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ParameterError):
            random_posdef_array(0, seed=1)


DRAW_DIMS = [1, 2, 3, 5, 10, 64]


def draw_frames(n, seed, count):
    """The frames of ``random_posdef_stack(n, seed, count)``: the Q
    factors of its ``count`` n x n Gaussian matrices, from the
    ``jumped()`` stream of ``PCG64(seed)``."""
    gauss = np.random.Generator(np.random.PCG64(int(seed)).jumped())
    return np.linalg.qr(gauss.standard_normal((count, n, n)))[0]


def reference_posdef_rows(n, seed, k, signs=False):
    """k positive definite matrices, lower triangle mirrored, and their log
    eigenvalues, one row at a time: the log eigenvalues uniform over
    LOG_RANGE from the stream ``PCG64(seed)``, the frame from the QR factors of an n x n Gaussian
    matrix of its ``jumped()`` stream.  With ``signs``, each column of Q
    takes the sign of R's diagonal entry, Mezzadri's convention that
    makes the frame Haar."""
    bits = np.random.PCG64(int(seed))
    gauss = np.random.Generator(bits.jumped())
    uniform = np.random.Generator(bits)
    logs = [uniform.uniform(*LOG_RANGE, size=n) for _ in range(k)]
    mats = []
    for lg in logs:
        q, r = np.linalg.qr(gauss.standard_normal((n, n)))
        if signs:
            q = q * np.sign(np.diag(r))
        a = (q * np.exp(lg)) @ q.T
        low = np.tril(a)
        mats.append(low + low.T - np.diag(np.diag(a)))
    return mats, logs


class TestQRFrameDraw:
    """The frames and spectra of ``random_posdef_stack``.  LAPACK forms Q
    as a product of computed Householder reflections, which is orthogonal
    to a small multiple of n eps (Higham 2002, Lemma 19.3), and the
    eigenvalues of the rounded C lie within that multiple of n eps |C|_2 =
    n cond eps lambda_min of the drawn ones; c = 8 leaves a margin of about
    3 over the largest error seen in 20 000 draws per n (2.5 n eps, at
    n = 2)."""

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_frames_are_orthogonal(self, n):
        q = draw_frames(n, n, 200)
        err = np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max()
        assert err <= 8 * n * EPS

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_spectrum_is_the_drawn_one(self, n):
        c, logs = linalg.random_posdef_stack(n, 60 + n, 200)
        lam = np.sort(np.exp(logs), axis=1)
        cond = lam[:, -1] / lam[:, 0]
        bound = 8 * n * cond * EPS * lam[:, 0]
        assert np.all(np.abs(np.linalg.eigvalsh(c) - lam) <= bound[:, None])

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_stack_rows_are_the_per_row_draws(self, n):
        # row j of a k-stack is the j-th matrix of the two streams drawn
        # one row at a time, a count-1 stack is the draw of a single
        # seed, and a shorter stack is a prefix of a longer one
        seeds = np.random.SeedSequence(500 + n).generate_state(40, dtype=np.uint64)
        for seed in seeds:
            pd, logs = linalg.random_posdef_stack(n, seed, 1)
            assert pd.shape == (1, n, n) and logs.shape == (1, n)
            assert np.array_equal(pd[0], linalg.random_posdef_array(n, int(seed)))
            ref_pd, ref_logs = reference_posdef_rows(n, int(seed), 1)
            assert np.array_equal(pd[0], ref_pd[0]) and np.array_equal(logs[0], ref_logs[0])
        k, seed = 40, int(seeds[0])
        pd, logs = linalg.random_posdef_stack(n, seed, k)
        ref_pd, ref_logs = reference_posdef_rows(n, seed, k)
        for j in range(k):
            assert np.array_equal(pd[j], ref_pd[j]) and np.array_equal(logs[j], ref_logs[j])
        for short in (1, 7, k - 1):
            pd_short, logs_short = linalg.random_posdef_stack(n, seed, short)
            assert np.array_equal(pd_short, pd[:short]) and np.array_equal(logs_short, logs[:short])

    def test_frames_need_no_sign_convention(self):
        # random_posdef_stack takes LAPACK's Q as it is; the reference
        # gives each column of Q the sign of R's diagonal entry (Mezzadri,
        # Notices AMS 54(5), 2007), which makes the frame Haar.  Each sign
        # cancels exactly in Q diag Q^T, so the draws agree bit for bit
        k = 64
        for n in range(1, 34):
            seed = 900 + n
            got = linalg.random_posdef_stack(n, seed, k)[0]
            want = reference_posdef_rows(n, seed, k, signs=True)[0]
            assert all(np.array_equal(got[j], want[j]) for j in range(k)), n

    @pytest.mark.parametrize("n", DRAW_DIMS)
    def test_haar_moments(self, n):
        # each entry of a Haar frame has E q^2 = 1/n and E q^4 =
        # 3/(n(n+2)); the signs the draw leaves out do not change them
        count = 4000 if n <= 10 else 2000
        # per entry, the sums of q^2, q^4 and q^8, 250 frames per seed word
        sums = np.zeros((3, n, n))
        for word in linalg.seed_words(70 + n, count // 250):
            squares = draw_frames(n, word, 250) ** 2
            sums += [np.sum(squares**p, axis=0) for p in (1, 2, 4)]
        mean2, mean4, mean8 = sums / count
        for mean, second, moment in ((mean2, mean4, 1 / n), (mean4, mean8, 3 / (n * (n + 2)))):
            standard_error = np.sqrt((second - mean**2) / count)
            assert np.all(np.abs(mean - moment) <= 5 * standard_error), moment


class TestDrawsClearTheFloor:
    """A draw Q diag(e) Q^T over DEFAULT_LOG_EIG_RANGE is above the
    positivity floor by construction, so neither the sweep nor the oracle
    checks its draws: rounding moves an eigenvalue by at most 8 n eps
    max(e) (``TestQRFrameDraw``), and the floor is at most
    POSDEF_EIG_FLOOR sqrt(n) max(e)."""

    def test_the_range_clears_the_floor_up_to_max_dim(self):
        lo, hi = linalg.DEFAULT_LOG_EIG_RANGE
        n = cli.MAX_DIM
        assert math.exp(lo) > 1e6 * (linalg.POSDEF_EIG_FLOOR * math.sqrt(n) + 8 * n * EPS) * math.exp(hi)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, cli.MAX_DIM])
    def test_default_draws_are_far_above_the_floor(self, n):
        c = linalg.random_posdef_stack(n, 80 + n, 512)[0]
        assert np.all(np.linalg.eigvalsh(c)[:, 0] > 1e6 * linalg.posdef_floor(c))


def _spectrum_near_floor(n, rel, exponent, seed):
    """A rotated matrix whose smallest eigenvalue sits at (1 + rel) times
    the positivity floor of its diagonal form, scaled by 10**exponent."""
    gen = np.random.default_rng(seed)
    lam = gen.uniform(1.0, 10.0, size=n)
    lam[0] = linalg.POSDEF_EIG_FLOOR * math.sqrt(np.sum(lam[1:] ** 2)) * (1.0 + rel)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return symmetric((q * (lam * 10.0**exponent)) @ q.T)


class TestOneFloorRule:
    """``PosDefMatrix.from_sym`` refuses a matrix exactly when ``eigh``
    puts its smallest eigenvalue at or below ``posdef_floor``, and says
    so with both numbers."""

    @staticmethod
    def _raises(a) -> bool:
        try:
            PosDefMatrix.from_sym(a)
        except NotPositiveDefiniteError as e:
            smallest, floor = np.linalg.eigh(a)[0][0], linalg.posdef_floor(a)
            assert str(e) == (
                f"smallest eigenvalue {smallest:.3e} below the positivity floor {floor:.3e}"
            )
            return True
        return False

    def _assert_floor_rule(self, a):
        assert self._raises(a) == (np.linalg.eigh(a)[0][0] <= linalg.posdef_floor(a))

    @given(
        st.integers(1, 6),
        st.floats(-1e-3, 1e-3),
        st.integers(-200, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_near_floor_spectra(self, n, rel, exponent, seed):
        self._assert_floor_rule(_spectrum_near_floor(n, rel, exponent, seed))

    @given(
        st.integers(7, cli.MAX_DIM),
        st.floats(-1e-3, 1e-3),
        st.integers(-200, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_near_floor_spectra_up_to_max_dim(self, n, rel, exponent, seed):
        self._assert_floor_rule(_spectrum_near_floor(n, rel, exponent, seed))

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
            self._assert_floor_rule(a)

    def test_both_sides_of_the_floor_are_covered(self):
        outcomes = {
            self._raises(_spectrum_near_floor(n, rel, e, seed))
            for n in (4, cli.MAX_DIM)
            for rel in (-1e-3, 1e-3)
            for e in (-200, 0, 200)
            for seed in range(5)
        }
        assert outcomes == {True, False}
        subnormal = {self._raises(np.diag([d, d])) for d in (1e-310, 3e-308)}
        assert subnormal == {True, False}


class TestSeedWords:
    def test_words_of_the_seed_sequence(self):
        expected = np.random.SeedSequence(17).generate_state(12, dtype=np.uint64)
        assert np.array_equal(linalg.seed_words(17, 12), expected)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed=-1 must be >= 0"):
            linalg.seed_words(-1, 4)


class TestRandomSym:
    def test_deterministic(self):
        assert np.array_equal(random_sym(4, seed=3, count=2), random_sym(4, seed=3, count=2))

    def test_bounded_and_symmetric(self):
        m = random_sym(4, seed=3, count=1)[0]
        assert isinstance(m, np.ndarray) and m.shape == (4, 4)
        assert np.max(np.abs(m)) <= 1.0
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_stack_is_c_ordered(self, n):
        # a stack gathered with the samples innermost holds the same values,
        # but the oracle's sums over it then round differently
        assert random_sym(n, seed=3, count=50).flags.c_contiguous

