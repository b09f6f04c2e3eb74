import math

import numpy as np
import pytest

from detconvex import cli, detcalculus, linalg, scalarfun
from detconvex.detcalculus import (
    builtin_corpus,
    condition_bracket,
    condition_lhs_diag,
    directional_forms,
    fd_first_directional,
    fd_second_directional_with_step,
    g_grad_form,
    g_hess_form,
    hess_terms,
    oracle_sweep,
)
from detconvex.errors import NotPositiveDefiniteError, ParameterError
from detconvex.linalg import PosDefMatrix, random_posdef_array, random_sym
from detconvex.scalarfun import FamilyA, LogFamily, eval_jet, parse

LOG_RANGE = (math.log(0.1), math.log(10.0))
NEG_LN = LogFamily(c=-1.0, d=0.0)
IDENT = parse("s")
FD_STEP = detcalculus.FD_STEP_SCALE


def _posdef(n, seed):
    """A seeded positive definite draw with its LU determinant."""
    return PosDefMatrix.from_sym(random_posdef_array(n, seed))


def _diag(d):
    return PosDefMatrix.from_sym(np.diag(d))


def _samples(n, count, seed):
    seeds = np.random.SeedSequence(seed).generate_state(2 * count, dtype=np.uint64)
    for i in range(count):
        yield (
            _posdef(n, int(seeds[2 * i])),
            random_sym(n, int(seeds[2 * i + 1]), 1)[0],
        )


def _grad(f, c, h):
    """g_grad_form of one pair, at its LU determinant."""
    return g_grad_form(eval_jet(f, c.det), c.det, hess_terms(c.a, h)[0])


def _bracket(f, c, h):
    """condition_bracket of one pair, at its LU determinant."""
    return condition_bracket(eval_jet(f, c.det), c.det, *hess_terms(c.a, h))


def _hess(f, c, h):
    """g_hess_form of one pair, at its LU determinant."""
    return g_hess_form(eval_jet(f, c.det), c.det, *hess_terms(c.a, h))


def _forms(f, c, h):
    """directional_forms of one pair as a one-row stack."""
    return directional_forms((f,), c.a[None], np.asarray(h, dtype=float)[None])


def _stacks(pairs):
    return np.stack([p[0].a for p in pairs]), np.stack([p[1] for p in pairs])


class TestGradForm:
    def test_neg_ln_identity_direction(self):
        for n in (2, 3, 5):
            c = _diag(np.ones(n))
            h = np.eye(n)
            assert _grad(NEG_LN, c, h) == -float(n)

    def test_linear_in_direction_zero(self):
        c = _posdef(3, 4)
        assert _grad(NEG_LN, c, np.zeros((3, 3))) == 0.0

    def test_det_derivative_unit(self):
        c = _diag([1.0, 1.0, 1.0])
        h = np.diag([1.0, 0.0, 0.0])
        assert _grad(IDENT, c, h) == 1.0

    def test_matches_first_differences(self):
        c, h = _stacks(list(_samples(3, 40, seed=11)))
        for f in (NEG_LN, IDENT, FamilyA(a=0.5, c=-1.0, d=0.0, n=3)):
            forms = directional_forms((f,), c, h)
            bound = 1e-6 * np.maximum(1.0, np.abs(forms.grad))
            assert np.all(np.abs(forms.grad - forms.fd_grad) <= bound)

    def test_dimension_mismatch(self):
        c = _posdef(3, 4)
        for h in (np.eye(2)[None], np.eye(3), np.zeros((2, 3, 3))):
            with pytest.raises(ParameterError):
                directional_forms((NEG_LN,), c.a[None], h)


class TestHessForm:
    def test_neg_ln_two_dims(self):
        c = _diag([1.0, 1.0])
        assert _hess(NEG_LN, c, np.eye(2)) == 2.0

    def test_slope_witness_value(self):
        c = _diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        assert _hess(IDENT, c, h) == -4.0

    def test_limiting_family_annihilates_extremal_direction(self):
        f = FamilyA(a=0.0, c=-3.0, d=3.0, n=3)
        s, k = 2.0, 1.5
        c = _diag(np.full(3, s ** (1.0 / 3.0)))
        h = np.diag(np.full(3, k * s ** (-1.0 / 3.0)))
        forms = _forms(f, c, h)
        assert abs(forms.hess[0]) <= 1e-12
        assert abs(forms.fd_hess[0]) <= 1e-4

    def test_quadratic_homogeneity(self):
        f = FamilyA(a=0.75, c=-2.0, d=1.0, n=3)
        for c, h in _samples(3, 25, seed=21):
            base = _hess(f, c, h)
            for t in (-2.0, 0.5, 3.0):
                scaled = _hess(f, c, t * h)
                assert abs(scaled - t * t * base) <= 1e-12 * max(1.0, abs(scaled))

    def test_even_in_direction(self):
        c = _posdef(4, 31)
        h = random_sym(4, seed=32, count=1)[0]
        assert _hess(NEG_LN, c, h) == _hess(NEG_LN, c, -h)


class TestHessTerms:
    def test_stack_equals_single_pairs(self):
        # the sweep's stacked kernel gives each pair exactly the terms
        # that g_hess_form uses for it alone
        for n in (2, 3, 5):
            pairs = list(_samples(n, 30, seed=40 + n))
            c = np.stack([p[0].a for p in pairs])
            h = np.stack([p[1] for p in pairs])
            inner, cross = detcalculus.hess_terms(c, h)
            for i, (ci, hi) in enumerate(pairs):
                one_inner, one_cross = detcalculus.hess_terms(ci.a, hi)
                assert inner[i] == one_inner and cross[i] == one_cross
                one_inner, one_cross = float(one_inner), float(one_cross)
                want = ci.det * (one_inner * one_inner - one_cross)
                assert _hess(IDENT, ci, hi) == want

    def test_matches_explicit_inverse(self):
        for n in (2, 3, 5):
            for c, h in _samples(n, 30, seed=50 + n):
                inv = np.linalg.inv(c.a)
                inner, cross = detcalculus.hess_terms(c.a, h)
                want_inner = np.sum(inv * h)
                want_cross = np.sum((h @ inv) * (inv @ h))
                assert abs(inner - want_inner) <= 1e-12 * max(1.0, abs(want_inner))
                assert abs(cross - want_cross) <= 1e-12 * max(1.0, abs(want_cross))


class TestConditionForms:
    def test_full_neg_ln_identity(self):
        c = _diag([1.0, 1.0, 1.0])
        assert _bracket(NEG_LN, c, np.eye(3)) == 3.0

    def test_full_slope_witness(self):
        c = _diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        assert _bracket(IDENT, c, h) == -2.0

    def test_full_zero_direction(self):
        c = _posdef(3, 5)
        assert _bracket(NEG_LN, c, np.zeros((3, 3))) == 0.0

    def test_diag_matches_full_at_identity_frame(self):
        assert condition_lhs_diag(NEG_LN, np.ones(3), np.eye(3)) == 3.0

    def test_diag_extremal_direction_value(self):
        # f(s) = -s at s=1, k=1, n=3 collapses to 3*(3*0 + 2*(-1)) = -6
        val = condition_lhs_diag(parse("-s"), np.ones(3), np.eye(3))
        assert val == -6.0

    def test_diag_zero_direction(self):
        assert condition_lhs_diag(NEG_LN, np.array([0.5, 2.0]), np.zeros((2, 2))) == 0.0

    def test_diag_rejects_bad_entries(self):
        with pytest.raises(ParameterError):
            condition_lhs_diag(NEG_LN, np.array([1.0, -0.5]), np.eye(2))

    def test_diag_validates_stacks(self):
        d = np.ones((4, 3))
        h = np.zeros((4, 3, 3))
        d[2, 1] = np.nan
        for bad_d in (d, np.float64(1.0)):
            with pytest.raises(ParameterError):
                condition_lhs_diag(NEG_LN, bad_d, h)
        for bad_h in (np.zeros((4, 3, 2)), np.zeros((3, 3, 3)), np.zeros((3, 3))):
            with pytest.raises(ParameterError):
                condition_lhs_diag(NEG_LN, np.ones((4, 3)), bad_h)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_diag_stack_matches_rows_and_the_dense_form(self, n):
        # each row of a stack is the single-pair value, and both are the
        # dense form with D^-1 = diag(d), two products and two inner products
        gen = np.random.Generator(np.random.PCG64(70 + n))
        d = np.exp(gen.uniform(*LOG_RANGE, size=(40, n)))
        h = linalg.random_sym(n, 71 + n, 40)
        for f in builtin_corpus(n):
            stacked = condition_lhs_diag(f, d, h)
            assert stacked.shape == (40,)
            for i in range(40):
                assert stacked[i] == condition_lhs_diag(f, d[i], h[i])
                dinv = np.diag(d[i])
                s = 1.0 / float(np.prod(d[i]))
                jet = eval_jet(f, s)
                inner = np.sum(dinv * h[i])
                cross = np.sum((dinv @ h[i]) * (h[i] @ dinv))
                dense = (jet.d2 + jet.d1 / s) * inner * inner - (jet.d1 / s) * cross
                assert abs(stacked[i] - dense) <= 1e-13 * max(1.0, abs(dense))

    @pytest.mark.parametrize("n", [1, 3])
    def test_diag_stack_of_stacks_matches_its_rows(self, n):
        # (2, 3, n) stacks send a (2, 3) array of determinants to eval_jet,
        # whose jet must have the bits of each row's and each pair's call
        gen = np.random.Generator(np.random.PCG64(80 + n))
        d = np.exp(gen.uniform(*LOG_RANGE, size=(2, 3, n)))
        h = linalg.random_sym(n, 81 + n, 6).reshape(2, 3, n, n)
        for f in builtin_corpus(n) + (parse("-s*ln(s)+s^2/(1+s)"),):
            stacked = condition_lhs_diag(f, d, h)
            assert stacked.shape == (2, 3)
            for i in range(2):
                assert stacked[i].tobytes() == condition_lhs_diag(f, d[i], h[i]).tobytes()
                for j in range(3):
                    assert stacked[i, j] == condition_lhs_diag(f, d[i, j], h[i, j])

    def test_identity_with_hess_form(self):
        for n in (2, 3, 5):
            corpus = builtin_corpus(n)
            for i, (c, h) in enumerate(_samples(n, 60, seed=40 + n)):
                f = corpus[i % len(corpus)]
                full = _bracket(f, c, h)
                hess = _hess(f, c, h)
                assert abs(full * c.det - hess) <= 1e-12 * max(1.0, abs(hess))

    def test_neg_ln_collapses_to_cross_term(self):
        for c, h in _samples(4, 40, seed=51):
            inv = np.linalg.inv(c.a)
            cross = np.sum((h @ inv) * (inv @ h))
            hess = _hess(NEG_LN, c, h)
            assert abs(hess - cross) <= 1e-10 * max(1.0, abs(cross))


def _default_step(c, h):
    return FD_STEP * (1.0 + linalg.frob_norm(c)) / (1.0 + linalg.frob_norm(h))


def _cholesky_det(m):
    """det of one positive definite matrix from its own Cholesky factor L,
    exp(2 sum_i log L_ii)."""
    return np.exp(2.0 * np.sum(np.log(np.diagonal(np.linalg.cholesky(m)))))


def _reference_differences(f, c, h, s):
    """Both central differences of one pair as their own formulas: the
    default outer step T, f at det(C +/- TH) and det(C +/- (T/2) H) one
    point at a time, each from its own factor, and Richardson's
    (4 D(T/2) - D(T)) / 3 of each.  (second, first, T)."""
    t = _default_step(c, h)
    gp, gm, gp2, gm2 = (eval_jet(f, _cholesky_det(c + o * t * h)).v for o in (1, -1, 0.5, -0.5))
    g0 = eval_jet(f, s).v
    differences = (
        ((gp - 2.0 * g0 + gm) / (t * t), (gp2 - 2.0 * g0 + gm2) / ((0.5 * t) * (0.5 * t))),
        ((gp - gm) / (2.0 * t), (gp2 - gm2) / t),
    )
    second, first = ((4.0 * half - full) / 3.0 for full, half in differences)
    return second, first, t


class TestFdOracles:
    def test_explicit_step_example(self):
        # |C| = |H|, so the default step is the scale itself
        c = _diag([1.0, 1.0])
        steps, dets = detcalculus._stencil(c.a[None], np.eye(2)[None])
        assert steps[0] == FD_STEP
        assert list(dets[0]) == [_cholesky_det((1.0 + o * FD_STEP) * np.eye(2)) for o in (1, -1, 0.5, -0.5)]
        assert abs(_forms(NEG_LN, c, np.eye(2)).fd_hess[0] - 2.0) <= 1e-6

    def test_zero_direction_exact(self):
        # every stencil point is C itself, at the determinant the oracle uses
        c = _posdef(3, 6).a[None]
        forms = directional_forms((NEG_LN,), c, np.zeros((1, 3, 3)))
        assert forms.fd_hess[0] == 0.0 and forms.fd_grad[0] == 0.0
        assert forms.hess_est[0] == 0.0 and forms.grad_est[0] == 0.0

    def test_slope_witness_fd(self):
        c = _diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        assert abs(_forms(IDENT, c, h).fd_hess[0] - (-4.0)) <= 1e-5 * 4.0

    @pytest.mark.parametrize("d", [[1e-9, 1.0], [1e-20, 1e-20]], ids=["diag_1e-9_1", "diag_1e-20"])
    def test_a_pair_at_the_boundary_is_refused_by_row(self, d):
        # the default step leaves the cone at C = diag(d), H = I: the stack
        # is refused, naming the row and its first point with no factor,
        # C - TH; the rows before it factor
        c, h = linalg.random_pairs(2, 5, 3)
        c[2], h[2] = np.diag(d), np.eye(2)
        assert _default_step(c[2], h[2]) > d[0]
        with pytest.raises(NotPositiveDefiniteError, match=r"matrix \(2, 1\) of the stack"):
            directional_forms((IDENT,), c, h)
        directional_forms((IDENT,), c[:2], h[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["c", "h"])
    def test_non_finite_entries_are_refused(self, bad, where):
        c, h = linalg.random_pairs(3, 5, 4)
        # an upper entry, which no Cholesky factor reads
        (c if where == "c" else h)[1, 0, 2] = bad
        with pytest.raises(ParameterError, match="entries must be finite"):
            directional_forms((NEG_LN,), c, h)

    def test_non_symmetric_stacks_are_refused(self):
        # a Cholesky factor reads only the lower triangle of each stencil
        # matrix, so the differences of this H were those of another
        # matrix: fd_hess -566.2 against an analytic -8.30
        f = parse("-ln(s)+s^2")
        c = linalg.random_posdef_stack(3, 7, 1)[0]
        h = np.random.default_rng(1).uniform(-1.0, 1.0, (1, 3, 3))
        with pytest.raises(ParameterError, match="must be symmetric"):
            directional_forms((f,), c, h)
        sym = 0.5 * (h + h.swapaxes(1, 2))
        forms = directional_forms((f,), c, sym)
        hess = forms.hess[0]
        assert abs(forms.fd_hess[0] - hess) <= detcalculus.ORACLE_HESS_TOL * max(1.0, abs(hess))
        # one ulp off in an upper entry of C
        c[0, 0, 2] = np.nextafter(c[0, 0, 2], np.inf)
        with pytest.raises(ParameterError, match="must be symmetric"):
            directional_forms((f,), c, sym)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_direction_norm_is_refused(self):
        # |H| overflows to inf, which makes the default step 0
        c = _diag([1.0, 1.0])
        with pytest.raises(ParameterError):
            _forms(NEG_LN, c, np.full((2, 2), 1.5e308))

    @pytest.mark.parametrize("lam_min", [None, 1e-2])
    def test_values_match_the_one_stencil(self, lam_min):
        # the stacked stencil against both central differences of each
        # pair as separate formulas at the one step, with its own default
        # and evaluation of f; a shift of C to the smallest eigenvalue
        # lam_min, below the draws' 0.1, puts it nearer the boundary
        pairs = list(_samples(3, 10, seed=21))
        if lam_min is not None:
            pairs = [
                (PosDefMatrix.from_sym(c.a - (np.linalg.eigh(c.a)[0][0] - lam_min) * np.eye(3)), h)
                for c, h in pairs
            ]
        c, h = _stacks(pairs)
        s, steps = np.linalg.det(c), detcalculus._stencil(c, h)[0]
        for f in builtin_corpus(3) + (IDENT, parse("s^2*exp(-s)")):
            forms = directional_forms((f,), c, h)
            for i in range(len(pairs)):
                second, first, step = _reference_differences(f, c[i], h[i], s[i])
                assert (forms.fd_hess[i], forms.fd_grad[i], steps[i]) == (second, first, step)

    def test_difference_functions_are_richardson(self):
        # D(T) = 4, D(T/2) = 1 for both: (4 * 1 - 4) / 3 = 0, estimate 3;
        # at T = 2 the second difference's D scale by 1/4 and the first's
        # by 1/2: values 0, estimates 3/4 and 3/2
        g0 = np.array([1.0, 1.0])
        g2 = np.array([[3.0, 3.0, 1.125, 1.125]] * 2)
        g1 = np.array([[4.0, -4.0, 0.5, -0.5]] * 2)
        steps = np.array([1.0, 2.0])
        for (value, estimate), scaled in (
            (fd_second_directional_with_step(g0, g2, steps), 0.75),
            (fd_first_directional(g1, steps), 1.5),
        ):
            assert list(value) == [0.0, 0.0] and list(estimate) == [3.0, scaled]

    def test_first_difference_skips_the_centre(self):
        # f has a pole at det C = 2, but not at det(C +/- tH); the second
        # difference reads f at det C and fails there, the first does not
        f = parse("1/(s-2)")
        c = _diag([1.0, 2.0])
        h = np.eye(2)
        t = _default_step(c.a, h)
        sp, sm, sp2, sm2 = (_cholesky_det(c.a + o * t * h) for o in (1.0, -1.0, 0.5, -0.5))
        assert sm < sm2 < 2.0 < sp2 < sp
        g = [1.0 / (x - 2.0) for x in (sp, sm, sp2, sm2)]
        want = (4.0 * ((g[2] - g[3]) / t) - (g[0] - g[1]) / (2.0 * t)) / 3.0
        forms = _forms(f, c, h)
        assert forms.fd_grad[0] == want
        assert np.isnan(forms.fd_hess[0]) and np.isnan(forms.hess[0])


class TestStencilStaysInTheCone:
    """The stencil has no fallback step: every pair the oracle can draw
    must keep C +/- T H in the cone.  |T H|_F < FD_STEP_SCALE (1 + |C|_F),
    and |C|_F <= 10 sqrt(n) for eigenvalues in [0.1, 10], so
    lambda_min(C +/- T H) >= lambda_min(C) - T |H|_F stays above 0.1 minus
    that bound."""

    def test_the_step_bound_is_below_the_smallest_eigenvalue(self):
        lo = linalg.DEFAULT_LOG_EIG_RANGE[0]
        assert FD_STEP * (1 + 10 * math.sqrt(cli.MAX_DIM)) < math.exp(lo)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 24, 64])
    def test_the_oracle_draws_keep_half_the_smallest_eigenvalue(self, n):
        # the oracle command's default 1000 samples, or the most its entry
        # limit admits; the points C +/- (T/2) H lie between C and C +/- T H
        count = min(1000, cli.MAX_ORACLE_ENTRIES // n**2)
        for seed in range(5):
            c, h = linalg.random_pairs(n, seed, count)
            steps = detcalculus._stencil(c, h)[0]
            lowest = np.linalg.eigvalsh(c)[:, 0]
            for sign in (1.0, -1.0):
                moved = np.linalg.eigvalsh(c + (sign * steps)[:, None, None] * h)[:, 0]
                assert np.all(moved >= 0.5 * lowest), (seed, sign)


class TestOracleSweep:
    def test_tolerances_hold_on_sample(self):
        res = oracle_sweep(3, 200, seed=9)
        assert res.skipped == 0 and len(res.samples) == 200
        assert res.max_hess_disc <= 1e-5
        assert res.max_grad_disc <= 1e-6
        assert res.all_agree
        assert np.all(res.hess_disc <= detcalculus.ORACLE_HESS_TOL)

    def test_deterministic(self):
        a = oracle_sweep(2, 50, seed=77)
        b = oracle_sweep(2, 50, seed=77)
        for x, y in ((a.hess_disc, b.hess_disc), (a.grad_disc, b.grad_disc)):
            assert np.array_equal(x, y)

    def test_explicit_function_list(self):
        res = oracle_sweep(2, 40, seed=13, functions=[NEG_LN])
        assert res.max_hess_disc <= 1e-5

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            oracle_sweep(3, 0, seed=1)
        with pytest.raises(ParameterError):
            oracle_sweep(3, 3, seed=1, functions=[])

    def test_rejects_negative_seed(self):
        # SeedSequence raised a bare ValueError, which the CLI reported as
        # a traceback with exit 1
        with pytest.raises(ParameterError, match="seed -1"):
            oracle_sweep(3, 3, seed=-1)

    def test_domain_failures_counted_not_fatal(self):
        # defined only above det = 5, so most draws are skipped
        partial = parse("ln(s-5)")
        res = oracle_sweep(3, 60, seed=3, functions=[partial])
        assert res.skipped > 0
        assert res.skipped + len(res.samples) == 60

    def test_fewer_samples_than_functions(self):
        res = oracle_sweep(3, 3, seed=5)
        assert list(res.samples) == [0, 1, 2] and res.all_agree

    def test_the_corpus_compiles_once_per_n(self, monkeypatch):
        # the families are immutable values, so one tuple per n keeps
        # their programs; n = 37 is used by no other test, so the first
        # sweep compiles all seven
        compiled = []
        compile_program = scalarfun._Compiler.compile

        def counting(compiler, e):
            compiled.append(e)
            return compile_program(compiler, e)

        monkeypatch.setattr(scalarfun._Compiler, "compile", counting)
        oracle_sweep(37, 7, seed=1)
        assert len(compiled) == len(builtin_corpus(37)) == 7
        compiled.clear()
        oracle_sweep(37, 7, seed=2)
        assert compiled == [] and builtin_corpus(37) is builtin_corpus(37)

    def test_gradient_margin_at_n10(self):
        # the first difference takes the second's outer step; over 200
        # seeds of the CLI's default n = 10 draw (5600 samples) it stays
        # inside its tolerance (the worst of seeds 0-2999 is about 2e-7)
        for seed in range(200):
            res = oracle_sweep(10, 28, seed)
            assert res.max_grad_disc <= detcalculus.ORACLE_GRAD_TOL, seed

    def test_draw_layout(self):
        # sample i is row i of two stacks of --samples rows, one stream
        # each: C from word 0 and H from word 1 of seed_words(seed, 2)
        c, h = linalg.random_pairs(3, 17, 9)
        words = linalg.seed_words(17, 2)
        assert np.array_equal(c, linalg.random_posdef_stack(3, words[0], 9)[0])
        assert np.array_equal(h, linalg.random_sym(3, words[1], 9))

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_oracle_pairs_keep_full_frames(self, n):
        # the sweep draws C diagonal; the oracle checks hess_terms against
        # finite differences, which needs the off-diagonal entries of C.
        # A Haar frame lies near the axes with small probability, so no
        # floor holds for every draw: no C is diagonal, and most are far from it
        c = linalg.random_pairs(n, 23, 64)[0]
        off = c - np.eye(n) * c
        share = np.abs(off).max(axis=(-2, -1)) / np.abs(c).max(axis=(-2, -1))
        assert np.all(share > 0) and np.median(share) > 0.1

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_a_sample_replays_from_the_seed_n_and_its_index(self, n):
        # sample i depends only on the seed, n and i, so a shorter sweep
        # reports the first rows of a longer one, bit for bit
        for seed in (4, 31):
            full = oracle_sweep(n, 28, seed)
            for k in (1, 7, 20):
                short = oracle_sweep(n, k, seed)
                rows = full.samples < k
                assert short.skipped == k - np.count_nonzero(rows)
                for field in ("samples", "hess_disc", "grad_disc", "richardson"):
                    want = getattr(full, field)[rows]
                    assert np.array_equal(getattr(short, field), want), (k, field)


def _disc(analytic, fd):
    return abs(analytic - fd) / max(1.0, abs(analytic))


def _old_draw(seed, i, n):
    """Pair i of a sweep as drawn before the oracle was stacked: words 2i
    and 2i+1 of seed_words(seed, 56), one count-1 stream per matrix, C by
    the QR rule of that time (log eigenvalues, then a Gaussian matrix
    whose QR factor Q is the frame, from one PCG64 stream)."""
    words = linalg.seed_words(seed, 56)
    lo, hi = linalg.DEFAULT_LOG_EIG_RANGE
    gen = np.random.Generator(np.random.PCG64(words[2 * i]))
    logs = gen.uniform(lo, hi, size=(1, n))
    q = np.linalg.qr(gen.standard_normal((1, n, n)))[0]
    c = linalg._mirror_lower((q * np.exp(logs)[:, None, :]) @ np.swapaxes(q, -1, -2))
    return c, linalg.random_sym(n, words[2 * i + 1], 1)


class TestOracleDefects:
    """The two pairs on which the single central differences missed their
    tolerance at n=10 (fd truncation, not a wrong derivative): Richardson
    clears both at the unchanged tolerances."""

    def test_second_difference_pair(self):
        # oracle --dim 10 --samples 28 --seed 727168335, sample 3, f = s - 1:
        # hess discrepancy 1.25e-5 before
        c, h = _old_draw(727168335, 3, 10)
        f = builtin_corpus(10)[3]
        assert f == scalarfun.PowerLaw(c=1.0, p=1.0, d=-1.0)
        forms = directional_forms((f,), c, h)
        assert _disc(forms.hess[0], forms.fd_hess[0]) <= detcalculus.ORACLE_HESS_TOL
        assert _disc(forms.grad[0], forms.fd_grad[0]) <= detcalculus.ORACLE_GRAD_TOL

    def test_first_difference_pair(self):
        # oracle --dim 10 --samples 28 --seed 520700057, sample 6: grad
        # discrepancy 1.0022e-6 before
        c, h = _old_draw(520700057, 6, 10)
        forms = directional_forms((builtin_corpus(10)[6],), c, h)
        assert _disc(forms.grad[0], forms.fd_grad[0]) <= detcalculus.ORACLE_GRAD_TOL
        assert _disc(forms.hess[0], forms.fd_hess[0]) <= detcalculus.ORACLE_HESS_TOL


def _row_loop(functions, c, h):
    """directional_forms one row at a time, each row a one-row stack."""
    rows = []
    for i in range(len(c)):
        row = slice(i, i + 1)
        rows.append(directional_forms((functions[i % len(functions)],), c[row], h[row]))
    return detcalculus.DirectionalForms(*(np.concatenate(x) for x in zip(*rows)))


def _same(a, b):
    """Equal to 1e-12 relative, with NaN where the other is NaN."""
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return bool(np.all(np.abs(a[~nan] - b[~nan]) <= 1e-12 * np.maximum(1.0, np.abs(b[~nan]))))


class TestStackedOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_equals_the_row_loop(self, n):
        c, h = linalg.random_pairs(n, 300 + n, 30)
        # row 4 takes f = s, which fails only where its determinants
        # underflow to 0: from n = 2 on, with its stencil points (1 + oT) C
        # in the cone
        c[4] = h[4] = 1e-200 * np.eye(n)
        # row 9 takes ln(s-5) below its domain
        partial = parse("ln(s-5)")
        c[9] = np.eye(n)
        functions = tuple(builtin_corpus(n)[i % 7] for i in range(30))
        functions = functions[:4] + (IDENT,) + functions[5:9] + (partial,) + functions[10:]
        stacked = directional_forms(functions, c, h)
        loop = _row_loop(functions, c, h)
        for name, a, b in zip(stacked._fields, stacked, loop):
            assert _same(a, b), name
        assert np.isnan(stacked.fd_hess[4]) == np.isnan(stacked.hess[4]) == (n > 1)
        assert np.isnan(stacked.hess[9]) and np.isnan(stacked.fd_grad[9])
        assert np.isfinite(np.delete(stacked.fd_hess, [4, 9])).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_sweep_equals_the_row_loop(self, n):
        c, h = linalg.random_pairs(n, 400 + n, 40)
        loop = _row_loop(builtin_corpus(n), c, h)
        res = oracle_sweep(n, 40, seed=400 + n)
        assert res.skipped == 0 and list(res.samples) == list(range(40))
        want_hess = [_disc(a, b) for a, b in zip(loop.hess, loop.fd_hess)]
        want_grad = [_disc(a, b) for a, b in zip(loop.grad, loop.fd_grad)]
        assert _same(res.hess_disc, np.array(want_hess))
        assert _same(res.grad_disc, np.array(want_grad))

    def test_skipped_rows_are_the_loops_nan_rows(self):
        # ln(s-5) fails wherever det C is near or below 5
        partial = parse("ln(s-5)")
        c, h = linalg.random_pairs(3, 3, 60)
        loop = _row_loop((partial,), c, h)
        failed = np.isnan(loop.fd_hess + loop.fd_grad + loop.hess + loop.grad)
        res = oracle_sweep(3, 60, seed=3, functions=[partial])
        assert 0 < res.skipped == failed.sum()
        assert np.array_equal(res.samples, np.flatnonzero(~failed))
