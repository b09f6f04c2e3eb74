import math

import numpy as np
import pytest

from detconvex import detcalculus, linalg
from detconvex.detcalculus import (
    builtin_corpus,
    condition_lhs_diag,
    condition_lhs_full,
    fd_first_directional,
    fd_second_directional,
    fd_second_directional_with_step,
    g_grad_form,
    g_hess_form,
    oracle_sweep,
)
from detconvex.errors import DegenerateDirectionError, DimensionError, DomainError, ParameterError
from detconvex.linalg import PosDefMatrix, frob_inner, random_posdef, random_sym
from detconvex.scalarfun import FamilyA, LogFamily, eval_jet, parse

LOG_RANGE = (math.log(0.1), math.log(10.0))
NEG_LN = LogFamily(c=-1.0, d=0.0)
IDENT = parse("s")


def _samples(n, count, seed):
    seeds = np.random.SeedSequence(seed).generate_state(2 * count, dtype=np.uint64)
    for i in range(count):
        yield (
            random_posdef(n, LOG_RANGE, int(seeds[2 * i])),
            random_sym(n, 1.0, int(seeds[2 * i + 1])),
        )


class TestGradForm:
    def test_neg_ln_identity_direction(self):
        for n in (2, 3, 5):
            c = PosDefMatrix.from_diag(np.ones(n))
            h = np.eye(n)
            assert g_grad_form(NEG_LN, c, h) == -float(n)

    def test_linear_in_direction_zero(self):
        c = random_posdef(3, LOG_RANGE, seed=4)
        assert g_grad_form(NEG_LN, c, np.zeros((3, 3))) == 0.0

    def test_det_derivative_unit(self):
        c = PosDefMatrix.from_diag([1.0, 1.0, 1.0])
        h = np.diag([1.0, 0.0, 0.0])
        assert g_grad_form(IDENT, c, h) == 1.0

    def test_matches_first_differences(self):
        for f in (NEG_LN, IDENT, FamilyA(a=0.5, c=-1.0, d=0.0, n=3)):
            for c, h in _samples(3, 40, seed=11):
                analytic = g_grad_form(f, c, h)
                fd = fd_first_directional(f, c, h)
                assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))

    def test_dimension_mismatch(self):
        c = random_posdef(3, LOG_RANGE, seed=4)
        with pytest.raises(DimensionError):
            g_grad_form(NEG_LN, c, np.eye(2))


class TestHessForm:
    def test_neg_ln_two_dims(self):
        c = PosDefMatrix.from_diag([1.0, 1.0])
        assert g_hess_form(NEG_LN, c, np.eye(2)) == 2.0

    def test_slope_witness_value(self):
        c = PosDefMatrix.from_diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        assert g_hess_form(IDENT, c, h) == -4.0

    def test_limiting_family_annihilates_extremal_direction(self):
        f = FamilyA(a=0.0, c=-3.0, d=3.0, n=3)
        s, k = 2.0, 1.5
        c = PosDefMatrix.from_diag(np.full(3, s ** (1.0 / 3.0)))
        h = np.diag(np.full(3, k * s ** (-1.0 / 3.0)))
        analytic = g_hess_form(f, c, h)
        assert abs(analytic) <= 1e-12
        assert abs(fd_second_directional(f, c, h)) <= 1e-4

    def test_quadratic_homogeneity(self):
        f = FamilyA(a=0.75, c=-2.0, d=1.0, n=3)
        for c, h in _samples(3, 25, seed=21):
            base = g_hess_form(f, c, h)
            for t in (-2.0, 0.5, 3.0):
                scaled = g_hess_form(f, c, t * h)
                assert abs(scaled - t * t * base) <= 1e-12 * max(1.0, abs(scaled))

    def test_even_in_direction(self):
        c = random_posdef(4, LOG_RANGE, seed=31)
        h = random_sym(4, 1.0, seed=32)
        assert g_hess_form(NEG_LN, c, h) == g_hess_form(NEG_LN, c, -h)


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
                assert g_hess_form(IDENT, ci, hi) == want

    def test_matches_explicit_inverse(self):
        for n in (2, 3, 5):
            for c, h in _samples(n, 30, seed=50 + n):
                inv = c.inverse
                inner, cross = detcalculus.hess_terms(c.a, h)
                want_inner = frob_inner(inv, h)
                want_cross = frob_inner(h @ inv, inv @ h)
                assert abs(inner - want_inner) <= 1e-12 * max(1.0, abs(want_inner))
                assert abs(cross - want_cross) <= 1e-12 * max(1.0, abs(want_cross))


class TestConditionForms:
    def test_full_neg_ln_identity(self):
        c = PosDefMatrix.from_diag([1.0, 1.0, 1.0])
        assert condition_lhs_full(NEG_LN, c, np.eye(3)) == 3.0

    def test_full_slope_witness(self):
        c = PosDefMatrix.from_diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        assert condition_lhs_full(IDENT, c, h) == -2.0

    def test_full_zero_direction(self):
        c = random_posdef(3, LOG_RANGE, seed=5)
        assert condition_lhs_full(NEG_LN, c, np.zeros((3, 3))) == 0.0

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

    def test_identity_with_hess_form(self):
        for n in (2, 3, 5):
            corpus = builtin_corpus(n)
            for i, (c, h) in enumerate(_samples(n, 60, seed=40 + n)):
                f = corpus[i % len(corpus)]
                full = condition_lhs_full(f, c, h)
                hess = g_hess_form(f, c, h)
                assert abs(full * c.det - hess) <= 1e-12 * max(1.0, abs(hess))

    def test_neg_ln_collapses_to_cross_term(self):
        for c, h in _samples(4, 40, seed=51):
            cross = frob_inner(h @ c.inverse, c.inverse @ h)
            hess = g_hess_form(NEG_LN, c, h)
            assert abs(hess - cross) <= 1e-10 * max(1.0, abs(cross))


class TestFdOracles:
    def test_explicit_step_example(self):
        # |C| = |H|, so the default step is the scale itself
        c = PosDefMatrix.from_diag([1.0, 1.0])
        fd, h_used = fd_second_directional_with_step(NEG_LN, c, np.eye(2))
        assert h_used == detcalculus.FD_SECOND_SCALE
        assert abs(fd - 2.0) <= 1e-6

    def test_zero_direction_exact(self):
        c = random_posdef(3, LOG_RANGE, seed=6)
        assert fd_second_directional(NEG_LN, c, np.zeros((3, 3))) == 0.0

    def test_slope_witness_fd(self):
        c = PosDefMatrix.from_diag([1.0, 1.0, 2.0])
        h = np.diag([1.0, -1.0, 0.0])
        fd = fd_second_directional(IDENT, c, h)
        assert abs(fd - (-4.0)) <= 1e-5 * 4.0

    def test_step_halves_until_admissible(self):
        # the default step, about 1.7e-5, leaves the cone at C = diag(1e-9, 1)
        c = PosDefMatrix.from_diag([1e-9, 1.0])
        h = np.eye(2)
        fd, h_used = fd_second_directional_with_step(IDENT, c, h)
        default = detcalculus.FD_SECOND_SCALE * (1.0 + linalg.frob_norm(c.a)) / (
            1.0 + linalg.frob_norm(h)
        )
        halvings = math.log2(default / h_used)
        assert h_used < 1e-9 and halvings == int(halvings) > 0
        assert abs(fd - g_hess_form(IDENT, c, h)) <= 1e-5

    def test_halving_cap_reported(self):
        # 40 halvings of a step near 8e-6 stay above the eigenvalues 1e-20
        c = PosDefMatrix.from_diag([1e-20, 1e-20])
        for fd in (fd_second_directional, fd_first_directional):
            with pytest.raises(DegenerateDirectionError):
                fd(NEG_LN, c, np.eye(2))

    def test_overflowing_direction_norm_is_refused(self):
        # |H| overflows to inf, which makes the default step 0
        c = PosDefMatrix.from_diag([1.0, 1.0])
        h = np.full((2, 2), 1.5e308)
        for fd in (fd_second_directional, fd_second_directional_with_step, fd_first_directional):
            with np.errstate(over="ignore"), pytest.raises(ParameterError):
                fd(NEG_LN, c, h)

    @pytest.mark.parametrize("lam_min", [None, 1e-5, 1e-9])
    def test_values_match_the_two_stencils(self, lam_min):
        # the two central differences as separate formulas, each with its
        # own default step, halving and evaluation of f; a shift of C to the
        # smallest eigenvalue lam_min makes the default step halve
        def reference(f, c, h, scale, second):
            t = scale * (1.0 + linalg.frob_norm(c.a)) / (1.0 + linalg.frob_norm(h))
            while not (
                linalg.cholesky_posdef(c.a + t * h) and linalg.cholesky_posdef(c.a - t * h)
            ):
                t *= 0.5
            gp = eval_jet(f, linalg.det(c.a + t * h)).v
            gm = eval_jet(f, linalg.det(c.a - t * h)).v
            if second:
                return (gp - 2.0 * eval_jet(f, c.det).v + gm) / (t * t), t
            return (gp - gm) / (2.0 * t)

        pairs = list(_samples(3, 10, seed=21))
        if lam_min is not None:
            pairs = [
                (PosDefMatrix.from_sym(c.a - (c.eigenvalues.min() - lam_min) * np.eye(3)), h)
                for c, h in pairs
            ]
        halved = 0
        for f in builtin_corpus(3) + (IDENT, parse("s^2*exp(-s)")):
            for c, h in pairs:
                second = reference(f, c, h, detcalculus.FD_SECOND_SCALE, True)
                assert fd_second_directional_with_step(f, c, h) == second
                assert fd_second_directional(f, c, h) == second[0]
                first = reference(f, c, h, detcalculus.FD_FIRST_SCALE, False)
                assert fd_first_directional(f, c, h) == first
                default = detcalculus.FD_SECOND_SCALE * (1.0 + linalg.frob_norm(c.a))
                halved += second[1] < default / (1.0 + linalg.frob_norm(h))
        assert (halved > 0) == (lam_min is not None)

    def test_first_difference_skips_the_centre(self):
        # f has a pole at det C = 2, but not at det(C +/- tH); the second
        # difference evaluates f at det C and fails there
        f = parse("1/(s-2)")
        c = PosDefMatrix.from_diag([1.0, 2.0])
        h = np.eye(2)
        t = detcalculus.FD_FIRST_SCALE * (1.0 + linalg.frob_norm(c.a)) / (1.0 + linalg.frob_norm(h))
        sp, sm = linalg.det(c.a + t * h), linalg.det(c.a - t * h)
        assert sm < 2.0 < sp
        assert fd_first_directional(f, c, h) == (1.0 / (sp - 2.0) - 1.0 / (sm - 2.0)) / (2.0 * t)
        with pytest.raises(DomainError):
            fd_second_directional(f, c, h)


class TestOracleSweep:
    def test_tolerances_hold_on_sample(self):
        res = oracle_sweep(3, 200, seed=9)
        assert res.skipped == 0
        assert res.max_hess_disc <= 1e-5
        assert res.max_grad_disc <= 1e-6
        assert res.all_agree
        assert all(s.agreeing for s in res.samples)

    def test_deterministic(self):
        a = oracle_sweep(2, 50, seed=77)
        b = oracle_sweep(2, 50, seed=77)
        assert a.max_hess_disc == b.max_hess_disc
        assert a.max_grad_disc == b.max_grad_disc

    def test_explicit_function_list(self):
        res = oracle_sweep(2, 40, seed=13, functions=[NEG_LN])
        assert res.max_hess_disc <= 1e-5

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            oracle_sweep(3, 0, seed=1)

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
