import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detconvex import certifier, detcalculus, linalg, scalarfun, selftest
from detconvex.certifier import (
    CERTIFIED,
    INCONCLUSIVE,
    KIND_POSITIVE_FPRIME,
    KIND_SECOND_ORDER,
    REFUTED,
    SWEEP_PASS_ENTRIES,
    GridSpec,
    analytic_convexity,
    certify,
    diff_ineq_lhs,
    reduction_check,
    sample_convexity,
    sigma_checks,
    witness_positive_fprime,
    witness_second_order,
)
from detconvex.cli import MAX_GRID_COUNT
from detconvex.errors import DimensionError, ParameterError
from detconvex.linalg import random_posdef_array, random_sym
from detconvex.scalarfun import FamilyA, LogFamily, NeoHookeVolumetric, PowerLaw, eval_jet, parse

LOG_RANGE = certifier.DEFAULT_LOG_EIG_RANGE
SMALL_GRID = GridSpec(1e-3, 1e3, 200)


def _flags(rep):
    return list(zip(rep.fprime_ok.tolist(), rep.lhs_ok.tolist()))


def _scaled(text, lam):
    """s -> f(lam * s) as an expression: every s of ``text`` becomes
    (lam*s)."""
    return parse(text.replace("s", f"({lam!r}*s)"))


class TestDiffIneqLhs:
    def test_neg_ln_closed_form(self):
        for s in (0.1, 2.0, 50.0):
            assert abs(diff_ineq_lhs(parse("-ln(s)"), s, 3) - 1.0 / (3 * s * s)) <= 1e-15 / s / s

    def test_limiting_branch_annihilated(self):
        f = FamilyA(a=0.0, c=-1.0, d=0.0, n=3)
        for s in np.geomspace(1e-2, 1e2, 25):
            assert abs(diff_ineq_lhs(f, float(s), 3)) <= 1e-12

    def test_decreasing_linear(self):
        assert diff_ineq_lhs(parse("-s"), 1.0, 3) == -2.0 / 3.0

    def test_dimension_validated(self):
        with pytest.raises(ParameterError):
            diff_ineq_lhs(parse("s"), 1.0, 0)


class TestCertify:
    def test_neg_ln_certified(self):
        rep = certify(parse("-ln(s)"), 3, SMALL_GRID)
        assert rep.verdict == CERTIFIED
        assert rep.witnesses == ()
        assert rep.failing_points.size == 0
        assert len(rep.s) == len(rep.lhs_ok) == SMALL_GRID.count

    def test_increasing_refuted_with_slope_witness(self):
        rep = certify(parse("s"), 3, SMALL_GRID)
        assert rep.verdict == REFUTED
        w = rep.witnesses[0]
        assert w.kind == KIND_POSITIVE_FPRIME
        assert w.analytic_value < 0
        assert abs(w.analytic_value - w.fd_value) <= 1e-4 * max(1.0, abs(w.analytic_value))
        assert w.c.det == w.s_star

    def test_decreasing_linear_refuted_second_order(self):
        rep = certify(parse("-s"), 3, SMALL_GRID)
        assert rep.verdict == REFUTED
        assert {w.kind for w in rep.witnesses} == {KIND_SECOND_ORDER}

    def test_domain_failure_inconclusive(self):
        rep = certify(parse("ln(s-1)"), 3, SMALL_GRID)
        assert rep.verdict == INCONCLUSIVE
        assert any("domain failure" in a for a in rep.annotations)

    def test_domain_failure_property(self):
        # exp(s) overflows inside the grid, ln(s-1) fails from its first point
        for text, failed in (("exp(s)", True), ("ln(s-1)", True), ("-ln(s)", False)):
            rep = certify(parse(text), 3, SMALL_GRID)
            assert rep.domain_failure is failed, text
            assert any(a.startswith("domain failure") for a in rep.annotations) is failed

    def test_domain_failure_cuts_the_columns(self):
        # exp(s) overflows near s = 709.8: the columns stop before it
        rep = certify(parse("exp(s)"), 3, SMALL_GRID)
        cut = len(rep.s)
        assert 0 < cut < SMALL_GRID.count
        assert np.array_equal(rep.s, SMALL_GRID.points()[:cut]) and rep.s[-1] < 709.8
        columns = (rep.fprime, rep.lhs, rep.band, rep.fprime_ok, rep.lhs_ok)
        assert all(len(c) == cut for c in columns)
        assert np.array_equal(rep.failing_points, np.arange(cut))

    def test_domain_failure_after_clean_points_is_inconclusive(self):
        # 1/s certifies; the ln term fails from s = 10 on
        rep = certify(parse("1/s + 0*ln(10-s)"), 3, SMALL_GRID)
        assert rep.verdict == INCONCLUSIVE and len(rep.s) < SMALL_GRID.count
        assert 0 < len(rep.s) and rep.failing_points.size == 0 and rep.witnesses == ()
        assert rep.annotations[-1].startswith("domain failure")

    def test_subnormal_second_order_witness_is_unconfirmed(self):
        # C = s I is below the positivity floor at these subnormal s
        grid = GridSpec(1e-320, 1e-310, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify(parse("-s^2"), 1, grid)
        assert rep.verdict == INCONCLUSIVE and rep.witnesses == ()
        assert any("second-order violation" in a and "not confirmed" in a for a in rep.annotations)

    def test_family_dimension_must_match(self):
        with pytest.raises(ParameterError):
            certify(FamilyA(a=0.5, c=-1.0, d=0.0, n=3), 4, SMALL_GRID)

    def test_generalized_dimension_flagged(self):
        rep = certify(FamilyA(a=0.5, c=-1.0, d=0.0, n=5), 5, SMALL_GRID)
        assert rep.verdict == CERTIFIED
        assert any("generalization" in a for a in rep.annotations)

    def test_grid_covariance_under_rescaling(self):
        # the violation set rescales with s: index-wise identical flags
        text = "0.1*s - ln(s)"
        base = certify(parse(text), 3, GridSpec(1e-2, 1e3, 120))
        base_flags = _flags(base)
        assert any(not a for a, _ in base_flags) and any(a for a, _ in base_flags)
        for lam in (0.5, 2.0):
            scaled = certify(_scaled(text, lam), 3, GridSpec(1e-2 / lam, 1e3 / lam, 120))
            assert _flags(scaled) == base_flags

    def test_requires_positive_tolerance(self):
        for tol in (0.0, -1e-9, 1.0, 1e30, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                certify(parse("s"), 3, SMALL_GRID, tol=tol)

    def test_band_stays_finite_where_the_derivatives_are(self):
        # f' = 1.6e308 s and f'' = 1.6e308 are finite, but their sum
        # overflowed, and an infinite band passed f' <= band at every
        # point: this certified an increasing f
        rep = certify(parse("8e307*s^2"), 3, GridSpec(0.2, 1.0, 1000))
        assert np.isfinite(rep.band).all()
        assert not rep.fprime_ok.any()
        assert rep.verdict == REFUTED
        assert [w.kind for w in rep.witnesses] == [KIND_POSITIVE_FPRIME]

    def test_tie_break_prefers_slope_witness(self):
        # s^(1/5) violates both conditions at every grid point; the shared
        # points prefer the (cheaper, exact) slope construction, so only
        # that witness is attached
        rep = certify(parse("s^(1/5)"), 3, SMALL_GRID)
        assert rep.verdict == REFUTED
        assert not rep.fprime_ok.any() and not rep.lhs_ok.any()
        assert [w.kind for w in rep.witnesses] == [KIND_POSITIVE_FPRIME]

    def test_disjoint_violations_attach_both_witnesses(self):
        # 2*sqrt(s) - s: slope violations on (0, 1), second-order
        # violations from 1/16 on; the region past s=1 yields its own
        # confirmed second-order witness
        rep = certify(parse("2*sqrt(s) - s"), 3, SMALL_GRID)
        assert rep.verdict == REFUTED
        kinds = [w.kind for w in rep.witnesses]
        assert kinds == [KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER]
        assert rep.witnesses[1].s_star > 1.0

    def test_one_dimensional_increasing_convex_is_certified(self):
        # at n=1 the composition is f itself, so only f'' >= 0 applies: an
        # increasing convex f is convex, and no slope violation is flagged
        # (this said Inconclusive, "slope violation ... not confirmed")
        for text in ("s", "s^2", "exp(s/1000)"):
            rep = certify(parse(text), 1, SMALL_GRID)
            assert rep.verdict == CERTIFIED, text
            assert rep.witnesses == () and rep.annotations == ()
            assert rep.fprime_ok.all() and rep.failing_points.size == 0

    def test_one_dimensional_concave_still_refuted(self):
        rep = certify(parse("-s^2"), 1, SMALL_GRID)
        assert rep.verdict == REFUTED
        assert rep.witnesses[0].kind == KIND_SECOND_ORDER


def _same_as_geomspace(grid):
    want = np.geomspace(grid.s_min, grid.s_max, grid.count)
    got = grid.points()
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGridSpec:
    def test_points_log_spaced_with_endpoints(self):
        g = GridSpec(1e-3, 1e3, 7)
        pts = g.points()
        assert pts[0] == 1e-3 and pts[-1] == 1e3
        ratios = pts[1:] / pts[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    @given(
        st.floats(-300.0, 300.0),
        st.floats(0.0, 608.0, exclude_min=True),
        st.integers(2, 5000),
    )
    @example(-3.0, 6.0, 2)
    @example(300.0, 8.3, 3)
    @settings(max_examples=300, deadline=None)
    def test_points_are_geomspace_bit_for_bit(self, log_min, log_ratio, count):
        s_min = 10.0**log_min
        s_max = 10.0 ** min(log_min + log_ratio, 308.0)
        assume(s_min < s_max)
        assert _same_as_geomspace(GridSpec(s_min, s_max, count))

    @pytest.mark.parametrize("count", [20000, MAX_GRID_COUNT])
    @pytest.mark.parametrize(
        "s_min, s_max", [(1e-3, 1e3), (1e-300, 1e300), (1.0, math.nextafter(1.0, 2.0))]
    )
    def test_points_are_geomspace_at_large_counts(self, s_min, s_max, count):
        assert _same_as_geomspace(GridSpec(s_min, s_max, count))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(s_min=0.0),
            dict(s_max=1e-4),
            dict(count=1),
            dict(s_max=math.inf),
            dict(s_min=math.inf),
            dict(s_max=math.nan),
            dict(s_min=-math.inf),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ParameterError):
            GridSpec(**{**dict(s_min=1e-3, s_max=1e3, count=10), **bad})


def _witness_terms(c, h):
    """(<C^-1, H>, <H C^-1, C^-1 H>) of a diagonal witness pair, with
    C^-1 read off the diagonal of C."""
    inv = np.diag(1.0 / np.diag(c.a))
    return float(np.sum(inv * h)), float(np.sum((h @ inv) * (inv @ h)))


class TestWitnessConstructions:
    def test_slope_witness_shape(self):
        c, h = witness_positive_fprime(2.0, 3)
        assert np.array_equal(c.a, np.diag([1.0, 1.0, 2.0]))
        assert np.array_equal(h, np.diag([1.0, -1.0, 0.0]))
        assert _witness_terms(c, h)[0] == 0.0

    def test_slope_witness_two_dims(self):
        c, h = witness_positive_fprime(1.0, 2)
        assert _witness_terms(c, h)[1] == 2.0

    def test_slope_witness_det_equals_s(self):
        for s in (1e-3, 0.25, 7.0, 1e3):
            c, _ = witness_positive_fprime(s, 4)
            assert c.det == s
        for s in (0.3, 5.0):
            c, _ = witness_positive_fprime(s, 2)
            assert abs(c.det - s) <= 4e-16 * s

    def test_slope_witness_identities_across_dims(self):
        for n in range(2, 7):
            for s in np.geomspace(1e-2, 1e2, 9):
                c, h = witness_positive_fprime(float(s), n)
                inner, cross = _witness_terms(c, h)
                assert inner == 0.0
                if n >= 3:
                    assert cross == 2.0
                else:
                    # n=2 rides on sqrt(s)/sqrt(s) products, exact to one
                    # rounding each
                    assert abs(cross - 2.0) <= 8e-16

    def test_slope_witness_below_positivity_floor(self):
        # diag(1, ..., 1, s) fails the eigenvalue floor below s ~ 1.4e-12;
        # there the pair is r I, r diag(1, -1, 0, ...) with r = s^(1/n)
        for n in range(2, 7):
            for s in (1.3e-12, 1e-15, 1e-20, 1e-100, 1e-300, 5e-324):
                c, h = witness_positive_fprime(s, n)
                root = np.sqrt(s) if n == 2 else s ** (1.0 / n)
                assert np.array_equal(c.a, root * np.eye(n))
                assert np.array_equal(np.diag(h)[:2], [root, -root])
                assert not np.any(np.diag(h)[2:])
                # the rounded exponent 1/n costs about |ln s| eps in r
                assert abs(c.det - s) <= 1e-12 * s
                inner, cross = _witness_terms(c, h)
                assert inner == 0.0
                assert abs(cross - 2.0) <= 8e-16

    def test_slope_witness_shape_kept_above_positivity_floor(self):
        for n in range(3, 7):
            for s in (3e-12, 1e-9, 1e-3):
                c, h = witness_positive_fprime(s, n)
                assert np.array_equal(np.diag(c.a), [1.0] * (n - 1) + [s])
                assert np.array_equal(np.diag(h)[:2], [1.0, -1.0])

    def test_slope_witness_needs_two_slots(self):
        with pytest.raises(DimensionError):
            witness_positive_fprime(1.0, 1)

    def test_second_order_witness_shape(self):
        c, h = witness_second_order(1.0, 3)
        assert np.array_equal(c.a, np.eye(3))
        assert np.array_equal(h, np.eye(3))
        c8, h8 = witness_second_order(8.0, 3)
        assert np.array_equal(c8.a, 2.0 * np.eye(3))
        assert np.array_equal(h8, 0.5 * np.eye(3))
        assert c8.det == 8.0

    def test_witness_attempt_matches_the_attached_witness(self):
        for text, kind in (("s", KIND_POSITIVE_FPRIME), ("-s", KIND_SECOND_ORDER)):
            f = parse(text)
            w = certify(f, 3, SMALL_GRID).witnesses[0]
            a = certifier.witness_attempt(f, kind, w.s_star, 3)
            assert a.confirmed and a.step > 0
            assert (a.analytic_value, a.fd_value) == (w.analytic_value, w.fd_value)
            assert np.array_equal(a.c.a, w.c.a) and np.array_equal(a.h, w.h)

    def test_witness_attempt_unconfirmed_and_dimension_error(self):
        # -ln(s) is convex: its second-order pair has a positive form
        a = certifier.witness_attempt(parse("-ln(s)"), KIND_SECOND_ORDER, 1.0, 3)
        assert not a.confirmed
        with pytest.raises(DimensionError):
            certifier.witness_attempt(parse("s"), KIND_POSITIVE_FPRIME, 1.0, 1)

    def test_second_order_condition_identity(self):
        # diagonal condition value at the extremal pair reduces to
        # n s^(-4/n) (n f'' + (n-1) f'/s) for any f
        functions = [
            NeoHookeVolumetric(mu=1.0),
            PowerLaw(c=-1.0, p=0.5, d=0.0),
            parse("-s"),
            parse("s^2"),
        ]
        for f in functions:
            for n in (2, 3, 5):
                for s in (0.2, 1.0, 9.0):
                    c, h = witness_second_order(s, n)
                    got = detcalculus.condition_lhs_diag(f, 1.0 / np.diag(c.a), h)
                    jet = eval_jet(f, s)
                    expect = n * s ** (-4.0 / n) * (n * jet.d2 + (n - 1) * jet.d1 / s)
                    assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


class TestSigmaChecks:
    def test_identity_saturates(self):
        sigma, sigma_tilde, pa_ap = sigma_checks(np.eye(4), np.eye(4))
        assert (sigma, sigma_tilde, pa_ap) == (4.0, 4.0, 4.0)
        assert sigma * sigma == 4.0 * sigma_tilde

    def test_off_diagonal_direction(self):
        sigma, sigma_tilde, pa_ap = sigma_checks(
            np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert (sigma, sigma_tilde, pa_ap) == (0.0, 0.0, 4.0)

    def test_diagonal_a_saturates_cross_inequality(self):
        p = np.diag([0.3, 1.7, 0.0])
        a = np.diag([2.0, -1.0, 5.0])
        sigma, sigma_tilde, pa_ap = sigma_checks(p, a)
        assert pa_ap == sigma_tilde

    def test_relations_on_random_draws(self):
        gen = np.random.Generator(np.random.PCG64(314))
        for _ in range(500):
            n = int(gen.integers(2, 6))
            p = np.diag(gen.uniform(0.0, 2.0, size=n))
            a = gen.uniform(-1.0, 1.0, size=(n, n))
            sigma, sigma_tilde, pa_ap = sigma_checks(p, a)
            assert sigma == np.sum(p * np.diag(np.diag(a)))
            assert pa_ap - sigma_tilde >= -1e-10
            assert n * sigma_tilde - sigma * sigma >= -1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacks_match_per_pair_calls(self, n):
        # the selftest's stacked draws are its old per-sample uniform
        # draws, and the stacked sums are the per-pair ones, bit for bit
        p, a = selftest.sigma_draws(n)
        p, a = p[:200], a[:200]
        gen = np.random.Generator(np.random.PCG64(selftest.BASE_SEED + 70 + n))
        stacked = sigma_checks(p, a)
        for i in range(200):
            p_i = np.diag(gen.uniform(0.0, 2.0, size=n))
            a_i = gen.uniform(-1.0, 1.0, size=(n, n))
            assert np.array_equal(p[i], p_i) and np.array_equal(a[i], a_i)
            assert tuple(x[i] for x in stacked) == sigma_checks(p_i, a_i)

    def test_stack_validation(self):
        p = np.stack([np.eye(2), np.diag([1.0, 2.0])])
        bad = p.copy()
        bad[1, 0, 1] = 0.5
        with pytest.raises(ParameterError, match="diagonal"):
            sigma_checks(bad, p)
        bad = p.copy()
        bad[1, 1, 1] = -1.0
        with pytest.raises(ParameterError, match="non-negative"):
            sigma_checks(bad, p)
        with pytest.raises(DimensionError):
            sigma_checks(p, p[:1])
        with pytest.raises(DimensionError):
            sigma_checks(np.ones((2, 2, 3)), np.ones((2, 2, 3)))

    def test_rejects_non_diagonal(self):
        with pytest.raises(ParameterError):
            sigma_checks(np.array([[1.0, 0.1], [0.1, 1.0]]), np.eye(2))

    def test_rejects_negative_entries(self):
        with pytest.raises(ParameterError):
            sigma_checks(np.diag([1.0, -0.1]), np.eye(2))


class TestReductionCheck:
    def test_diagonal_input_tight(self):
        # diagonal C gives a signed-permutation eigenframe; full and
        # reduced agree to plain roundoff
        c = np.diag([2.0, 0.5, 1.0])
        f = NeoHookeVolumetric(mu=1.0)
        h = random_sym(3, seed=9, count=1)[0]
        full, reduced = reduction_check(f, c, h)
        assert abs(full - reduced) <= 1e-13 * max(1.0, abs(full))

    def test_zero_direction(self):
        c = random_posdef_array(3, LOG_RANGE, seed=10)
        assert reduction_check(parse("-ln(s)"), c, np.zeros((3, 3))) == (0.0, 0.0)

    def test_random_sweep(self):
        for n in (2, 3, 5):
            corpus = detcalculus.builtin_corpus(n)
            seeds = np.random.SeedSequence(90 + n).generate_state(200, dtype=np.uint64)
            for i in range(100):
                c = random_posdef_array(n, LOG_RANGE, int(seeds[2 * i]))
                h = random_sym(n, int(seeds[2 * i + 1]), 1)[0]
                full, reduced = reduction_check(corpus[i % len(corpus)], c, h)
                assert abs(full - reduced) <= 1e-9 * max(1.0, abs(full), abs(reduced))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_gives_each_pair_its_single_values(self, n):
        words = linalg.seed_words(95 + n, 2)
        c = linalg.random_posdef_stack(n, LOG_RANGE, words[0], 30)[0]
        h = linalg.random_sym(n, words[1], 30)
        for f in detcalculus.builtin_corpus(n):
            full, reduced = reduction_check(f, c, h)
            assert full.shape == reduced.shape == (30,)
            for i in range(30):
                assert (full[i], reduced[i]) == reduction_check(f, c[i], h[i])


class TestSampleConvexity:
    def test_convex_function_clean_sweep(self):
        diag = sample_convexity(parse("-ln(s)"), 3, 300, seed=4)
        assert diag.samples_run == 300
        assert diag.samples_skipped == 0
        assert diag.min_hess_form >= -1e-8
        assert diag.max_midpoint_residual <= 1e-8
        assert diag.hess_failures == diag.midpoint_failures == 0

    def test_nonconvex_function_found(self):
        diag = sample_convexity(parse("s"), 3, 300, seed=4)
        assert diag.min_hess_form < -1e-8
        assert diag.hess_failures > 0
        assert diag.max_midpoint_residual > 1e-8
        assert diag.midpoint_failures > 0

    def test_sweep_holds_confirmed_counterexamples_beyond_the_grid(self):
        # the slope of -ln(s)+1e-7*s^2 turns positive past s = 2236 at
        # n = 5, beyond the grid's 1e3 but inside the sweep's det range:
        # sample 117 (form -3.0759 at det C = 12271.6) fails, and the fd
        # oracle confirms its form (8.6e-9 relative apart)
        f, n, seed = parse("-ln(s)+1e-7*s^2"), 5, 42
        diag = sample_convexity(f, n, 1000, seed)
        assert diag.hess_failures == 1
        assert diag.min_hess_sample == 117
        bits = np.random.PCG64(seed)
        bits.advance(117 * (3 * n + n * (n + 1) // 2))
        e, h, dets = certifier.sweep_draw(np.random.Generator(bits), n, 1)
        c = np.diag(e[0, 0])[None]
        forms = detcalculus.directional_forms((f,), c, h, dets[:, 0])
        value, fd = float(forms.hess[0]), float(forms.fd_hess[0])
        assert value == diag.min_hess_form < -certifier.SWEEP_FAIL_TOL
        assert abs(fd - value) <= 1e-7 * abs(value)

    @pytest.mark.parametrize("text", ["8e307*s^2", "-8e307*s^0.1"])
    def test_overflowing_values_leave_finite_extremes(self, text):
        # 8e307*s^2 overflows its jets on most samples, and on some with
        # finite jets its form, to +-inf or to NaN (inf - inf); a NaN form
        # once hid the minimum of its whole block, and the sweep reported
        # inf.  -8e307*s^0.1 overflows g(A1) + g(A2), and so its residual
        diag = sample_convexity(parse(text), 3, 1000, seed=0)
        assert diag.samples_run + diag.samples_skipped == 1000
        assert diag.samples_run > 0
        extremes = (diag.min_hess_form, diag.min_midpoint_residual, diag.max_midpoint_residual)
        assert all(math.isfinite(x) for x in extremes), extremes

    def test_midpoint_sums_beyond_the_float_range_fail_nothing(self):
        # det^0.1 is concave at n = 3, so f = -8e307*s^0.1 is convex under
        # det; its g(A1) + g(A2) overflows, which once made 180 residuals
        # +inf and counted each as a midpoint failure
        diag = sample_convexity(parse("-8e307*s^0.1"), 3, 1000, seed=0)
        assert diag.samples_run > 0
        assert diag.midpoint_failures == 0

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            sample_convexity(parse("s"), 3, 0, seed=4)

    @pytest.mark.parametrize("n", [0, -2])
    def test_dimension_validated(self, n):
        # n = 0 divided by zero in the pass size and n = -2 raised numpy's
        # ValueError, both outside the exit-3 errors of the CLI
        with pytest.raises(ParameterError, match=f"dimension n={n} must be >= 1"):
            sample_convexity(parse("-ln(s)"), n, 10, seed=1)

    def test_failures_keep_no_matrices(self):
        # most samples of f = s fail both checks at n = 10; the sweep
        # counts its failures and keeps the worst of each kind, so its
        # memory is set by its pass (matrices kept per failure made 20
        # times as many samples cost 8 times the memory, and arrays of
        # failing indices and values, with the last pass's matrices
        # still held while the next was drawn, 1.56 times)
        rows = SWEEP_PASS_ENTRIES // 100

        def traced_peak(num):
            tracemalloc.start()
            try:
                diag = sample_convexity(parse("s"), 10, num, seed=3)
                return tracemalloc.get_traced_memory()[1], diag
            finally:
                tracemalloc.stop()

        small, _ = traced_peak(rows)
        large, diag = traced_peak(20 * rows)
        assert diag.hess_failures > 19 * rows
        assert diag.midpoint_failures > 15 * rows
        assert large < 1.1 * small

    def test_memory_is_one_pass_at_small_n(self):
        # at n = 3 a pass holds 3640 rows; 20 passes of f = s, most of
        # whose samples fail, peak no higher than one
        rows = SWEEP_PASS_ENTRIES // 9

        def traced_peak(num):
            tracemalloc.start()
            try:
                diag = sample_convexity(parse("s"), 3, num, seed=3)
                return tracemalloc.get_traced_memory()[1], diag
            finally:
                tracemalloc.stop()

        one, _ = traced_peak(rows)
        many, diag = traced_peak(20 * rows)
        assert diag.hess_failures > 10 * rows
        assert many <= 1.1 * one

    def test_rejects_negative_seed(self):
        # SeedSequence raised a bare ValueError, which the CLI reported as
        # a traceback with exit 1
        with pytest.raises(ParameterError, match="seed -1"):
            sample_convexity(parse("s"), 3, 5, seed=-1)

    def test_each_check_skips_on_its_own(self):
        # exp(exp(s)) overflows its jets past s of about 6.5; a sample is
        # skipped only where both its form and its midpoint check fail to
        # evaluate; one failing jet skipping both checks would skip 566
        # of these samples
        diag = sample_convexity(parse("exp(exp(s))"), 3, 1000, seed=9)
        assert diag.samples_skipped == 96
        assert diag.samples_run + diag.samples_skipped == 1000

    def test_domain_errors_skipped(self):
        diag = sample_convexity(parse("ln(s-5)"), 3, 50, seed=4)
        assert diag.samples_skipped > 0
        assert diag.samples_run + diag.samples_skipped == 50


CONVEX_BUILTINS = lambda n: [
    NeoHookeVolumetric(mu=1.0),
    LogFamily(c=-2.0, d=0.5),
    PowerLaw(c=-1.0, p=0.15, d=0.0),
    PowerLaw(c=2.0, p=-1.0, d=0.0),
    FamilyA(a=0.0, c=-1.0, d=0.0, n=n),
    FamilyA(a=1.0, c=-2.0, d=1.0, n=n),
]

NONCONVEX_BUILTINS = lambda n: [
    PowerLaw(c=1.0, p=1.0, d=0.0),
    PowerLaw(c=-1.0, p=2.0, d=0.0),
    LogFamily(c=1.0, d=0.0),
]


class TestVerdictConsistency:
    def test_certified_families_survive_sampling(self):
        for n in (2, 3, 5):
            for f in CONVEX_BUILTINS(n):
                rep = certify(f, n, SMALL_GRID)
                assert rep.verdict == CERTIFIED, f"{f} at n={n}: {rep.verdict}"
                assert rep.analytic_convex is True
                diag = sample_convexity(f, n, 334, seed=60 + n)
                assert diag.min_hess_form >= -1e-8, f"{f} at n={n}"

    def test_refuted_builtins_carry_confirmed_witnesses(self):
        for n in (2, 3, 5):
            for f in NONCONVEX_BUILTINS(n):
                rep = certify(f, n, SMALL_GRID)
                assert rep.verdict == REFUTED, f"{f} at n={n}: {rep.verdict}"
                assert rep.analytic_convex is False
                for w in rep.witnesses:
                    assert w.analytic_value < 0
                    assert abs(w.analytic_value - w.fd_value) <= 1e-4 * max(
                        1.0, abs(w.analytic_value)
                    )

    def test_analytic_verdict_matches_grid_check(self):
        cases = [
            (PowerLaw(c=-1.0, p=1.0 / 3.0, d=0.0), 3),
            (PowerLaw(c=-1.0, p=0.34, d=0.0), 3),  # just past the threshold
            (PowerLaw(c=0.0, p=5.0, d=2.0), 3),
            (PowerLaw(c=3.0, p=-1.0 / 3.0, d=-3.0), 3),
            (LogFamily(c=-1.0, d=0.0), 4),
            (LogFamily(c=0.5, d=0.0), 4),
        ]
        for f, n in cases:
            rep = certify(f, n, SMALL_GRID)
            assert rep.analytic_convex == (rep.verdict == CERTIFIED), (f, n, rep.verdict)

    def test_expression_has_no_analytic_verdict(self):
        assert analytic_convexity(parse("-ln(s)"), 3) is None


# f at n = 1, where g = f: convex iff f'' >= 0.  Each spec evaluates f with
# mpmath; the verdict set comes from mpmath's second derivative on the
# grid, never from the program.
ONE_DIMENSIONAL = {
    "s": lambda s: s,
    "-s": lambda s: -s,
    "s^2": lambda s: s**2,
    "-s^2": lambda s: -(s**2),
    "-ln(s)": lambda s: -mpmath.log(s),
    "ln(s)": lambda s: mpmath.log(s),
    "sqrt(s)": lambda s: mpmath.sqrt(s),
    "-sqrt(s)": lambda s: -mpmath.sqrt(s),
    "1/s": lambda s: 1 / s,
    "-1/s": lambda s: -1 / s,
    "s^3 - s": lambda s: s**3 - s,
    "s*ln(s)": lambda s: s * mpmath.log(s),
    "exp(-s)": lambda s: mpmath.exp(-s),
    "s^2 - 30*s": lambda s: s**2 - 30 * s,
    "ln(1+s)": lambda s: mpmath.log(1 + s),
}


def _mp_convex(f, points) -> bool:
    with mpmath.workdps(30):
        return all(mpmath.diff(f, mpmath.mpf(x), 2) >= 0 for x in points)


def _one_dimensional_verdicts(convex: bool) -> set:
    """Accepted verdicts at n = 1.  A non-convex f is Refuted: where the
    second-order witness at its first violating point is not confirmed
    (C = s, H = 1/s at s = 1e-3 moves s by a third of itself, too far for
    the fd oracle of ln or sqrt), the one nearest s = 1 is."""
    return {CERTIFIED} if convex else {REFUTED}


class TestOneDimensional:
    GRID = GridSpec(1e-3, 1e3, 60)

    @pytest.mark.parametrize("text", sorted(ONE_DIMENSIONAL))
    def test_verdict_is_the_sign_of_f_second(self, text):
        points = self.GRID.points().tolist()
        rep = certify(parse(text), 1, self.GRID)
        assert rep.verdict in _one_dimensional_verdicts(_mp_convex(ONE_DIMENSIONAL[text], points))
        assert rep.fprime_ok.all()
        assert all(w.kind == KIND_SECOND_ORDER for w in rep.witnesses)

    @pytest.mark.parametrize(
        "c, p", [(1.0, 2.0), (1.0, 1.0), (-1.0, 0.5), (1.0, 0.5), (1.0, -1.0), (-1.0, -1.0),
                 (-2.0, 3.0), (0.0, 2.0), (2.0, 1.5), (-1.0, 1.5)]
    )
    def test_power_law_verdict(self, c, p):
        # d + c s^p at n = 1: convex iff c p (p - 1) >= 0
        f = PowerLaw(c=c, p=p, d=0.5)
        points = self.GRID.points().tolist()
        want = _mp_convex(lambda s: 0.5 + c * s ** mpmath.mpf(p), points)
        assert analytic_convexity(f, 1) is want
        rep = certify(f, 1, self.GRID)
        assert rep.analytic_convex is want
        assert rep.verdict in _one_dimensional_verdicts(want)

    @pytest.mark.parametrize("text", ["ln(s)", "sqrt(s)", "-1/s"])
    def test_unconfirmed_first_witness_is_retried_nearest_s_one(self, text):
        # C = s, H = 1/s at s = 1e-3 moves s by a third of itself, too far
        # for the fd oracle of these f, which exited 2; the violating point
        # nearest s = 1 in log s confirms
        grid = GridSpec()
        rep = certify(parse(text), 1, grid)
        assert rep.verdict == REFUTED and rep.annotations == ()
        [w] = rep.witnesses
        assert w.kind == KIND_SECOND_ORDER
        step = math.log(grid.s_max / grid.s_min) / (grid.count - 1)
        assert abs(math.log(w.s_star)) <= 0.5 * step * (1 + 1e-9)
        assert w.analytic_value < 0

    def test_refutations_at_dimension_one(self):
        # the second-order witness confirms wherever the stencil stays
        # near s: polynomials, exp, and singular f away from small s
        grid = GridSpec(0.5, 1e3, 60)
        for text in ("-s^2", "30*s - s^2", "ln(1+s)", "ln(s)", "sqrt(s)", "-exp(s/100)"):
            rep = certify(parse(text), 1, grid)
            assert rep.verdict == REFUTED, text
            assert [w.kind for w in rep.witnesses] == [KIND_SECOND_ORDER]


def _substitute_power(node, n: int):
    """The expression ``node`` with every s replaced by s^n."""
    if isinstance(node, scalarfun.Variable):
        return scalarfun.Pow(node, scalarfun.Constant(float(n)))
    if isinstance(node, scalarfun.Constant):
        return node
    return type(node)(*(_substitute_power(getattr(node, k), n) for k in node.__match_args__))


class TestScalarReduction:
    """With u(t) = f(t^n), u'(t) = n t^(n-1) f'(t^n) and
    u''(t) = n^2 t^(2n-2) lhs(t^n), lhs the condition's left-hand side:
    the identity behind the reduction, in the module docstring, of
    convexity under det to a convex nonincreasing u."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("text", selftest.EXPRESSION_CORPUS)
    def test_jets_of_f_of_t_to_the_n(self, text, n):
        f = parse(text)
        t = np.geomspace(1e-3 ** (1.0 / n), 1e3 ** (1.0 / n), 200)
        s = t**n
        with np.errstate(all="ignore"):
            u, jet = eval_jet(_substitute_power(f, n), t), eval_jet(f, s)
            slope = n * t ** (n - 1) * jet.d1
            scale = n * n * t ** (2 * n - 2)
            curvature = scale * diff_ineq_lhs(f, s, n)
            # the magnitudes of the two terms of scale * lhs
            terms = np.abs(scale * jet.d2) + np.abs(scale * (n - 1) / (n * s) * jet.d1)
            first = np.abs(u.d1 - slope) <= 1e-10 * (np.abs(u.d1) + np.abs(slope))
            second = np.abs(u.d2 - curvature) <= 1e-10 * (np.abs(u.d2) + terms)
        # a jet that fails is NaN and one that overflows is inf: skipped
        ok = np.isfinite(np.stack([*u, *jet, slope, curvature, terms])).all(axis=0)
        assert np.count_nonzero(ok) >= 100
        assert np.all(first[ok]) and np.all(second[ok])
