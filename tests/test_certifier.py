import functools
import math
import pickle
import re
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
    sample_convexity,
)
from detconvex.cli import MAX_GRID_COUNT
from detconvex.errors import NotPositiveDefiniteError, ParameterError, ParseError
from detconvex.linalg import random_posdef_array, random_sym
from detconvex.scalarfun import eval_jet, family, parse
from detconvex.selftest import reduction_check, sigma_checks

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
        f = family("fa", 3, a=0.0, c=-1.0, d=0.0)
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
        # -2 s f'(s) at the grid's s, and a gap of f that shows it
        assert w.analytic_value == -2.0 * w.s_star
        assert w.confirmed_by == certifier.BY_GAP and w.gap < -w.gap_bound
        # C = s^(1/3) I, a plain array: det C is s up to the rounding of
        # the cube root
        assert type(w.c) is np.ndarray
        assert np.array_equal(w.c, w.s_star ** (1.0 / 3.0) * np.eye(3))
        assert w.det_c == linalg.det(w.c) == pytest.approx(w.s_star, rel=1e-14)

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
        # C = s I is below the positivity floor at these subnormal s.
        # -s^2 + 10*s^3 is concave only below s = 1/30, outside the
        # beyond-grid pass's [0.1, 10] at n = 1; -s^2 is concave there too,
        # and the pass's witness at s = 0.1 refutes it
        grid = GridSpec(1e-320, 1e-310, 5)
        note = "second-order violation at s=9.99989e-321 not confirmed by its witness pair"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify(parse("-s^2 + 10*s^3"), 1, grid)
            assert rep.verdict == INCONCLUSIVE and rep.witnesses == ()
            assert rep.annotations == (note,)
            rep = certify(parse("-s^2"), 1, grid)
        assert rep.verdict == REFUTED and rep.annotations == (note,)
        assert [(w.kind, w.s_star) for w in rep.witnesses] == [(KIND_SECOND_ORDER, 0.1)]

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

    @pytest.mark.parametrize("tol", [0, 1, 5.0, math.nan])
    def test_the_beyond_grid_pass_refuses_certifys_bad_tolerance(self, tol):
        # at tol = 5.0 it marked none of the 400 points of s, whose f' = 1 > 0,
        # and at NaN every point of -ln(s) as failing both conditions
        for f in (parse("s"), parse("-ln(s)")):
            with pytest.raises(ParameterError, match=re.escape(f"tolerance {tol} must be positive and below 1")):
                certifier.beyond_grid(f, 5, GridSpec(), tol)

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

    @pytest.mark.parametrize(
        "text, n, grid, expected",
        [
            # the first slope pair confirms by its gap, so nothing is retried
            ("s", 3, None, [(KIND_POSITIVE_FPRIME, 1e-3, "gap")]),
            # the form rounds to zero at 1e-300; the retry nearest s = 1 confirms
            (
                "ln(s+1)",
                1,
                GridSpec(1e-300, 1e300, 2000),
                [(KIND_SECOND_ORDER, 1e-300, None), (KIND_SECOND_ORDER, 0.7078234758854919, "gap")],
            ),
            # one attempt per kind, the second order on points no slope pair covers
            (
                "-s*ln(s)+s^2/(1+s)",
                3,
                None,
                [(KIND_POSITIVE_FPRIME, 1e-3, "gap"), (KIND_SECOND_ORDER, 0.7126115430111746, "gap")],
            ),
            # a violation only beyond the grid is searched there
            ("-ln(s)+1e-7*s^2", 5, None, [(KIND_POSITIVE_FPRIME, 2238.7211385683377, "gap")]),
            # a domain failure leaves the columns unsearched
            ("exp(s)", 3, None, []),
            ("ln(s-1)", 3, None, []),
        ],
    )
    def test_witness_search_tries_the_first_point_then_the_one_nearest_s_one(
        self, monkeypatch, text, n, grid, expected
    ):
        calls = []
        confirmed_witness = certifier._confirmed_witness

        def spy(f, kind, s, n):
            w = confirmed_witness(f, kind, s, n)
            calls.append((kind, s, None if w is None else w.confirmed_by))
            return w

        monkeypatch.setattr(certifier, "_confirmed_witness", spy)
        rep = certify(parse(text), n, grid)
        assert [kind for kind, _, _ in calls] == [kind for kind, _, _ in expected]
        assert [by for _, _, by in calls] == [by for _, _, by in expected]
        assert [s for _, s, _ in calls] == pytest.approx([s for _, s, _ in expected], rel=1e-12)
        assert [w.s_star for w in rep.witnesses] == [s for _, s, by in calls if by is not None]


def _same_as_geomspace(grid):
    """points() is geomspace bit for bit wherever geomspace lies in the
    range, and geomspace clipped to the range elsewhere: an ulp outside a
    narrow range, or inf where 10 to the rounded log10 of the top float
    overflows; points() warns of no overflow."""
    with np.errstate(over="ignore"):
        want = np.geomspace(grid.s_min, grid.s_max, grid.count)
    np.clip(want, grid.s_min, grid.s_max, out=want)
    got = grid.points()
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _narrow_range(draw):
    """(s_min, s_max) a relative 1e-15 to 1e-8 apart, anywhere in
    [1e-300, 1e300] or at the top of the float range."""
    width = 1.0 + draw(st.floats(1e-15, 1e-8))
    if draw(st.booleans()):
        s_max = draw(st.floats(1e308, np.finfo(float).max))
        return s_max / width, s_max
    s_min = 10.0 ** draw(st.floats(-300.0, 300.0))
    return s_min, s_min * width


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

    @given(
        st.floats(5e-324, 1e-300),
        st.floats(1e300, np.finfo(float).max),
        st.integers(2, 20001),
    )
    @example(5e-324, np.finfo(float).max, 20001)
    @example(5e-324, 1e300, 2)
    @settings(max_examples=100, deadline=None)
    def test_points_are_geomspace_from_subnormals_to_the_float_limit(self, s_min, s_max, count):
        # 10 to the rounded log10 of the top float overflows, in geomspace
        # as in points(); the endpoint is then set to s_max in both
        assert _same_as_geomspace(GridSpec(s_min, s_max, count))

    @given(
        st.floats(1e308, np.finfo(float).max),
        st.floats(1e308, np.finfo(float).max),
        st.integers(2, 2001),
    )
    @example(1.7976931348623e308, np.finfo(float).max, 1000)
    @example(np.nextafter(np.finfo(float).max, 0), np.finfo(float).max, 3)
    @settings(max_examples=100, deadline=None)
    def test_points_at_the_top_of_the_float_range_are_finite(self, s_min, s_max, count):
        assume(s_min < s_max)
        grid = GridSpec(s_min, s_max, count)
        assert np.isfinite(grid.points()).all()
        assert _same_as_geomspace(grid)

    @pytest.mark.parametrize("count", [2, 3, 1000, 20001])
    def test_a_narrow_grid_at_the_top_lies_in_its_range(self, count):
        # every interior point of geomspace overflows here
        grid = GridSpec(1.7976931348623e308, 1.7976931348623157e308, count)
        s = grid.points()
        assert np.isfinite(s).all()
        assert ((grid.s_min <= s) & (s <= grid.s_max)).all()
        assert s[0] == grid.s_min and s[-1] == grid.s_max

    @given(_narrow_range(), st.integers(2, 1000))
    # the rounding of 10 to a log10 put a point below s_min in both
    @example((10.000000000000002, 10.000000000000004), 3)
    @example((1.7976931348e308, 1.79769313486e308), 1000)
    @settings(max_examples=200, deadline=None)
    def test_a_narrow_grid_lies_in_its_range(self, limits, count):
        grid = GridSpec(*limits, count)
        s = grid.points()
        assert ((grid.s_min <= s) & (s <= grid.s_max)).all()
        assert _same_as_geomspace(grid)

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

    @pytest.mark.parametrize("count", [10.0, math.nan, math.inf, "10", None, np.float64(10)])
    def test_a_count_that_is_not_an_integer_is_refused(self, count):
        # not numpy's TypeError from points(), later
        with pytest.raises(ParameterError, match="must be an integer"):
            GridSpec(1e-3, 1e3, count)

    @pytest.mark.parametrize("count", [np.int64(10), np.int32(10), np.uint8(10)])
    def test_a_numpy_integer_count_is_taken(self, count):
        assert GridSpec(1e-3, 1e3, count).points().tobytes() == GridSpec(1e-3, 1e3, 10).points().tobytes()


KINDS = (KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER)


def _direction(kind, n):
    """D of the witness pair of ``kind``: H = s^(1/n) D."""
    if kind == KIND_SECOND_ORDER:
        return np.ones(n)
    d = np.zeros(n)
    d[:2] = (1.0, -1.0)
    return d


def _witness_terms(c, h):
    """(<C^-1, H>, <H C^-1, C^-1 H>) of a witness pair, as tr X and
    sum(X * X^T) with X = C^-1 H taken by division, which is exact for
    C = r I and H = r D."""
    x = h / np.diag(c.a)[:, None]
    return float(x.trace()), float(np.sum(x * x.T))


# s log-uniform over the float range that both kinds build at every n
LOG_S = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestWitnessConstructions:
    """Both kinds take C = r I and H = r D with r = s^(1/n): D is
    diag(1, -1, 0, ..., 0) for a slope failure and I for a second-order
    one."""

    @given(LOG_S, st.integers(1, 64), st.sampled_from(KINDS))
    @example(1e-300, 1, KIND_SECOND_ORDER)
    @example(1e300, 64, KIND_POSITIVE_FPRIME)
    @example(1e-300, 2, KIND_POSITIVE_FPRIME)
    @settings(max_examples=300, deadline=None)
    def test_one_shape_with_exact_identities(self, s, n, kind):
        assume(kind == KIND_SECOND_ORDER or n >= 2)
        c, h = certifier.witness_pair(kind, s, n)
        r = s ** (1.0 / n)
        d = _direction(kind, n)
        assert np.array_equal(c.a, r * np.eye(n))
        assert np.array_equal(h, np.diag(r * d))
        # the rounded exponent 1/n costs about |ln s| eps / 2 in r^n
        assert abs(c.det - s) <= (abs(math.log(s)) + n) * 2.3e-16 * s
        # X = C^-1 H = D exactly: <C^-1,H> = tr D, <HC^-1,C^-1H> = |D|^2
        assert _witness_terms(c, h) == (float(d.sum()), float(np.sum(d * d)))

    @given(LOG_S, st.integers(2, 64))
    @settings(max_examples=100, deadline=None)
    def test_slope_pair_confirms_a_positive_slope_at_every_s(self, s, n):
        # f = s: the form -2 s f'(s) is -2 s exactly
        w = certifier.witness_attempt(parse("s"), KIND_POSITIVE_FPRIME, s, n)
        assert w.confirmed and w.s_star == s
        assert w.analytic_value == -2.0 * s

    @given(st.floats(-150.0, 150.0).map(lambda e: 10.0**e), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_second_order_pair_confirms_a_deficit_at_every_s(self, s, n):
        # f = ln(s): u(t) = n ln(t), so the form t^2 u''(t) is -n at every
        # s where f'' = -1/s^2 is a normal float
        w = certifier.witness_attempt(parse("ln(s)"), KIND_SECOND_ORDER, s, n)
        assert w.confirmed
        assert w.analytic_value == pytest.approx(-n, rel=1e-12)

    def test_slope_witness_needs_two_slots(self):
        with pytest.raises(ParameterError):
            certifier.witness_pair(KIND_POSITIVE_FPRIME, 1.0, 1)

    @pytest.mark.parametrize(
        "build",
        [certifier.witness_pair, functools.partial(certifier.witness_attempt, parse("s"))],
        ids=["witness_pair", "witness_attempt"],
    )
    def test_an_unknown_kind_builds_no_pair(self, build):
        # it built the second-order pair, and its attempt a Witness of kind
        # "Nope" with the second-order form
        with pytest.raises(ParameterError) as exc:
            build("Nope", 1.0, 3)
        assert type(exc.value) is ParameterError
        assert str(exc.value) == "witness kind 'Nope' must be 'PositiveFPrime' or 'SecondOrderDeficit'"

    @pytest.mark.parametrize(
        "kind, error",
        [(KIND_POSITIVE_FPRIME, ParameterError), (KIND_SECOND_ORDER, NotPositiveDefiniteError)],
    )
    def test_subnormal_s_builds_at_every_dimension_above_one(self, kind, error):
        # at n = 1 the slope pair has no two slots, and C = s at a
        # subnormal s is below the positivity floor; at n >= 2,
        # r = s^(1/n) is a normal float
        with pytest.raises(error):
            certifier.witness_pair(kind, 5e-324, 1)
        for n in (2, 3, 64):
            c, _ = certifier.witness_pair(kind, 5e-324, n)
            assert c.a[0, 0] == 5e-324 ** (1.0 / n)

    def test_witness_attempt_matches_the_attached_witness(self):
        for text, kind in (("s", KIND_POSITIVE_FPRIME), ("-s", KIND_SECOND_ORDER)):
            f = parse(text)
            w = certify(f, 3, SMALL_GRID).witnesses[0]
            a = certifier.witness_attempt(f, kind, w.s_star, 3)
            assert a.confirmed_by == w.confirmed_by == certifier.BY_GAP
            assert a[4:] == w[4:]
            assert np.array_equal(a.c, w.c) and np.array_equal(a.h, w.h)

    def test_witness_attempt_unconfirmed_and_dimension_error(self):
        # -ln(s) is convex: its second-order pair has a positive form
        a = certifier.witness_attempt(parse("-ln(s)"), KIND_SECOND_ORDER, 1.0, 3)
        assert not a.confirmed
        with pytest.raises(ParameterError):
            certifier.witness_attempt(parse("s"), KIND_POSITIVE_FPRIME, 1.0, 1)

    def test_second_order_condition_identity(self):
        # H = C makes the diagonal condition value n^2 lhs(s) for any f:
        # D2g(C).(C,C) = n^2 s^2 lhs(s), divided by det C = s
        functions = [
            family("neohooke", mu=1.0),
            family("power", c=-1.0, p=0.5, d=0.0),
            parse("-s"),
            parse("s^2"),
        ]
        for f in functions:
            for n in (1, 2, 3, 5):
                for s in (0.2, 1.0, 9.0):
                    c, h = certifier.witness_pair(KIND_SECOND_ORDER, s, n)
                    got = selftest.condition_lhs_diag(f, 1.0 / np.diag(c.a), h)
                    expect = n * n * diff_ineq_lhs(f, c.det, n)
                    assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


# The failing points that the affine test draws from: the selftest corpus
# and the marginal and flat cases, on a unit grid and on one where the
# violations lie below an ulp of f.
AFFINE_CORPUS = selftest.EXPRESSION_CORPUS + (
    "1e8+s", "-ln(s)+1e-7*s^2", "-exp(s/100)", "1-1e-6*s^2", "-s^0.34",
)
AFFINE_GRIDS = (GridSpec(1e-3, 1e3, 200), GridSpec(1e-20, 1e-15, 200))


@functools.cache
def _failing_points(text, n, grid):
    """(kind, s) of every grid point of ``text`` at n failing a condition
    that has a witness there."""
    rep = certify(parse(text), n, grid)
    kinds = [(KIND_POSITIVE_FPRIME, rep.fprime_ok)] * (n > 1) + [(KIND_SECOND_ORDER, rep.lhs_ok)]
    return tuple((kind, float(s)) for kind, ok in kinds for s in rep.s[~ok])


class TestWitnessGap:
    """Both forms come from the jet at the grid's s, and the gap of f at
    the pair's determinants labels the confirmation."""

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 64])
    def test_slope_form_is_exact_over_the_float_range(self, n):
        # f = s: -2 s f'(s) = -2 s at every point; the LAPACK solve of
        # hess_terms missed it by an ulp at 1393 of these 10 005 pairs
        f = parse("s")
        for s in GridSpec(1e-300, 1e300, 2001).points().tolist():
            w = certifier.witness_attempt(f, KIND_POSITIVE_FPRIME, s, n)
            assert w.analytic_value == -2.0 * s and w.confirmed, s

    def test_flat_second_order_form_keeps_its_sign(self):
        # s^2 f'' of -exp(s/100) at s = 1e-15 is about -1e-34, which the
        # form (f'' s + f') - f' of the stencil cancelled to 0.0; f is -1
        # to the last bit at all three points, so only the jet shows it
        w = certifier.witness_attempt(parse("-exp(s/100)"), KIND_SECOND_ORDER, 1e-15, 1)
        assert w.analytic_value == pytest.approx(-1e-34, rel=1e-12)
        assert w.confirmed_by == certifier.BY_JET and math.isnan(w.gap)
        # 1e8+s at s = 9e-9: f(3s/4) and f(s) round to neighbours an ulp of
        # 1e8 apart, so the gap at tau = 1/2 is -2.98e-8, 6.6 times the
        # true -4.5e-9 and inside its bound of 1.4e-6: rounding, not a gap
        w = certifier.witness_attempt(parse("1e8+s"), KIND_POSITIVE_FPRIME, 9e-9, 2)
        assert 2 * ((1e8 + 0.75 * w.det_c) - (1e8 + w.det_c)) == -2.9802322387695312e-08
        assert w.confirmed_by == certifier.BY_JET and w.analytic_value == -1.8e-8

    @given(
        st.sampled_from(AFFINE_CORPUS),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from(AFFINE_GRIDS),
        st.floats(0.0, 1.0),
        st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
        st.floats(-1e8, 1e8),
    )
    # f' = 2s - 3 > 0 at s = 1.57, but the slope pair's gap turns positive
    # past tau of about 0.3: scaled by 1e-5 under 5e7, only those show
    @example("s^2 - 3*s + 1", 2, AFFINE_GRIDS[0], 0.0, 1e-5, -5e7)
    @settings(max_examples=150, deadline=None)
    def test_confirmation_is_affine_invariant(self, text, n, grid, u, lam, d):
        # lam f + d has the pair of f scaled by lam: its form has the sign
        # of f's, whatever part of its gaps d's rounding hides
        points = _failing_points(text, n, grid)
        assume(points)
        kind, s = points[min(int(u * len(points)), len(points) - 1)]
        w = certifier.witness_attempt(parse(text), kind, s, n)
        moved = certifier.witness_attempt(parse(f"{lam!r}*({text})+({d!r})"), kind, s, n)
        assert moved.confirmed == w.confirmed

    def test_a_gap_beats_the_jet(self):
        # 1 + s rounds to 1 at s = 1e-20, so ln(s+1) is flat there and its
        # first pair rests on the jet; the retry nearest s = 1, at 1e-15,
        # shows its gap and wins.  Two jets keep the first point
        grid = GridSpec(1e-20, 1e-15, 200)
        f = parse("ln(s+1)")
        assert certifier.witness_attempt(f, KIND_POSITIVE_FPRIME, 1e-20, 2).confirmed_by == certifier.BY_JET
        [w] = certify(f, 2, grid).witnesses
        assert (w.s_star, w.confirmed_by) == (1e-15, certifier.BY_GAP)
        [w] = certify(parse("-exp(s/100)"), 1, grid).witnesses
        assert (w.s_star, w.confirmed_by) == (1e-20, certifier.BY_JET)

    def test_gap_is_three_values_of_f(self):
        # the slope pair moves det C to det C (1 - tau^2) both ways, the
        # second-order pair to det C (1 +- tau)^n; f = +-s^2 fails each
        for sign, kind in ((1.0, KIND_POSITIVE_FPRIME), (-1.0, KIND_SECOND_ORDER)):
            w = certifier.witness_attempt(parse(f"{sign}*s^2"), kind, 0.5, 3)
            c = w.det_c
            if kind == KIND_POSITIVE_FPRIME:
                a = b = c * (1 - w.tau**2)
            else:
                a, b = c * (1 + w.tau) ** 3, c * (1 - w.tau) ** 3
            assert w.gap == sign * ((a * a - c * c) + (b * b - c * c)) < 0
            assert w.gap_bound == certifier.GAP_ROUNDING * (a * a + b * b + 2 * c * c)
            assert w.tau == 0.5 and w.confirmed_by == certifier.BY_GAP


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


class TestReductionCheck:
    def test_diagonal_input_tight(self):
        # diagonal C gives a signed-permutation eigenframe; full and
        # reduced agree to plain roundoff
        c = np.diag([2.0, 0.5, 1.0])
        f = family("neohooke", mu=1.0)
        h = random_sym(3, seed=9, count=1)[0]
        full, reduced = reduction_check(f, c, h)
        assert abs(full - reduced) <= 1e-13 * max(1.0, abs(full))

    def test_zero_direction(self):
        c = random_posdef_array(3, seed=10)
        assert reduction_check(parse("-ln(s)"), c, np.zeros((3, 3))) == (0.0, 0.0)

    def test_random_sweep(self):
        for n in (2, 3, 5):
            corpus = detcalculus.builtin_corpus(n)
            seeds = np.random.SeedSequence(90 + n).generate_state(200, dtype=np.uint64)
            for i in range(100):
                c = random_posdef_array(n, int(seeds[2 * i]))
                h = random_sym(n, int(seeds[2 * i + 1]), 1)[0]
                full, reduced = reduction_check(corpus[i % len(corpus)], c, h)
                assert abs(full - reduced) <= 1e-9 * max(1.0, abs(full), abs(reduced))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_gives_each_pair_its_single_values(self, n):
        words = linalg.seed_words(95 + n, 2)
        c = linalg.random_posdef_stack(n, words[0], 30)[0]
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
        assert diag.max_midpoint_residual <= 1e-8
        assert diag.midpoint_failures == 0

    def test_nonconvex_function_found(self):
        diag = sample_convexity(parse("s"), 3, 300, seed=4)
        assert diag.max_midpoint_residual > 1e-8
        assert diag.midpoint_failures > 0

    def test_sweep_failure_beyond_the_grid_refutes(self):
        # the old sweep counted 3 slope failures here, the worst at
        # det C = 12 271.6, while the grid alone certified; the
        # beyond-grid pass's slope witness refutes, with or without a sweep
        for samples in (1000, 0):
            rep = certify(parse("-ln(s)+1e-7*s^2"), 5, samples=samples, seed=42)
            assert rep.verdict == REFUTED and rep.annotations == ()
            [w] = rep.witnesses
            assert w.kind == KIND_POSITIVE_FPRIME and w.s_star > math.sqrt(5e6)
            assert w.s_star == rep.beyond_grid.s[np.argmax(rep.beyond_grid.fprime_bad)]

    @pytest.mark.xfail(
        strict=True,
        reason="the sweep evaluates full jets, and an f'' that overflows makes the value NaN "
        "too; ROADMAP item 10's value-only program would run these samples",
    )
    def test_a_finite_value_is_not_skipped_for_an_overflowing_derivative(self):
        # f = -8e307*s^0.1 is finite at every determinant the sweep draws,
        # but f'' = 7.2e306 s^-1.9 overflows below s of about 0.18
        e, dets = certifier.sweep_draw(np.random.Generator(np.random.PCG64(0)), 3, 1000)
        points = np.concatenate([dets.ravel(), np.prod(0.5 * (e[:, 0] + e[:, 1]), axis=1)])
        assert points.size == 3000 and np.isfinite(-8e307 * points**0.1).all()
        diag = sample_convexity(parse("-8e307*s^0.1"), 3, 1000, 0)
        assert diag.samples_skipped == 0

    def test_slope_failure_beyond_sqrt_5e6_is_refuted(self):
        # -ln(s)+1e-7*s^2 at n = 5 has f' > 0 exactly past sqrt(5e6): on
        # [150, 1e6] the slope pair at the first grid point past it
        # confirms (the pair diag(1, ..., 1, s) did not, and the verdict
        # was Inconclusive)
        grid = GridSpec(150.0, 1e6)
        rep = certify(parse("-ln(s)+1e-7*s^2"), 5, grid)
        assert rep.verdict == REFUTED and rep.annotations == ()
        [w] = rep.witnesses
        points = grid.points()
        first = float(points[np.argmax(points > math.sqrt(5e6))])
        assert w.kind == KIND_POSITIVE_FPRIME and w.s_star == first
        assert w.analytic_value < 0

    @pytest.mark.parametrize("text", ["8e307*s^2", "-8e307*s^0.1"])
    def test_overflowing_values_leave_finite_extremes(self, text):
        # 8e307*s^2 overflows its jets on most samples and its lhs on the
        # others, to +inf; -8e307*s^0.1 overflows g(A1) + g(A2), and so
        # its residual.  The extremes stay finite
        diag = sample_convexity(parse(text), 3, 1000, seed=0)
        assert diag.samples_run + diag.samples_skipped == 1000
        assert diag.samples_run > 0
        extremes = (diag.min_midpoint_residual, diag.max_midpoint_residual)
        assert all(math.isfinite(x) for x in extremes), extremes
        assert diag.max_midpoint_sample >= 0

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
        with pytest.raises(ParameterError, match="samples=-1"):
            certify(parse("s"), 3, SMALL_GRID, samples=-1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_dimension_validated(self, n):
        # n = 0 divided by zero in the pass size and n = -2 raised numpy's
        # ValueError, both outside the exit-3 errors of the CLI
        with pytest.raises(ParameterError, match=f"dimension n={n} must be >= 1"):
            sample_convexity(parse("-ln(s)"), n, 10, seed=1)

    def test_failures_keep_no_matrices(self):
        # most samples of f = s fail the midpoint check at n = 10; the
        # sweep counts its failures and keeps the worst, so its memory is
        # set by its pass (matrices kept per failure made 20 times as many
        # samples cost 8 times the memory, and arrays of failing indices
        # and values, with the last pass's matrices still held while the
        # next was drawn, 1.56 times)
        rows = SWEEP_PASS_ENTRIES // 20

        def traced_peak(num):
            tracemalloc.start()
            try:
                diag = sample_convexity(parse("s"), 10, num, seed=3)
                return tracemalloc.get_traced_memory()[1], diag
            finally:
                tracemalloc.stop()

        small, _ = traced_peak(rows)
        large, diag = traced_peak(20 * rows)
        assert diag.midpoint_failures > 15 * rows
        assert large < 1.1 * small

    def test_memory_is_one_pass_at_small_n(self):
        # at n = 3 a pass holds 5461 rows; 20 passes of f = s, more than
        # half of whose samples fail, peak no higher than one
        rows = SWEEP_PASS_ENTRIES // 6

        def traced_peak(num):
            tracemalloc.start()
            try:
                diag = sample_convexity(parse("s"), 3, num, seed=3)
                return tracemalloc.get_traced_memory()[1], diag
            finally:
                tracemalloc.stop()

        one, _ = traced_peak(rows)
        many, diag = traced_peak(20 * rows)
        assert diag.midpoint_failures > 10 * rows
        assert many <= 1.1 * one

    def test_rejects_negative_seed(self):
        # SeedSequence raised a bare ValueError, which the CLI reported as
        # a traceback with exit 1
        with pytest.raises(ParameterError, match="seed=-1 must be >= 0"):
            sample_convexity(parse("s"), 3, 5, seed=-1)

    def test_overflowing_samples_are_skipped(self):
        # exp(exp(s)) overflows its jets past s of about 6.5; a sample is
        # skipped where it overflows at A1, A2 or their midpoint
        diag = sample_convexity(parse("exp(exp(s))"), 3, 1000, seed=9)
        assert diag.samples_skipped == 438
        assert diag.samples_run + diag.samples_skipped == 1000

    def test_domain_errors_skipped(self):
        diag = sample_convexity(parse("ln(s-5)"), 3, 50, seed=4)
        assert diag.samples_skipped > 0
        assert diag.samples_run + diag.samples_skipped == 50


class TestBeyondGrid:
    def test_pass_holds_a_confirmed_counterexample(self):
        # the slope of -ln(s)+1e-7*s^2 turns positive past s = sqrt(5e6),
        # about 2236, at n = 5, beyond the grid's 1e3 but inside the
        # pass's [1e-5, 1e5]: it fails at exactly the points past it, the
        # first 10^3.35 = 2238.72, and the fd oracle agrees with the slope
        # pair's form there: C = r I and H = r diag(1, -1, 0, 0, 0) with
        # r^5 = s, for which D2g(C).(H,H) = -2 s f'(s)
        f, n = parse("-ln(s)+1e-7*s^2"), 5
        beyond = certifier.beyond_grid(f, n, GridSpec(), certifier.DEFAULT_TOL_BASE)
        assert (beyond.grid.s_min, beyond.grid.s_max, len(beyond.s)) == (1e-5, 1e5, 400)
        assert beyond.skipped == 0 and not beyond.lhs_bad.any()
        assert np.array_equal(beyond.fprime_bad, beyond.s > math.sqrt(5e6))
        s = float(beyond.s[np.argmax(beyond.fprime_bad)])
        assert s == pytest.approx(10**3.35, rel=1e-12)
        jet = eval_jet(f, s)
        assert jet.d1 > 0
        r = s ** (1.0 / n)
        c, h = r * np.eye(n), np.diag([r, -r, 0.0, 0.0, 0.0])
        forms = detcalculus.directional_forms((f,), c[None], h[None])
        value, fd = float(forms.hess[0]), float(forms.fd_hess[0])
        assert value == pytest.approx(-2 * s * jet.d1, rel=1e-12)
        assert value < 0 and abs(fd - value) <= 1e-5 * abs(value)
        w = certifier.witness_attempt(f, KIND_POSITIVE_FPRIME, s, n)
        assert w.confirmed_by == certifier.BY_GAP and w.analytic_value == -2 * s * jet.d1

    def test_no_pass_inside_the_range_or_after_a_domain_failure(self):
        # at n <= 3 the default grid holds [10^-n, 10^n]; after a domain
        # failure the pass does not run
        for n in (1, 2, 3):
            assert certify(parse("s"), n).beyond_grid is None
        assert certify(parse("ln(s-1)"), 5).beyond_grid is None
        assert len(certify(parse("-ln(s)"), 4).beyond_grid.s) == 200

    def test_skipped_points_force_no_verdict(self):
        # exp(s/200) overflows past s = 141 956, inside the pass's range
        # at n = 10 and beyond the grid: the pass skips those points, which
        # fail nothing
        rep = certify(parse("-ln(s) + 0*exp(s/200)"), 10)
        b = rep.beyond_grid
        assert b.skipped == np.count_nonzero(b.s > 200 * math.log(np.finfo(float).max))
        assert b.skipped > 0 and np.isnan(b.fprime[-b.skipped :]).all()
        assert not (b.fprime_bad.any() or b.lhs_bad.any())
        assert rep.verdict == CERTIFIED and rep.annotations == ()

    def test_unconfirmed_violation_is_inconclusive(self):
        # -s^2 + 10*s^3 is concave only below s = 1/30, outside the pass's
        # [0.1, 10] at n = 1, which fails nothing; on the grid its form
        # -2 s^2 rounds to zero below s = 1e-162, so no pair is negative
        rep = certify(parse("-s^2 + 10*s^3"), 1, GridSpec(1e-300, 1e-200))
        b = rep.beyond_grid
        assert not (b.fprime_bad.any() or b.lhs_bad.any()) and not rep.lhs_ok.any()
        assert rep.verdict == INCONCLUSIVE and rep.witnesses == ()
        assert rep.annotations == ("second-order violation at s=1e-300 not confirmed by its witness pair",)

    def test_a_constant_hides_no_violation(self):
        # 1e8 drowns f' = 1 of 1e8+s in the fd oracle's difference, but not
        # in the gap at tau = 1/2: both dims refute at the grid's first point
        for n in (3, 5):
            rep = certify(parse("1e8+s"), n)
            assert rep.verdict == REFUTED and rep.annotations == ()
            [w] = rep.witnesses
            assert (w.s_star, w.tau, w.confirmed_by) == (1e-3, 0.5, certifier.BY_GAP)
            assert w.analytic_value == -2e-3 and w.gap < -w.gap_bound
        # and the slope pair's gap at s = 2238.72, where
        # 1e8-ln(s)+1e-7*s^2 first fails beyond a grid on which it passes
        rep = certify(parse("1e8-ln(s)+1e-7*s^2"), 5)
        assert rep.failing_points.size == 0 and rep.annotations == ()
        [w] = rep.witnesses
        assert rep.verdict == REFUTED and w.s_star == pytest.approx(10**3.35, rel=1e-12)
        assert w.confirmed_by == certifier.BY_GAP and w.tau == 1 / 32


CONVEX_BUILTINS = lambda n: [
    family("neohooke", mu=1.0),
    family("log", c=-2.0, d=0.5),
    family("power", c=-1.0, p=0.15, d=0.0),
    family("power", c=2.0, p=-1.0, d=0.0),
    family("fa", n, a=0.0, c=-1.0, d=0.0),
    family("fa", n, a=1.0, c=-2.0, d=1.0),
]

NONCONVEX_BUILTINS = lambda n: [
    family("power", c=1.0, p=1.0, d=0.0),
    family("power", c=-1.0, p=2.0, d=0.0),
    family("log", c=1.0, d=0.0),
]


class TestVerdictConsistency:
    def test_certified_families_survive_sampling(self):
        for n in (2, 3, 5):
            for f in CONVEX_BUILTINS(n):
                rep = certify(f, n, SMALL_GRID)
                assert rep.verdict == CERTIFIED, f"{f} at n={n}: {rep.verdict}"
                assert rep.analytic_convex is True
                diag = sample_convexity(f, n, 334, seed=60 + n)
                assert diag.midpoint_failures == 0, f"{f} at n={n}"

    def test_refuted_builtins_carry_confirmed_witnesses(self):
        for n in (2, 3, 5):
            for f in NONCONVEX_BUILTINS(n):
                rep = certify(f, n, SMALL_GRID)
                assert rep.verdict == REFUTED, f"{f} at n={n}: {rep.verdict}"
                assert rep.analytic_convex is False
                for w in rep.witnesses:
                    assert w.analytic_value < 0
                    assert w.confirmed_by == certifier.BY_GAP and w.gap < -w.gap_bound

    def test_analytic_verdict_matches_grid_check(self):
        cases = [
            (family("power", c=-1.0, p=1.0 / 3.0, d=0.0), 3),
            (family("power", c=-1.0, p=0.34, d=0.0), 3),  # just past the threshold
            (family("power", c=0.0, p=5.0, d=2.0), 3),
            (family("power", c=3.0, p=-1.0 / 3.0, d=-3.0), 3),
            (family("log", c=-1.0, d=0.0), 4),
            (family("log", c=0.5, d=0.0), 4),
        ]
        for f, n in cases:
            rep = certify(f, n, SMALL_GRID)
            assert rep.analytic_convex == (rep.verdict == CERTIFIED), (f, n, rep.verdict)

    # a term with no literal coefficient, or one beside other terms, has none
    @pytest.mark.parametrize(
        "text",
        ["-ln(s)", "ln(s)", "s^(1/3)", "0.5+2*s^3+s", "ln(s)+1", "0.5+2*ln(s+1)",
         "s-2*s^3", "2*s^3+1", "s^3*2", "--2*s^3", "2*s^(-(-3))", "(1+1)*s^3"],
    )
    def test_other_shapes_have_no_analytic_verdict(self, text):
        assert analytic_convexity(parse(text), 3) is None

    @pytest.mark.parametrize(
        "text, closed, twin",
        [
            ("0.5+2*s^3", (False, "2.0*s^3.0"), ("power", dict(c=2.0, p=3.0, d=0.5))),
            ("1+2*ln(s)", (False, "2.0*ln(s)"), ("log", dict(c=2.0, d=1.0))),
            ("2*ln(s)", (False, "2.0*ln(s)"), ("log", dict(c=2.0))),
            ("0*ln(s)", (True, "0.0*ln(s)"), ("log", dict(c=0.0))),
            ("2+0*s^5", (True, "0.0*s^5.0"), ("power", dict(c=0.0, p=5.0, d=2.0))),
            # -3 in text is Negate(Constant(3.0)), and d - c*term has
            # the coefficient -c
            ("2*s^3", (False, "2.0*s^3.0"), ("power", dict(c=2.0, p=3.0))),
            ("0+-3*s^0.25", (True, "-3.0*s^0.25"), ("power", dict(c=-3.0, p=0.25))),
            ("-1e-12*s^0.34", (False, "-1e-12*s^0.34"), ("power", dict(c=-1e-12, p=0.34))),
            ("1-2*s^3", (False, "-2.0*s^3.0"), ("power", dict(c=-2.0, p=3.0, d=1.0))),
            ("0.2-0.5*s^-0.5", (False, "-0.5*s^-0.5"), ("power", dict(c=-0.5, p=-0.5, d=0.2))),
            ("1--2*s^0.25", (False, "2.0*s^0.25"), ("power", dict(c=2.0, p=0.25, d=1.0))),
            ("-2*ln(s)", (True, "-2.0*ln(s)"), ("log", dict(c=-2.0))),
            ("-0.5-2*ln(s)", (True, "-2.0*ln(s)"), ("log", dict(c=-2.0, d=-0.5))),
            ("3--2*ln(s)", (False, "2.0*ln(s)"), ("log", dict(c=2.0, d=3.0))),
        ],
    )
    def test_parsed_family_shapes_have_their_closed_form(self, text, closed, twin):
        # the closed form reads the tree, so text of a family's shape has
        # the closed form of its family twin
        assert analytic_convexity(parse(text), 3) == closed
        assert analytic_convexity(family(twin[0], **twin[1]), 3) == closed

    @pytest.mark.parametrize("c, p", [(1e-12, 1.0), (1e-12, 1.0 / 3.0), (-1e-12, 0.34)])
    def test_a_closed_form_that_says_not_convex_is_never_certified(self, c, p):
        # the band hides these scaled violations on the grid, but the
        # family's own closed form says not convex
        rep = certify(family("power", c=c, p=p), 3)
        assert rep.analytic_convex is False and rep.witnesses == ()
        assert rep.verdict == INCONCLUSIVE
        assert rep.annotations == (
            f"closed form of the term {c!r}*s^{p!r} is not convex at n=3, but no witness pair confirms it",
        )

    def test_a_refuted_family_keeps_its_witness(self):
        rep = certify(family("power", c=-1.0, p=0.5), 3)
        assert rep.verdict == REFUTED and rep.analytic_convex is False
        assert rep.annotations == ()

    @pytest.mark.parametrize("grid", [GridSpec(1e-3, 1e3), GridSpec(1e-20, 1e-15)],
                             ids=["unit", "tiny"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_verdict_rule_over_all_the_evidence(self, n, grid):
        # the one rule at the end of certify, over every report it can
        # build from the grid, the beyond-grid pass, the witnesses, the
        # domain cut and the sweep
        seed, tol = 17, certifier.DEFAULT_TOL_BASE
        extra = ("exp(s)", "ln(s-1)", "1e8+s", "-ln(s)+1e-7*s^2", "1e8-ln(s)+1e-7*s^2")
        for text in selftest.EXPRESSION_CORPUS + extra:
            f = parse(text)
            rep = certify(f, n, grid, tol, samples=50, seed=seed)
            b = rep.beyond_grid
            beyond_fails = b is not None and bool(b.fprime_bad.any() or b.lhs_bad.any())
            if rep.witnesses:
                want = REFUTED
            elif rep.failing_points.size or rep.domain_failure or beyond_fails:
                want = INCONCLUSIVE
            else:
                want = CERTIFIED
            assert rep.verdict == want, text
            # every witness is confirmed and sits at a failing point of its
            # kind, on the grid or beyond it, at most one per kind
            kinds = [w.kind for w in rep.witnesses]
            assert len(set(kinds)) == len(kinds), text
            for w in rep.witnesses:
                assert w.confirmed
                on_grid = ~(rep.fprime_ok if w.kind == KIND_POSITIVE_FPRIME else rep.lhs_ok)
                failing = set(rep.s[on_grid].tolist())
                if b is not None:
                    failing |= set(b.s[b.fprime_bad if w.kind == KIND_POSITIVE_FPRIME else b.lhs_bad].tolist())
                assert w.s_star in failing, text
            # the pass and the sweep run unless the grid was cut, and the
            # seed moves neither the pass nor the verdict
            if rep.domain_failure:
                assert rep.diagnostics is None and b is None, text
            else:
                assert rep.diagnostics == sample_convexity(f, n, 50, seed), text
                want_b = certifier.beyond_grid(f, n, grid, tol)
                assert (b is None) == (want_b is None), text
                if b is not None:
                    assert b.grid == want_b.grid and b.skipped == want_b.skipped, text
                    for got, ref in zip(b[1:6], want_b[1:6]):
                        assert np.array_equal(got, ref, equal_nan=True), text
            unswept = certify(f, n, grid, tol, samples=0, seed=seed)
            assert unswept.diagnostics is None and unswept.verdict == rep.verdict, text


def _known_unsound(text, n, item, why, samples=0, refuted_by=None):
    return pytest.param(
        text, n, samples, refuted_by, id=f"{text}-n{n}",
        marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}"),
    )


class TestKnownUnsoundVerdicts:
    # Each case is a verdict given today against the package's own or exact
    # evidence.  The named ROADMAP item flips it, and its marker comes off
    # with that change.
    @pytest.mark.parametrize(
        "text, n, samples, refuted_by",
        [
            _known_unsound(
                "exp(s)", 3, 2, "f' > 0 at the grid points before the overflow cut, which no "
                "witness search reaches: Inconclusive", refuted_by=KIND_POSITIVE_FPRIME,
            ),
            _known_unsound("1e-12*s", 3, 5, "f' = 1e-12 lies under the band's absolute floor"),
            _known_unsound(
                "2.4657238866534505e-08*(-ln(s)+1e-7*s^2)+(-38805981.673672505)", 5, 5,
                "the unscaled f is Refuted; the scale hides its slope failure in the band",
            ),
            _known_unsound(
                "1e-9*s", 3, 27, "its own sweep counts 95 midpoint failures", samples=1000
            ),
            _known_unsound(
                "-1e-09*s^(3/2)-ln(s)", 10, 28,
                "n s^2 lhs = 1 - 2.1e-8 s^1.5 < 0 for s > 1.3e5, under the band's floor",
            ),
        ],
    )
    def test_is_not_certified(self, text, n, samples, refuted_by):
        rep = certify(parse(text), n, samples=samples, seed=42)
        assert rep.verdict != CERTIFIED
        if refuted_by:
            assert rep.verdict == REFUTED
            assert any(w.kind == refuted_by and w.confirmed_by for w in rep.witnesses)


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
    """Accepted verdicts at n = 1: a non-convex f is Refuted, a convex
    one CertifiedOnGrid."""
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
        f = family("power", c=c, p=p, d=0.5)
        points = self.GRID.points().tolist()
        want = _mp_convex(lambda s: 0.5 + c * s ** mpmath.mpf(p), points)
        assert analytic_convexity(f, 1)[0] is want
        rep = certify(f, 1, self.GRID)
        assert rep.analytic_convex is want
        assert rep.verdict in _one_dimensional_verdicts(want)

    @pytest.mark.parametrize("text", ["ln(s)", "sqrt(s)", "-1/s"])
    def test_refuted_at_the_first_violating_point(self, text):
        # C = H = s at s = 1e-3 moves det C by the stencil's relative
        # step, as at s = 1, so the first attempt confirms (the pair
        # C = s, H = 1/s moved it by a third of itself, and only the retry
        # near s = 1 confirmed)
        rep = certify(parse(text), 1, GridSpec())
        assert rep.verdict == REFUTED and rep.annotations == ()
        [w] = rep.witnesses
        assert w.kind == KIND_SECOND_ORDER and w.s_star == 1e-3
        assert w.analytic_value < 0

    def test_unconfirmed_first_witness_is_retried_nearest_s_one(self):
        # the form t^2 u''(t) = -s^2/(s+1)^2 of ln(s+1) rounds to zero at
        # s = 1e-300, so the first attempt is no counterexample; the
        # violating point nearest s = 1 in log s confirms
        grid = GridSpec(1e-300, 1e300, 2000)
        rep = certify(parse("ln(s+1)"), 1, grid)
        assert rep.verdict == REFUTED and rep.annotations == ()
        assert not certifier.witness_attempt(parse("ln(s+1)"), KIND_SECOND_ORDER, 1e-300, 1).confirmed
        [w] = rep.witnesses
        assert w.kind == KIND_SECOND_ORDER
        step = math.log(grid.s_max / grid.s_min) / (grid.count - 1)
        assert abs(math.log(w.s_star)) <= 0.5 * step * (1 + 1e-9)
        assert w.s_star == pytest.approx(0.708, rel=1e-3)
        assert w.analytic_value < 0

    def test_refutations_at_dimension_one(self):
        # the second-order witness confirms on polynomials, exp and
        # singular f
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


def _mismatched(shape_c, shape_h):
    """Identity matrices of ``shape_c`` and zeros of ``shape_h``."""
    return np.broadcast_to(np.eye(shape_c[-1]), shape_c), np.zeros(shape_h)


# each rule raises one class: a dimension or shape check ParameterError,
# an unknown identifier ParseError at its offset
ONE_ERROR_CLASS = {
    "certify-n0": (ParameterError, lambda: certify(parse("s"), 0)),
    "sample_convexity-n0": (ParameterError, lambda: sample_convexity(parse("s"), 0, 10, 1)),
    "witness_pair-slope-n1": (ParameterError, lambda: certifier.witness_pair(KIND_POSITIVE_FPRIME, 1.0, 1)),
    "random_sym-n0": (ParameterError, lambda: linalg.random_sym(0, 1, 1)),
    "random_posdef_stack-n0": (ParameterError, lambda: linalg.random_posdef_stack(0, 1, 1)),
    "symmetric-non-square": (ParameterError, lambda: linalg.symmetric(np.ones((1, 3)))),
    # jacobi_eigen raised LAPACK's error on a (2, 3) array as ConvergenceError
    "jacobi_eigen-non-square": (ParameterError, lambda: linalg.jacobi_eigen(np.ones((2, 3)))),
    "jacobi_eigen-vector": (ParameterError, lambda: linalg.jacobi_eigen(np.ones(3))),
    "det-non-square": (ParameterError, lambda: linalg.det(np.ones((2, 3)))),
    "det-vector": (ParameterError, lambda: linalg.det(np.ones(3))),
    "frob_norm-vector": (ParameterError, lambda: linalg.frob_norm(np.ones(3))),
    "directional_forms-mismatch": (
        ParameterError,
        lambda: detcalculus.directional_forms([parse("-ln(s)")], *_mismatched((2, 3, 3), (2, 2, 2))),
    ),
    "parse-unknown-identifier": (ParseError, lambda: parse("x+s")),
}


@pytest.mark.parametrize("check", ONE_ERROR_CLASS)
def test_each_check_raises_its_one_error_class(check):
    error, call = ONE_ERROR_CLASS[check]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    if error is ParseError:
        assert exc.value.offset == 0


# every integer input takes linalg.integer's one rule: a dimension n, a
# sample count or a seed.  Where n was only compared, n = 2.5 certified and
# NaN gave a NaN lhs; a float count or seed raised TypeError, a float seed
# of a draw replayed its integer part, and a negative count raised numpy's
# ValueError.  Each entry is (parameter name, least value, call).
INTEGER_INPUTS = {
    "certify-n": ("dimension n", 1, lambda v: certify(parse("-ln(s)"), v)),
    "certify-samples": ("samples", 0, lambda v: certify(parse("-ln(s)"), 3, SMALL_GRID, samples=v)),
    "certify-seed": ("seed", 0, lambda v: certify(parse("-ln(s)"), 3, SMALL_GRID, samples=3, seed=v)),
    "GridSpec-count": ("grid count", 2, lambda v: GridSpec(1e-3, 1e3, v)),
    "sample_convexity-n": ("dimension n", 1, lambda v: sample_convexity(parse("s"), v, 10, 1)),
    "sample_convexity-num_samples": ("num_samples", 1, lambda v: sample_convexity(parse("s"), 3, v, 1)),
    "sample_convexity-seed": ("seed", 0, lambda v: sample_convexity(parse("s"), 3, 3, v)),
    "witness_pair-n": ("dimension n", 1, lambda v: certifier.witness_pair(KIND_SECOND_ORDER, 2.0, v)),
    "witness_pair-slope-n": (
        "the slope witness's dimension n", 2, lambda v: certifier.witness_pair(KIND_POSITIVE_FPRIME, 2.0, v)
    ),
    "diff_ineq_lhs-n": ("dimension n", 1, lambda v: diff_ineq_lhs(parse("-ln(s)"), 1.0, v)),
    "oracle_sweep-n": ("dimension n", 1, lambda v: detcalculus.oracle_sweep(v, 3, 0)),
    "oracle_sweep-num_samples": ("num_samples", 1, lambda v: detcalculus.oracle_sweep(3, v, 0)),
    "oracle_sweep-seed": ("seed", 0, lambda v: detcalculus.oracle_sweep(3, 3, v)),
    "seed_words-seed": ("seed", 0, lambda v: linalg.seed_words(v, 2)),
    "random_posdef_stack-n": ("dimension n", 1, lambda v: linalg.random_posdef_stack(v, 1, 2)),
    "random_posdef_stack-seed": ("seed", 0, lambda v: linalg.random_posdef_stack(3, v, 2)),
    "random_posdef_stack-count": ("count", 0, lambda v: linalg.random_posdef_stack(3, 1, v)),
    "random_sym-n": ("dimension n", 1, lambda v: random_sym(v, 1, 2)),
    "random_sym-seed": ("seed", 0, lambda v: random_sym(3, v, 2)),
    "random_sym-count": ("count", 0, lambda v: random_sym(3, 1, v)),
    "family-fa-n": ("dimension n", 1, lambda v: family("fa", v, a=0.1)),
    "analytic_convexity-n": ("dimension n", 1, lambda v: analytic_convexity(family("power", c=-1.0, p=0.5), v)),
    "beyond_grid-n": ("dimension n", 1, lambda v: certifier.beyond_grid(parse("s"), v, GridSpec(), 1e-9)),
}


# a bool is an int to operator.index: True drew the n = 1 member or seed 1
@pytest.mark.parametrize("value", [2.5, 3.0, math.nan, "3", True, False, "below"])
@pytest.mark.parametrize("check", INTEGER_INPUTS)
def test_an_integer_input_is_an_integer_at_or_above_its_least(check, value):
    name, least, call = INTEGER_INPUTS[check]
    if value == "below":
        value, message = least - 1, f"{name}={least - 1} must be >= {least}"
    else:
        message = f"{name}={value!r} must be an integer"
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert type(exc.value) is ParameterError and str(exc.value) == message


@pytest.mark.parametrize(
    "call",
    [lambda: linalg.random_posdef_stack(3, 1.5, 2), lambda: random_sym(3, 2.9, 2)],
    ids=["random_posdef_stack", "random_sym"],
)
def test_a_float_seed_replays_no_integer_seed(call):
    # these drew from seeds 1 and 2
    with pytest.raises(ParameterError, match=re.escape("must be an integer")):
        call()


# each call with its integer inputs from one converter
WITH_INTEGERS = {
    "certify": lambda i: certify(parse("s"), i(3), GridSpec(1e-2, 1e2, i(50)), samples=i(20), seed=i(7)),
    "sample_convexity": lambda i: sample_convexity(parse("s"), i(3), i(20), i(7)),
    "witness_pair": lambda i: certifier.witness_pair(KIND_POSITIVE_FPRIME, 2.0, i(3)),
    "diff_ineq_lhs": lambda i: diff_ineq_lhs(parse("-ln(s)"), np.geomspace(1e-2, 1e2, 9), i(3)),
    "oracle_sweep": lambda i: detcalculus.oracle_sweep(i(3), i(5), i(7)),
    "seed_words": lambda i: linalg.seed_words(i(7), 4),
    "random_posdef_stack": lambda i: linalg.random_posdef_stack(i(3), i(7), i(4)),
    "random_sym": lambda i: random_sym(i(3), i(7), i(4)),
    "family-fa": lambda i: family("fa", i(3), a=0.1),
    "GridSpec": lambda i: GridSpec(1e-2, 1e2, i(50)).points(),
    "analytic_convexity": lambda i: analytic_convexity(family("power", c=-1.0, p=0.5), i(3)),
    "beyond_grid": lambda i: certifier.beyond_grid(parse("-ln(s)"), i(5), GridSpec(), 1e-9),
}


@pytest.mark.parametrize("convert", [np.int64, np.uint8])
@pytest.mark.parametrize("check", WITH_INTEGERS)
def test_a_numpy_integer_input_is_taken(check, convert):
    # the same draws and reports, bit for bit, and no numpy integer in them
    assert pickle.dumps(WITH_INTEGERS[check](convert)) == pickle.dumps(WITH_INTEGERS[check](int))


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

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("text", selftest.EXPRESSION_CORPUS)
    def test_certify_at_n_flags_the_points_of_u_at_n_1(self, text, n):
        # certify(f, n) on [a, b] and u = f(t^n) on [a^(1/n), b^(1/n)], point
        # by point: f' <= band where u' <= band, and lhs_ok where u's n = 1
        # lhs_ok, since u' and u'' have the signs of f' and lhs.  A point
        # where either side lies within ``margin`` (relative) of its band may
        # round either way, and is skipped.
        margin = 1e-6

        def near(x, y):
            return np.abs(x - y) <= margin * (np.abs(x) + np.abs(y))

        f = parse(text)
        rep = certify(f, n, GridSpec(1e-2, 1e2))
        rep_u = certify(_substitute_power(f, n), 1, GridSpec(1e-2 ** (1.0 / n), 1e2 ** (1.0 / n)))
        assert len(rep.s) == len(rep_u.s) == 1000
        slope = ~near(rep.fprime, rep.band) & ~near(rep_u.fprime, rep_u.band)
        second = ~near(rep.lhs, -rep.band) & ~near(rep_u.lhs, -rep_u.band)
        assert np.count_nonzero(slope) >= 900 and np.count_nonzero(second) >= 900
        assert np.array_equal(rep.fprime_ok[slope], (rep_u.fprime <= rep_u.band)[slope])
        assert np.array_equal(rep.lhs_ok[second], rep_u.lhs_ok[second])
