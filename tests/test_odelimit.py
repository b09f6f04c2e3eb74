import numpy as np
import pytest

from detconvex import odelimit
from detconvex.certifier import CERTIFIED, GridSpec, certify
from detconvex.errors import DomainError, NonFiniteError, ParameterError
from detconvex.odelimit import (
    CurveTable,
    IvpSpec,
    comparison_check,
    export_family_curves,
    figure_families,
    solve_livp_numeric,
    solve_livp_perturbed,
    y_limit_function,
)
from detconvex.scalarfun import FamilyA, eval_jet

SPEC3 = IvpSpec(xi=1.0, eta=-1.5, n=3)


def y_limit(spec, x):
    """The closed form of the limiting IVP at the float x."""
    return eval_jet(y_limit_function(spec), x).v


def boundary(c, d, n=3):
    """The boundary antiderivative c s^(1/n) + d, the family member a = 0."""
    return FamilyA(a=0.0, c=c, d=d, n=n)


class TestIvpSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IvpSpec(xi=0.0, eta=-1.0)
        with pytest.raises(ParameterError):
            IvpSpec(xi=1.0, eta=0.5)
        with pytest.raises(ParameterError):
            IvpSpec(xi=1.0, eta=-1.0, n=0)

    def test_decay_coefficient(self):
        assert IvpSpec(xi=1.0, eta=-1.0, n=3).q == 2.0 / 3.0
        assert IvpSpec(xi=1.0, eta=-1.0, n=2).q == 0.5


class TestYLimit:
    def test_initial_condition(self):
        assert y_limit(SPEC3, 1.0) == -1.5

    def test_decay_value(self):
        assert abs(y_limit(SPEC3, 8.0) - (-0.375)) <= 1e-15

    def test_zero_eta_identically_zero(self):
        spec = IvpSpec(xi=2.0, eta=0.0, n=3)
        for x in (0.1, 1.0, 50.0):
            assert y_limit(spec, x) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            y_limit(SPEC3, 0.0)

    def test_ode_residual_via_jets(self):
        closed = y_limit_function(SPEC3)
        for x in np.geomspace(1e-2, 1e2, 100):
            jet = eval_jet(closed, float(x))
            assert abs(jet.d1 + 2.0 / (3.0 * x) * jet.v) <= 1e-12 * (1.0 + abs(jet.v))


class TestFLimit:
    def test_passes_through_origin_point(self):
        assert eval_jet(boundary(-3.0, 3.0), 1.0).v == 0.0

    def test_cube_root_decay(self):
        assert eval_jet(boundary(-3.0, 3.0), 8.0).v == -3.0

    def test_constant_solution(self):
        assert eval_jet(boundary(0.0, 5.0), 17.3).v == 5.0

    def test_positive_c_rejected(self):
        with pytest.raises(ParameterError):
            boundary(0.1, 0.0)

    def test_annihilates_differential_operator(self):
        fam = FamilyA(a=0.0, c=-2.0, d=0.7, n=3)
        for s in np.geomspace(1e-2, 1e2, 30):
            jet = eval_jet(fam, float(s))
            assert abs(jet.d2 + 2.0 / (3.0 * s) * jet.d1) <= 1e-12 * (1.0 + abs(jet.d1))

    def test_every_member_certifies(self):
        # the whole boundary family composes convexly with det
        for c, d in ((-3.0, 3.0), (-1.0, 0.0), (0.0, 2.0)):
            rep = certify(FamilyA(a=0.0, c=c, d=d, n=3), 3, GridSpec(1e-3, 1e3, 200))
            assert rep.verdict == CERTIFIED


class TestRk4:
    def test_endpoint_matches_closed_form(self):
        curve = solve_livp_numeric(SPEC3, 8.0, 2000)
        assert abs(curve.ys[-1] - y_limit(SPEC3, 8.0)) <= 1e-6 * 0.375

    def test_half_power_case(self):
        spec = IvpSpec(xi=2.0, eta=-1.0, n=2)
        curve = solve_livp_numeric(spec, 8.0, 2000)
        assert abs(curve.ys[-1] - (-0.5)) <= 1e-6 * 0.5

    def test_all_output_points_track_closed_form(self):
        curve = solve_livp_numeric(SPEC3, 10.0, 1000)
        for x, y in zip(curve.xs, curve.ys):
            exact = y_limit(SPEC3, float(x))
            assert abs(y - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_zero_eta_stays_zero(self):
        spec = IvpSpec(xi=1.0, eta=0.0, n=3)
        curve = solve_livp_numeric(spec, 5.0, 100)
        assert np.array_equal(curve.ys, np.zeros(101))

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            solve_livp_numeric(SPEC3, 0.5, 100)
        with pytest.raises(ParameterError):
            solve_livp_numeric(SPEC3, 8.0, 5)

    def test_curve_has_derivative_column(self):
        curve = solve_livp_numeric(SPEC3, 4.0, 50)
        assert curve.dydx is not None
        assert len(curve.dydx) == 51


class TestComparisonCheck:
    @staticmethod
    def _xs():
        return np.concatenate([np.geomspace(0.1, 1.0, 41), np.geomspace(1.0, 10.0, 41)[1:]])

    def test_limit_curve_is_weak_both(self):
        xs = self._xs()
        ys = np.array([y_limit(SPEC3, float(x)) for x in xs])
        dydx = np.array([SPEC3.rhs(float(x), y) for x, y in zip(xs, ys)])
        rep = comparison_check(CurveTable("limit", {}, xs, ys, dydx), SPEC3)
        assert rep.classification == "weak_sub_and_supersolution"
        assert rep.is_weak_subsolution and rep.is_weak_supersolution
        assert not rep.is_strict_subsolution and not rep.is_strict_supersolution
        assert rep.initial_value_ok
        assert rep.ordering_checked
        assert rep.ordering_violations == ()

    def test_steeper_decay_is_strict_subsolution(self):
        xs = self._xs()
        a = 0.5
        p = 2.0 / 3.0 + a
        ys = SPEC3.eta * xs ** (-p)
        dydx = -p * SPEC3.eta * xs ** (-p - 1.0)
        rep = comparison_check(CurveTable("steep", {"a": a}, xs, ys, dydx), SPEC3)
        assert rep.classification == "strict_subsolution"
        assert rep.ordering_violations == ()
        ylim = rep.y_limit_values
        right = xs > 1.0
        left = xs < 1.0
        assert np.all(ys[right] > ylim[right])
        assert np.all(ys[left] < ylim[left])

    def test_constant_curve_is_strict_supersolution(self):
        xs = self._xs()
        ys = np.full_like(xs, SPEC3.eta)
        dydx = np.zeros_like(xs)
        rep = comparison_check(CurveTable("const", {}, xs, ys, dydx), SPEC3)
        assert rep.classification == "strict_supersolution"
        assert rep.ordering_checked
        assert rep.ordering_violations == ()
        ylim = rep.y_limit_values
        assert np.all(ys[xs > 1.0] < ylim[xs > 1.0])
        assert np.all(ys[xs < 1.0] > ylim[xs < 1.0])

    def test_table_derivative_fallback(self):
        xs = np.geomspace(0.1, 10.0, 4001)
        p = 2.0 / 3.0 + 0.5
        ys = SPEC3.eta * xs ** (-p)
        rep = comparison_check(CurveTable("steep", {}, xs, ys), SPEC3, tol=1e-4)
        assert rep.is_strict_subsolution

    @pytest.mark.parametrize("residual", [1.0, -1.0, 0.0])
    def test_crossing_violations_match_a_per_point_reference(self, residual):
        # y wiggles across y_limit and meets it at xi; the dydx column sets
        # the residual, so the curve is a strict sub- or supersolution (or
        # weakly both) that still crosses.  Two points off xi touch the
        # limit and two sit half the tolerance on its far side.
        xs = self._xs()
        wiggle = 0.01 * np.sin(5.0 * np.log(xs))
        wiggle[[3, -3]] = 0.0
        wiggle[[6, -6]] = (0.5e-8, -0.5e-8)
        ys = eval_jet(y_limit_function(SPEC3), xs).v + wiggle
        dydx = SPEC3.rhs(xs, ys) + residual
        rep = comparison_check(CurveTable("wiggle", {}, xs, ys, dydx), SPEC3)
        assert rep.ordering_checked
        sign = -1.0 if residual < 0 else 1.0
        strict, tol = residual != 0.0, odelimit.CLASSIFY_TOL
        expect = []
        for x, y in zip(xs.tolist(), ys.tolist()):
            yl = y_limit(SPEC3, x)
            diff = sign * (y - yl)
            if x > SPEC3.xi:
                bad = diff <= 0.0 if strict else diff < -tol
            elif x < SPEC3.xi:
                bad = -diff <= 0.0 if strict else -diff < -tol
            else:
                bad = abs(diff) > tol * (1.0 + abs(yl))
            if bad:
                expect.append((x, y, yl))
        assert len(expect) > 10
        assert rep.ordering_violations == tuple(expect)

    def test_xi_outside_range_rejected(self):
        xs = np.geomspace(2.0, 10.0, 20)
        ys = np.zeros(20) - 1.0
        with pytest.raises(ParameterError):
            comparison_check(CurveTable("c", {}, xs, ys, np.zeros(20)), SPEC3)


class TestPerturbedEquation:
    def test_forced_zero_crossing(self):
        curve = solve_livp_perturbed(SPEC3, 0.1, 100.0, 5000)
        crossing = np.flatnonzero(curve.ys >= 0.0)
        assert crossing.size > 0
        x_cross = curve.xs[crossing[0]]
        assert x_cross <= 100.0
        assert abs(x_cross - 7.08) < 0.2

    def test_unperturbed_never_crosses(self):
        curve = solve_livp_numeric(SPEC3, 100.0, 5000)
        assert np.all(curve.ys < 0.0)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            solve_livp_perturbed(SPEC3, 0.1, 0.5, 100)
        with pytest.raises(ParameterError):
            solve_livp_perturbed(SPEC3, 0.1, 8.0, 5)


class TestCurveTable:
    def test_validation(self):
        with pytest.raises(ParameterError):
            CurveTable("bad", {}, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ParameterError):
            CurveTable("bad", {}, np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ParameterError):
            CurveTable("bad", {}, np.array([1.0, 2.0]), np.array([0.0]))

    def test_csv_shape(self):
        t = CurveTable("demo", {"a": 0.5}, np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        lines = t.to_csv().splitlines()
        assert lines[0].startswith("# demo")
        assert "a=0.5" in lines[0]
        assert lines[1] == "x,y"
        assert lines[2] == "1.0,0.5"
        assert len(lines) == 4


class TestFigureCurves:
    def test_standard_members_hit_unit_point_with_unit_slope(self):
        for label, fam in figure_families():
            jet = eval_jet(fam, 1.0)
            assert jet.v == 0.0, label
            assert jet.d1 == -1.0, label

    def test_export_includes_extras(self):
        extra = FamilyA(a=0.9, c=-1.0, d=0.0, n=3)
        curves = export_family_curves([extra], GridSpec(0.05, 8.0, 50))
        assert len(curves) == 5
        assert curves[-1].params["a"] == 0.9

    def test_export_is_deterministic(self):
        a = [c.to_csv() for c in export_family_curves([], GridSpec(0.05, 8.0, 100))]
        b = [c.to_csv() for c in export_family_curves([], GridSpec(0.05, 8.0, 100))]
        assert a == b

    def test_inverse_branch_value(self):
        # the inverted-power curve at s=8: 3*8^(-1/3) - 3 = -1.5
        curves = export_family_curves([], GridSpec(1.0, 8.0, 4))
        inv = curves[3]
        assert abs(inv.ys[-1] - (-1.5)) <= 1e-12

    def test_csv_matches_a_per_point_reference(self):
        # one array evaluation per curve writes the bytes of one float
        # evaluation per point
        extra = FamilyA(a=0.9, c=-1.0, d=0.0, n=3)
        curves = export_family_curves([extra], GridSpec(0.05, 8.0, 2000))
        members = [fam for _, fam in figure_families()] + [extra]
        assert len(curves) == len(members)
        for curve, fam in zip(curves, members):
            header, rest = curve.to_csv().split("\n", 1)
            rows = [f"{float(s)!r},{eval_jet(fam, float(s)).v!r}" for s in curve.xs]
            assert rest == "x,y\n" + "\n".join(rows) + "\n"
            assert curve.xs.tolist() == np.geomspace(0.05, 8.0, 2000).tolist()

    def test_failing_point_raises_its_own_error(self):
        # s^(1/3 - 200) overflows at the small end of the range
        with pytest.raises(NonFiniteError, match="overflow"):
            export_family_curves([FamilyA(a=200.0, c=-1.0, d=0.0, n=3)], GridSpec(1e-3, 8.0, 10))

    def test_rejects_bad_range_and_extras(self):
        # the grid checks the range and count
        with pytest.raises(ParameterError):
            export_family_curves([], GridSpec(0.0, 8.0, 10))
        with pytest.raises(ParameterError):
            export_family_curves(["not a family"], GridSpec(0.05, 8.0, 10))
