"""The batched self-test checks against the per-point loops they
replaced, and on the faults they are there to catch: a NaN from one
sample or point, and a kernel off by 1e-11."""

import numpy as np
import pytest

from detconvex import certifier, detcalculus, odelimit, selftest
from detconvex.certifier import GridSpec
from detconvex.odelimit import IvpSpec
from detconvex.scalarfun import Jet2, eval_jet, parse


def _nan_at_row_3(x):
    x = np.array(x, dtype=float)
    x[3] = np.nan
    return x


@pytest.mark.parametrize(
    "check, first",
    [
        (selftest.check_identity_suite, "n=2 sample 3:"),
        # c08 first passes rows 0::7, for corpus member 0: its row 3 is sample 21
        (selftest.check_reduction_suite, "n=2 sample 21:"),
    ],
    ids=["c06", "c08"],
)
def test_nan_from_the_kernel_fails(monkeypatch, check, first):
    kernel = detcalculus.hess_terms

    def planted(c, h):
        inner, cross = kernel(c, h)
        return (_nan_at_row_3(inner), cross) if np.ndim(inner) else (inner, cross)

    monkeypatch.setattr(detcalculus, "hess_terms", planted)
    result = check()
    assert not result.passed
    assert result.detail.startswith(first)


@pytest.mark.parametrize(
    "check", [selftest.check_ode_suite, selftest.check_parser_ad], ids=["c09", "c12"]
)
def test_nan_from_the_evaluator_fails(monkeypatch, check):
    def planted(f, s):
        jet = eval_jet(f, s)
        return Jet2(*map(_nan_at_row_3, jet)) if np.ndim(s) else jet

    monkeypatch.setattr(selftest, "eval_jet", planted)
    result = check()
    assert not result.passed
    assert "nan" in result.detail


def test_identity_suite_reads_the_kernel(monkeypatch):
    # the -ln collapse takes its terms from the kernel too, so only the
    # explicit inverse can see a kernel error
    kernel = detcalculus.hess_terms
    monkeypatch.setattr(
        detcalculus, "hess_terms", lambda c, h: tuple(x * (1.0 + 1e-11) for x in kernel(c, h))
    )
    result = selftest.check_identity_suite()
    assert not result.passed
    assert "kernel vs inverse rel err" in result.detail


C01_GRID = GridSpec(1e-3, 1e3, 1000).points()


def test_known_convex_matches_the_per_point_loop():
    f = parse("-ln(s)")
    worst = 0.0
    for s in C01_GRID.tolist():
        closed = 1.0 / (3.0 * s * s)
        worst = max(worst, abs(certifier.diff_ineq_lhs(f, s, 3) - closed) / closed)
    result = selftest.check_known_convex()
    assert result.passed
    assert result.detail == f"max closed-form rel err {worst:.2e}"


def test_known_convex_fails_on_a_point_off_the_report(monkeypatch):
    lhs = certifier.diff_ineq_lhs

    def planted(f, s, n):
        out = np.array(lhs(f, s, n))
        out[3] = np.nextafter(out[3], np.inf)
        return out

    monkeypatch.setattr(certifier, "diff_ineq_lhs", planted)
    result = selftest.check_known_convex()
    assert not result.passed
    assert result.detail == f"report lhs differs from diff_ineq_lhs at s={C01_GRID[3]:.3e}"


def test_known_convex_fails_off_the_closed_form(monkeypatch):
    # the report and diff_ineq_lhs share the rule, so they still agree
    rule = certifier._lhs_from_jet
    monkeypatch.setattr(
        certifier, "_lhs_from_jet", lambda jet, s, n: rule(jet, s, n) * (1.0 + 1e-9)
    )
    result = selftest.check_known_convex()
    assert not result.passed
    assert result.detail == f"lhs mismatch at s={C01_GRID[0]:.3e}: rel err 1.00e-09"


def test_ode_suite_matches_the_per_point_loop():
    closed = odelimit.y_limit_function(IvpSpec(xi=1.0, eta=-1.5, n=3))
    worst_res = 0.0
    for x in np.geomspace(1e-2, 1e2, 100).tolist():
        jet = eval_jet(closed, x)
        res = abs(jet.d1 + (2.0 / (3.0 * x)) * jet.v)
        worst_res = max(worst_res, res / (1e-12 * (1.0 + abs(jet.v))) * 1e-12)
    assert selftest.check_ode_suite().detail.endswith(f", max residual {worst_res:.2e}")


def test_parser_ad_matches_the_per_point_loop():
    worst_d1 = worst_d2 = 0.0
    for text in selftest.EXPRESSION_CORPUS:
        expr = parse(text)
        for s in np.geomspace(1e-2, 1e2, 50).tolist():
            h = 1e-5 * max(1.0, s)
            jet = eval_jet(expr, s)
            vp, vm = eval_jet(expr, s + h).v, eval_jet(expr, s - h).v
            fd1 = (vp - vm) / (2.0 * h)
            fd2 = (vp - 2.0 * jet.v + vm) / (h * h)
            worst_d1 = max(worst_d1, abs(jet.d1 - fd1) / max(1.0, abs(jet.d1)))
            worst_d2 = max(worst_d2, abs(jet.d2 - fd2) / max(1.0, abs(jet.d2)))
    want = f"max fd errs: d1 {worst_d1:.2e}, d2 {worst_d2:.2e}"
    assert selftest.check_parser_ad().detail == want
