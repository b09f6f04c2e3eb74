"""The batched self-test checks against the per-point loops they
replaced, and on the faults they are there to catch: a NaN from one
sample or point, and a kernel off by 1e-11."""

import numpy as np
import pytest

from detconvex import certifier, detcalculus, selftest
from detconvex.certifier import GridSpec
from detconvex.scalarfun import Jet2, eval_jet, family, parse


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
    "check",
    [selftest.check_integrating_factor, selftest.check_phi_ordering, selftest.check_parser_ad],
    ids=["c09", "c10", "c12"],
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


def test_integrating_factor_matches_the_per_point_loop():
    worst = 0.0
    for n in (2, 3, 5):
        q = (n - 1) / n
        for f in detcalculus.builtin_corpus(n):
            for s in selftest.PHI_GRID.tolist():
                h = 1e-5 * s
                exact = s**q * certifier.diff_ineq_lhs(f, s, n)
                phi_p = (s + h) ** q * eval_jet(f, s + h).d1
                phi_m = (s - h) ** q * eval_jet(f, s - h).d1
                fd = (phi_p - phi_m) / (2.0 * h)
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    closed = family("power", c=-1.5, p=-2.0 / 3.0)
    worst_res = 0.0
    for x in np.geomspace(1e-2, 1e2, 100).tolist():
        jet = eval_jet(closed, x)
        worst_res = max(worst_res, abs(jet.d1 + (2.0 / 3.0 / x) * jet.v) / (1.0 + abs(jet.v)))
    want = f"max phi' rel err {worst:.2e}, phi = const residual {worst_res:.2e}"
    assert selftest.check_integrating_factor().detail == want


@pytest.mark.parametrize(
    "rule",
    [
        lambda jet, s, n, rule: rule(jet, s, n) * (1.0 + 1e-6),
        # the exponent of the slope term's weight, q = (n-1)/n, read as 1/n
        lambda jet, s, n, rule: jet.d2 + (1.0 / (n * s)) * jet.d1,
    ],
    ids=["scaled", "one-over-n"],
)
def test_integrating_factor_fails_off_the_lhs_rule(monkeypatch, rule):
    lhs_from_jet = certifier._lhs_from_jet
    monkeypatch.setattr(
        certifier, "_lhs_from_jet", lambda jet, s, n: rule(jet, s, n, lhs_from_jet)
    )
    result = selftest.check_integrating_factor()
    assert not result.passed
    assert "phi' rel err" in result.detail


def test_phi_ordering_counts_the_cells_and_the_crossing():
    # all 199 cells of 17 of the 21 (member, n) pairs: lhs is 0 for
    # family:fa:a=0 at its own n and for -s^0.5 at n = 2
    result = selftest.check_phi_ordering()
    assert result.passed
    assert result.detail == (
        "3383 cells, phi moves with the sign of lhs; forced crossing at x=7.0629"
    )


def test_phi_ordering_fails_on_a_negated_lhs(monkeypatch):
    rule = certifier._lhs_from_jet
    monkeypatch.setattr(certifier, "_lhs_from_jet", lambda jet, s, n: -rule(jet, s, n))
    result = selftest.check_phi_ordering()
    assert not result.passed
    neo_hooke = "Mul(left=Constant(value=-1.0), right=Ln(arg=Variable()))"
    assert result.detail.startswith(f"n=2 {neo_hooke} on [1.000e-02, 1.047e-02]")


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
