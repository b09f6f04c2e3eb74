"""Built-in acceptance suite.

Each check pins a tolerance and a seed, returns a CheckResult, and is run
both by ``detconvex selftest`` and by the pytest acceptance module.  The
checks cross-validate the analytic machinery against independent oracles:
closed forms, finite differences, exact inner-product identities and
brute-force sampling.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from . import certifier, detcalculus, linalg, odelimit, scalarfun
from .certifier import CERTIFIED, KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER, REFUTED, GridSpec
from .odelimit import IvpSpec
from .scalarfun import FamilyA, eval_jet, parse

BASE_SEED = 42


class CheckResult(NamedTuple):
    cid: str
    name: str
    passed: bool
    detail: str


def _result(cid, name, failures, detail):
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        return CheckResult(cid, name, False, shown + more)
    return CheckResult(cid, name, True, detail)


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


# -- 1 ----------------------------------------------------------------------


def check_known_convex():
    """-ln s certifies on the default grid; the inequality equals the
    closed form 1/(3 s^2) at every point to 1e-12 relative."""
    failures = []
    f = parse("-ln(s)")
    rep = certifier.certify(f, n=3, grid=GridSpec(1e-3, 1e3, 1000))
    if rep.verdict != CERTIFIED:
        failures.append(f"verdict {rep.verdict} != {CERTIFIED}")
    s = rep.s
    lhs = certifier.diff_ineq_lhs(f, s, 3)
    closed = 1.0 / (3.0 * s * s)
    err = np.abs(lhs - closed) / closed
    differs = lhs != rep.lhs
    bad = differs | (err > 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        if differs[i]:
            failures.append(f"report lhs differs from diff_ineq_lhs at s={s[i]:.3e}")
        else:
            failures.append(f"lhs mismatch at s={s[i]:.3e}: rel err {err[i]:.2e}")
    worst = float(err.max())
    return _result("c01", "known convex -ln(s)", failures, f"max closed-form rel err {worst:.2e}")


# -- 2 ----------------------------------------------------------------------


def check_necessity_witness_slope():
    """f(s) = s is refuted through the slope witness with its exact
    inner-product identities and fd agreement."""
    failures = []
    rep = certifier.certify(parse("s"), n=3)
    s0 = float(rep.grid.points()[0])
    if rep.verdict != REFUTED:
        failures.append(f"verdict {rep.verdict} != {REFUTED}")
    ws = [w for w in rep.witnesses if w.kind == KIND_POSITIVE_FPRIME]
    if not ws:
        failures.append("no slope witness attached")
        return _result("c02", "slope-necessity witness", failures, "")
    w = ws[0]
    if w.s_star != s0:
        failures.append(f"witness at s={w.s_star}, expected first grid point {s0}")
    inner = linalg.frob_inner(w.c.inverse, w.h)
    cross = linalg.frob_inner(w.h @ w.c.inverse, w.c.inverse @ w.h)
    if inner != 0.0:
        failures.append(f"<C^-1,H> = {inner!r} != 0 exactly")
    if cross != 2.0:
        failures.append(f"<HC^-1,C^-1H> = {cross!r} != 2 exactly")
    if w.analytic_value != -2.0 * w.s_star:
        failures.append(f"analytic {w.analytic_value!r} != -2*s = {-2.0 * w.s_star!r}")
    if not _rel_err(w.fd_value, w.analytic_value) <= 1e-4:
        failures.append(f"fd {w.fd_value!r} disagrees with analytic {w.analytic_value!r}")
    return _result(
        "c02",
        "slope-necessity witness",
        failures,
        f"witness at s={w.s_star:.3e}, analytic {w.analytic_value:.6e}, fd {w.fd_value:.6e}",
    )


# -- 3 ----------------------------------------------------------------------


def check_necessity_witness_second_order():
    """f(s) = -s is refuted through the second-order witness; the diagonal
    condition value at (s=1, k=1) is exactly -6 and fd agrees."""
    failures = []
    f = parse("-s")
    rep = certifier.certify(f, n=3)
    if rep.verdict != REFUTED:
        failures.append(f"verdict {rep.verdict} != {REFUTED}")
    if not any(w.kind == KIND_SECOND_ORDER for w in rep.witnesses):
        failures.append("no second-order witness attached")
    if any(w.kind == KIND_POSITIVE_FPRIME for w in rep.witnesses):
        failures.append("unexpected slope witness for a decreasing function")
    w = certifier.witness_attempt(f, KIND_SECOND_ORDER, 1.0, 3)
    analytic, fd = w.analytic_value, w.fd_value
    val = detcalculus.condition_lhs_diag(f, 1.0 / w.c.eigenvalues, w.h)
    if val != -6.0:
        failures.append(f"diagonal condition value {val!r} != -6 exactly")
    if not _rel_err(fd, analytic) <= 1e-4:
        failures.append(f"fd {fd!r} disagrees with analytic {analytic!r}")
    return _result(
        "c03",
        "second-order-necessity witness",
        failures,
        f"diag condition -6 exact, analytic {analytic:.6e}, fd {fd:.6e}",
    )


# -- 4 ----------------------------------------------------------------------


def check_family_end_to_end():
    """Every sampled family member certifies on the grid and survives a
    200-sample quadratic-form sweep above -1e-8."""
    failures = []
    mins = []
    for a in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 2.0):
        f = FamilyA(a=a, c=-1.0, d=0.0, n=3)
        rep = certifier.certify(f, n=3)
        if rep.verdict != CERTIFIED:
            failures.append(f"a={a}: verdict {rep.verdict}")
            continue
        diag = certifier.sample_convexity(f, 3, 200, seed=BASE_SEED + int(1000 * a))
        mins.append(diag.min_hess_form)
        if diag.min_hess_form < -1e-8:
            failures.append(f"a={a}: min quadratic form {diag.min_hess_form:.3e} < -1e-8")
    return _result(
        "c04",
        "family end-to-end",
        failures,
        f"all certified; overall min quadratic form {min(mins):.3e}" if mins else "",
    )


# -- 5 ----------------------------------------------------------------------


def check_oracle_equivalence():
    """Analytic Hessian and gradient forms track finite differences over
    1000 random draws per dimension."""
    failures = []
    details = []
    for n in (2, 3, 5):
        res = detcalculus.oracle_sweep(n, 1000, seed=BASE_SEED + n)
        details.append(f"n={n}: hess {res.max_hess_disc:.2e}, grad {res.max_grad_disc:.2e}")
        for name, disc, tol in (
            ("hess", res.max_hess_disc, detcalculus.ORACLE_HESS_TOL),
            ("grad", res.max_grad_disc, detcalculus.ORACLE_GRAD_TOL),
        ):
            if disc > tol:
                failures.append(f"n={n}: {name} discrepancy {disc:.3e} > {tol:g}")
        if res.skipped:
            failures.append(f"n={n}: {res.skipped} samples skipped")
    return _result("c05", "oracle equivalence", failures, "; ".join(details))


# -- 6 ----------------------------------------------------------------------


def check_identity_suite():
    """The solve kernel ``hess_terms`` gives <C^-1,H> and <HC^-1, C^-1H>
    of the explicit inverse Q diag(1/eig) Q^T to 1e-12; for -ln the
    quadratic form collapses to <HC^-1, C^-1H>."""
    failures = []
    neg_log = scalarfun.LogFamily(c=-1.0, d=0.0)
    worst_kernel = 0.0
    worst_log = 0.0
    for n in (2, 3, 5):
        c, h = linalg.random_pairs(n, BASE_SEED + 60 + n, 1000)
        inner, cross = detcalculus.hess_terms(c, h)
        eigenvalues, q = np.linalg.eigh(c)
        c_inv = (q / eigenvalues[:, None, :]) @ q.swapaxes(-1, -2)
        ref_inner = np.sum(c_inv * h, axis=(-2, -1))
        ref_cross = np.sum((h @ c_inv) * (c_inv @ h), axis=(-2, -1))
        err = np.maximum(_rel_err(inner, ref_inner), _rel_err(cross, ref_cross))
        s = np.linalg.det(c)
        log_hess = detcalculus.g_hess_form(eval_jet(neg_log, s), s, inner, cross)
        err_log = _rel_err(log_hess, ref_cross)
        worst_kernel = max(worst_kernel, float(err.max()))
        worst_log = max(worst_log, float(err_log.max()))
        for i in np.flatnonzero(~(err <= 1e-12))[:1]:
            failures.append(f"n={n} sample {i}: kernel vs inverse rel err {err[i]:.3e}")
        for i in np.flatnonzero(~(err_log <= 1e-10))[:1]:
            failures.append(f"n={n} sample {i}: -ln collapse rel err {err_log[i]:.3e}")
    return _result(
        "c06",
        "identity suite",
        failures,
        f"max kernel err {worst_kernel:.2e}, max -ln collapse err {worst_log:.2e}",
    )


# -- 7 ----------------------------------------------------------------------


def sigma_draws(n: int):
    """The 10^4 (P, A) pairs of the sigma suite at dimension n as stacks,
    from one PCG64 stream: per pair, the diagonal of P uniform in [0, 2),
    then A row-major uniform in [-1, 1), each as lo + (hi - lo) * random()
    like ``Generator.uniform``."""
    u = np.random.Generator(np.random.PCG64(BASE_SEED + 70 + n)).random((10_000, n + n * n))
    p = (0.0 + 2.0 * u[:, :n])[:, :, None] * np.eye(n)
    return p, -1.0 + 2.0 * u[:, n:].reshape(-1, n, n)


def check_sigma_suite():
    """Diagonal-projection identities and the Cauchy-Schwarz link hold over
    10^4 random (P, A) per dimension, with equality at P = A = I."""
    failures = []
    worst_gap1 = np.inf
    worst_gap2 = np.inf
    for n in (2, 3, 5):
        p, a = sigma_draws(n)
        sigma, sigma_tilde, pa_ap = certifier.sigma_checks(p, a)
        exact = sigma == np.sum(p * (a * np.eye(n)), axis=(-2, -1))
        gap1 = pa_ap - sigma_tilde
        gap2 = n * sigma_tilde - sigma * sigma
        worst_gap1 = min(worst_gap1, float(gap1.min()))
        worst_gap2 = min(worst_gap2, float(gap2.min()))
        for i in np.flatnonzero(~exact | (gap1 < -1e-10) | (gap2 < -1e-10))[:1]:
            failures.append(
                f"n={n} sample {i}: sigma == <P, diag A> {exact[i]}, "
                f"<PA,AP> - sigma~ = {gap1[i]:.3e}, n sigma~ - sigma^2 = {gap2[i]:.3e}"
            )
        eye = np.eye(n)
        sigma, sigma_tilde, pa_ap = certifier.sigma_checks(eye, eye)
        if not (sigma == float(n) and sigma_tilde == float(n) and pa_ap == float(n)):
            failures.append(f"n={n}: identity case gave {(sigma, sigma_tilde, pa_ap)}")
        if sigma * sigma != n * sigma_tilde:
            failures.append(f"n={n}: equality case sigma^2 != n sigma~")
    return _result(
        "c07",
        "diagonal-projection suite",
        failures,
        f"min slack: cross {worst_gap1:.2e}, cauchy-schwarz {worst_gap2:.2e}",
    )


# -- 8 ----------------------------------------------------------------------


def check_reduction_suite():
    """Full-basis and eigenbasis condition values agree to 1e-9 over 10^3
    random cases per dimension; sample i takes corpus member i % 7."""
    failures = []
    worst = 0.0
    for n in (2, 3, 5):
        c, h = linalg.random_pairs(n, BASE_SEED + 80 + n, 1000)
        corpus = detcalculus.builtin_corpus(n)
        m = len(corpus)
        for k, f in enumerate(corpus):
            full, reduced = certifier.reduction_check(f, c[k::m], h[k::m])
            err = np.abs(full - reduced) / np.maximum(1.0, np.abs([full, reduced]).max(axis=0))
            worst = max(worst, float(err.max()))
            for j in np.flatnonzero(~(err <= 1e-9))[:1]:
                failures.append(
                    f"n={n} sample {k + m * j}: full {full[j]:.6e} vs reduced {reduced[j]:.6e}"
                )
    return _result("c08", "diagonalization reduction suite", failures, f"max rel gap {worst:.2e}")


# -- 9 ----------------------------------------------------------------------


def check_ode_suite():
    """RK4 endpoints match the closed form; the closed form satisfies the
    ODE residual to 1e-12."""
    failures = []
    spec3 = IvpSpec(xi=1.0, eta=-1.5, n=3)
    curve = odelimit.solve_livp_numeric(spec3, 8.0, 2000)
    closed = odelimit.y_limit_function(spec3)
    target = eval_jet(closed, 8.0).v
    err3 = abs(curve.ys[-1] - target) / abs(target)
    if err3 > 1e-6:
        failures.append(f"n=3 endpoint rel err {err3:.3e} > 1e-6")
    spec2 = IvpSpec(xi=2.0, eta=-1.0, n=2)
    curve2 = odelimit.solve_livp_numeric(spec2, 8.0, 2000)
    err2 = abs(curve2.ys[-1] - (-0.5)) / 0.5
    if err2 > 1e-6:
        failures.append(f"n=2 endpoint {curve2.ys[-1]!r} vs -0.5: rel err {err2:.3e}")
    xs = np.geomspace(1e-2, 1e2, 100)
    jet = eval_jet(closed, xs)
    res = np.abs(jet.d1 + (2.0 / (3.0 * xs)) * jet.v)
    bound = 1e-12 * (1.0 + np.abs(jet.v))
    worst_res = float(np.max(res / bound * 1e-12))
    for i in np.flatnonzero(~(res <= bound))[:1]:
        failures.append(f"ODE residual {res[i]:.3e} at x={xs[i]:.3e}")
    return _result(
        "c09",
        "ode suite",
        failures,
        f"endpoint rel errs {err3:.2e} / {err2:.2e}, max residual {worst_res:.2e}",
    )


# -- 10 ---------------------------------------------------------------------


def check_comparison_ordering():
    """Strict subsolutions stay above the closed form right of xi and below
    it left of xi; an additive perturbation forces a zero crossing."""
    failures = []
    spec = IvpSpec(xi=1.0, eta=-1.5, n=3)
    xs = np.concatenate([np.geomspace(0.1, 1.0, 51), np.geomspace(1.0, 10.0, 51)[1:]])
    for a in (0.1, 0.5, 1.0):
        p = 2.0 / 3.0 + a
        ys = spec.eta * xs ** (-p)
        dydx = -p * spec.eta * xs ** (-p - 1.0)
        curve = odelimit.CurveTable(label=f"y_a a={a}", params={"a": a}, xs=xs, ys=ys, dydx=dydx)
        rep = odelimit.comparison_check(curve, spec)
        if not rep.is_strict_subsolution:
            failures.append(f"a={a}: classified {rep.classification}")
        if not rep.ordering_checked or rep.ordering_violations:
            failures.append(f"a={a}: {len(rep.ordering_violations)} ordering violations")
        y_at_xi = ys[np.argmin(np.abs(xs - 1.0))]
        if y_at_xi != spec.eta:
            failures.append(f"a={a}: y(1) = {y_at_xi!r} != eta")
        for x, y, yl in zip(xs, ys, rep.y_limit_values):
            if x > 1.0 and not y > yl:
                failures.append(f"a={a}: y({x}) = {y} not above limit {yl}")
                break
            if x < 1.0 and not y < yl:
                failures.append(f"a={a}: y({x}) = {y} not below limit {yl}")
                break
    pert = odelimit.solve_livp_perturbed(spec, 0.1, 100.0, 5000)
    crossing = np.flatnonzero(pert.ys >= 0.0)
    if crossing.size == 0:
        failures.append("perturbed solution never crossed zero by x=100")
        cross_x = float("nan")
    else:
        cross_x = float(pert.xs[crossing[0]])
    return _result(
        "c10",
        "comparison ordering",
        failures,
        f"orderings strict for a in (0.1, 0.5, 1); perturbed crossing at x={cross_x:.3f}",
    )


# -- 11 ---------------------------------------------------------------------


def check_figure_reproduction():
    """All four figure curves pass through (1, 0) with slope -1; CSV export
    is deterministic."""
    failures = []
    for label, fam in odelimit.figure_families():
        jet = eval_jet(fam, 1.0)
        if abs(jet.v) > 1e-12:
            failures.append(f"{label}: value at 1 is {jet.v!r}")
        if abs(jet.d1 + 1.0) > 1e-12:
            failures.append(f"{label}: slope at 1 is {jet.d1!r}")
    grid = GridSpec(0.05, 8.0, 200)
    first = [c.to_csv() for c in odelimit.export_family_curves([], grid)]
    second = [c.to_csv() for c in odelimit.export_family_curves([], grid)]
    if first != second:
        failures.append("CSV export not deterministic")
    return _result("c11", "figure reproduction", failures, "four curves hit (1,0) with slope -1")


# -- 12 ---------------------------------------------------------------------

# kept clear of the oracle's own truncation floor: with the pinned step
# h = 1e-5 * max(1, s), members like 1/s or s^s sit exactly at the 1e-6
# first-derivative bound near the range ends, so gentler variants stand in
EXPRESSION_CORPUS = (
    "s",
    "-ln(s)",
    "s^2 - 3*s + 1",
    "exp(-s)",
    "sqrt(s)",
    "s/(1+s^2)",
    "s^(1/3)",
    "2^s",
    "s^(s/100)",
    "ln(s+1)",
    "exp(s)/(1+s^2)",
    "(s-2)*(s+3)",
    "sqrt(s^2+1)",
    "ln(exp(s))",
    "-3*s^(1/3)+3",
    "3*s^(-1/3)-3",
    "(1+s)^(1/2)*exp(-s/2)",
    "ln(1+s)/(1+s)",
    "s^2*exp(-s)",
    "1 - s + s",
)


def check_parser_ad():
    """Jet derivatives of a 20-expression corpus track central differences;
    precedence and associativity contracts hold exactly."""
    failures = []
    worst_d1 = 0.0
    worst_d2 = 0.0
    s = np.geomspace(1e-2, 1e2, 50)
    h = 1e-5 * np.maximum(1.0, s)
    for text in EXPRESSION_CORPUS:
        expr = parse(text)
        jet = eval_jet(expr, s)
        vp = eval_jet(expr, s + h).v
        vm = eval_jet(expr, s - h).v
        fd1 = (vp - vm) / (2.0 * h)
        fd2 = (vp - 2.0 * jet.v + vm) / (h * h)
        e1 = np.abs(jet.d1 - fd1) / np.maximum(1.0, np.abs(jet.d1))
        e2 = np.abs(jet.d2 - fd2) / np.maximum(1.0, np.abs(jet.d2))
        worst_d1 = max(worst_d1, float(e1.max()))
        worst_d2 = max(worst_d2, float(e2.max()))
        for i in np.flatnonzero(~(e1 <= 1e-6) | ~(e2 <= 1e-4))[:1]:
            which, err = ("d1", e1[i]) if not e1[i] <= 1e-6 else ("d2", e2[i])
            failures.append(f"{text!r} at s={s[i]:.3e}: {which} err {err:.3e}")
    for s in (0.5, 2.0, 4.0):
        if eval_jet(parse("2^3^2"), s).v != 512.0:
            failures.append(f"2^3^2 not right-associative at s={s}")
        if eval_jet(parse("1 - s + s"), s).v != 1.0:
            failures.append(f"1 - s + s not left-associative at s={s}")
    return _result(
        "c12",
        "parser and jet derivatives",
        failures,
        f"max fd errs: d1 {worst_d1:.2e}, d2 {worst_d2:.2e}",
    )


ALL_CHECKS = (
    check_known_convex,
    check_necessity_witness_slope,
    check_necessity_witness_second_order,
    check_family_end_to_end,
    check_oracle_equivalence,
    check_identity_suite,
    check_sigma_suite,
    check_reduction_suite,
    check_ode_suite,
    check_comparison_ordering,
    check_figure_reproduction,
    check_parser_ad,
)


def run_selftest(stream=None) -> int:
    """Run every acceptance check, print one PASS/FAIL line each; exit
    status 0 only if all pass."""
    stream = stream or sys.stdout
    all_ok = True
    for fn in ALL_CHECKS:
        try:
            res = fn()
        except Exception as e:  # a crashed check is a failed check
            res = CheckResult(fn.__name__, fn.__name__, False, f"raised {type(e).__name__}: {e}")
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.cid} {res.name}: {res.detail}", file=stream)
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1
