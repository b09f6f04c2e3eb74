"""Built-in acceptance suite.

Each check pins a tolerance and a seed, returns a CheckResult, and is run
both by ``detconvex selftest`` and by the pytest acceptance module.  The
checks cross-validate the analytic machinery against independent oracles:
closed forms, finite differences, exact inner-product identities and
brute-force sampling.

The kernels of the paper's two lemmas, the diagonal-projection
inequalities (``sigma_checks``, c07) and the reduction to C's eigenbasis
(``reduction_check``, ``condition_lhs_diag``, ``diag_terms``; c03, c08),
are the suite's own: they take its well-formed draws unchecked.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import certifier, detcalculus, linalg, scalarfun
from .certifier import CERTIFIED, KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER, REFUTED, GridSpec
from .scalarfun import Add, eval_jet, family, parse

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
    inner-product identities, its form -2 s f'(s) at the grid's s, and
    a three-point gap below its rounding bound."""
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
    # C^-1 H by division, exact for C = r I
    x = w.h / np.diag(w.c)[:, None]
    inner = float(x.trace())
    cross = float(np.sum(x * x.T))
    if inner != 0.0:
        failures.append(f"<C^-1,H> = {inner!r} != 0 exactly")
    if cross != 2.0:
        failures.append(f"<HC^-1,C^-1H> = {cross!r} != 2 exactly")
    expect = -2.0 * s0 * float(eval_jet(parse("s"), s0).d1)
    if w.analytic_value != expect:
        failures.append(f"analytic {w.analytic_value!r} != -2 s f'(s) = {expect!r}")
    if w.confirmed_by != certifier.BY_GAP or not w.gap < -w.gap_bound:
        failures.append(f"confirmed by {w.confirmed_by}, gap {w.gap!r}, bound {w.gap_bound!r}")
    return _result(
        "c02",
        "slope-necessity witness",
        failures,
        f"witness at s={w.s_star:.3e}, analytic {w.analytic_value:.6e}, gap {w.gap:.6e} at tau={w.tau}",
    )


# -- 3 ----------------------------------------------------------------------


def diag_terms(d, h):
    """``detcalculus.hess_terms`` at C = diag(1/d) without a solve, d of
    shape (..., n): <D^-1,H> = sum_i d_i h_ii and <D^-1 H, H D^-1> =
    sum_ij d_i d_j h_ij^2, as tr X and sum(X * X^T) of X = D^-1 H,
    X_ij = d_i h_ij."""
    x = d[..., :, None] * h
    return x.trace(axis1=-2, axis2=-1), (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))


def condition_lhs_diag(f, dvec, h):
    """Diagonal normal form of the convexity condition for one pair or for
    stacks: the array ``dvec`` of shape (..., n) holds the diagonal of D^-1
    (positive reciprocal eigenvalues), the array ``h`` has shape
    (..., n, n).  With s = 1/prod(dvec) the returned value is

        (f''(s) + f'(s)/s) <D^-1,H>^2 - (f'(s)/s) <D^-1 H, H D^-1>

    with the sums of ``diag_terms``.  It equals condition_bracket / det C
    after rotating H into the eigenbasis, and takes no solve, so it stays
    a check on the kernel ``hess_terms``.
    """
    s = 1.0 / np.prod(dvec, axis=-1)
    jet = eval_jet(f, s)
    inner, cross = diag_terms(dvec, h)
    return (jet.d2 + jet.d1 / s) * inner * inner - (jet.d1 / s) * cross


def check_necessity_witness_second_order():
    """f(s) = -s is refuted through the second-order witness; the diagonal
    condition value at (s=1, k=1) is exactly -6, and so is the form, and
    a three-point gap confirms it."""
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
    val = condition_lhs_diag(f, 1.0 / np.diag(w.c), w.h)
    if val != -6.0 or w.analytic_value != -6.0:
        failures.append(f"diagonal condition value {val!r}, form {w.analytic_value!r} != -6 exactly")
    if w.confirmed_by != certifier.BY_GAP:
        failures.append(f"confirmed by {w.confirmed_by}, not by its gap")
    return _result(
        "c03",
        "second-order-necessity witness",
        failures,
        f"diag condition -6 exact, gap {w.gap:.6e} at tau={w.tau}",
    )


# -- 4 ----------------------------------------------------------------------


def check_family_end_to_end():
    """Every sampled family member certifies, which no failure on the grid
    or beyond it allows, and a 200-sample midpoint sweep finds none."""
    failures = []
    samples = 0
    for a in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 2.0):
        f = family("fa", a=a, c=-1.0, d=0.0)
        rep = certifier.certify(f, n=3, samples=200, seed=BASE_SEED + int(1000 * a))
        if rep.verdict != CERTIFIED:
            failures.append(f"a={a}: verdict {rep.verdict}")
            continue
        diag = rep.diagnostics
        samples += diag.samples_run
        if diag.midpoint_failures:
            failures.append(f"a={a}: {diag.midpoint_failures} midpoint failures in the sweep")
    return _result(
        "c04",
        "family end-to-end",
        failures,
        f"all certified; no beyond-grid or midpoint failure over {samples} samples",
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
    neg_log = family("log", c=-1.0, d=0.0)
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


def sigma_checks(p, a):
    """(sigma, sigma_tilde, pa_ap) for diagonal P >= 0 and general A, as
    floats for one pair of n x n arrays and as arrays for (N, n, n)
    stacks of pairs.

    sigma   = <P, A>            (equals <P, diag A> exactly)
    sigma~  = <P diagA, diagA P>
    pa_ap   = <PA, AP> = sum_i p_i^2 a_ii^2 + sum_{i != k} p_i p_k a_ik^2

    The suite asserts pa_ap >= sigma~ and sigma^2 <= n * sigma~ up to an
    additive 1e-10 slack.
    """
    eye = np.eye(p.shape[-1], dtype=bool)
    diag_a = np.where(eye, a, 0.0)
    # the trace inner products sum(X * Y), per pair: P is diagonal, so
    # every matrix product is exact
    sums = tuple(
        np.add.reduce(x * y, axis=(-2, -1))
        for x, y in ((p, a), (p @ diag_a, diag_a @ p), (p @ a, a @ p))
    )
    return tuple(map(float, sums)) if p.ndim == 2 else sums


def check_sigma_suite():
    """Diagonal-projection identities and the Cauchy-Schwarz link hold over
    10^4 random (P, A) per dimension, with equality at P = A = I."""
    failures = []
    worst_gap1 = np.inf
    worst_gap2 = np.inf
    for n in (2, 3, 5):
        p, a = sigma_draws(n)
        sigma, sigma_tilde, pa_ap = sigma_checks(p, a)
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
        sigma, sigma_tilde, pa_ap = sigma_checks(eye, eye)
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


def reduction_check(f, c, h):
    """Full-basis versus eigenbasis evaluation of the convexity condition
    for one pair (C, H) of n x n arrays or for (N, n, n) stacks of pairs.
    f is an expression or a sequence of them, as ``eval_jet`` takes it.

    Returns (full, reduced): full is ``condition_bracket`` over
    ``hess_terms`` at s = det C, divided by s; reduced evaluates
    ``condition_lhs_diag`` on Q^T H Q with C = Q diag(eig) Q^T from
    ``np.linalg.eigh``.  The two agree up to eigensolver accuracy."""
    s = np.linalg.det(c)
    inner, cross = detcalculus.hess_terms(c, h)
    full = detcalculus.condition_bracket(eval_jet(f, s), s, inner, cross) / s
    eigenvalues, q = np.linalg.eigh(c)
    reduced = condition_lhs_diag(f, 1.0 / eigenvalues, np.swapaxes(q, -1, -2) @ h @ q)
    return full, reduced


def check_reduction_suite():
    """Full-basis and eigenbasis condition values agree to 1e-9 over 10^3
    random cases per dimension; by ``eval_jet``'s rule, sample i takes
    corpus member i % 7."""
    failures = []
    worst = 0.0
    for n in (2, 3, 5):
        c, h = linalg.random_pairs(n, BASE_SEED + 80 + n, 1000)
        full, reduced = reduction_check(detcalculus.builtin_corpus(n), c, h)
        err = np.abs(full - reduced) / np.maximum(1.0, np.abs([full, reduced]).max(axis=0))
        worst = max(worst, float(err.max()))
        for j in np.flatnonzero(~(err <= 1e-9))[:1]:
            failures.append(f"n={n} sample {j}: full {full[j]:.6e} vs reduced {reduced[j]:.6e}")
    return _result("c08", "diagonalization reduction suite", failures, f"max rel gap {worst:.2e}")


# -- 9 ----------------------------------------------------------------------

# Both checks below read phi(s) = s^q f'(s), q = (n-1)/n: since
# phi' = s^q lhs, the condition lhs >= 0, f' <= 0 says phi is nondecreasing
# and nonpositive, and the limiting equation y' + (q/x) y = 0 of the
# slope y = f' is phi = const.
PHI_GRID = np.geomspace(1e-2, 1e2, 200)


def check_integrating_factor():
    """A central difference of phi (step 1e-5 s) matches s^q lhs to 1e-6
    over the built-in corpus at n = 2, 3, 5; the phi = const solution
    eta xi^q x^(-q) has ODE residual within 1e-12."""
    failures = []
    s = PHI_GRID
    h = 1e-5 * s
    worst = 0.0
    for n in (2, 3, 5):
        q = (n - 1) / n
        for f in detcalculus.builtin_corpus(n):
            exact = s**q * certifier.diff_ineq_lhs(f, s, n)
            phi_p = (s + h) ** q * eval_jet(f, s + h).d1
            phi_m = (s - h) ** q * eval_jet(f, s - h).d1
            err = _rel_err((phi_p - phi_m) / (2.0 * h), exact)
            worst = max(worst, float(err.max()))
            for i in np.flatnonzero(~(err <= 1e-6))[:1]:
                failures.append(f"n={n} {f!r} at s={s[i]:.3e}: phi' rel err {err[i]:.2e}")
    xi, eta, q = 1.0, -1.5, 2.0 / 3.0
    xs = np.geomspace(1e-2, 1e2, 100)
    jet = eval_jet(family("power", c=eta * xi**q, p=-q), xs)
    res = np.abs(jet.d1 + (q / xs) * jet.v) / (1.0 + np.abs(jet.v))
    worst_res = float(res.max())
    for i in np.flatnonzero(~(res <= 1e-12))[:1]:
        failures.append(f"ODE residual {res[i]:.3e} at x={xs[i]:.3e}")
    return _result(
        "c09",
        "integrating factor",
        failures,
        f"max phi' rel err {worst:.2e}, phi = const residual {worst_res:.2e}",
    )


# -- 10 ---------------------------------------------------------------------


def check_phi_ordering():
    """On every grid cell whose two ends have lhs of one sign beyond the
    band 1e-8 (|f''| + |f'|/s), phi moves with that sign.  The forced
    equation y' = -q y/x + eps, y(xi) = eta, has the closed form
    x^q y = xi^q eta + eps (x^(q+1) - xi^(q+1))/(q+1) and crosses zero at
    x* = (xi^(q+1) - (q+1) xi^q eta/eps)^(1/(q+1)), so a positive forcing
    does not keep the slope admissible."""
    failures = []
    s = PHI_GRID
    cells = 0
    for n in (2, 3, 5):
        q = (n - 1) / n
        for f in detcalculus.builtin_corpus(n):
            jet = eval_jet(f, s)
            lhs = certifier.diff_ineq_lhs(f, s, n)
            sign = np.sign(lhs)
            # a NaN end clears the band and has the sign of no move
            clear = ~(np.abs(lhs) <= 1e-8 * (np.abs(jet.d2) + np.abs(jet.d1) / s))
            cell = clear[:-1] & clear[1:] & ~(sign[:-1] == -sign[1:])
            move = np.diff(s**q * jet.d1)
            cells += int(cell.sum())
            for i in np.flatnonzero(cell & ~(np.sign(move) == sign[:-1]))[:1]:
                failures.append(
                    f"n={n} {f!r} on [{s[i]:.3e}, {s[i + 1]:.3e}]: phi moves by "
                    f"{move[i]:.2e}, lhs {lhs[i]:.2e}"
                )
    xi, eta, eps, q = 1.0, -1.5, 0.1, 2.0 / 3.0
    # y = a x^(-q) + b x
    b = eps / (q + 1.0)
    a = xi**q * eta - b * xi ** (q + 1.0)
    forced = Add(family("power", c=a, p=-q), family("power", c=b, p=1.0))
    x_star = (xi ** (q + 1.0) - (q + 1.0) * xi**q * eta / eps) ** (1.0 / (q + 1.0))
    jet = eval_jet(forced, s)
    res = np.abs(jet.d1 + (q / s) * jet.v - eps) / (1.0 + np.abs(jet.d1))
    for i in np.flatnonzero(~(res <= 1e-12))[:1]:
        failures.append(f"forced residual {res[i]:.3e} at x={s[i]:.3e}")
    y_xi, y_star = eval_jet(forced, xi).v, eval_jet(forced, x_star).v
    if not abs(y_xi - eta) <= 1e-12:
        failures.append(f"forced y(xi) = {y_xi!r} != eta")
    if not abs(y_star) <= 1e-12:
        failures.append(f"forced y(x*) = {y_star!r} at x*={x_star:.4f}")
    for i in np.flatnonzero(~((jet.v < 0.0) == (s < x_star)))[:1]:
        failures.append(f"forced y({s[i]:.3e}) = {jet.v[i]:.3e} on the wrong side of x*")
    return _result(
        "c10",
        "phi ordering",
        failures,
        f"{cells} cells, phi moves with the sign of lhs; forced crossing at x={x_star:.4f}",
    )


# -- 11 ---------------------------------------------------------------------


def check_figure_reproduction():
    """All four figure curves pass through (1, 0) with slope -1; CSV export
    is deterministic."""
    failures = []
    for label, params in scalarfun.FIGURE_FAMILIES:
        jet = eval_jet(family("fa", **params), 1.0)
        if abs(jet.v) > 1e-12:
            failures.append(f"{label}: value at 1 is {jet.v!r}")
        if abs(jet.d1 + 1.0) > 1e-12:
            failures.append(f"{label}: slope at 1 is {jet.d1!r}")
    grid = GridSpec(0.05, 8.0, 200)
    if scalarfun.export_family_curves([], grid) != scalarfun.export_family_curves([], grid):
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
    check_integrating_factor,
    check_phi_ordering,
    check_figure_reproduction,
    check_parser_ad,
)


def run_selftest() -> int:
    """Run every acceptance check, print one PASS/FAIL line each to
    stdout; exit status 0 only if all pass."""
    all_ok = True
    for fn in ALL_CHECKS:
        try:
            res = fn()
        except Exception as e:  # a crashed check is a failed check
            res = CheckResult(fn.__name__, fn.__name__, False, f"raised {type(e).__name__}: {e}")
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.cid} {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1
