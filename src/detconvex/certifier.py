"""Grid certification of convexity for g = f(det(.)) on the positive
definite cone.

The decision rests on a differential inequality in the scalar function
alone: g is convex exactly when

    f''(s) + ((n-1)/(n*s)) * f'(s) >= 0   and   f'(s) <= 0   for all s > 0.

The certifier samples both conditions on a logarithmic grid.  A grid pass
is reported as CertifiedOnGrid, never as a proof over all of (0, inf).  A
violation is only promoted to Refuted once an explicit counterexample pair
(C, H) with a negative quadratic form has been confirmed by the
finite-difference oracle; otherwise the verdict is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detcalculus, linalg, scalarfun
from .errors import (
    DegenerateDirectionError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
)
from .linalg import DEFAULT_LOG_EIG_RANGE, PosDefMatrix
from .scalarfun import FamilyA, Jet2, LogFamily, NeoHookeVolumetric, PowerLaw

CERTIFIED = "CertifiedOnGrid"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

KIND_POSITIVE_FPRIME = "PositiveFPrime"
KIND_SECOND_ORDER = "SecondOrderDeficit"

DEFAULT_TOL_BASE = 1e-9
WITNESS_CONFIRM_TOL = 1e-4
SWEEP_FAIL_TOL = 1e-8  # sweep forms below -tol and midpoint residuals above it fail


@dataclass(frozen=True)
class GridSpec:
    """Logarithmically spaced evaluation grid, endpoints included."""

    s_min: float = 1e-3
    s_max: float = 1e3
    count: int = 1000

    def __post_init__(self):
        if not (self.s_min > 0):
            raise ParameterError(f"s_min={self.s_min} must be positive")
        if not (self.s_min < self.s_max < math.inf):
            raise ParameterError(
                f"s_max={self.s_max} must be finite and exceed s_min={self.s_min}"
            )
        if self.count < 2:
            raise ParameterError(f"grid count={self.count} must be >= 2")

    def points(self) -> np.ndarray:
        return np.geomspace(self.s_min, self.s_max, self.count)


@dataclass(frozen=True, eq=False)
class Witness:
    """Concrete counterexample: D2g(C).(H,H) = analytic_value < 0, with the
    finite-difference oracle agreeing."""

    kind: str
    s_star: float
    c: PosDefMatrix
    h: np.ndarray
    analytic_value: float
    fd_value: float


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Verdict with the grid pass as 1-D columns, one entry per evaluated
    point: s, f'(s), the condition's left-hand side, the tolerance band and
    the two condition flags.  A domain failure cuts the columns before the
    first point that failed to evaluate."""

    verdict: str
    n: int
    grid: GridSpec
    s: np.ndarray
    fprime: np.ndarray
    lhs: np.ndarray
    band: np.ndarray
    fprime_ok: np.ndarray
    lhs_ok: np.ndarray
    witnesses: tuple
    tol: float
    analytic_convex: bool | None
    annotations: tuple

    @property
    def failing_points(self) -> np.ndarray:
        """Indices into the columns of the points failing either condition."""
        return np.flatnonzero(~(self.fprime_ok & self.lhs_ok))

    @property
    def domain_failure(self) -> bool:
        """Whether a grid point failed to evaluate, which cut the columns."""
        return len(self.s) < self.grid.count


def _lhs_from_jet(jet, s: float, n: int) -> float:
    return jet.d2 + ((n - 1) / (n * s)) * jet.d1


def diff_ineq_lhs(f, s: float, n: int) -> float:
    """f''(s) + ((n-1)/(n*s)) * f'(s)."""
    if n < 1:
        raise ParameterError(f"dimension n={n} must be >= 1")
    return _lhs_from_jet(scalarfun.eval_jet(f, s), s, n)


def witness_positive_fprime(s: float, n: int):
    """Counterexample pair for a positive slope at s.

    C = diag(1,...,1,s), H = diag(1,-1,0,...,0); then <C^-1,H> = 0 and
    <HC^-1,C^-1H> = 2 exactly, so D2g(C).(H,H) = -2 s f'(s).

    The (+1,-1) slots of H must avoid the s slot, which needs n >= 3, and
    s must clear the positivity floor of C (``linalg.posdef_floor``, so s
    below about 1.4e-12 does not).  Otherwise the pair is C = r I,
    H = r diag(1,-1,0,...,0) with r = s^(1/n) (sqrt(s) for n = 2), which
    keeps det C = s up to rounding and both identities (the inner product
    cancels exactly, the cross term is 2 up to one rounding).
    """
    if n < 2:
        raise DimensionError("the slope witness needs n >= 2 (two free diagonal slots)")
    if not (s > 0):
        raise ParameterError(f"s={s} must be positive")
    diag_c = np.ones(n)
    diag_c[-1] = s
    diag_h = np.zeros(n)
    if n > 2 and s > linalg.posdef_floor(np.diag(diag_c)):
        diag_h[:2] = (1.0, -1.0)
    else:
        root = float(np.sqrt(s)) if n == 2 else s ** (1.0 / n)
        diag_c = np.full(n, root)
        diag_h[:2] = (root, -root)
    return PosDefMatrix.from_diag(diag_c), np.diag(diag_h)


def witness_second_order(s: float, n: int):
    """Counterexample pair for a second-derivative deficit at s.

    C = s^(1/n) I and H = s^(-1/n) I; the diagonal condition value at this
    pair is n s^(-4/n) (n f''(s) + (n-1) f'(s)/s).
    """
    if n < 1:
        raise ParameterError(f"dimension n={n} must be >= 1")
    if not (s > 0):
        raise ParameterError(f"s={s} must be positive")
    root = s ** (1.0 / n)
    return PosDefMatrix.from_diag(np.full(n, root)), np.diag(np.full(n, 1.0 / root))


def witness_attempt(f, kind: str, s: float, n: int):
    """(C, H, analytic, fd, h_used, confirmed) for the pair of ``kind`` at s.

    ``analytic`` is D2g(C).(H,H) and ``fd`` its central second difference
    with step ``h_used``.  The pair is confirmed when the analytic form is
    strictly negative and the two agree within WITNESS_CONFIRM_TOL
    relative.  Errors of the construction (DimensionError for a slope
    witness at n = 1) and of the evaluations propagate.
    """
    if kind == KIND_POSITIVE_FPRIME:
        c, h = witness_positive_fprime(s, n)
    else:
        c, h = witness_second_order(s, n)
    analytic = detcalculus.g_hess_form(f, c, h)
    fd, h_used = detcalculus.fd_second_directional_with_step(f, c, h)
    confirmed = analytic < 0 and abs(analytic - fd) <= WITNESS_CONFIRM_TOL * max(
        1.0, abs(analytic)
    )
    return c, h, analytic, fd, h_used, confirmed


def _confirmed_witness(f, kind: str, s: float, n: int) -> Witness | None:
    """The confirmed pair for ``kind`` at s, or None when it cannot be
    built (at a subnormal s, C is below the positivity floor), evaluated
    or confirmed."""
    try:
        c, h, analytic, fd, _, confirmed = witness_attempt(f, kind, s, n)
    except (
        DomainError,
        NonFiniteError,
        DegenerateDirectionError,
        DimensionError,
        NotPositiveDefiniteError,
    ):
        return None
    if not confirmed:
        return None
    return Witness(kind=kind, s_star=float(s), c=c, h=h, analytic_value=analytic, fd_value=fd)


def analytic_convexity(f, n: int) -> bool | None:
    """Closed-form verdict for built-in families; None for expressions.

    PowerLaw d + c s^p is convex under det iff c*p == 0 or
    (c*p < 0 and p <= 1/n); LogFamily iff c <= 0; FamilyA and the
    Neo-Hooke volumetric part always.
    """
    if isinstance(f, NeoHookeVolumetric) or isinstance(f, FamilyA):
        return True
    if isinstance(f, LogFamily):
        return f.c <= 0
    if isinstance(f, PowerLaw):
        cp = f.c * f.p
        return cp == 0 or (cp < 0 and f.p <= 1.0 / n)
    return None


def certify(f, n: int, grid: GridSpec | None = None, tol: float = DEFAULT_TOL_BASE) -> CertificationReport:
    """Evaluate both convexity conditions at every grid point.

    Per-point tolerance band: tol * (1 + |f'(s)| + |f''(s)|), with
    0 < tol < 1.  Any violation triggers witness construction at the first
    violating point of its kind; Refuted requires a confirmed witness.
    Scalar domain failures annotate the report and force Inconclusive.
    """
    if n < 1:
        raise ParameterError(f"dimension n={n} must be >= 1")
    # a band of tol * (1 + |f'| + |f''|) with tol >= 1 swallows violations
    # as large as the derivatives themselves
    if not (0 < tol < 1):
        raise ParameterError(f"tolerance {tol} must be positive and below 1")
    if isinstance(f, FamilyA) and f.n != n:
        raise ParameterError(f"family dimension {f.n} does not match certification dimension {n}")
    if grid is None:
        grid = GridSpec()

    annotations = []
    if isinstance(f, FamilyA) and n != 3:
        annotations.append(
            f"family exponent uses the dimension-n generalization (n={n}); "
            "the classical statement fixes n=3"
        )

    points = grid.points()
    jet = scalarfun.eval_jet(f, points)
    failed = np.isnan(jet.v)
    domain_failure = bool(failed.any())
    cut = int(np.argmax(failed)) if domain_failure else len(points)
    if domain_failure:
        # the point evaluated alone raises the error that made it NaN
        annotations.append(
            f"domain failure during grid evaluation: {scalarfun.failure_at(f, float(points[cut]))}"
        )
        jet = Jet2(*(x[:cut] for x in jet))
    s = points[:cut]
    # overflow goes to inf without a warning, as in float arithmetic
    with np.errstate(all="ignore"):
        lhs = _lhs_from_jet(jet, s, n)
        band = tol * (1.0 + np.abs(jet.d1) + np.abs(jet.d2))
    fprime_ok = jet.d1 <= band
    lhs_ok = lhs >= -band

    # a domain failure is reported with the columns before it, unsearched
    fprime_bad = ~fprime_ok & (not domain_failure)
    lhs_bad = ~lhs_ok & (not domain_failure)
    witnesses = []
    if fprime_bad.any():
        s_bad = float(s[np.argmax(fprime_bad)])
        w = _confirmed_witness(f, KIND_POSITIVE_FPRIME, s_bad, n)
        if w is not None:
            witnesses.append(w)
        else:
            annotations.append(f"slope violation at s={s_bad:.6g} not confirmed by the fd oracle")
    if lhs_bad.any():
        # points already covered by a slope witness prefer that construction
        candidates = lhs_bad & fprime_ok
        if not candidates.any() and not witnesses:
            candidates = lhs_bad
        if candidates.any():
            s_bad = float(s[np.argmax(candidates)])
            w = _confirmed_witness(f, KIND_SECOND_ORDER, s_bad, n)
            if w is not None:
                witnesses.append(w)
            else:
                annotations.append(
                    f"second-order violation at s={s_bad:.6g} not confirmed by the fd oracle"
                )

    if witnesses:
        verdict = REFUTED
    elif fprime_bad.any() or lhs_bad.any() or domain_failure:
        verdict = INCONCLUSIVE
    else:
        verdict = CERTIFIED
    return CertificationReport(
        verdict=verdict,
        n=n,
        grid=grid,
        s=s,
        fprime=jet.d1,
        lhs=lhs,
        band=band,
        fprime_ok=fprime_ok,
        lhs_ok=lhs_ok,
        witnesses=tuple(witnesses),
        tol=tol,
        analytic_convex=analytic_convexity(f, n),
        annotations=tuple(annotations),
    )


# --------------------------------------------------------------------------
# supporting suites


def sigma_checks(p, a):
    """(sigma, sigma_tilde, pa_ap) for diagonal P >= 0 and general A, as
    floats for one pair of n x n matrices and as arrays for (N, n, n)
    stacks of pairs.

    sigma   = <P, A>            (equals <P, diag A> exactly)
    sigma~  = <P diagA, diagA P>
    pa_ap   = <PA, AP> = sum_i p_i^2 a_ii^2 + sum_{i != k} p_i p_k a_ik^2

    The suite asserts pa_ap >= sigma~ and sigma^2 <= n * sigma~ up to an
    additive 1e-10 slack.
    """
    parr = np.asarray(p, dtype=float)
    aarr = np.asarray(a, dtype=float)
    if parr.shape != aarr.shape or parr.ndim not in (2, 3) or parr.shape[-1] != parr.shape[-2]:
        raise DimensionError(f"shape mismatch P{parr.shape} vs A{aarr.shape}")
    eye = np.eye(parr.shape[-1], dtype=bool)
    if np.count_nonzero(parr - np.where(eye, parr, 0.0)) != 0:
        raise ParameterError("P must be diagonal")
    if np.any(np.diagonal(parr, axis1=-2, axis2=-1) < 0):
        raise ParameterError("P must have non-negative entries")
    diag_a = np.where(eye, aarr, 0.0)
    # the sums of frob_inner, per pair: P is diagonal, so every matrix
    # product is exact
    sums = tuple(
        np.add.reduce(x * y, axis=(-2, -1))
        for x, y in ((parr, aarr), (parr @ diag_a, diag_a @ parr), (parr @ aarr, aarr @ parr))
    )
    return tuple(map(float, sums)) if parr.ndim == 2 else sums


def reduction_check(f, c, h):
    """Full-basis versus eigenbasis evaluation of the convexity condition
    for one pair (C, H) of n x n arrays or for (N, n, n) stacks of pairs.

    Returns (full, reduced): full is ``condition_bracket`` over
    ``hess_terms`` at s = det C, divided by s; reduced evaluates
    ``condition_lhs_diag`` on Q^T H Q with C = Q diag(eig) Q^T from
    ``np.linalg.eigh``.  The two agree up to eigensolver accuracy."""
    s = np.linalg.det(c)
    inner, cross = detcalculus.hess_terms(c, h)
    full = detcalculus.condition_bracket(scalarfun.eval_jet(f, s), s, inner, cross) / s
    eigenvalues, q = np.linalg.eigh(c)
    reduced = detcalculus.condition_lhs_diag(f, 1.0 / eigenvalues, np.swapaxes(q, -1, -2) @ h @ q)
    return full, reduced


# Samples per stacked block of the sweep; the stacks, not the sample count,
# set the sweep's working memory.
SWEEP_BLOCK = 256


def sweep_block(n: int, log_eig_range, words):
    """The (C, H, A1, A2) stacks of one sweep block, SWEEP_BLOCK samples
    each.  Block b of a sweep with seed ``seed`` takes ``words`` 4b .. 4b+3
    of ``linalg.seed_words(seed, 4 * blocks)``, one PCG64 stream per
    stack, and sample i is row i % SWEEP_BLOCK of block i // SWEEP_BLOCK,
    so its matrices depend only on the seed, n, the range and i."""
    return (
        linalg.random_posdef_stack(n, log_eig_range, words[0], SWEEP_BLOCK),
        linalg.random_sym_stack(n, words[1], SWEEP_BLOCK),
        linalg.random_posdef_stack(n, log_eig_range, words[2], SWEEP_BLOCK),
        linalg.random_posdef_stack(n, log_eig_range, words[3], SWEEP_BLOCK),
    )


@dataclass(frozen=True, eq=False)
class ConvexitySampleDiagnostics:
    """Outcome of a randomized convexity sweep.

    ``min_hess_form`` is the smallest sampled quadratic form (theory says
    >= 0 for convex f); midpoint residuals are g((C1+C2)/2) -
    (g(C1)+g(C2))/2, non-positive for convex f.  Failures list samples
    beyond SWEEP_FAIL_TOL as ``(index, C, H, value)`` and ``(index, C1, C2,
    residual)`` with plain arrays; sample i is row i % SWEEP_BLOCK of the
    stacks that ``sweep_block`` draws from words 4b .. 4b+3 of
    ``linalg.seed_words(seed, 4 * (b + 1))``, b = i // SWEEP_BLOCK, so it
    replays from the seed, n and i alone.
    """

    samples_run: int
    samples_skipped: int
    min_hess_form: float
    min_midpoint_residual: float
    max_midpoint_residual: float
    hess_failures: tuple
    midpoint_failures: tuple


def sample_convexity(
    f,
    n: int,
    num_samples: int,
    seed: int,
    log_eig_range=DEFAULT_LOG_EIG_RANGE,
) -> ConvexitySampleDiagnostics:
    """Randomized corroboration of the grid verdict.

    Draws (C, H) pairs for the quadratic form and PD pairs (C1, C2) for a
    midpoint-convexity check, in stacked blocks of SWEEP_BLOCK samples:
    determinants and the inner products of D2g come from LAPACK on the
    stacks, the scalar jets from four array evaluations per block.  A
    sample whose jets fail at any of its four points is skipped and
    counted rather than aborting the sweep.
    """
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    blocks = -(-num_samples // SWEEP_BLOCK)
    words = linalg.seed_words(seed, 4 * blocks)
    min_hess = np.inf
    min_mid = np.inf
    max_mid = -np.inf
    hess_failures = []
    mid_failures = []
    run = 0
    skipped = 0
    for b in range(blocks):
        start = b * SWEEP_BLOCK
        # the last block is drawn whole and sliced
        stacks = sweep_block(n, log_eig_range, words[4 * b : 4 * b + 4])
        c, h, a1, a2 = (x[: num_samples - start] for x in stacks)
        linalg.require_posdef_stack(c)
        inner, cross = detcalculus.hess_terms(c, h)
        s = np.linalg.det(c)
        jet = scalarfun.eval_jet(f, s)
        g1 = scalarfun.eval_jet(f, np.linalg.det(a1)).v
        g2 = scalarfun.eval_jet(f, np.linalg.det(a2)).v
        gm = scalarfun.eval_jet(f, np.linalg.det(0.5 * (a1 + a2))).v
        # a sample whose jets failed at any point is NaN there and skipped
        ok = ~(np.isnan(jet.v) | np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
        k = int(ok.sum())
        run += k
        skipped += len(s) - k
        if k == 0:
            continue
        with np.errstate(all="ignore"):
            v = s * detcalculus.condition_bracket(jet, s, inner, cross)
            r = gm - 0.5 * (g1 + g2)
        min_hess = min(min_hess, float(v[ok].min()))
        min_mid = min(min_mid, float(r[ok].min()))
        max_mid = max(max_mid, float(r[ok].max()))
        for j in np.flatnonzero(ok & (v < -SWEEP_FAIL_TOL)).tolist():
            hess_failures.append((start + j, c[j].copy(), h[j].copy(), float(v[j])))
        for j in np.flatnonzero(ok & (r > SWEEP_FAIL_TOL)).tolist():
            mid_failures.append((start + j, a1[j].copy(), a2[j].copy(), float(r[j])))
    return ConvexitySampleDiagnostics(
        samples_run=run,
        samples_skipped=skipped,
        min_hess_form=float(min_hess),
        min_midpoint_residual=float(min_mid),
        max_midpoint_residual=float(max_mid),
        hess_failures=tuple(hess_failures),
        midpoint_failures=tuple(mid_failures),
    )
