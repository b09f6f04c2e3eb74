"""Grid certification of convexity for g = f(det(.)) on the positive
definite cone.

The decision rests on a differential inequality in the scalar function
alone: g is convex exactly when

    f''(s) + ((n-1)/(n*s)) * f'(s) >= 0   and   f'(s) <= 0   for all s > 0,

for n >= 2; at n = 1, g is f itself and only f''(s) >= 0 applies.

The conditions are one statement about the scalar u(t) = f(t^n): with
s = t^n, u'(t) = n t^(n-1) f'(s) and u''(t) = n^2 t^(2n-2) lhs(s), lhs
the left-hand side above.  So for n >= 2, g is convex on the cone iff u
is convex and nonincreasing on (0, inf).  Sufficiency: det^(1/n) is
concave (Minkowski), and a convex nonincreasing function of a concave
map is convex.  Necessity: at C = t I and H = I,
f(det(C + tau H)) = u(t + tau), so the second-order witness, H = I/t,
has the form u''(t)/t^2, and the slope witness turns f' > 0 into a
negative form.

The certifier samples both conditions on a logarithmic grid.  A grid pass
is reported as CertifiedOnGrid, never as a proof over all of (0, inf).  A
violation is only promoted to Refuted once an explicit counterexample pair
(C, H) with a negative quadratic form has been confirmed by the
finite-difference oracle; otherwise the verdict is Inconclusive.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import detcalculus, linalg, scalarfun
from .errors import (
    DegenerateDirectionError,
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
)
from .linalg import DEFAULT_LOG_EIG_RANGE, PosDefMatrix
from .scalarfun import FamilyA, Jet2, LogFamily, NeoHookeVolumetric, PowerLaw, Value

CERTIFIED = "CertifiedOnGrid"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

KIND_POSITIVE_FPRIME = "PositiveFPrime"
KIND_SECOND_ORDER = "SecondOrderDeficit"

DEFAULT_TOL_BASE = 1e-9
WITNESS_CONFIRM_TOL = 1e-4
SWEEP_FAIL_TOL = 1e-8  # sweep forms below -tol and midpoint residuals above it fail


class GridSpec(Value):
    """Logarithmically spaced evaluation grid, endpoints included."""

    __slots__ = __match_args__ = ("s_min", "s_max", "count")

    def __init__(self, s_min: float = 1e-3, s_max: float = 1e3, count: int = 1000):
        super().__init__(s_min, s_max, count)
        if not (self.s_min > 0):
            raise ParameterError(f"s_min={self.s_min} must be positive")
        if not (self.s_min < self.s_max < math.inf):
            raise ParameterError(
                f"s_max={self.s_max} must be finite and exceed s_min={self.s_min}"
            )
        if self.count < 2:
            raise ParameterError(f"grid count={self.count} must be >= 2")

    def points(self) -> np.ndarray:
        """``np.geomspace(s_min, s_max, count)`` bit for bit: its arithmetic
        for a positive range, without its sign handling and copies."""
        s = np.linspace(np.log10(self.s_min), np.log10(self.s_max), self.count)
        np.power(10.0, s, out=s)
        s[0], s[-1] = self.s_min, self.s_max
        return s


class Witness(NamedTuple):
    """One witness attempt: the pair (C, H) of ``kind`` at s_star, its
    quadratic form D2g(C).(H,H) = analytic_value, and fd_value, the
    finite-difference oracle's estimate with outer step ``step``.  The
    pair is a counterexample when ``confirmed``: analytic_value < 0 and
    the two agree within WITNESS_CONFIRM_TOL relative."""

    kind: str
    s_star: float
    c: PosDefMatrix
    h: np.ndarray
    analytic_value: float
    fd_value: float
    step: float
    confirmed: bool


class CertificationReport(NamedTuple):
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


def _lhs_from_jet(jet, s, n: int):
    """jet.d2 + ((n-1)/(n*s)) * jet.d1, each operation in this order into
    one array; a float at a float s."""
    lhs = np.multiply(n, s, out=np.empty(np.shape(s)))
    np.divide(n - 1, lhs, out=lhs)
    np.multiply(lhs, jet.d1, out=lhs)
    np.add(jet.d2, lhs, out=lhs)
    return lhs if lhs.ndim else float(lhs)


def diff_ineq_lhs(f, s, n: int):
    """f''(s) + ((n-1)/(n*s)) * f'(s) at a float s, or at each point of an
    array s (NaN where f fails to evaluate)."""
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
    return PosDefMatrix.from_sym(np.diag(diag_c)), np.diag(diag_h)


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
    return PosDefMatrix.from_sym(np.diag(np.full(n, root))), np.diag(np.full(n, 1.0 / root))


def witness_attempt(f, kind: str, s: float, n: int) -> Witness:
    """The ``Witness`` record of the pair of ``kind`` at s, confirmed or not.

    The analytic form and its Richardson central second difference come
    from ``directional_forms`` on the one-row stack at the exact
    determinant of the diagonal C.  Errors of the construction
    (DimensionError for a slope witness at n = 1) propagate;
    DegenerateDirectionError when f fails at a stencil point or no step
    is admissible.
    """
    if kind == KIND_POSITIVE_FPRIME:
        c, h = witness_positive_fprime(s, n)
    else:
        c, h = witness_second_order(s, n)
    # overflow goes to inf or NaN without a warning, as in the grid pass,
    # and leaves the pair unconfirmed
    with np.errstate(all="ignore"):
        forms = detcalculus.directional_forms((f,), c.a[None], h[None], np.array([c.det]))
    analytic, fd, step = (float(x[0]) for x in (forms.hess, forms.fd_hess, forms.step))
    if math.isnan(fd):
        raise DegenerateDirectionError(
            f"no finite difference at s={s!r}: f fails at a stencil point or no step is admissible"
        )
    confirmed = analytic < 0 and abs(analytic - fd) <= WITNESS_CONFIRM_TOL * max(
        1.0, abs(analytic)
    )
    return Witness(kind, float(s), c, h, analytic, fd, step, confirmed)


def _confirmed_witness(f, kind: str, s: float, n: int) -> Witness | None:
    """The confirmed pair for ``kind`` at s, or None when it cannot be
    built (at a subnormal s, C is below the positivity floor), evaluated
    or confirmed."""
    try:
        w = witness_attempt(f, kind, s, n)
    except (
        DegenerateDirectionError,
        DimensionError,
        NotPositiveDefiniteError,
    ):
        return None
    return w if w.confirmed else None


def _grid_witness(f, kind: str, s, candidates, n: int) -> Witness | None:
    """The confirmed pair for ``kind`` at the first grid point of ``s``
    that the mask ``candidates`` marks or, failing that, at the marked
    point nearest s = 1 in log s; None when neither confirms.

    The fd step, (1 + |C|) / (1 + |H|) times a constant, suits a pair of
    unit scale, and at s = 1 both pairs are.  At n = 1 the second-order
    pair C = s, H = 1/s at s = 1e-3 moves det C by a third of itself, too
    far for the oracle of ln(s) or sqrt(s).
    """
    first = int(np.argmax(candidates))
    w = _confirmed_witness(f, kind, float(s[first]), n)
    if w is None:
        nearest = int(np.argmin(np.where(candidates, np.abs(np.log(s)), np.inf)))
        if nearest != first:
            w = _confirmed_witness(f, kind, float(s[nearest]), n)
    return w


def analytic_convexity(f, n: int) -> bool | None:
    """Closed-form verdict for built-in families; None for expressions.

    PowerLaw d + c s^p is convex under det iff c*p == 0 or
    (c*p < 0 and p <= 1/n), for n >= 2; at n = 1, where g is f itself,
    iff c p (p-1) >= 0.  LogFamily iff c <= 0; FamilyA and the Neo-Hooke
    volumetric part always.
    """
    if isinstance(f, NeoHookeVolumetric) or isinstance(f, FamilyA):
        return True
    if isinstance(f, LogFamily):
        return f.c <= 0
    if isinstance(f, PowerLaw):
        cp = f.c * f.p
        if n == 1:
            return cp * (f.p - 1.0) >= 0
        return cp == 0 or (cp < 0 and f.p <= 1.0 / n)
    return None


def certify(f, n: int, grid: GridSpec | None = None, tol: float = DEFAULT_TOL_BASE) -> CertificationReport:
    """Evaluate both convexity conditions at every grid point.

    Per-point tolerance band: tol + tol*|f'(s)| + tol*|f''(s)|, with
    0 < tol < 1, each term scaled before the sum so that the band stays
    finite wherever f' and f'' are.  Any violation triggers witness
    construction at the first violating point of its kind and, when that
    pair is not confirmed, at the violating point of that kind nearest
    s = 1; Refuted requires a confirmed witness.
    Scalar domain failures annotate the report and force Inconclusive.
    """
    if n < 1:
        raise ParameterError(f"dimension n={n} must be >= 1")
    # a band of tol + tol*|f'| + tol*|f''| with tol >= 1 swallows violations
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
    # a failed point is NaN, which the minimum propagates
    domain_failure = bool(np.isnan(jet.v.min()))
    cut = int(np.argmax(np.isnan(jet.v))) if domain_failure else len(points)
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
        # (tol + tol*|f'|) + tol*|f''|, in place
        band = np.abs(jet.d1)
        np.multiply(tol, band, out=band)
        np.add(tol, band, out=band)
        d2_term = np.abs(jet.d2)
        np.multiply(tol, d2_term, out=d2_term)
        band += d2_term
    # at n = 1, g is f itself and only f'' >= 0 applies
    fprime_ok = np.full(cut, True) if n == 1 else jet.d1 <= band
    lhs_ok = lhs >= -band

    # a domain failure is reported with the columns before it, unsearched
    if domain_failure:
        fprime_bad = lhs_bad = np.zeros(cut, dtype=bool)
    else:
        fprime_bad, lhs_bad = ~fprime_ok, ~lhs_ok
    witnesses = []

    def attempt(kind: str, label: str, candidates) -> None:
        """A witness of ``kind`` at ``candidates``, or else an annotation."""
        if not candidates.any():
            return
        w = _grid_witness(f, kind, s, candidates, n)
        if w is not None:
            witnesses.append(w)
        else:
            s_bad = float(s[np.argmax(candidates)])
            annotations.append(f"{label} violation at s={s_bad:.6g} not confirmed by the fd oracle")

    attempt(KIND_POSITIVE_FPRIME, "slope", fprime_bad)
    # points already covered by a slope witness prefer that construction
    candidates = lhs_bad & fprime_ok
    if not candidates.any() and not witnesses:
        candidates = lhs_bad
    attempt(KIND_SECOND_ORDER, "second-order", candidates)

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
    # the trace inner products sum(X * Y), per pair: P is diagonal, so
    # every matrix product is exact
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


# Matrix entries per stack of one evaluation pass, rows * n^2, and at
# least one row.  The pass, not the sample count, sets the sweep's
# working memory; it moves no draw.
SWEEP_PASS_ENTRIES = 2**15


def sweep_draw(gen: np.random.Generator, n: int, m: int):
    """(spectra, H, dets) of the next m samples of the sweep's stream
    ``gen``, one row of ``gen.random`` per sample.

    D2g(C).(H,H) depends only on the frame of H relative to C, so C is
    diagonal and H full.  The midpoint pair (A1, A2) is diagonal: both
    witnesses are diagonal pairs, so g is convex exactly when
    x -> f(x_1 ... x_n) is convex on the positive orthant, and a diagonal
    pair shows every midpoint failure a framed one can.  A row holds
    3n + n(n+1)/2 uniforms: the log eigenvalues of C, A1 and A2 over
    DEFAULT_LOG_EIG_RANGE, then the entries of H over [-1, 1] in
    ``linalg.sym_build`` order.  Row j of the (m, 3, n) ``spectra`` holds
    the eigenvalues of C, A1 and A2, and the (m, 3) ``dets`` are the exp
    of the sums of their log eigenvalues.  Draws of any sizes in turn
    give the rows of one draw of their total."""
    lo, hi = DEFAULT_LOG_EIG_RANGE
    u = gen.random((m, 3 * n + n * (n + 1) // 2))
    logs = lo + (hi - lo) * u[:, : 3 * n].reshape(m, 3, n)
    h = linalg.sym_build(-1.0 + 2.0 * u[:, 3 * n :], n)
    return np.exp(logs), h, np.exp(logs.sum(axis=2))


class ConvexitySampleDiagnostics(NamedTuple):
    """Outcome of a randomized convexity sweep.

    ``samples_run`` counts the samples where the form or the midpoint
    check ran, ``samples_skipped`` those where neither did.
    ``min_hess_form`` is the smallest finite sampled quadratic form
    (theory says >= 0 for convex f); midpoint residuals are g((C1+C2)/2)
    - (g(C1)/2 + g(C2)/2), non-positive for convex f, and their extremes
    are finite too.  ``hess_failures`` and ``midpoint_failures`` count the
    samples beyond SWEEP_FAIL_TOL, forms below -SWEEP_FAIL_TOL and
    residuals above it, infinite ones included.  ``min_hess_sample`` and
    ``max_midpoint_sample`` are the indices of the samples that attain
    ``min_hess_form`` and ``max_midpoint_residual``, the lowest on ties
    and -1 when no finite value ran.  Sample i is row i of the sweep's
    stream, ``np.random.PCG64(seed)`` advanced by i * (3n + n(n+1)/2)
    draws, where ``sweep_draw`` of one row reads it, so it replays from
    the seed, n and i alone.  How the sweep splits its rows into
    evaluation passes changes no field.
    """

    samples_run: int
    samples_skipped: int
    min_hess_form: float
    min_midpoint_residual: float
    max_midpoint_residual: float
    hess_failures: int
    midpoint_failures: int
    min_hess_sample: int
    max_midpoint_sample: int


def _pass_summary(f, n: int, gen, m: int):
    """The counts and extremes of the next m samples of the sweep's
    stream ``gen``, evaluated as one stack: samples run, form failures,
    midpoint failures, (index, value) of the smallest finite form and of
    the largest finite residual, and the smallest finite residual; a
    value is +-inf where none is finite.  The arrays die on return, so a
    sweep holds one pass's."""
    e, h, dets = sweep_draw(gen, n, m)
    inner, cross = detcalculus.diag_terms(1.0 / e[:, 0], h)
    # one jet over the determinants of [C; A1; A2; (A1+A2)/2]
    dets = np.concatenate((dets.T.ravel(), np.prod(0.5 * (e[:, 1] + e[:, 2]), axis=1)))
    jets = scalarfun.eval_jet(f, dets)
    jet = Jet2(*(x[:m] for x in jets))
    g1, g2, gm = jets.v[m:].reshape(3, m)
    # a check whose jets failed has NaN values; a sample where neither
    # check ran is skipped
    failed = np.isnan(jets.v).reshape(4, m)
    with np.errstate(all="ignore"):
        # halving each value first keeps a sum beyond the float range finite
        r = gm - (0.5 * g1 + 0.5 * g2)
        v = detcalculus.g_hess_form(jet, dets[:m], inner, cross)
    # +-inf fail or pass as any value and NaN (a check that did not run,
    # or inf - inf) fails none, but only finite values are extremes; the
    # lowest index wins a tie
    finite = np.isfinite(r)
    forms, high = np.where(np.isfinite(v), v, np.inf), np.where(finite, r, -np.inf)
    i, j = int(np.argmin(forms)), int(np.argmax(high))
    return (
        int(np.count_nonzero(~(failed[0] & failed[1:].any(axis=0)))),
        int(np.count_nonzero(v < -SWEEP_FAIL_TOL)),
        int(np.count_nonzero(r > SWEEP_FAIL_TOL)),
        (i, float(forms[i])),
        (j, float(high[j])),
        float(np.where(finite, r, np.inf).min()),
    )


def sample_convexity(f, n: int, num_samples: int, seed: int) -> ConvexitySampleDiagnostics:
    """Randomized corroboration of the grid verdict.

    Draws (C, H) pairs for the quadratic form and diagonal PD pairs
    (A1, A2) for a midpoint-convexity check, sample i as row i of one
    PCG64 stream seeded with ``seed`` (``sweep_draw``), C, A1 and A2 as
    spectra that clear the positivity floor by construction.  The rows
    are evaluated in passes of as many as keep rows * n^2 within
    SWEEP_PASS_ENTRIES, and at least one.  Per pass, the form comes from
    C's spectrum through ``detcalculus.diag_terms`` and ``g_hess_form``,
    the determinant of (A1+A2)/2 as the product of its diagonal, and the
    jets of the four determinants from one array evaluation; no LAPACK
    routine runs.  Each check runs where its own jets evaluate: the form
    where the jet at det C does, the residual where the three at A1, A2
    and the midpoint do.  A sample where neither ran is skipped and
    counted.  A form or residual that overflows to inf, or to NaN as
    inf - inf, is no extreme.  Only counts and extremes are kept, so
    memory is one pass's whatever the failures, and the diagnostics do
    not depend on how the rows are split into passes.  A negative seed
    raises ParameterError.
    """
    if n < 1:
        raise ParameterError(f"dimension n={n} must be >= 1")
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed {seed} must be >= 0")
    gen = np.random.Generator(np.random.PCG64(seed))
    rows = max(1, SWEEP_PASS_ENTRIES // (n * n))
    min_hess = min_mid = np.inf
    max_mid = -np.inf
    min_hess_at = max_mid_at = -1
    hess_failures = mid_failures = run = 0
    for start in range(0, num_samples, rows):
        ran, hess, mid, (i, low), (j, high), low_mid = _pass_summary(
            f, n, gen, min(rows, num_samples - start)
        )
        run, hess_failures, mid_failures = run + ran, hess_failures + hess, mid_failures + mid
        if low < min_hess:
            min_hess, min_hess_at = low, start + i
        if high > max_mid:
            max_mid, max_mid_at = high, start + j
        min_mid = min(min_mid, low_mid)
    return ConvexitySampleDiagnostics(
        samples_run=run,
        samples_skipped=num_samples - run,
        min_hess_form=min_hess,
        min_midpoint_residual=min_mid,
        max_midpoint_residual=max_mid,
        hess_failures=hess_failures,
        midpoint_failures=mid_failures,
        min_hess_sample=min_hess_at,
        max_midpoint_sample=max_mid_at,
    )
