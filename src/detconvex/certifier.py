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
map is convex.  Necessity: both witnesses sit at C = t I.  With H = C,
f(det(C + tau H)) = u(t (1 + tau)), so the second-order witness has the
form t^2 u''(t); with a traceless diagonal H, the slope witness turns
f' > 0 into a negative form.

The certifier samples both conditions on a logarithmic grid, and again
on a fixed log grid over the decades [10^-n, 10^n] outside it.  A pass
is reported as CertifiedOnGrid, never as a proof over all of (0, inf).  A
violation is only promoted to Refuted once an explicit counterexample pair
(C, H) with a negative quadratic form has been confirmed, by a
three-point gap of f or, where f is too flat in floating point to show
it, by the jet alone; otherwise the verdict is Inconclusive.

This module holds only that path: the grid and beyond-grid passes, the
witnesses and the midpoint sweep.  It loads neither ``detcalculus`` nor
``selftest``, which holds the acceptance suite's cross-check kernels.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import scalarfun
from .errors import NotPositiveDefiniteError, ParameterError
from .linalg import DEFAULT_LOG_EIG_RANGE, PosDefMatrix, dimension, integer
from .scalarfun import Add, Constant, Jet2, Ln, Mul, Negate, Pow, Sub, Value, Variable

CERTIFIED = "CertifiedOnGrid"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

KIND_POSITIVE_FPRIME = "PositiveFPrime"
KIND_SECOND_ORDER = "SecondOrderDeficit"

DEFAULT_TOL_BASE = 1e-9
SWEEP_FAIL_TOL = 1e-8  # sweep midpoint residuals above it fail
# The steps tau = 2^-1, ..., 2^-30 of a witness's three-point gap, its
# rounding bound per unit of |f(a)| + |f(b)| + 2 |f(det C)|, and its labels.
GAP_TAUS = 0.5 ** np.arange(1.0, 31.0)
GAP_ROUNDING = 16.0 * float(np.finfo(float).eps)
BY_GAP, BY_JET = "gap", "jet"


class GridSpec(Value):
    """Logarithmically spaced evaluation grid, endpoints included."""

    __slots__ = __match_args__ = ("s_min", "s_max", "count")

    def __init__(self, s_min: float = 1e-3, s_max: float = 1e3, count: int = 1000):
        if not (s_min > 0):
            raise ParameterError(f"s_min={s_min} must be positive")
        if not (s_min < s_max < math.inf):
            raise ParameterError(f"s_max={s_max} must be finite and exceed s_min={s_min}")
        super().__init__(s_min, s_max, integer(count, "grid count", 2))

    def points(self) -> np.ndarray:
        """``np.geomspace(s_min, s_max, count)`` bit for bit wherever that
        lies in the range, clipped to it elsewhere: its arithmetic for a
        positive range, without its sign handling and copies.  numpy's pow
        runs about twice as fast with the base as an array, allocated after
        the exponents so that it is freed first.  The rounding of 10 to a
        log10 can put a point of a narrow range an ulp outside it, and at
        the top of the float range it overflows, silently, to inf."""
        s = np.linspace(np.log10(self.s_min), np.log10(self.s_max), self.count)
        with np.errstate(over="ignore"):
            np.power(np.full(self.count, 10.0), s, out=s)
        s[0], s[-1] = self.s_min, self.s_max
        return np.clip(s, self.s_min, self.s_max, out=s)


class Witness(NamedTuple):
    """One witness attempt: the pair (C, H) of ``kind`` at s_star, as
    arrays (C validated against the positivity floor), det_c = det C,
    the form D2g(C).(H,H) = analytic_value from the jet at s_star,
    and the gap g(C + tau H) + g(C - tau H) - 2 g(C) with its rounding
    bound.  A finite negative form is confirmed: BY_GAP at the largest tau
    whose gap is below minus its bound, else BY_JET on its sign alone
    (tau, gap and bound NaN).  ``confirmed_by`` is None otherwise."""

    kind: str
    s_star: float
    c: np.ndarray
    h: np.ndarray
    det_c: float
    analytic_value: float
    tau: float
    gap: float
    gap_bound: float
    confirmed_by: str | None
    confirmed = property(lambda w: w.confirmed_by is not None)


class CertificationReport(NamedTuple):
    """Verdict with the grid pass as 1-D columns, one entry per evaluated
    point: s, f'(s), the condition's left-hand side, the tolerance band and
    the two condition flags.  A domain failure cuts the columns before the
    first point that failed to evaluate.  ``diagnostics`` is the
    randomized sweep's ``ConvexitySampleDiagnostics``, or None when no
    sweep ran (no samples asked for, or a domain failure), and
    ``beyond_grid`` the ``BeyondGrid`` pass, or None when it adds no
    point or after a domain failure."""

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
    diagnostics: ConvexitySampleDiagnostics | None = None
    beyond_grid: BeyondGrid | None = None

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
    n = dimension(n)
    return _lhs_from_jet(scalarfun.eval_jet(f, s), s, n)


def witness_pair(kind: str, s: float, n: int):
    """The counterexample pair (C, H) of ``kind`` at s: C = r I and H = r D
    with r = s^(1/n), so det C = s up to the rounding of r.

    For KIND_POSITIVE_FPRIME, D = diag(1,-1,0,...,0), so D2g(C).(H,H) =
    -2 s f'(s) and det(C +- tau H) = det C (1 - tau^2); it needs n >= 2
    (ParameterError).  For KIND_SECOND_ORDER, D = I, so f(det(C + tau H))
    = u(r(1 + tau)) with u(t) = f(t^n), det(C +- tau H) = det C (1 +- tau)^n
    and the form is r^2 u''(r) = (n s)(n s f''(s) + (n-1) f'(s)).  Any
    other kind raises ParameterError.
    """
    slope = kind == KIND_POSITIVE_FPRIME
    if not (slope or kind == KIND_SECOND_ORDER):
        raise ParameterError(
            f"witness kind {kind!r} must be {KIND_POSITIVE_FPRIME!r} or {KIND_SECOND_ORDER!r}"
        )
    n = integer(n, "the slope witness's dimension n", 2) if slope else dimension(n)
    if not (s > 0):
        raise ParameterError(f"s={s} must be positive")
    r = s ** (1.0 / n)
    d = np.ones(n)
    if slope:
        d[1], d[2:] = -1.0, 0.0
    return PosDefMatrix.from_sym(np.diag(np.full(n, r))), np.diag(r * d)


def witness_attempt(f, kind: str, s: float, n: int) -> Witness:
    """The ``Witness`` record of the pair of ``kind`` at s, confirmed or not.

    One evaluation of f gives the jet at s, for the form, and the values
    at det C and det(C +- tau H), for the gaps at every tau of GAP_TAUS.
    A gap above its bound contradicts nothing: the form is the limit
    tau -> 0, and at a larger tau the gap also sees where f is convex.
    Errors of the construction (ParameterError for a slope witness at
    n = 1) propagate.
    """
    c, h = witness_pair(kind, s, n)
    slope = kind == KIND_POSITIVE_FPRIME
    # an overflow, to a quiet inf or NaN, confirms nothing
    with np.errstate(all="ignore"):
        taus = np.append(GAP_TAUS, -GAP_TAUS)
        ratios = 1.0 - taus * taus if slope else (1.0 + taus) ** n
        jet = scalarfun.eval_jet(f, np.append((s, c.det), c.det * ratios))
        fc, (fa, fb) = jet.v[1], jet.v[2:].reshape(2, -1)
        ns = n * s
        form = -2.0 * s * jet.d1[0] if slope else ns * (ns * jet.d2[0] + (n - 1) * jet.d1[0])
        gap = (fa - fc) + (fb - fc)
        bound = GAP_ROUNDING * (np.abs(fa) + np.abs(fb) + 2.0 * abs(fc))
    below = np.flatnonzero(np.isfinite(gap) & (gap < -bound))
    by = None
    if form < 0 and math.isfinite(form):
        by = BY_GAP if below.size else BY_JET
    i = below[0] if by == BY_GAP else None
    tau, g, b = (math.nan,) * 3 if i is None else (GAP_TAUS[i], gap[i], bound[i])
    return Witness(kind, float(s), c.a, h, c.det, float(form), float(tau), float(g), float(b), by)


def _confirmed_witness(f, kind: str, s: float, n: int) -> Witness | None:
    """The confirmed pair for ``kind`` at s, or None when it cannot be
    built (at n = 1 and a subnormal s, C = s is below the positivity
    floor) or is not confirmed.  No slope pair is asked for at n = 1,
    where ``condition_flags`` passes every f'."""
    try:
        w = witness_attempt(f, kind, s, n)
    except NotPositiveDefiniteError:
        return None
    return w if w.confirmed else None


def _literal(e):
    """The value of a constant or of a negated one, as text writes a
    negative constant (``-2`` is Negate(Constant(2.0))); else None."""
    match e:
        case Constant(x):
            return x
        case Negate(Constant(x)):
            return -x
    return None


def analytic_convexity(f, n: int) -> tuple | None:
    """(closed-form verdict, its term c*s^p or c*ln(s)) of the term, of
    d + term or of d - term, whose coefficient is then -c, with c, p and
    d constants or negated constants: the shapes that ``scalarfun.family``
    builds, and their spellings in text; None for any other expression.

    d + c s^p is convex under det iff c p == 0 or (c p < 0 and p <= 1/n),
    for n >= 2; at n = 1, where g is f itself, iff c p (p-1) >= 0.
    d + c ln s is iff c <= 0.
    """
    n = dimension(n)
    sign, term = 1, f
    match f:
        case Add(d, right) if _literal(d) is not None:
            term = right
        case Sub(d, right) if _literal(d) is not None:
            sign, term = -1, right
    match term:
        case Mul(c, Pow(Variable(), p)) if _literal(c) is not None and _literal(p) is not None:
            c, p = sign * _literal(c), _literal(p)
            cp = c * p
            if n == 1:
                return cp * (p - 1.0) >= 0, f"{c!r}*s^{p!r}"
            return cp == 0 or (cp < 0 and p <= 1.0 / n), f"{c!r}*s^{p!r}"
        case Mul(c, Ln(Variable())) if _literal(c) is not None:
            c = sign * _literal(c)
            return c <= 0, f"{c!r}*ln(s)"
    return None


def condition_flags(jet, s, n: int, tol: float):
    """(lhs, band, fprime_ok, lhs_ok) of the jets of f at the 1-D array of
    points s: the condition's left-hand side, the tolerance band
    tol + tol*|f'| + tol*|f''|, and whether f' <= band (every point at
    n = 1, where g is f itself and only f'' >= 0 applies) and
    lhs >= -band.  Each band term is scaled before the sum, so the band
    stays finite wherever f' and f'' are.  A point whose jet is NaN
    fails lhs >= -band, and f' <= band at n >= 2.  ParameterError unless
    0 < tol < 1."""
    # a band of tol + tol*|f'| + tol*|f''| with tol >= 1 swallows violations
    # as large as the derivatives themselves
    if not (0 < tol < 1):
        raise ParameterError(f"tolerance {tol} must be positive and below 1")
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
    fprime_ok = np.full(len(s), True) if n == 1 else jet.d1 <= band
    return lhs, band, fprime_ok, lhs >= -band


# Points per decade of the beyond-grid pass.
BEYOND_GRID_PER_DECADE = 100


class BeyondGrid(NamedTuple):
    """The pass outside the grid: the points s of ``grid``, a log grid at
    BEYOND_GRID_PER_DECADE points per decade, that lie outside the
    certify grid, with f'(s) and the condition's left-hand side there.
    ``fprime_bad`` and ``lhs_bad`` mark the points failing either
    condition by ``condition_flags``; the ``skipped`` points, which failed
    to evaluate, fail neither."""

    grid: GridSpec
    s: np.ndarray
    fprime: np.ndarray
    lhs: np.ndarray
    fprime_bad: np.ndarray
    lhs_bad: np.ndarray
    skipped: int


def beyond_grid(f, n: int, grid: GridSpec, tol: float) -> BeyondGrid | None:
    """The ``BeyondGrid`` pass of f at n around ``grid``, with certify's
    band ``tol``, or None when it adds no point, without reading ``tol``.
    Its range holds det C of every spectrum in DEFAULT_LOG_EIG_RANGE,
    [exp(n lo), exp(n hi)], which is [10^-n, 10^n]; its ends are rounded
    to whole decades, so at n = 3 it is the default grid's range, exactly."""
    n = dimension(n)
    lo, hi = (round(n * x / math.log(10)) for x in DEFAULT_LOG_EIG_RANGE)
    wide = GridSpec(10.0**lo, 10.0**hi, (hi - lo) * BEYOND_GRID_PER_DECADE + 1)
    if grid.s_min <= wide.s_min and wide.s_max <= grid.s_max:
        return None
    points = wide.points()
    s = points[(points < grid.s_min) | (points > grid.s_max)]
    jet = scalarfun.eval_jet(f, s)
    lhs, _, fprime_ok, lhs_ok = condition_flags(jet, s, n, tol)
    ran = ~np.isnan(jet.v)
    return BeyondGrid(wide, s, jet.d1, lhs, ran & ~fprime_ok, ran & ~lhs_ok, int(np.count_nonzero(~ran)))


def certify(
    f, n: int, grid: GridSpec | None = None, tol: float = DEFAULT_TOL_BASE, samples: int = 0, seed: int = 42
) -> CertificationReport:
    """Evaluate both convexity conditions at every grid point, and gather
    the run's other evidence into the one report.

    The band is ``condition_flags``'s, which needs 0 < tol < 1.  Any
    violation triggers witness construction at the first violating point
    of its kind and, unless its gap confirms that pair, at the violating
    point of that kind nearest s = 1 in log s; a gap beats the jet, and
    the first point a tie.  The retry is there because the form can
    round to zero at an extreme s: -s^2/(s+1)^2 of ln(s+1) at n = 1 does
    at s = 1e-300, and on GridSpec(1e-300, 1e300, 2000) the pair confirms
    at s = 0.708.  Refuted requires a confirmed witness.  Scalar domain
    failures annotate the report and force Inconclusive.

    Without a domain failure, the ``beyond_grid`` pass checks both
    conditions outside the grid, and a kind of violation it finds is
    searched for a witness the same way unless one of that kind is
    already confirmed; its points that fail to evaluate are skipped.
    With samples > 0 and no domain failure, the midpoint sweep
    ``sample_convexity(f, n, samples, seed)`` runs and its result is the
    report's ``diagnostics``; otherwise they are None, and the seed is not
    read, so only a sweep that runs rejects a negative one.  samples < 0
    raises ParameterError.  The annotations are the grid pass's, in
    order, then the beyond-grid pass's, then the closed form's.  The
    verdict is the one rule at the end: Refuted with a confirmed witness,
    else Inconclusive when either pass fails, a point cut the grid or the
    closed form (``analytic_convexity``) says not convex.  It does not
    read the sweep, whose failures no witness confirms yet.
    """
    n, samples = dimension(n), integer(samples, "samples", 0)
    if grid is None:
        grid = GridSpec()

    annotations = []
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
    lhs, band, fprime_ok, lhs_ok = condition_flags(jet, s, n, tol)

    # a domain failure is reported with the columns before it, unsearched
    beyond = None if domain_failure else beyond_grid(f, n, grid, tol)
    passes = [] if domain_failure else [("", s, ~fprime_ok, ~lhs_ok)]
    if beyond is not None:
        passes.append(("beyond the grid ", beyond.s, beyond.fprime_bad, beyond.lhs_bad))
    witnesses = []

    def attempt(where: str, columns, kind: str, label: str, candidates) -> None:
        """The witness of ``kind`` by the rule above at the points of
        ``columns`` that ``candidates`` marks, or else an annotation; none
        when a witness of ``kind`` is already confirmed."""
        if not candidates.any() or any(w.kind == kind for w in witnesses):
            return
        first = int(np.argmax(candidates))
        w = _confirmed_witness(f, kind, float(columns[first]), n)
        if w is None or w.confirmed_by != BY_GAP:
            nearest = int(np.argmin(np.where(candidates, np.abs(np.log(columns)), np.inf)))
            retry = _confirmed_witness(f, kind, float(columns[nearest]), n) if nearest != first else None
            if retry is not None and (w is None or retry.confirmed_by == BY_GAP):
                w = retry
        if w is not None:
            witnesses.append(w)
        else:
            annotations.append(
                f"{label} violation {where}at s={float(columns[first]):.6g} not confirmed by its witness pair"
            )

    for where, columns, slope_bad, second_bad in passes:
        attempt(where, columns, KIND_POSITIVE_FPRIME, "slope", slope_bad)
        # points already covered by a slope witness prefer that construction
        candidates = second_bad & ~slope_bad
        if not candidates.any() and not witnesses:
            candidates = second_bad
        attempt(where, columns, KIND_SECOND_ORDER, "second-order", candidates)
    analytic, term = analytic_convexity(f, n) or (None, None)
    if analytic is False and not witnesses:
        annotations.append(
            f"closed form of the term {term} is not convex at n={n}, but no witness pair confirms it"
        )
    diagnostics = None
    if samples > 0 and not domain_failure:
        diagnostics = sample_convexity(f, n, samples, seed)

    if witnesses:
        verdict = REFUTED
    elif domain_failure or analytic is False or any(bad.any() for _, _, *bads in passes for bad in bads):
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
        analytic_convex=analytic,
        annotations=tuple(annotations),
        diagnostics=diagnostics,
        beyond_grid=beyond,
    )


# Generator family and stream layout of the sampling routines, recorded in
# report headers so results can be reproduced: PCG64.  The randomized
# sweep draws sample i as row i of one stream seeded with --seed, the
# log eigenvalues of its diagonal A1 and A2 from 2n uniforms
# (``sweep_draw``); the oracle takes one seed word per matrix kind, two
# streams per word and the QR frames of Gaussian matrices.  How many rows
# the sweep evaluates in one pass moves no draw, so it is not recorded.
RNG_ALGORITHM = "numpy-pcg64-sweep-midpoint"

# Uniforms per evaluation pass, rows * 2n, and at least one row.  The
# pass, not the sample count, sets the sweep's working memory; it moves
# no draw.
SWEEP_PASS_ENTRIES = 2**15


def sweep_draw(gen: np.random.Generator, n: int, m: int):
    """(spectra, dets) of the next m samples of the sweep's stream ``gen``,
    one row of ``gen.random`` per sample.

    A row holds 2n uniforms, the log eigenvalues of the diagonal A1 and A2
    over DEFAULT_LOG_EIG_RANGE.  Row j of the (m, 2, n) ``spectra`` holds
    the eigenvalues of A1 and A2, and the (m, 2) ``dets`` are the exp of
    the sums of their log eigenvalues, summed left to right.  Both are
    views of arrays with the sample index last, so that a pass over the
    samples runs on contiguous rows.  Draws of any sizes in turn give the
    rows of one draw of their total."""
    lo, hi = DEFAULT_LOG_EIG_RANGE
    # (n, 2, m): numpy reduces the leading axis one eigenvalue after
    # another, whatever m, in a fraction of the time its reduction over a
    # short last axis takes
    logs = np.ascontiguousarray(gen.random((m, 2, n)).transpose(2, 1, 0))
    logs *= hi - lo
    logs += lo
    return np.exp(logs).transpose(2, 1, 0), np.exp(np.add.reduce(logs, axis=0)).T


class ConvexitySampleDiagnostics(NamedTuple):
    """Outcome of a randomized midpoint sweep.

    ``samples_run`` counts the samples whose residual ran, and
    ``samples_skipped`` those where f failed to evaluate at A1, A2 or
    their midpoint.  Residuals are g((A1+A2)/2) - (g(A1)/2 + g(A2)/2),
    non-positive for convex f; their extremes are finite, and
    ``midpoint_failures`` counts those above SWEEP_FAIL_TOL, infinite ones
    included.  ``max_midpoint_sample`` attains ``max_midpoint_residual``,
    the lowest on ties and -1 when no finite residual ran.  Sample i is
    row i of the sweep's stream, ``np.random.PCG64(seed)`` advanced by
    i * 2n draws, so it replays from the seed, n and i alone.
    """

    samples_run: int
    samples_skipped: int
    min_midpoint_residual: float
    max_midpoint_residual: float
    midpoint_failures: int
    max_midpoint_sample: int


def _pass_summary(f, n: int, gen, m: int):
    """(run, failures, smallest, largest, index of the largest) of the
    finite residuals of the next m samples of the sweep's stream ``gen``,
    evaluated as one pass; an extreme is +-inf where none is finite.  The
    arrays die on return, so a sweep holds one pass's."""
    e, dets = sweep_draw(gen, n, m)
    # one evaluation over the determinants of [A1; A2; (A1+A2)/2], the
    # last the product of 0.5 * (e1 + e2), left to right, over contiguous
    # rows
    points = np.empty(3 * m)
    points[: 2 * m] = dets.T.ravel()
    by_eigenvalue = e.transpose(2, 1, 0)
    mid = by_eigenvalue[:, 0] + by_eigenvalue[:, 1]
    mid *= 0.5
    np.multiply.reduce(mid, axis=0, out=points[2 * m :])
    g = scalarfun.eval_jet(f, points).v.reshape(3, m)
    # halving each value first keeps a sum beyond the float range finite
    with np.errstate(all="ignore"):
        r = g[2] - (0.5 * g[0] + 0.5 * g[1])
    # a sample where f failed has NaN values and is skipped; +-inf
    # residuals fail or pass as any value and NaN ones (inf - inf) fail
    # none, but only finite values are extremes
    run = m - int(np.count_nonzero(np.isnan(g).any(axis=0)))
    failures = int(np.count_nonzero(r > SWEEP_FAIL_TOL))
    finite = np.isfinite(r)
    low = float(np.where(finite, r, np.inf).min())
    r[~finite] = -np.inf
    i = int(np.argmax(r))
    return run, failures, low, float(r[i]), i


def sample_convexity(f, n: int, num_samples: int, seed: int) -> ConvexitySampleDiagnostics:
    """Randomized midpoint check of convexity, the one check that tests it
    with no derivative.

    Draws diagonal positive definite A1 and A2, sample i as row i of one
    PCG64 stream seeded with ``seed`` (``sweep_draw``), as spectra that
    clear the positivity floor by construction, and checks
    g((A1+A2)/2) <= (g(A1) + g(A2))/2 within SWEEP_FAIL_TOL, with
    det((A1+A2)/2) the product of its diagonal.  Diagonal draws lose
    nothing: both witnesses are diagonal pairs, so g is convex exactly
    when x -> f(x_1 ... x_n) is convex on the positive orthant.  The rows
    are evaluated in passes of as many as keep rows * 2n within
    SWEEP_PASS_ENTRIES, and at least one, each with one array evaluation
    and no LAPACK routine.  A sample where f fails to evaluate is skipped
    and counted.  Only counts and extremes are kept, so memory is one
    pass's whatever the failures, and no field depends on how the rows
    are split into passes.  A negative seed raises ParameterError.
    """
    n, num_samples = dimension(n), integer(num_samples, "num_samples", 1)
    gen = np.random.Generator(np.random.PCG64(integer(seed, "seed", 0)))
    rows = max(1, SWEEP_PASS_ENTRIES // (2 * n))
    run = fails = 0
    low, high, at = np.inf, -np.inf, -1
    for start in range(0, num_samples, rows):
        ran, failures, pass_low, pass_high, i = _pass_summary(f, n, gen, min(rows, num_samples - start))
        run, fails, low = run + ran, fails + failures, min(low, pass_low)
        if pass_high > high:
            high, at = pass_high, start + i
    return ConvexitySampleDiagnostics(run, num_samples - run, low, high, fails, at)
