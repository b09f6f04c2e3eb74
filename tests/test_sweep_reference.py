"""The randomized sweep against per-sample references.

The sweep draws sample i as row i of one PCG64 stream seeded with the
seed: 3n uniforms, the log eigenvalues of the diagonal C, A1 and A2.
``reference_rows`` draws the same stream one spectrum at a time through
``Generator.uniform`` and sums each spectrum's logs left to right, and
the draws must agree bit for bit.

At s = det C the sweep checks the grid's two conditions, each on its
own.  The quadratic form it used to sample is their weighted sum: with
X = C^(-1/2) H C^(-1/2), t = tr X and |X0|^2 = |X|_F^2 - t^2/n,

    D2g(C).(H,H) = s^2 t^2 lhs(s) + s |X0|^2 (-f'(s)),

both weights nonnegative, which
``test_hess_form_is_the_weighted_sum_of_the_two_conditions`` checks on
the oracle's full frames.  ``weighted_form_sweep`` is that older sweep,
kept as evidence: wherever its forms fail, a condition or a midpoint
check of the sweep must fail too, and a form can hide a failing term.

``reference_kernel`` draws every row at once, with one ``eval_jet`` call
per determinant row and the conditions as the grid's plain expressions
(``tests/test_grid_failures.py`` holds certify's columns to the same),
and keeps every sample's values, which ``summary`` turns into the sweep's
counts and worst samples.  The sweep, which evaluates its rows in passes
with one jet call each and keeps running values, must equal it in every
bit whatever the pass size, and the draws that replay from a worst
sample's index must be the ones the reference drew there.  Every route
forms the midpoint residual as gm - (g1/2 + g2/2), which stays finite
where g1 + g2 overflows.

Each check runs where its own jets evaluate, in the references as in the
sweep: the conditions where the jet at det C does, the residual where
those at A1, A2 and the midpoint do, and a sample where neither ran is
skipped.  An infinite residual counts as a failure where it crosses the
tolerance and a NaN one (inf - inf) as none, but only finite values are
extremes, and only finite deficits name a worst sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detconvex import certifier, detcalculus, linalg
from detconvex.certifier import (
    DEFAULT_TOL_BASE,
    SWEEP_FAIL_TOL,
    SWEEP_PASS_ENTRIES,
    ConvexitySampleDiagnostics,
    sample_convexity,
    sweep_draw,
)
from detconvex.detcalculus import builtin_corpus, diag_terms, directional_forms, g_hess_form
from detconvex.errors import DomainError, NonFiniteError
from detconvex.linalg import DEFAULT_LOG_EIG_RANGE
from detconvex.scalarfun import eval_jet, parse
from detconvex.selftest import EXPRESSION_CORPUS

EPS = float(np.finfo(float).eps)
# Eigenvalues of the default draws lie in [0.1, 10].
COND_MAX = 100.0


def stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


def left_fold(op, x):
    """op over the last axis of x, one column after another."""
    acc = x[..., 0]
    for k in range(1, x.shape[-1]):
        acc = op(acc, x[..., k])
    return acc


def reference_rows(n, seed, k):
    """The (C, A1, A2) spectra and the (det C, det A1, det A2) rows of the
    first k samples of a sweep with ``seed``, drawn from one stream a
    spectrum at a time: per sample, the n log eigenvalues of C, of A1 and
    of A2 in turn."""
    gen = stream(seed)
    spectra, dets = [], []
    for _ in range(k):
        logs = [gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=n) for _ in range(3)]
        spectra.append([np.exp(lg) for lg in logs])
        dets.append(tuple(np.exp(left_fold(np.add, lg)) for lg in logs))
    return spectra, dets


def reference_sym(gen, n):
    """One symmetric matrix with entries uniform in [-1, 1] from ``gen``,
    one row of its upper triangle at a time."""
    m = np.zeros((n, n))
    for i in range(n):
        vals = gen.uniform(-1.0, 1.0, size=n - i)
        m[i, i:] = vals
        m[i:, i] = vals
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_stacked_draws_are_the_single_seed_draws(n):
    # random_sym, whose sym_build layout ``weighted_form_sweep`` reads H in
    seeds = np.random.SeedSequence(500 + n).generate_state(40, dtype=np.uint64)
    # a count-1 stack is the draw of a single seed
    for seed in seeds:
        sym = linalg.random_sym(n, seed, 1)
        assert sym.shape == (1, n, n)
        assert np.array_equal(sym[0], reference_sym(stream(int(seed)), n))
    # row j of a k-stack is the j-th matrix of the stream drawn one row
    # at a time, and a shorter stack is its prefix
    k = 40
    seed = int(seeds[0])
    sym = linalg.random_sym(n, seed, k)
    assert sym.shape == (k, n, n)
    gen = stream(seed)
    assert all(np.array_equal(sym[j], reference_sym(gen, n)) for j in range(k))
    for short in (1, 7, k - 1):
        assert np.array_equal(linalg.random_sym(n, seed, short), sym[:short])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 24])
def test_draw_is_the_per_row_reference(n):
    k, seed = 40, 9 + n
    spectra, dets = sweep_draw(stream(seed), n, k)
    spectra_ref, dets_ref = reference_rows(n, seed, k)
    # C, A1 and A2 as spectra: row j holds their diagonals
    assert spectra.shape == (k, 3, n)
    assert all(np.array_equal(spectra[j], spectra_ref[j]) for j in range(k))
    assert dets.shape == (k, 3)
    assert all(tuple(dets[j]) == dets_ref[j] for j in range(k))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_draws_of_any_sizes_are_rows_of_one_stream(n):
    # draws in turn are the rows of one draw of their total, and a shorter
    # stream's rows are a prefix of a longer one's
    seed, sizes = 21, (1, 7, 1, 30)
    whole = sweep_draw(stream(seed), n, sum(sizes))
    gen = stream(seed)
    parts = [sweep_draw(gen, n, m) for m in sizes]
    for got, pieces in zip(whole, zip(*parts)):
        assert np.array_equal(got, np.concatenate(pieces))
    for short in (1, 8, 39):
        for got, longer in zip(sweep_draw(stream(seed), n, short), whole):
            assert np.array_equal(got, longer[:short])


def reference_sample_convexity(f, n, num_samples, seed, tol=DEFAULT_TOL_BASE):
    """(run, skipped, lhs indices, fprime indices, midpoint indices,
    min_mid, max_mid) from one sample at a time, with C, A1, A2 and the
    midpoint built as matrices and their determinants from the hand LU
    ``linalg.det``."""
    min_mid, max_mid = np.inf, -np.inf
    lhs_idx, fprime_idx, mid_idx = [], [], []
    run = skipped = 0
    spectra, _ = reference_rows(n, seed, num_samples)
    for i, (c, a1, a2) in enumerate(spectra):
        conditions = r = None
        with np.errstate(all="ignore"):
            try:
                s = linalg.det(np.diag(c))
                jet = eval_jet(f, s)
                band = (tol + tol * abs(jet.d1)) + tol * abs(jet.d2)
                conditions = (jet.d2 + (n - 1) / (n * s) * jet.d1 >= -band, jet.d1 <= band)
            except (DomainError, NonFiniteError):
                pass
            try:
                g1, g2, gm = (eval_jet(f, linalg.det(np.diag(x))).v
                              for x in (a1, a2, 0.5 * (a1 + a2)))
                r = gm - (0.5 * g1 + 0.5 * g2)
            except (DomainError, NonFiniteError):
                pass
        if conditions is None and r is None:
            skipped += 1
            continue
        run += 1
        if conditions is not None:
            lhs_ok, fprime_ok = conditions
            if not lhs_ok:
                lhs_idx.append(i)
            if n > 1 and not fprime_ok:
                fprime_idx.append(i)
        if r is not None:
            if r > SWEEP_FAIL_TOL:
                mid_idx.append(i)
            if np.isfinite(r):
                min_mid, max_mid = min(min_mid, r), max(max_mid, r)
    return run, skipped, lhs_idx, fprime_idx, mid_idx, min_mid, max_mid


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", ["ln(s-5)", "s", "-s^0.34"])
def test_sweep_matches_reference_loop(text, n):
    # the sweep's determinants, exp of the summed logs and a product, are
    # the matrices' own to rounding, which moves no count here
    num = 300
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=30 + n)
    run, skipped, lhs_idx, fprime_idx, mid_idx, min_mid, max_mid = reference_sample_convexity(
        f, n, num, seed=30 + n
    )
    # each case exercises what it was chosen for, but at n = 1, where g is
    # f and det C lies in [0.1, 10], s fails nothing and ln(s-5) may run
    # no sample
    if text == "s":
        assert n == 1 or (len(fprime_idx) == num and mid_idx)
    elif text == "ln(s-5)":
        assert 0 < skipped < num or (n == 1 and skipped == num)
    assert (diag.samples_run, diag.samples_skipped) == (run, skipped)
    assert (diag.lhs_failures, diag.fprime_failures, diag.midpoint_failures) == (
        len(lhs_idx), len(fprime_idx), len(mid_idx)
    )
    # the largest residual is one the reference failed; a condition's
    # largest deficit may lie inside the band's absolute floor
    assert not mid_idx or diag.max_midpoint_sample in mid_idx
    # inf equals inf when nothing ran; each LU determinant is within about
    # n cond(C) eps of the exact one, here at most 100, doubled for two
    # routes and given a further factor 4 for the scalar arithmetic after
    tol = 8.0 * n * COND_MAX * EPS
    for got, want in ((diag.min_midpoint_residual, min_mid),
                      (diag.max_midpoint_residual, max_mid)):
        assert got == want or abs(got - want) <= tol * abs(want) + 4 * np.spacing(10.0), (got, want)


def replay(seed, n, i):
    """(spectra, dets) of sample i as one-row stacks, from the seed, n and
    i alone, as the README replays it."""
    bits = np.random.PCG64(seed)
    bits.advance(i * 3 * n)
    return sweep_draw(np.random.Generator(bits), n, 1)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_replay_is_the_row_of_the_stream(n):
    seed = 13
    whole = sweep_draw(stream(seed), n, 50)
    for i in (0, 1, 17, 49):
        for got, row in zip(replay(seed, n, i), whole):
            assert np.array_equal(got, row[i : i + 1])


def replayed_values(f, seed, n, i):
    """The lhs and slope deficits and the midpoint residual of replayed
    sample i, NaN where a check does not run."""
    e, dets = replay(seed, n, i)
    s = float(dets[0, 0])
    values = [np.nan] * 3
    with np.errstate(all="ignore"):
        try:
            jet = eval_jet(f, s)
            values[:2] = (jet.d2 + (n - 1) / (n * s) * jet.d1) * (-n * s * s), s * jet.d1
        except (DomainError, NonFiniteError):
            pass
        try:
            g = eval_jet(f, np.append(dets[0, 1:], np.prod(0.5 * (e[0, 1] + e[0, 2])))).v
            if not np.isnan(g).any():
                values[2] = g[2] - (0.5 * g[0] + 0.5 * g[1])
        except (DomainError, NonFiniteError):
            pass
    return values


def assert_worst_samples_replay(f, diag, seed, n, num):
    """Each worst sample, replayed from its index alone, has the largest
    finite value of its kind over the replayed samples, and the residual's
    is the sweep's extreme bit for bit; an index is -1 when no value of
    its kind was finite."""
    replayed = np.array([replayed_values(f, seed, n, i) for i in range(num)])
    for k, i in enumerate((diag.worst_lhs_sample, diag.worst_fprime_sample,
                           diag.max_midpoint_sample)):
        finite = replayed[:, k][np.isfinite(replayed[:, k])]
        if k == 1 and n == 1:
            assert i == -1
        elif finite.size == 0:
            assert i == -1
        else:
            assert replayed[i, k] == finite.max()
    if diag.max_midpoint_sample >= 0:
        assert replayed[diag.max_midpoint_sample, 2] == diag.max_midpoint_residual


def test_failures_replay_from_their_index():
    n, seed = 3, 11
    f = parse("s")
    diag = sample_convexity(f, n, 300, seed=seed)
    assert diag.fprime_failures and diag.midpoint_failures
    assert diag.worst_fprime_sample > 0 and diag.max_midpoint_sample > 0
    assert diag.max_midpoint_residual > SWEEP_FAIL_TOL
    assert_worst_samples_replay(f, diag, seed, n, 300)


@pytest.mark.parametrize("num", [1, 7, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_draw_helper(text, num):
    n, seed = 3, 11
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.fprime_failures
    assert_worst_samples_replay(f, diag, seed, n, num)


def reference_kernel(f, n, num_samples, seed, tol=DEFAULT_TOL_BASE):
    """(values, skipped, spectra) from one draw of every row with one
    ``eval_jet`` call per determinant row: per sample that ran, its index,
    whether it fails lhs and f' <= 0, their deficits -n s^2 lhs(s) and
    s f'(s), and its midpoint residual, a value NaN where its check did
    not run; the indices of the samples skipped; and the spectra drawn."""
    e, dets = sweep_draw(stream(seed), n, num_samples)
    s = dets[:, 0]
    jet = eval_jet(f, s)
    g1 = eval_jet(f, dets[:, 1]).v
    g2 = eval_jet(f, dets[:, 2]).v
    gm = eval_jet(f, left_fold(np.multiply, 0.5 * (e[:, 1] + e[:, 2]))).v
    with np.errstate(all="ignore"):
        # the grid's condition and band, each band term scaled first
        lhs = jet.d2 + (n - 1) / (n * s) * jet.d1
        band = (tol + tol * np.abs(jet.d1)) + tol * np.abs(jet.d2)
        lhs_deficit = lhs * (-n * s * s)
        slope_deficit = s * jet.d1
        r = gm - (0.5 * g1 + 0.5 * g2)
    ran = ~np.isnan(jet.v)
    lhs_bad = ran & ~(lhs >= -band)
    # at n = 1, g is f itself and f' <= 0 is no condition
    fprime_bad = ran & ~(jet.d1 <= band) & (n > 1)
    mid_ran = ~(np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
    values, skipped = [], []
    for j in range(num_samples):
        if ran[j] or mid_ran[j]:
            values.append((j, bool(lhs_bad[j]), float(lhs_deficit[j]), bool(fprime_bad[j]),
                           float(slope_deficit[j]) if n > 1 else np.nan, float(r[j])))
        else:
            skipped.append(j)
    return values, skipped, e


def _worst(values, k):
    """The first index of the largest finite entry k of ``values``, and
    that entry; (-1, -inf) when none is finite."""
    finite = [(v[k], v[0]) for v in values if np.isfinite(v[k])]
    top = max((x for x, _ in finite), default=-np.inf)
    return next((j for x, j in finite if x == top), -1), top


def summary(values, skipped) -> ConvexitySampleDiagnostics:
    """The diagnostics of a sweep whose samples that ran have the
    ``values`` of ``reference_kernel`` and whose skipped samples are the
    indices ``skipped``, one sample at a time."""
    residuals = [v[5] for v in values]
    max_mid_at, max_mid = _worst(values, 5)
    return ConvexitySampleDiagnostics(
        samples_run=len(values),
        samples_skipped=len(skipped),
        lhs_failures=sum(v[1] for v in values),
        worst_lhs_sample=_worst(values, 2)[0],
        fprime_failures=sum(v[3] for v in values),
        worst_fprime_sample=_worst(values, 4)[0],
        min_midpoint_residual=min(filter(np.isfinite, residuals), default=np.inf),
        max_midpoint_residual=max_mid,
        # infinite residuals fail or pass and NaN fails none
        midpoint_failures=sum(r > SWEEP_FAIL_TOL for r in residuals),
        max_midpoint_sample=max_mid_at,
    )


def prefix(values, skipped, num):
    """The reference values and skips of the first ``num`` samples."""
    return [v for v in values if v[0] < num], [i for i in skipped if i < num]


def assert_worst_draws_replay(diag, seed, n, spectra):
    """The worst samples' spectra replay from their index."""
    for i in (diag.worst_lhs_sample, diag.worst_fprime_sample, diag.max_midpoint_sample):
        if i >= 0:
            assert np.array_equal(replay(seed, n, i)[0][0], spectra[i])


# 8e307*s^2 overflows its jets on most samples, which skip the conditions
# or both checks, and its lhs to +inf on the others; exp(exp(s)) and
# ln(s-5) skip samples too
KERNEL_FUNCTIONS = ["-ln(s)", "s", "-s^0.34", "-ln(s)+1e-7*s^2", "ln(s-5)", "exp(exp(s))",
                    "8e307*s^2"]


@pytest.mark.parametrize("num", [1, 7, 256, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", KERNEL_FUNCTIONS)
def test_sweep_equals_the_kernel_reference_bit_for_bit(text, n, num):
    f = parse(text)
    seed = 70 + n
    diag = sample_convexity(f, n, num, seed=seed)
    values, skipped, spectra = reference_kernel(f, n, num, seed)
    # inf over a sweep that ran no sample compares equal too
    assert diag == summary(values, skipped)
    assert_worst_draws_replay(diag, seed, n, spectra)
    # each function exercises what it was chosen for
    if num == 1000 and text in ("ln(s-5)", "exp(exp(s))", "8e307*s^2"):
        assert skipped
    if num == 1000 and text == "s" and n > 1:
        assert diag.fprime_failures == 1000 and diag.midpoint_failures
    # at n = 10, det C reaches 1e10, where the lhs of -s^0.34 lies inside
    # the band's absolute floor
    if num == 1000 and text == "-s^0.34" and n in (3, 5):
        assert diag.lhs_failures == 1000
    if text == "8e307*s^2" and n > 1:
        # every lhs that ran overflowed, so none names a worst sample
        assert diag.worst_lhs_sample == -1


@pytest.mark.parametrize("tol", [1e-13, 0.5])
def test_the_band_is_the_tolerance_given(tol):
    # 1e-12*s has f' = 1e-12, inside a band of about 1e-9 and outside
    # one of 1e-13; -s^0.34 fails lhs by far more than half its size
    for text in ("1e-12*s", "-s^0.34", "s"):
        f = parse(text)
        diag = sample_convexity(f, 3, 300, seed=2, tol=tol)
        assert diag == summary(*reference_kernel(f, 3, 300, 2, tol)[:2])
    assert sample_convexity(parse("1e-12*s"), 3, 300, seed=2, tol=1e-13).fprime_failures == 300
    assert sample_convexity(parse("1e-12*s"), 3, 300, seed=2).fprime_failures == 0


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    n, seed, short, long = 3, 18, 296, 768
    f = parse(text)
    values, skipped, _ = reference_kernel(f, n, long, seed)
    assert sample_convexity(f, n, long, seed=seed) == summary(values, skipped)
    # the same matrices, so the same values to the bit
    assert sample_convexity(f, n, short, seed=seed) == summary(*prefix(values, skipped, short))


def test_the_sweep_solves_no_linear_system(monkeypatch):
    # C, A1 and A2 are drawn as spectra: the conditions need only det C
    # and the midpoint pair's determinant is a product, so the sweep
    # calls no LAPACK routine, builds no frame and forms no quadratic form
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called a LAPACK routine or a form")

    for name in ("solve", "det", "slogdet", "inv", "eigh", "eigvalsh", "cholesky", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("hess_terms", "diag_terms", "g_hess_form", "condition_bracket"):
        monkeypatch.setattr(detcalculus, name, refuse)
    monkeypatch.setattr(linalg, "sym_build", refuse)
    diag = sample_convexity(parse("s"), 3, 257, seed=5)
    assert diag.samples_run == 257
    assert diag.fprime_failures and diag.midpoint_failures


def pass_rows(n):
    """Rows of one evaluation pass at n: as many as keep rows * 3n within
    SWEEP_PASS_ENTRIES, and at least one."""
    return max(1, SWEEP_PASS_ENTRIES // (3 * n))


def test_pass_sizes():
    # a default 1000-sample sweep is one pass up to n = 10
    assert [pass_rows(n) for n in (1, 2, 3, 5, 6, 10, 24, 64)] == [
        10922, 5461, 3640, 2184, 1820, 1092, 455, 170
    ]


@pytest.mark.parametrize("m", [1, 7, 1000, 5000])
def test_a_sweep_builds_one_generator_and_draws_only_its_rows(monkeypatch, m):
    calls = {name: [] for name in ("PCG64", "Generator", "default_rng", "SeedSequence")}
    rows = []

    def spy(owner, name, record):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in calls:
        spy(np.random, name, calls[name].append)
    spy(certifier, "sweep_draw", lambda args: rows.append(args[2]))
    for name in ("seed_words", "random_posdef_stack", "random_sym"):
        spy(linalg, name, lambda args: pytest.fail("the sweep drew through a per-word stream"))
    diag = sample_convexity(parse("-ln(s)"), 3, m, seed=5)
    assert diag.samples_run == m
    # one PCG64 stream and its generator for the whole sweep
    assert calls["PCG64"] == [(5,)]
    assert len(calls["Generator"]) == 1
    assert calls["default_rng"] == calls["SeedSequence"] == []
    # one draw per pass, of the rows it runs
    assert rows == [min(pass_rows(3), m - k) for k in range(0, m, pass_rows(3))]


def boundary_counts(p):
    """Sample counts about the pass boundaries of p rows, and 300,
    ascending, up to three passes or 300."""
    return sorted({1, p - 1, p, p + 1, 3 * p, 300} - {0})


# the domain failure of ln(s-5) skips samples, the lhs of 8e307*s^2 and
# the sums g1 + g2 of -8e307*s^0.1 overflow, and -ln(s)+1e-7*s^2 fails
# its slope on a few samples only, so that a pass may hold none
BOUNDARY_FUNCTIONS = ["s", "ln(s-5)", "8e307*s^2", "-8e307*s^0.1", "-ln(s)+1e-7*s^2"]


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("n", [1, 3, 5, 10, 24])
@pytest.mark.parametrize("text", BOUNDARY_FUNCTIONS)
def test_passes_equal_the_kernel_reference_bit_for_bit(monkeypatch, text, n, rows):
    # a pass of one row, of seven rows, and the default
    if rows is not None:
        monkeypatch.setattr(certifier, "SWEEP_PASS_ENTRIES", rows * 3 * n)
    p = pass_rows(n) if rows is None else rows
    f = parse(text)
    seed = 40 + n
    counts = boundary_counts(p)
    # a shorter sweep draws a prefix of the longest one's samples
    values, skipped, spectra = reference_kernel(f, n, counts[-1], seed)
    for num in counts:
        diag = sample_convexity(f, n, num, seed=seed)
        assert diag == summary(*prefix(values, skipped, num)), num
        assert_worst_draws_replay(diag, seed, n, spectra)
    # each function exercises what it was chosen for over the longest sweep
    if text == "ln(s-5)":
        assert skipped
    if text == "-8e307*s^0.1" and n > 1:
        # the midpoint sums overflow and the residuals stay finite
        assert diag.midpoint_failures == 0 and np.isfinite(diag.max_midpoint_residual)


# --------------------------------------------------------------------------
# the quadratic form as a weighted sum of the two conditions


def condition_weights(c, h):
    """(t^2, |X0|^2, |X|_F^2) of X = C^(-1/2) H C^(-1/2) for stacks of
    pairs, with C^(-1/2) from LAPACK's eigendecomposition of C."""
    w, q = np.linalg.eigh(c)
    root = (q / np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)
    x = root @ h @ root
    t = np.trace(x, axis1=-2, axis2=-1)
    fro2 = np.sum(x * x, axis=(-2, -1))
    return t * t, fro2 - t * t / c.shape[-1], fro2


WEIGHT_FUNCTIONS = {
    n: tuple(builtin_corpus(n)) + tuple(parse(text) for text in EXPRESSION_CORPUS)
    for n in (1, 2, 3, 5, 10)
}


@given(st.sampled_from([1, 2, 3, 5, 10]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hess_form_is_the_weighted_sum_of_the_two_conditions(n, seed):
    # on the oracle's full, non-diagonal pairs, one per function
    functions = WEIGHT_FUNCTIONS[n]
    c, h = linalg.random_pairs(n, seed, len(functions))
    s = np.linalg.det(c)
    with np.errstate(all="ignore"):
        forms = directional_forms(functions, c, h, s).hess
    t2, x0, fro2 = condition_weights(c, h)
    assert np.all(x0 >= -1e-12 * fro2)
    checked = 0
    for i, f in enumerate(functions):
        jet = eval_jet(f, s[i : i + 1])
        if not np.isfinite(forms[i]) or np.isnan(jet.v[0]):
            continue
        with np.errstate(all="ignore"):
            lhs = jet.d2[0] + (n - 1) / (n * s[i]) * jet.d1[0]
            weighted = s[i] ** 2 * t2[i] * lhs + s[i] * x0[i] * -jet.d1[0]
            # each term to rounding: the weights come from an eigensolver
            # and the form from a solve, each within about n cond(C) eps
            # of |X|_F^2
            scale = s[i] * (s[i] * abs(jet.d2[0]) + abs(jet.d1[0])) * n * fro2[i]
        # subnormal terms keep no relative precision, and overflowing
        # ones none at all
        if not np.finfo(float).tiny <= scale < np.inf:
            continue
        assert abs(forms[i] - weighted) <= 8 * n * COND_MAX * EPS * scale, (f, forms[i], weighted)
        checked += 1
    assert checked >= len(builtin_corpus(n))


# --------------------------------------------------------------------------
# the weighted-form sweep the two conditions replaced, as evidence


def weighted_form_sweep(f, n, num_samples, seed):
    """(form failures, midpoint failures) of the sweep that sampled
    D2g(C).(H,H): per sample a row of 3n + n(n+1)/2 uniforms, the log
    eigenvalues of the diagonal C, A1 and A2 and then the upper triangle
    of H over [-1, 1] in ``linalg.sym_build`` order, and a failure per
    form below -SWEEP_FAIL_TOL or residual above it."""
    lo, hi = DEFAULT_LOG_EIG_RANGE
    u = stream(seed).random((num_samples, 3 * n + n * (n + 1) // 2))
    logs = lo + (hi - lo) * u[:, : 3 * n].reshape(num_samples, 3, n)
    h = linalg.sym_build(-1.0 + 2.0 * u[:, 3 * n :], n)
    e, dets = np.exp(logs), np.exp(logs.sum(axis=2))
    s = dets[:, 0]
    g1, g2 = (eval_jet(f, dets[:, k]).v for k in (1, 2))
    gm = eval_jet(f, np.prod(0.5 * (e[:, 1] + e[:, 2]), axis=1)).v
    with np.errstate(all="ignore"):
        forms = g_hess_form(eval_jet(f, s), s, *diag_terms(1 / e[:, 0], h))
        r = gm - (0.5 * g1 + 0.5 * g2)
    return int(np.count_nonzero(forms < -SWEEP_FAIL_TOL)), int(np.count_nonzero(r > SWEEP_FAIL_TOL))


@pytest.mark.parametrize("n", [3, 5, 10])
def test_every_failing_form_has_a_failing_check(n):
    failing = 0
    for text in EXPRESSION_CORPUS:
        f = parse(text)
        for seed in range(5):
            if weighted_form_sweep(f, n, 1000, seed)[0]:
                failing += 1
                diag = sample_convexity(f, n, 1000, seed)
                assert diag.lhs_failures + diag.fprime_failures + diag.midpoint_failures, (
                    text, seed,
                )
    assert failing >= 30


@pytest.mark.parametrize("text, n", [("-s^0.34", 3), ("-sqrt(s)", 5)])
def test_a_form_hides_what_the_conditions_show(text, n):
    # lhs < 0 at every s, yet every weighted form passes: its -f' > 0
    # weight outweighs the failing term on each of these draws
    f = parse(text)
    assert weighted_form_sweep(f, n, 1000, 42)[0] == 0
    diag = sample_convexity(f, n, 1000, 42)
    assert diag.samples_run == diag.lhs_failures == 1000
    assert diag.fprime_failures == 0
