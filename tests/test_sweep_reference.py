"""The randomized midpoint sweep against per-sample references, and the
sweep's older checks as evidence for what replaced them.

The sweep draws sample i as row i of one PCG64 stream seeded with the
seed: 2n uniforms, the log eigenvalues of the diagonal A1 and A2.
``reference_rows`` draws the same stream one spectrum at a time through
``Generator.uniform`` and sums each spectrum's logs left to right, and
the draws must agree bit for bit.

``reference_kernel`` draws every row at once, with one ``eval_jet`` call
per determinant row, and keeps every sample's residual, which ``summary``
turns into the sweep's counts and extremes.  The sweep, which evaluates
its rows in passes with one jet call each and keeps running values, must
equal it in every bit whatever the pass size, and the draws that replay
from the largest residual's index must be the ones the reference drew
there.  Every route forms the midpoint residual as gm - (g1/2 + g2/2),
which stays finite where g1 + g2 overflows.  A sample runs where f
evaluates at A1, A2 and their midpoint, and is skipped elsewhere.  An
infinite residual counts as a failure where it crosses the tolerance and
a NaN one (inf - inf) as none, but only finite values are extremes.

The sweep once also checked the grid's two conditions at s = det C of a
third diagonal draw C, whose log det is a sum of n uniforms over
[-ln 10, ln 10].  ``per_term_failures`` keeps that draw, with 3n uniforms
per row, as a reference: each failure it draws must be one the grid or
the deterministic beyond-grid pass over [10^-n, 10^n] finds too.  Before
that, the sweep sampled the quadratic form, which is the two conditions'
weighted sum: with X = C^(-1/2) H C^(-1/2), t = tr X and
|X0|^2 = |X|_F^2 - t^2/n,

    D2g(C).(H,H) = s^2 t^2 lhs(s) + s |X0|^2 (-f'(s)),

both weights nonnegative, which
``test_hess_form_is_the_weighted_sum_of_the_two_conditions`` checks on
the oracle's full frames.  ``weighted_form_sweep`` is that older sweep:
wherever its forms fail, ``certify`` must fail or its sweep find a
midpoint failure, and a form can hide a failing term.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detconvex import certifier, detcalculus, linalg, selftest
from detconvex.certifier import (
    CERTIFIED,
    DEFAULT_TOL_BASE,
    SWEEP_FAIL_TOL,
    SWEEP_PASS_ENTRIES,
    ConvexitySampleDiagnostics,
    certify,
    condition_flags,
    sample_convexity,
    sweep_draw,
)
from detconvex.detcalculus import builtin_corpus, directional_forms, g_hess_form
from detconvex.errors import DomainError, NonFiniteError
from detconvex.linalg import DEFAULT_LOG_EIG_RANGE
from detconvex.scalarfun import eval_jet, parse
from detconvex.selftest import EXPRESSION_CORPUS, diag_terms

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
    """The (A1, A2) spectra and the (det A1, det A2) rows of the first k
    samples of a sweep with ``seed``, drawn from one stream a spectrum at
    a time: per sample, the n log eigenvalues of A1 and then of A2."""
    gen = stream(seed)
    spectra, dets = [], []
    for _ in range(k):
        logs = [gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=n) for _ in range(2)]
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
    # A1 and A2 as spectra: row j holds their diagonals
    assert spectra.shape == (k, 2, n)
    assert all(np.array_equal(spectra[j], spectra_ref[j]) for j in range(k))
    assert dets.shape == (k, 2)
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


def reference_sample_convexity(f, n, num_samples, seed):
    """(run, skipped, midpoint failure indices, min_mid, max_mid) from one
    sample at a time, with A1, A2 and the midpoint built as matrices and
    their determinants from the hand LU ``linalg.det``."""
    min_mid, max_mid = np.inf, -np.inf
    mid_idx = []
    run = skipped = 0
    spectra, _ = reference_rows(n, seed, num_samples)
    for i, (a1, a2) in enumerate(spectra):
        with np.errstate(all="ignore"):
            try:
                g1, g2, gm = (eval_jet(f, linalg.det(np.diag(x))).v
                              for x in (a1, a2, 0.5 * (a1 + a2)))
                r = gm - (0.5 * g1 + 0.5 * g2)
            except (DomainError, NonFiniteError):
                skipped += 1
                continue
        run += 1
        if r > SWEEP_FAIL_TOL:
            mid_idx.append(i)
        if np.isfinite(r):
            min_mid, max_mid = min(min_mid, r), max(max_mid, r)
    return run, skipped, mid_idx, min_mid, max_mid


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", ["ln(s-5)", "s", "-s^0.34"])
def test_sweep_matches_reference_loop(text, n):
    # the sweep's determinants, exp of the summed logs and a product, are
    # the matrices' own to rounding, which moves no count here
    num = 300
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=30 + n)
    run, skipped, mid_idx, min_mid, max_mid = reference_sample_convexity(f, n, num, seed=30 + n)
    # each case exercises what it was chosen for, but at n = 1, where g is
    # f and det A lies in [0.1, 10], s fails nothing and ln(s-5) may run
    # no sample
    if text == "s":
        assert n == 1 or mid_idx
    elif text == "ln(s-5)":
        assert 0 < skipped < num or (n == 1 and skipped == num)
    assert (diag.samples_run, diag.samples_skipped) == (run, skipped)
    assert diag.midpoint_failures == len(mid_idx)
    assert not mid_idx or diag.max_midpoint_sample in mid_idx
    # inf equals inf when nothing ran; each LU determinant is within about
    # n cond(A) eps of the exact one, here at most 100, doubled for two
    # routes and given a further factor 4 for the scalar arithmetic after
    tol = 8.0 * n * COND_MAX * EPS
    for got, want in ((diag.min_midpoint_residual, min_mid),
                      (diag.max_midpoint_residual, max_mid)):
        assert got == want or abs(got - want) <= tol * abs(want) + 4 * np.spacing(10.0), (got, want)


def replay(seed, n, i):
    """(spectra, dets) of sample i as one-row stacks, from the seed, n and
    i alone, as the README replays it."""
    bits = np.random.PCG64(seed)
    bits.advance(i * 2 * n)
    return sweep_draw(np.random.Generator(bits), n, 1)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_replay_is_the_row_of_the_stream(n):
    seed = 13
    whole = sweep_draw(stream(seed), n, 50)
    for i in (0, 1, 17, 49):
        for got, row in zip(replay(seed, n, i), whole):
            assert np.array_equal(got, row[i : i + 1])


def replayed_residual(f, seed, n, i):
    """The midpoint residual of replayed sample i, NaN where f fails."""
    e, dets = replay(seed, n, i)
    with np.errstate(all="ignore"):
        g = eval_jet(f, np.append(dets[0], np.prod(0.5 * (e[0, 0] + e[0, 1])))).v
        return g[2] - (0.5 * g[0] + 0.5 * g[1])


def assert_worst_sample_replays(f, diag, seed, n, num):
    """The largest residual's sample, replayed from its index alone, has
    the largest finite residual of the replayed samples, bit for bit, and
    the failures are the replayed residuals above the tolerance; the index
    is -1 when no residual was finite."""
    replayed = np.array([replayed_residual(f, seed, n, i) for i in range(num)])
    assert np.count_nonzero(replayed > SWEEP_FAIL_TOL) == diag.midpoint_failures
    finite = replayed[np.isfinite(replayed)]
    if finite.size == 0:
        assert diag.max_midpoint_sample == -1
    else:
        assert replayed[diag.max_midpoint_sample] == finite.max() == diag.max_midpoint_residual


def test_failures_replay_from_their_index():
    n, seed = 3, 11
    f = parse("s")
    diag = sample_convexity(f, n, 300, seed=seed)
    assert diag.midpoint_failures and diag.max_midpoint_sample > 0
    assert diag.max_midpoint_residual > SWEEP_FAIL_TOL
    assert_worst_sample_replays(f, diag, seed, n, 300)


@pytest.mark.parametrize("num", [1, 7, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_draw_helper(text, num):
    n, seed = 3, 11
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.midpoint_failures if text == "s" else diag.samples_skipped
    assert_worst_sample_replays(f, diag, seed, n, num)


def reference_kernel(f, n, num_samples, seed):
    """(values, skipped, spectra) from one draw of every row with one
    ``eval_jet`` call per determinant row: per sample that ran, its index
    and its midpoint residual; the indices of the samples skipped; and the
    spectra drawn."""
    e, dets = sweep_draw(stream(seed), n, num_samples)
    g1 = eval_jet(f, dets[:, 0]).v
    g2 = eval_jet(f, dets[:, 1]).v
    gm = eval_jet(f, left_fold(np.multiply, 0.5 * (e[:, 0] + e[:, 1]))).v
    with np.errstate(all="ignore"):
        r = gm - (0.5 * g1 + 0.5 * g2)
    ran = ~(np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
    values = [(j, float(r[j])) for j in range(num_samples) if ran[j]]
    return values, [j for j in range(num_samples) if not ran[j]], e


def summary(values, skipped) -> ConvexitySampleDiagnostics:
    """The diagnostics of a sweep whose samples that ran have the
    ``values`` of ``reference_kernel`` and whose skipped samples are the
    indices ``skipped``, one sample at a time."""
    finite = [(r, j) for j, r in values if np.isfinite(r)]
    top = max((r for r, _ in finite), default=-np.inf)
    return ConvexitySampleDiagnostics(
        samples_run=len(values),
        samples_skipped=len(skipped),
        min_midpoint_residual=min((r for r, _ in finite), default=np.inf),
        max_midpoint_residual=top,
        # infinite residuals fail or pass and NaN fails none
        midpoint_failures=sum(r > SWEEP_FAIL_TOL for _, r in values),
        # the first index of the largest finite residual
        max_midpoint_sample=next((j for r, j in finite if r == top), -1),
    )


def prefix(values, skipped, num):
    """The reference values and skips of the first ``num`` samples."""
    return [v for v in values if v[0] < num], [i for i in skipped if i < num]


def assert_worst_draws_replay(diag, seed, n, spectra):
    """The largest residual's spectra replay from its index."""
    i = diag.max_midpoint_sample
    if i >= 0:
        assert np.array_equal(replay(seed, n, i)[0][0], spectra[i])


# 8e307*s^2 and exp(exp(s)) overflow at some determinants and ln(s-5)
# fails its domain, which skip samples
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
        assert diag.midpoint_failures


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    n, seed, short, long = 3, 18, 296, 768
    f = parse(text)
    values, skipped, _ = reference_kernel(f, n, long, seed)
    assert sample_convexity(f, n, long, seed=seed) == summary(values, skipped)
    # the same matrices, so the same values to the bit
    assert sample_convexity(f, n, short, seed=seed) == summary(*prefix(values, skipped, short))


def test_the_sweep_solves_no_linear_system(monkeypatch):
    # A1 and A2 are drawn as spectra and the midpoint's determinant is a
    # product, so the sweep calls no LAPACK routine, builds no frame and
    # forms no quadratic form
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called a LAPACK routine or a form")

    for name in ("solve", "det", "slogdet", "inv", "eigh", "eigvalsh", "cholesky", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("hess_terms", "g_hess_form", "condition_bracket"):
        monkeypatch.setattr(detcalculus, name, refuse)
    monkeypatch.setattr(selftest, "diag_terms", refuse)
    monkeypatch.setattr(linalg, "sym_build", refuse)
    diag = sample_convexity(parse("s"), 3, 257, seed=5)
    assert diag.samples_run == 257
    assert diag.midpoint_failures


def pass_rows(n):
    """Rows of one evaluation pass at n: as many as keep rows * 2n within
    SWEEP_PASS_ENTRIES, and at least one."""
    return max(1, SWEEP_PASS_ENTRIES // (2 * n))


def test_pass_sizes():
    # a default 1000-sample sweep is one pass up to n = 16
    assert [pass_rows(n) for n in (1, 2, 3, 5, 6, 10, 16, 17, 24, 64)] == [
        16384, 8192, 5461, 3276, 2730, 1638, 1024, 963, 682, 256
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


# the domain failure of ln(s-5) and the overflow of 8e307*s^2 skip
# samples, the sums g1 + g2 of -8e307*s^0.1 overflow, and s fails on some
# samples only and -ln(s)+1e-7*s^2 on a few at n >= 10, so that a pass
# may hold none
BOUNDARY_FUNCTIONS = ["s", "ln(s-5)", "8e307*s^2", "-8e307*s^0.1", "-ln(s)+1e-7*s^2"]


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("n", [1, 3, 5, 10, 24])
@pytest.mark.parametrize("text", BOUNDARY_FUNCTIONS)
def test_passes_equal_the_kernel_reference_bit_for_bit(monkeypatch, text, n, rows):
    # a pass of one row, of seven rows, and the default
    if rows is not None:
        monkeypatch.setattr(certifier, "SWEEP_PASS_ENTRIES", rows * 2 * n)
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
    if text == "ln(s-5)" and n > 1:
        assert skipped
    if text == "-8e307*s^0.1" and n > 1:
        # the midpoint sums overflow and the residuals stay finite
        assert diag.midpoint_failures == 0 and np.isfinite(diag.max_midpoint_residual)
    if text == "-ln(s)+1e-7*s^2" and n >= 10:
        assert 0 < diag.midpoint_failures < counts[-1] // 2


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
# exp(s)/(1+s^2) at s = 1.00047: f' and f'' both cancel, so two roundings
# of det C give jets that differ by more than the bound
@example(n=2, seed=331604463)
@settings(max_examples=60, deadline=None)
def test_hess_form_is_the_weighted_sum_of_the_two_conditions(n, seed):
    # on the oracle's full, non-diagonal pairs, one per function
    functions = WEIGHT_FUNCTIONS[n]
    c, h = linalg.random_pairs(n, seed, len(functions))
    # the determinant the oracle evaluates f at, so that both sides share
    # one jet and the bound covers only the weights and the solve
    s = linalg.cholesky_posdef(c)
    with np.errstate(all="ignore"):
        forms = directional_forms(functions, c, h).hess
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
# the older sweeps, as evidence for what replaced them


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
    # a failing form fails a condition at its det C, which lies in
    # [10^-n, 10^n], or it is a midpoint failure itself
    failing = 0
    for text in EXPRESSION_CORPUS:
        f = parse(text)
        for seed in range(5):
            if weighted_form_sweep(f, n, 1000, seed)[0]:
                failing += 1
                rep = certify(f, n, samples=1000, seed=seed)
                assert rep.verdict != CERTIFIED or rep.diagnostics.midpoint_failures, (text, seed)
    assert failing >= 30


@pytest.mark.parametrize("text, n", [("-s^0.34", 3), ("-sqrt(s)", 5)])
def test_a_form_hides_what_the_conditions_show(text, n):
    # lhs < 0 at every s, yet every weighted form passes: its -f' > 0
    # weight outweighs the failing term on each of these draws
    f = parse(text)
    assert weighted_form_sweep(f, n, 1000, 42)[0] == 0
    rep = certify(f, n)
    assert rep.verdict != CERTIFIED
    assert not rep.lhs_ok.any() and rep.fprime_ok.all()
    beyond = rep.beyond_grid
    assert beyond is None or (beyond.lhs_bad.all() and not beyond.fprime_bad.any())


def per_term_failures(f, n, num_samples, seed, tol=DEFAULT_TOL_BASE):
    """(s, lhs fails, f' fails) at the samples of the sweep that checked
    the grid's two conditions at s = det C, whose rows held 3n uniforms,
    the log eigenvalues of the diagonal C, A1 and A2, and whose det C was
    the exp of C's logs summed left to right; NaN jets fail neither."""
    lo, hi = DEFAULT_LOG_EIG_RANGE
    u = stream(seed).random((num_samples, 3, n))
    s = np.exp(left_fold(np.add, u[:, 0] * (hi - lo) + lo))
    jet = eval_jet(f, s)
    _, _, fprime_ok, lhs_ok = condition_flags(jet, s, n, tol)
    ran = ~np.isnan(jet.v)
    return s, ran & ~lhs_ok, ran & ~fprime_ok


@pytest.mark.parametrize("n", [2, 3, 5, 10, 24])
def test_every_per_term_failure_is_a_failure_of_the_passes(n):
    # each failure the per-term draw finds, the grid or the beyond-grid
    # pass finds too, of the same kind, at one of the two points of their
    # joint columns that bracket its s
    failing = 0
    for text in EXPRESSION_CORPUS:
        f = parse(text)
        rep = certify(f, n)
        if rep.domain_failure:
            # the beyond-grid pass does not run after a grid domain failure
            assert rep.verdict != CERTIFIED and rep.beyond_grid is None
            continue
        columns = [(rep.s, ~rep.lhs_ok, ~rep.fprime_ok)]
        if rep.beyond_grid is not None:
            b = rep.beyond_grid
            columns.append((b.s, b.lhs_bad, b.fprime_bad))
        points, lhs_bad, fprime_bad = (np.concatenate(c) for c in zip(*columns))
        order = np.argsort(points)
        points, lhs_bad, fprime_bad = points[order], lhs_bad[order], fprime_bad[order]
        for seed in (1, 7, 42):
            s, *kinds = per_term_failures(f, n, 1000, seed)
            # the columns span every det C the draw can reach
            assert points[0] <= s.min() and s.max() <= points[-1]
            above = np.clip(np.searchsorted(points, s), 1, len(points) - 1)
            for drawn, found in zip(kinds, (lhs_bad, fprime_bad)):
                failing += int(drawn.any())
                bracketed = found[above - 1] | found[above]
                assert bracketed[drawn].all(), (text, seed, s[drawn & ~bracketed])
    assert failing >= 50
