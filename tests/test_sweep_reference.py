"""The stacked randomized sweep against per-sample references.

The sweep draws sample i as row i of one PCG64 stream seeded with the
seed: 3n uniforms for the log eigenvalues of the diagonal C, A1 and A2,
then n(n+1)/2 for the upper triangle of H.  ``reference_rows`` draws the
same stream one matrix row at a time through ``Generator.uniform``, and
the draws must agree bit for bit.

``reference_sample_convexity`` is the loop the stacked sweep replaced:
``g_hess_form`` over the ``hess_terms`` solve on each full pair and the
hand LU ``linalg.det`` for every determinant, the midpoint one that of
diag((e1 + e2) / 2), one sample at a time.  Its values may differ in the
last digits because the sweep takes its inner products and determinants
from the drawn spectra.

``reference_kernel`` draws every row at once, with one ``eval_jet`` call
per determinant row, and keeps every sample's values, which ``summary``
turns into the sweep's counts and extremes.  The sweep, which evaluates
its rows in passes with one jet call each and keeps running values, must
equal it in every bit whatever the pass size, and the draws that replay
from a worst sample's index must be the ones the reference drew there.
Every route forms the midpoint residual as gm - (g1/2 + g2/2), which
stays finite where g1 + g2 overflows.

Each check runs where its own jets evaluate, in the references as in the
sweep: the form where the jet at det C does, the residual where those at
A1, A2 and the midpoint do, and a sample where neither ran is skipped.
An infinite form or residual counts as a failure where it crosses the
tolerance and a NaN one (inf - inf) as none, but only finite values are
extremes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detconvex import certifier, detcalculus, linalg
from detconvex.certifier import (
    SWEEP_FAIL_TOL,
    SWEEP_PASS_ENTRIES,
    ConvexitySampleDiagnostics,
    sample_convexity,
    sweep_draw,
)
from detconvex.detcalculus import (
    builtin_corpus,
    condition_bracket,
    diag_terms,
    g_hess_form,
    hess_terms,
)
from detconvex.errors import DomainError, NonFiniteError
from detconvex.linalg import DEFAULT_LOG_EIG_RANGE, PosDefMatrix, random_sym
from detconvex.scalarfun import eval_jet, parse

EPS = float(np.finfo(float).eps)
# Eigenvalues of the default draws lie in [0.1, 10].
COND_MAX = 100.0


def rel_tol(n: int) -> float:
    """Agreement allowed between the two routes: each LU determinant is
    within about n * cond(C) * eps of the exact one, doubled for two routes
    and given a further factor 4 for the scalar arithmetic that follows."""
    return 8.0 * n * COND_MAX * EPS


def stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


def reference_sym(gen, n):
    """One symmetric matrix with entries uniform in [-1, 1] from ``gen``,
    one row of its upper triangle at a time."""
    m = np.zeros((n, n))
    for i in range(n):
        vals = gen.uniform(-1.0, 1.0, size=n - i)
        m[i, i:] = vals
        m[i:, i] = vals
    return m


def reference_rows(n, seed, k):
    """The (C, H, A1, A2) lists and the (det C, det A1, det A2) rows of
    the first k samples of a sweep with ``seed``, drawn from one stream a
    matrix row at a time: per sample, the n log eigenvalues of C, of A1
    and of A2 in turn, then H one upper-triangle row at a time."""
    gen = stream(seed)
    c, h, a1, a2, dets = [], [], [], [], []
    for _ in range(k):
        logs = [gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=n) for _ in range(3)]
        for out, lg in zip((c, a1, a2), logs):
            out.append(np.diag(np.exp(lg)))
        dets.append(tuple(np.exp(np.sum(lg)) for lg in logs))
        h.append(reference_sym(gen, n))
    return c, h, a1, a2, dets


def reference_sample_convexity(f, n, num_samples, seed, fail_tol=1e-8):
    """(run, skipped, min_hess, min_mid, max_mid, hess indices, midpoint
    indices) from one sample at a time."""
    min_hess, min_mid, max_mid = np.inf, np.inf, -np.inf
    hess_idx, mid_idx = [], []
    run = skipped = 0
    rows = reference_rows(n, seed, num_samples)
    for i in range(num_samples):
        c, h, a1, a2, _ = (x[i] for x in rows)
        c = PosDefMatrix.from_sym(c)
        v = r = None
        with np.errstate(all="ignore"):
            try:
                v = g_hess_form(eval_jet(f, c.det), c.det, *hess_terms(c.a, h))
            except (DomainError, NonFiniteError):
                pass
            try:
                g1, g2, gm = (eval_jet(f, linalg.det(x)).v for x in (a1, a2, 0.5 * (a1 + a2)))
                r = gm - (0.5 * g1 + 0.5 * g2)
            except (DomainError, NonFiniteError):
                pass
        if v is None and r is None:
            skipped += 1
            continue
        run += 1
        if v is not None:
            if v < -fail_tol:
                hess_idx.append(i)
            if np.isfinite(v):
                min_hess = min(min_hess, v)
        if r is not None:
            if r > fail_tol:
                mid_idx.append(i)
            if np.isfinite(r):
                min_mid = min(min_mid, r)
                max_mid = max(max_mid, r)
    return run, skipped, min_hess, min_mid, max_mid, hess_idx, mid_idx


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_stacked_draws_are_the_single_seed_draws(n):
    seeds = np.random.SeedSequence(500 + n).generate_state(40, dtype=np.uint64)
    # a count-1 stack is the draw of a single seed
    for seed in seeds:
        sym = random_sym(n, seed, 1)
        assert sym.shape == (1, n, n)
        assert np.array_equal(sym[0], reference_sym(stream(int(seed)), n))
    # row j of a k-stack is the j-th matrix of the stream drawn one row
    # at a time, and a shorter stack is its prefix
    k = 40
    seed = int(seeds[0])
    sym = random_sym(n, seed, k)
    assert sym.shape == (k, n, n)
    gen = stream(seed)
    assert all(np.array_equal(sym[j], reference_sym(gen, n)) for j in range(k))
    for short in (1, 7, k - 1):
        assert np.array_equal(random_sym(n, seed, short), sym[:short])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_draw_is_the_per_row_reference(n):
    k, seed = 40, 9 + n
    spectra, h, dets = sweep_draw(stream(seed), n, k)
    c_ref, h_ref, a1_ref, a2_ref, dets_ref = reference_rows(n, seed, k)
    # C, A1 and A2 as spectra: row j holds their diagonals
    assert spectra.shape == (k, 3, n)
    for r, rows in enumerate((c_ref, a1_ref, a2_ref)):
        assert all(np.array_equal(np.diag(spectra[j, r]), rows[j]) for j in range(k))
    assert h.shape == (k, n, n)
    assert all(np.array_equal(h[j], h_ref[j]) for j in range(k))
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", ["ln(s-5)", "s"])
def test_sweep_matches_reference_loop(text, n):
    num = 300
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=30 + n)
    run, skipped, min_hess, min_mid, max_mid, hess_idx, mid_idx = reference_sample_convexity(
        f, n, num, seed=30 + n
    )
    # each case exercises what it was chosen for, but at n = 1, where g is
    # f and det C lies in [0.1, 10], s fails nothing and ln(s-5) may run
    # no sample
    if text == "s":
        assert n == 1 or (hess_idx and mid_idx)
    else:
        assert 0 < skipped < num or (n == 1 and skipped == num)
    assert diag.samples_run == run
    assert diag.samples_skipped == skipped
    assert diag.hess_failures == len(hess_idx)
    assert diag.midpoint_failures == len(mid_idx)
    # the worst sample of each kind is one the reference failed
    if hess_idx:
        assert diag.min_hess_sample in hess_idx
    if mid_idx:
        assert diag.max_midpoint_sample in mid_idx
    # inf equals inf when nothing ran.  At n = 1 every residual of s
    # cancels exactly in the hand LU route, and to a few ulp of the
    # determinants, which are at most 10, in the exp of the log sums
    tol = rel_tol(n)
    slack = 0.0 if n > 1 else 4 * np.spacing(10.0)
    for got, want in (
        (diag.min_hess_form, min_hess),
        (diag.min_midpoint_residual, min_mid),
        (diag.max_midpoint_residual, max_mid),
    ):
        assert got == want or abs(got - want) <= tol * abs(want) + slack, (got, want)


def replay(seed, n, i):
    """(spectra, H, dets) of sample i as one-row stacks, from the seed, n
    and i alone, as the README replays it."""
    bits = np.random.PCG64(seed)
    bits.advance(i * (3 * n + n * (n + 1) // 2))
    return sweep_draw(np.random.Generator(bits), n, 1)


def replayed_values(f, seed, n, i):
    """The quadratic form and the midpoint residual of replayed sample i."""
    e, h, dets = replay(seed, n, i)
    s = dets[:, 0]
    g = eval_jet(f, np.append(dets[0, 1:], np.prod(0.5 * (e[0, 1] + e[0, 2])))).v
    # a worst sample's values are finite, but the form's partial products
    # may overflow
    with np.errstate(all="ignore"):
        v = g_hess_form(eval_jet(f, s), s, *diag_terms(1 / e[:, 0], h))
    return float(v[0]), float(g[2] - (0.5 * g[0] + 0.5 * g[1]))


def assert_worst_samples_replay(f, diag, seed, n):
    """The worst sample of each kind replays to the sweep's extreme bit
    for bit; an index is -1 when no value of its kind was finite."""
    for i, k, extreme in (
        (diag.min_hess_sample, 0, diag.min_hess_form),
        (diag.max_midpoint_sample, 1, diag.max_midpoint_residual),
    ):
        if i >= 0:
            assert replayed_values(f, seed, n, i)[k] == extreme
    if diag.samples_run == 0:
        assert diag.min_hess_sample == diag.max_midpoint_sample == -1


@pytest.mark.parametrize("n", [1, 3, 10])
def test_replay_is_the_row_of_the_stream(n):
    seed = 13
    whole = sweep_draw(stream(seed), n, 50)
    for i in (0, 1, 17, 49):
        for got, row in zip(replay(seed, n, i), whole):
            assert np.array_equal(got, row[i : i + 1])


def test_failures_replay_from_their_index():
    n, seed = 3, 11
    f = parse("s")
    diag = sample_convexity(f, n, 300, seed=seed)
    assert diag.hess_failures and diag.midpoint_failures
    assert diag.min_hess_sample > 0 and diag.max_midpoint_sample > 0
    assert diag.min_hess_form < -SWEEP_FAIL_TOL < SWEEP_FAIL_TOL < diag.max_midpoint_residual
    assert_worst_samples_replay(f, diag, seed, n)


@pytest.mark.parametrize("num", [1, 7, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_draw_helper(text, num):
    n, seed = 3, 11
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.hess_failures
    assert_worst_samples_replay(f, diag, seed, n)


def reference_kernel(f, n, num_samples, seed):
    """(values, skipped, drawn) from one draw of every row with one
    ``eval_jet`` call per determinant row: the (index, form, residual) of
    each sample that ran, a value NaN where its check did not run, the
    indices of those skipped, and the (spectra, H) drawn."""
    e, h, dets = sweep_draw(stream(seed), n, num_samples)
    inner, cross = diag_terms(1 / e[:, 0], h)
    s = dets[:, 0]
    jet = eval_jet(f, s)
    g1 = eval_jet(f, dets[:, 1]).v
    g2 = eval_jet(f, dets[:, 2]).v
    gm = eval_jet(f, np.prod(0.5 * (e[:, 1] + e[:, 2]), axis=1)).v
    with np.errstate(all="ignore"):
        v = s * condition_bracket(jet, s, inner, cross)
        r = gm - (0.5 * g1 + 0.5 * g2)
    hess_ran = ~np.isnan(jet.v)
    mid_ran = ~(np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
    values, skipped = [], []
    for j in range(num_samples):
        if hess_ran[j] or mid_ran[j]:
            values.append((j, float(v[j]), float(r[j])))
        else:
            skipped.append(j)
    return values, skipped, (e, h)


def summary(values, skipped) -> ConvexitySampleDiagnostics:
    """The diagnostics of a sweep whose samples that ran have the
    (index, form, residual) ``values`` and whose skipped samples are the
    indices ``skipped``, one sample at a time."""
    forms = [v for _, v, _ in values]
    residuals = [r for _, _, r in values]
    # infinite values fail or pass and NaN fails none, but only finite
    # values are extremes
    min_hess = min(filter(np.isfinite, forms), default=np.inf)
    max_mid = max(filter(np.isfinite, residuals), default=-np.inf)
    return ConvexitySampleDiagnostics(
        samples_run=len(values),
        samples_skipped=len(skipped),
        min_hess_form=min_hess,
        min_midpoint_residual=min(filter(np.isfinite, residuals), default=np.inf),
        max_midpoint_residual=max_mid,
        hess_failures=sum(v < -SWEEP_FAIL_TOL for v in forms),
        midpoint_failures=sum(r > SWEEP_FAIL_TOL for r in residuals),
        min_hess_sample=next((i for i, v, _ in values if v == min_hess < np.inf), -1),
        max_midpoint_sample=next((i for i, _, r in values if r == max_mid > -np.inf), -1),
    )


def assert_worst_draws_replay(diag, seed, n, drawn):
    """The worst samples' draws replay from their index: C and H for the
    form, the spectra for the midpoint residual."""
    for i, roles in ((diag.min_hess_sample, (0, 1)), (diag.max_midpoint_sample, (0,))):
        if i >= 0:
            replayed = replay(seed, n, i)
            assert all(np.array_equal(replayed[r][0], drawn[r][i]) for r in roles)


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    n, seed, short, long = 3, 18, 296, 768
    f = parse(text)
    a = sample_convexity(f, n, short, seed=seed)
    values, skipped, _ = reference_kernel(f, n, long, seed)
    # the longer sweep fails forms past the shorter one's rows
    assert sample_convexity(f, n, long, seed=seed) == summary(values, skipped)
    assert any(v < -SWEEP_FAIL_TOL for i, v, _ in values if i >= short)
    # the same matrices, so the same values to the bit
    assert a == summary([x for x in values if x[0] < short], [i for i in skipped if i < short])


# 8e307*s^2 overflows its jets on most samples, which skip one check or
# both, and on some with finite jets its form, to +-inf or to NaN
# (inf - inf)
KERNEL_FUNCTIONS = ["-ln(s)", "s", "-ln(s)+1e-7*s^2", "ln(s-5)", "exp(exp(s))", "8e307*s^2"]


@pytest.mark.parametrize("num", [1, 7, 256, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", KERNEL_FUNCTIONS)
def test_sweep_equals_the_kernel_reference_bit_for_bit(text, n, num):
    f = parse(text)
    seed = 70 + n
    diag = sample_convexity(f, n, num, seed=seed)
    values, skipped, drawn = reference_kernel(f, n, num, seed)
    # inf over a sweep that ran no sample compares equal too
    assert diag == summary(values, skipped)
    assert_worst_draws_replay(diag, seed, n, drawn)
    # each function exercises what it was chosen for
    if num == 1000 and text in ("ln(s-5)", "exp(exp(s))", "8e307*s^2"):
        assert skipped
    # at n = 1, g = f is linear and its forms are zero
    if num == 1000 and text == "s" and n > 1:
        assert diag.hess_failures and diag.midpoint_failures


def test_the_sweep_solves_no_linear_system(monkeypatch):
    # C is drawn diagonal, so its quadratic form comes from its spectrum,
    # and the midpoint pair is diagonal, so its determinant is a product:
    # the sweep calls no LAPACK routine and builds no frame
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called a LAPACK routine or built a frame")

    for name in ("solve", "det", "slogdet", "inv", "eigh", "eigvalsh", "cholesky", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(detcalculus, "hess_terms", refuse)
    diag = sample_convexity(parse("s"), 3, 257, seed=5)
    assert diag.samples_run == 257
    assert diag.hess_failures and diag.midpoint_failures


def pass_rows(n):
    """Rows of one evaluation pass at n: as many as keep rows * n^2
    within SWEEP_PASS_ENTRIES, and at least one."""
    return max(1, SWEEP_PASS_ENTRIES // (n * n))


def test_pass_sizes():
    # a default 1000-sample sweep is one pass up to n = 5
    assert [pass_rows(n) for n in (1, 2, 3, 5, 6, 10, 24, 64)] == [
        32768, 8192, 3640, 1310, 910, 327, 56, 8
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


# the domain failure of ln(s-5) skips samples, the forms of 8e307*s^2 and
# the sums g1 + g2 of -8e307*s^0.1 overflow
BOUNDARY_FUNCTIONS = ["s", "ln(s-5)", "8e307*s^2", "-8e307*s^0.1"]


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("n", [1, 3, 5, 10, 24])
@pytest.mark.parametrize("text", BOUNDARY_FUNCTIONS)
def test_passes_equal_the_kernel_reference_bit_for_bit(monkeypatch, text, n, rows):
    # a pass of one row, of seven rows, and the default
    if rows is not None:
        monkeypatch.setattr(certifier, "SWEEP_PASS_ENTRIES", rows * n * n)
    p = pass_rows(n) if rows is None else rows
    f = parse(text)
    seed = 40 + n
    counts = boundary_counts(p)
    # a shorter sweep draws a prefix of the longest one's samples
    values, skipped, drawn = reference_kernel(f, n, counts[-1], seed)
    for num in counts:
        diag = sample_convexity(f, n, num, seed=seed)
        want = summary([x for x in values if x[0] < num], [i for i in skipped if i < num])
        assert diag == want, num
        assert_worst_draws_replay(diag, seed, n, drawn)
        assert_worst_samples_replay(f, diag, seed, n)
    # each function exercises what it was chosen for over the longest sweep
    if text == "ln(s-5)":
        assert skipped
    if text == "-8e307*s^0.1" and n > 1:
        # the midpoint sums overflow and the residuals stay finite
        assert diag.midpoint_failures == 0 and np.isfinite(diag.max_midpoint_residual)


def turned(q, m):
    return q @ m @ q.T


@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sweep_values_depend_only_on_the_relative_frame(n, k, seed):
    # why the sweep may draw C diagonal: turning C and H by one
    # QR frame Q leaves D2g(C).(H,H), up to rounding
    f = builtin_corpus(n)[k]
    gen = np.random.default_rng(seed)
    logs = gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=n)
    e = np.diag(np.exp(logs))
    q = np.linalg.qr(gen.standard_normal((n, n)))[0]
    h = random_sym(n, seed, 1)[0]
    s = np.exp(np.sum(logs))

    jet = eval_jet(f, s)
    pairs = ((e, h), (turned(q, e), turned(q, h)))
    forms = [g_hess_form(jet, s, *hess_terms(c, x)) for c, x in pairs]
    # each term to rounding, in units of |C^-1|_2 |H|_F
    scale = np.max(np.exp(-logs)) * np.sqrt(np.sum(h * h))
    bound = rel_tol(n) * s * (abs(jet.d2 * s + jet.d1) * n + abs(jet.d1)) * scale**2
    assert abs(forms[0] - forms[1]) <= bound, (forms, bound)
