"""The stacked randomized sweep against a per-sample reference loop.

``reference_sample_convexity`` is the loop the stacked sweep replaced:
``g_hess_form`` over the ``hess_terms`` solve on each full pair and the
hand LU ``linalg.det`` for every determinant, the midpoint one that of
diag((e1 + e2) / 2), one sample at a time.  It draws sample i by the
block rule through ``reference_block``, an inline per-row draw: C, A1 and
A2 diagonal, the log eigenvalues of C and A1 from the ``jumped()`` stream
of the H word and those of A2 from ``PCG64(word)``, one row per call, and
H one upper-triangle row at a time.  The draws must agree bit for bit;
values may differ in the last digits because the sweep takes its inner
products and determinants from the drawn spectra.

``reference_block_kernel`` evaluates one block at a time, with one
``eval_jet`` call per determinant row, and keeps every sample's values,
which ``summary`` turns into the sweep's counts and extremes.  The sweep,
which draws only the rows it uses, evaluates as many blocks as fit in one
pass with one jet call and keeps running values, must equal it in every
bit, and the draws that replay from a worst sample's index must be the
ones the reference drew there.  Every route forms the midpoint residual
as gm - (g1/2 + g2/2), which stays finite where g1 + g2 overflows.

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

from detconvex import detcalculus, linalg
from detconvex.certifier import (
    SWEEP_BLOCK,
    SWEEP_FAIL_TOL,
    SWEEP_PASS_ENTRIES,
    ConvexitySampleDiagnostics,
    sample_convexity,
    sweep_block,
)
from detconvex.detcalculus import (
    builtin_corpus,
    condition_bracket,
    diag_terms,
    g_hess_form,
    hess_terms,
)
from detconvex.errors import DomainError, NonFiniteError, ParameterError
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


def old_sym_draw(n, scale, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    out = np.zeros((n, n))
    for i in range(n):
        vals = gen.uniform(-scale, scale, size=n - i)
        out[i, i:] = vals
        out[i:, i] = vals
    return out


def reference_sym_rows(n, scale, seed, k):
    """k symmetric matrices from one stream, one row of the upper triangle
    at a time."""
    gen = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(k):
        m = np.zeros((n, n))
        for i in range(n):
            vals = gen.uniform(-scale, scale, size=n - i)
            m[i, i:] = vals
            m[i:, i] = vals
        out.append(m)
    return out


def reference_block(n, log_eig_range, seed, b):
    """The (C, H, A1, A2) lists and the (det C, det A1, det A2) rows of
    block b of a sweep with ``seed``, drawn per row from words 2b and
    2b+1 of the seed's SeedSequence: H of sample j is row j of word
    2b+1's symmetric stack, and C, A1 and A2 are diagonal, the log
    eigenvalues of C and A1 the 2n uniforms of row j of the ``jumped()``
    stream of ``PCG64(word 2b+1)`` and those of A2 the n uniforms of row
    j of ``PCG64(word 2b)``."""
    words = np.random.SeedSequence(seed).generate_state(2 * (b + 1), dtype=np.uint64)[2 * b :]
    lo, hi = log_eig_range
    gen = np.random.Generator(np.random.PCG64(int(words[1])).jumped())
    logs = [gen.uniform(lo, hi, size=(2, n)) for _ in range(SWEEP_BLOCK)]
    gen = np.random.Generator(np.random.PCG64(int(words[0])))
    logs = [np.vstack((lg, gen.uniform(lo, hi, size=n))) for lg in logs]
    c, a1, a2 = ([np.diag(np.exp(lg[k])) for lg in logs] for k in range(3))
    dets = [tuple(np.exp(np.sum(x)) for x in lg) for lg in logs]
    h = reference_sym_rows(n, 1.0, int(words[1]), SWEEP_BLOCK)
    return c, h, a1, a2, dets


def reference_sample_convexity(f, n, num_samples, seed, log_eig_range=DEFAULT_LOG_EIG_RANGE,
                               fail_tol=1e-8):
    """(run, skipped, min_hess, min_mid, max_mid, hess indices, midpoint
    indices) from one sample at a time."""
    min_hess, min_mid, max_mid = np.inf, np.inf, -np.inf
    hess_idx, mid_idx = [], []
    run = skipped = 0
    for i in range(num_samples):
        b, j = divmod(i, SWEEP_BLOCK)
        if j == 0:
            block = reference_block(n, log_eig_range, seed, b)
        c, h, a1, a2, _ = (x[j] for x in block)
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
        assert np.array_equal(sym[0], old_sym_draw(n, 1.0, int(seed)))
    # row j of a k-stack is the j-th matrix of the stream drawn one row
    # at a time, and a shorter stack is its prefix
    k = 40
    seed = int(seeds[0])
    sym = random_sym(n, seed, k)
    assert sym.shape == (k, n, n)
    ref_sym = reference_sym_rows(n, 1.0, seed, k)
    assert all(np.array_equal(sym[j], ref_sym[j]) for j in range(k))
    for short in (1, 7, k - 1):
        assert np.array_equal(random_sym(n, seed, short), sym[:short])


def test_rng_tag_names_the_block_size():
    assert linalg.RNG_ALGORITHM == f"numpy-pcg64-diagonal-midpoint-block{SWEEP_BLOCK}"


def test_block_helper_is_the_reference_block():
    n, seed = 3, 9
    words = linalg.seed_words(seed, 4)
    for b in range(2):
        spectra, h, dets = sweep_block(n, words[2 * b : 2 * b + 2], SWEEP_BLOCK)
        c_ref, h_ref, a1_ref, a2_ref, dets_ref = reference_block(n, DEFAULT_LOG_EIG_RANGE, seed, b)
        # C, A1 and A2 as spectra: row j holds their diagonals
        assert spectra.shape == (SWEEP_BLOCK, 3, n)
        for k, rows in enumerate((c_ref, a1_ref, a2_ref)):
            assert all(np.array_equal(np.diag(spectra[j, k]), rows[j]) for j in range(SWEEP_BLOCK))
        assert h.shape == (SWEEP_BLOCK, n, n)
        assert all(np.array_equal(h[j], h_ref[j]) for j in range(SWEEP_BLOCK))
        assert dets.shape == (SWEEP_BLOCK, 3)
        assert all(tuple(dets[j]) == dets_ref[j] for j in range(SWEEP_BLOCK))
    # the words of consecutive blocks give the rows of their one-block
    # calls in turn, each block drawing only the rows asked of it
    count = SWEEP_BLOCK + 7
    both = sweep_block(n, words, count)
    parts = sweep_block(n, words[:2], SWEEP_BLOCK), sweep_block(n, words[2:], 7)
    for got, first, second in zip(both, *parts):
        assert np.array_equal(got, np.concatenate((first, second)))
    with pytest.raises(ParameterError):
        sweep_block(n, words[:2], count)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", ["ln(s-5)", "s"])
def test_sweep_matches_reference_loop(text, n):
    # a sliced block past a block boundary
    num = SWEEP_BLOCK + 16
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=30 + n)
    run, skipped, min_hess, min_mid, max_mid, hess_idx, mid_idx = reference_sample_convexity(
        f, n, num, seed=30 + n
    )
    # each case exercises what it was chosen for, but at n = 1, where g is
    # f and det C lies in [0.1, 10], s fails nothing and ln(s-5) may run
    # no sample
    if text == "s":
        assert n == 1 or (hess_idx[-1] >= SWEEP_BLOCK and mid_idx)
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
    b, j = divmod(i, SWEEP_BLOCK)
    words = linalg.seed_words(seed, 2 * (b + 1))[2 * b :]
    return tuple(x[j:] for x in sweep_block(n, words, j + 1))


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


def test_failures_replay_from_their_index():
    n, seed = 3, 11
    f = parse("s")
    diag = sample_convexity(f, n, 300, seed=seed)
    assert diag.hess_failures and diag.midpoint_failures
    assert diag.min_hess_sample >= SWEEP_BLOCK
    assert diag.min_hess_form < -SWEEP_FAIL_TOL < SWEEP_FAIL_TOL < diag.max_midpoint_residual
    assert_worst_samples_replay(f, diag, seed, n)


@pytest.mark.parametrize("num", [1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_block_helper(text, num):
    n, seed = 3, 11
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.hess_failures and diag.min_hess_sample >= SWEEP_BLOCK
    assert_worst_samples_replay(f, diag, seed, n)


def reference_block_kernel(f, n, num_samples, seed):
    """(values, skipped, drawn) from a block loop with one ``eval_jet``
    call per determinant row: the (index, form, residual) of each sample
    that ran, a value NaN where its check did not run, the indices of
    those skipped, and the (spectra, H) of each block."""
    blocks = -(-num_samples // SWEEP_BLOCK)
    words = linalg.seed_words(seed, 2 * blocks)
    values, skipped, drawn = [], [], []
    for b in range(blocks):
        start = b * SWEEP_BLOCK
        stacks = sweep_block(n, words[2 * b : 2 * b + 2], SWEEP_BLOCK)
        e, h, dets = (x[: num_samples - start] for x in stacks)
        drawn.append((e, h))
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
        for j in range(len(s)):
            if hess_ran[j] or mid_ran[j]:
                values.append((start + j, float(v[j]), float(r[j])))
            else:
                skipped.append(start + j)
    return values, skipped, drawn


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
    """The worst samples' draws replay through the one-block call: C and
    H for the form, the spectra for the midpoint residual."""
    for i, roles in ((diag.min_hess_sample, (0, 1)), (diag.max_midpoint_sample, (0,))):
        if i >= 0:
            b, j = divmod(i, SWEEP_BLOCK)
            replayed = replay(seed, n, i)
            assert all(np.array_equal(replayed[r][0], drawn[b][r][j]) for r in roles)


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    # seed 18 is the first from 14 on whose short sweep fails a form past
    # block 0 for both functions
    n, seed, short, long = 3, 18, SWEEP_BLOCK + 40, 3 * SWEEP_BLOCK
    f = parse(text)
    a = sample_convexity(f, n, short, seed=seed)
    values, skipped, _ = reference_block_kernel(f, n, long, seed)
    assert any(v < -SWEEP_FAIL_TOL for i, v, _ in values if SWEEP_BLOCK <= i < short)
    # the same matrices, so the same values to the bit
    assert a == summary([x for x in values if x[0] < short], [i for i in skipped if i < short])


# 8e307*s^2 overflows its jets on most samples, which skip one check or
# both, and on some with finite jets its form, to +-inf or to NaN
# (inf - inf)
KERNEL_FUNCTIONS = ["-ln(s)", "s", "-ln(s)+1e-7*s^2", "ln(s-5)", "exp(exp(s))", "8e307*s^2"]


@pytest.mark.parametrize("num", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", KERNEL_FUNCTIONS)
def test_sweep_equals_the_block_kernel_reference_bit_for_bit(text, n, num):
    f = parse(text)
    seed = 70 + n
    diag = sample_convexity(f, n, num, seed=seed)
    values, skipped, drawn = reference_block_kernel(f, n, num, seed)
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

    for name in ("solve", "det", "slogdet", "inv", "eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(detcalculus, "hess_terms", refuse)
    monkeypatch.setattr(linalg, "_householder_frames", refuse)
    diag = sample_convexity(parse("s"), 3, SWEEP_BLOCK + 1, seed=5)
    assert diag.samples_run == SWEEP_BLOCK + 1
    assert diag.hess_failures and diag.midpoint_failures


def pass_rows(n):
    """Rows of one evaluation pass at n: whole blocks while rows * n^2
    stays within SWEEP_PASS_ENTRIES, and at least one."""
    return max(1, SWEEP_PASS_ENTRIES // (SWEEP_BLOCK * n * n)) * SWEEP_BLOCK


def test_pass_sizes():
    # a default 1000-sample sweep is one pass up to n = 5, and from n = 9
    # a pass is one block
    assert [pass_rows(n) // SWEEP_BLOCK for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 24)] == [
        128, 32, 14, 8, 5, 3, 2, 1, 1, 1
    ]


@pytest.mark.parametrize("m", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000, 5000])
def test_a_sweep_draws_only_the_rows_it_runs(monkeypatch, m):
    rows = {name: [] for name in ("jumped_rng", "sym_draw", "sym_build")}

    def spy(name, rows_of):
        original = getattr(linalg, name)

        def wrapper(*args):
            rows[name].append(rows_of(args))
            return original(*args)

        monkeypatch.setattr(linalg, name, wrapper)

    spy("jumped_rng", lambda args: None)
    spy("sym_draw", lambda args: args[2])
    spy("sym_build", lambda args: len(args[0]))
    diag = sample_convexity(parse("-ln(s)"), 3, m, seed=5)
    assert diag.samples_run == m
    # one jumped stream of spectra and one symmetric draw, H, per block;
    # C, A1 and A2 are diagonal and take no frame
    blocks = -(-m // SWEEP_BLOCK)
    assert len(rows["jumped_rng"]) == len(rows["sym_draw"]) == blocks
    # each pass builds the H of its blocks as one stack
    assert len(rows["sym_build"]) == -(-m // pass_rows(3))
    assert sum(rows["sym_draw"]) == sum(rows["sym_build"]) == m


def boundary_counts(n):
    """Sample counts about the block and pass boundaries at n, ascending,
    up to three passes."""
    p = pass_rows(n)
    return sorted({1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, p - 1, p, p + 1, 3 * p})


# the domain failure of ln(s-5) skips samples, the forms of 8e307*s^2 and
# the sums g1 + g2 of -8e307*s^0.1 overflow
BOUNDARY_FUNCTIONS = ["s", "ln(s-5)", "8e307*s^2", "-8e307*s^0.1"]


@pytest.mark.parametrize("n", [1, 3, 5, 10, 24])
@pytest.mark.parametrize("text", BOUNDARY_FUNCTIONS)
def test_passes_equal_the_block_kernel_reference_bit_for_bit(text, n):
    f = parse(text)
    seed = 40 + n
    counts = boundary_counts(n)
    # a shorter sweep draws a prefix of the longest one's samples
    values, skipped, drawn = reference_block_kernel(f, n, counts[-1], seed)
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
    # Householder frame Q leaves D2g(C).(H,H), up to rounding
    f = builtin_corpus(n)[k]
    gen = np.random.default_rng(seed)
    logs = gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=n)
    e = np.diag(np.exp(logs))
    q = linalg._householder_frames(gen.standard_normal((1, n * (n + 1) // 2 - 1)), n)[0]
    h = random_sym(n, seed, 1)[0]
    s = np.exp(np.sum(logs))

    jet = eval_jet(f, s)
    pairs = ((e, h), (turned(q, e), turned(q, h)))
    forms = [g_hess_form(jet, s, *hess_terms(c, x)) for c, x in pairs]
    # each term to rounding, in units of |C^-1|_2 |H|_F
    scale = np.max(np.exp(-logs)) * np.sqrt(np.sum(h * h))
    bound = rel_tol(n) * s * (abs(jet.d2 * s + jet.d1) * n + abs(jet.d1)) * scale**2
    assert abs(forms[0] - forms[1]) <= bound, (forms, bound)
