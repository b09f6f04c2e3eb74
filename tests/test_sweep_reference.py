"""The stacked randomized sweep against a per-sample reference loop.

``reference_sample_convexity`` is the loop the stacked sweep replaced:
``g_hess_form`` on each pair and the hand LU ``linalg.det`` for the
midpoint check, one sample at a time.  It draws sample i by the block
rule through ``reference_block``, an inline per-row draw: the diagonal
C and A1 from log eigenvalues of the ``jumped()`` stream of the H word,
and A2 from log eigenvalues of ``PCG64(word)`` and the Gaussians of its
Householder frame from that stream's ``jumped()`` one, one row per
call, each frame built one reflection at a time.  The draws must agree
bit for bit; values may differ in the last digits because the sweep takes its
determinants from the drawn spectrum and from LAPACK.

``reference_block_kernel`` is the stacked block loop as it was before the
determinants and jets of a block moved to one call each: an ``eigh``
floor on the whole stack (the sweep checks none, because its draws clear
the floor by construction), and four determinant rows and four
``eval_jet`` calls per block.  It draws whole
blocks and slices the last one, and keeps every sample's values, which
``summary`` turns into the sweep's counts and extremes.  The sweep, which
draws only the rows it uses and keeps running values, must equal it in
every bit, and the matrices that replay from a worst sample's index must
be the ones the reference drew there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detconvex import linalg
from detconvex.certifier import (
    SWEEP_BLOCK,
    SWEEP_FAIL_TOL,
    ConvexitySampleDiagnostics,
    sample_convexity,
    sweep_block,
)
from detconvex.detcalculus import builtin_corpus, condition_bracket, g_hess_form, hess_terms
from detconvex.errors import DomainError, NonFiniteError, NotPositiveDefiniteError
from detconvex.linalg import (
    DEFAULT_LOG_EIG_RANGE,
    PosDefMatrix,
    random_posdef_array,
    random_posdef_stack,
    random_sym,
)
from detconvex.scalarfun import eval_jet, parse

EPS = float(np.finfo(float).eps)
# Eigenvalues of the default draws lie in [0.1, 10].
COND_MAX = 100.0


def rel_tol(n: int) -> float:
    """Agreement allowed between the two routes: each LU determinant is
    within about n * cond(C) * eps of the exact one, doubled for two routes
    and given a further factor 4 for the scalar arithmetic that follows."""
    return 8.0 * n * COND_MAX * EPS


def reference_frame(x, n, signs=False):
    """The frame of one row from its n(n+1)/2 - 1 Gaussians x_0, x_1, ...,
    x_{n-2} (lengths n, n-1, ..., 2): the product H_0 H_1 ... H_{n-2} of
    the Householder reflections that map x_k onto axis k of coordinates
    k .. n-1, accumulated from the last.  With ``signs``, times Stewart's
    diagonal of signs that makes the product Haar."""
    q = np.eye(n)
    starts = np.cumsum([0] + [n - k for k in range(n - 1)])
    d = np.ones(n)
    for k in reversed(range(n - 1)):
        v = x[starts[k] : starts[k + 1]].copy()
        norm = np.sqrt(np.sum(v * v))
        d[k] = -np.sign(v[0])
        v[0] += np.copysign(norm, v[0])
        w = v / (norm * abs(v[0]))
        q[k:, k:] -= w[:, None] * (v[None, :] @ q[k:, k:])
    return q * d if signs else q


def _posdef_from(logs, x, n, signs=False):
    """One matrix from its log eigenvalues and frame Gaussians, lower
    triangle mirrored."""
    q = reference_frame(x, n, signs)
    a = (q * np.exp(logs)) @ q.T
    low = np.tril(a)
    return low + low.T - np.diag(np.diag(a))


def reference_posdef_rows(n, log_eig_range, seed, k, signs=False):
    """k positive definite matrices and their log eigenvalues, one row at a
    time: the eigenvalue row from the stream ``PCG64(seed)``, the frame
    Gaussians from its ``jumped()`` stream."""
    bits = np.random.PCG64(int(seed))
    gauss = np.random.Generator(bits.jumped())
    uniform = np.random.Generator(bits)
    logs = [uniform.uniform(log_eig_range[0], log_eig_range[1], size=n) for _ in range(k)]
    xs = [gauss.standard_normal(n * (n + 1) // 2 - 1) for _ in range(k)]
    return [_posdef_from(lg, x, n, signs) for lg, x in zip(logs, xs)], logs


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
    2b+1 of the seed's SeedSequence: A2 of sample j is row j of word 2b's
    stack, H row j of word 2b+1's, and C and A1 are diagonal, their log
    eigenvalues the 2n uniforms of row j of the ``jumped()`` stream of
    ``PCG64(word 2b+1)``."""
    words = np.random.SeedSequence(seed).generate_state(2 * (b + 1), dtype=np.uint64)[2 * b :]
    a2, logs2 = reference_posdef_rows(n, log_eig_range, int(words[0]), SWEEP_BLOCK)
    gen = np.random.Generator(np.random.PCG64(int(words[1])).jumped())
    logs = [gen.uniform(log_eig_range[0], log_eig_range[1], size=(2, n)) for _ in range(SWEEP_BLOCK)]
    c, a1 = ([np.diag(np.exp(lg[k])) for lg in logs] for k in (0, 1))
    dets = [tuple(np.exp(np.sum(x)) for x in (lg[0], lg[1], lg2)) for lg, lg2 in zip(logs, logs2)]
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
        try:
            v = g_hess_form(eval_jet(f, c.det), c.det, *hess_terms(c.a, h))
            g1 = eval_jet(f, linalg.det(a1)).v
            g2 = eval_jet(f, linalg.det(a2)).v
            gm = eval_jet(f, linalg.det(0.5 * (a1 + a2))).v
        except (DomainError, NonFiniteError):
            skipped += 1
            continue
        run += 1
        min_hess = min(min_hess, v)
        if v < -fail_tol:
            hess_idx.append(i)
        r = gm - 0.5 * (g1 + g2)
        min_mid = min(min_mid, r)
        max_mid = max(max_mid, r)
        if r > fail_tol:
            mid_idx.append(i)
    return run, skipped, min_hess, min_mid, max_mid, hess_idx, mid_idx


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_stacked_draws_are_the_single_seed_draws(n):
    seeds = np.random.SeedSequence(500 + n).generate_state(40, dtype=np.uint64)
    # a count-1 stack is the draw of a single seed
    for seed in seeds:
        pd, logs = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, 1)
        sym = random_sym(n, seed, 1)
        assert pd.shape == sym.shape == (1, n, n) and logs.shape == (1, n)
        assert np.array_equal(pd[0], random_posdef_array(n, DEFAULT_LOG_EIG_RANGE, int(seed)))
        ref_pd, ref_logs = reference_posdef_rows(n, DEFAULT_LOG_EIG_RANGE, int(seed), 1)
        assert np.array_equal(pd[0], ref_pd[0]) and np.array_equal(logs[0], ref_logs[0])
        assert np.array_equal(sym[0], old_sym_draw(n, 1.0, int(seed)))
    # row j of a k-stack is the j-th matrix of the streams drawn one row
    # at a time, and a shorter stack is its prefix
    k = 40
    seed = int(seeds[0])
    pd, logs = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, k)
    sym = random_sym(n, seed, k)
    assert pd.shape == sym.shape == (k, n, n)
    ref_pd, ref_logs = reference_posdef_rows(n, DEFAULT_LOG_EIG_RANGE, seed, k)
    ref_sym = reference_sym_rows(n, 1.0, seed, k)
    for j in range(k):
        assert np.array_equal(pd[j], ref_pd[j]) and np.array_equal(logs[j], ref_logs[j])
        assert np.array_equal(sym[j], ref_sym[j])
    for short in (1, 7, k - 1):
        pd_short, logs_short = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, short)
        assert np.array_equal(pd_short, pd[:short]) and np.array_equal(logs_short, logs[:short])
        assert np.array_equal(random_sym(n, seed, short), sym[:short])


def test_frames_need_no_sign_convention():
    # random_posdef_stack takes the product of reflections as it is; the
    # reference multiplies it by Stewart's diagonal of signs, which makes
    # the frame Haar.  Each sign cancels in Q diag Q^T, so the draws agree
    # bit for bit
    k = 64
    for n in range(1, 34):
        seed = 900 + n
        got = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, k)[0]
        want = reference_posdef_rows(n, DEFAULT_LOG_EIG_RANGE, seed, k, signs=True)[0]
        assert all(np.array_equal(got[j], want[j]) for j in range(k)), n


def test_rng_tag_names_the_block_size():
    assert linalg.RNG_ALGORITHM == f"numpy-pcg64-eigenbasis-block{SWEEP_BLOCK}"


def test_block_helper_is_the_reference_block():
    n, seed = 3, 9
    words = linalg.seed_words(seed, 4)
    for b in range(2):
        got = sweep_block(n, words[2 * b : 2 * b + 2], SWEEP_BLOCK)
        want = reference_block(n, DEFAULT_LOG_EIG_RANGE, seed, b)
        for stack, rows in zip(got[:4], want[:4]):
            assert stack.shape == (SWEEP_BLOCK, n, n)
            assert all(np.array_equal(stack[j], rows[j]) for j in range(SWEEP_BLOCK))
        assert got[4].shape == (SWEEP_BLOCK, 3)
        assert all(tuple(got[4][j]) == want[4][j] for j in range(SWEEP_BLOCK))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("text", ["ln(s-5)", "s"])
def test_sweep_matches_reference_loop(text, n):
    # a sliced block past a block boundary
    num = SWEEP_BLOCK + 16
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=30 + n)
    run, skipped, min_hess, min_mid, max_mid, hess_idx, mid_idx = reference_sample_convexity(
        f, n, num, seed=30 + n
    )
    # each case exercises what it was chosen for
    if text == "s":
        assert hess_idx[-1] >= SWEEP_BLOCK and mid_idx
    else:
        assert 0 < skipped < num
    assert diag.samples_run == run
    assert diag.samples_skipped == skipped
    assert diag.hess_failures == len(hess_idx)
    assert diag.midpoint_failures == len(mid_idx)
    # the worst sample of each kind is one the reference failed
    if hess_idx:
        assert diag.min_hess_sample in hess_idx
    if mid_idx:
        assert diag.max_midpoint_sample in mid_idx
    tol = rel_tol(n)
    for got, want in (
        (diag.min_hess_form, min_hess),
        (diag.min_midpoint_residual, min_mid),
        (diag.max_midpoint_residual, max_mid),
    ):
        assert abs(got - want) <= tol * abs(want), (got, want)


def replay(seed, n, i):
    """(C, H, A1, A2, dets) of sample i as one-row stacks, from the seed, n
    and i alone, as the README replays it."""
    b, j = divmod(i, SWEEP_BLOCK)
    words = linalg.seed_words(seed, 2 * (b + 1))[2 * b :]
    return tuple(x[j:] for x in sweep_block(n, words, j + 1))


def replayed_values(f, seed, n, i):
    """The quadratic form and the midpoint residual of replayed sample i."""
    c, h, a1, a2, dets = replay(seed, n, i)
    s = dets[:, 0]
    v = g_hess_form(eval_jet(f, s), s, *hess_terms(c, h))
    g = eval_jet(f, np.append(dets[0, 1:], np.linalg.det(0.5 * (a1 + a2)))).v
    return float(v[0]), float(g[2] - 0.5 * (g[0] + g[1]))


def assert_worst_samples_replay(f, diag, seed, n):
    """The worst sample of each kind replays to the sweep's extreme bit
    for bit; both indices are -1 when no sample ran."""
    if diag.samples_run == 0:
        assert diag.min_hess_sample == diag.max_midpoint_sample == -1
        return
    assert replayed_values(f, seed, n, diag.min_hess_sample)[0] == diag.min_hess_form
    assert replayed_values(f, seed, n, diag.max_midpoint_sample)[1] == diag.max_midpoint_residual


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
    """(values, skipped, drawn) from the stacked block loop with an
    ``eigh`` floor and one ``eval_jet`` call per stack: the (index, form,
    residual) of each sample that ran, the indices of those skipped, and
    the (C, H, A1, A2) stacks of each block."""
    blocks = -(-num_samples // SWEEP_BLOCK)
    words = linalg.seed_words(seed, 2 * blocks)
    values, skipped, drawn = [], [], []
    for b in range(blocks):
        start = b * SWEEP_BLOCK
        stacks = sweep_block(n, words[2 * b : 2 * b + 2], SWEEP_BLOCK)
        c, h, a1, a2, dets = (x[: num_samples - start] for x in stacks)
        drawn.append((c, h, a1, a2))
        smallest = np.linalg.eigh(c)[0][:, 0]
        if np.any(smallest <= linalg.posdef_floor(c)):
            raise NotPositiveDefiniteError("a draw below the positivity floor")
        inner, cross = hess_terms(c, h)
        s = dets[:, 0]
        jet = eval_jet(f, s)
        g1 = eval_jet(f, dets[:, 1]).v
        g2 = eval_jet(f, dets[:, 2]).v
        gm = eval_jet(f, np.linalg.det(0.5 * (a1 + a2))).v
        ok = ~(np.isnan(jet.v) | np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
        with np.errstate(all="ignore"):
            v = s * condition_bracket(jet, s, inner, cross)
            r = gm - 0.5 * (g1 + g2)
        for j in range(len(s)):
            if ok[j]:
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
    min_hess = min(forms, default=np.inf)
    max_mid = max(residuals, default=-np.inf)
    return ConvexitySampleDiagnostics(
        samples_run=len(values),
        samples_skipped=len(skipped),
        min_hess_form=min_hess,
        min_midpoint_residual=min(residuals, default=np.inf),
        max_midpoint_residual=max_mid,
        hess_failures=sum(v < -SWEEP_FAIL_TOL for v in forms),
        midpoint_failures=sum(r > SWEEP_FAIL_TOL for r in residuals),
        min_hess_sample=next((i for i, v, _ in values if v == min_hess), -1),
        max_midpoint_sample=next((i for i, _, r in values if r == max_mid), -1),
    )


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


KERNEL_FUNCTIONS = ["-ln(s)", "s", "-ln(s)+1e-7*s^2", "ln(s-5)", "exp(exp(s))"]


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
    # the worst samples' matrices replay from their indices
    for i, roles in ((diag.min_hess_sample, (0, 1)), (diag.max_midpoint_sample, (2, 3))):
        if i >= 0:
            b, j = divmod(i, SWEEP_BLOCK)
            replayed = replay(seed, n, i)
            assert all(np.array_equal(replayed[r][0], drawn[b][r][j]) for r in roles)
    # each function exercises what it was chosen for
    if num == 1000 and text in ("ln(s-5)", "exp(exp(s))"):
        assert skipped
    # at n = 1, g = f is linear and its forms are zero
    if num == 1000 and text == "s" and n > 1:
        assert diag.hess_failures and diag.midpoint_failures


@pytest.mark.parametrize("m", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
def test_a_sweep_draws_only_the_rows_it_runs(monkeypatch, m):
    requested = {"posdef": [], "sym": []}
    posdef, sym = linalg.random_posdef_stack, linalg.random_sym

    def spy_posdef(n, log_eig_range, seed, count):
        requested["posdef"].append(count)
        return posdef(n, log_eig_range, seed, count)

    def spy_sym(n, seed, count):
        requested["sym"].append(count)
        return sym(n, seed, count)

    monkeypatch.setattr(linalg, "random_posdef_stack", spy_posdef)
    monkeypatch.setattr(linalg, "random_sym", spy_sym)
    diag = sample_convexity(parse("-ln(s)"), 3, m, seed=5)
    assert diag.samples_run == m
    # one positive definite draw per block, A2 of each sample; C and A1
    # are diagonal and take no frame
    blocks = -(-m // SWEEP_BLOCK)
    assert len(requested["posdef"]) == len(requested["sym"]) == blocks
    assert sum(requested["posdef"]) == m
    assert sum(requested["sym"]) == m


def turned(q, m):
    return q @ m @ q.T


@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sweep_values_depend_only_on_the_relative_frame(n, k, seed):
    # why the sweep may draw C and A1 diagonal: turning C and H by one
    # Householder frame Q leaves D2g(C).(H,H), and turning A1 and A2 by
    # one frame P leaves the midpoint residual, up to rounding
    f = builtin_corpus(n)[k]
    gen = np.random.default_rng(seed)
    logs = gen.uniform(*DEFAULT_LOG_EIG_RANGE, size=(3, n))
    e, e1, e2 = (np.diag(x) for x in np.exp(logs))
    p, q = linalg._householder_frames(gen.standard_normal((2, n * (n + 1) // 2 - 1)), n)
    h = random_sym(n, seed, 1)[0]
    s, s1, s2 = np.exp(np.sum(logs, axis=1))
    tol = rel_tol(n)

    jet = eval_jet(f, s)
    pairs = ((e, h), (turned(q, e), turned(q, h)))
    forms = [g_hess_form(jet, s, *hess_terms(c, x)) for c, x in pairs]
    # each term to rounding, in units of |C^-1|_2 |H|_F
    scale = np.max(np.exp(-logs[0])) * np.sqrt(np.sum(h * h))
    bound = tol * s * (abs(jet.d2 * s + jet.d1) * n + abs(jet.d1)) * scale**2
    assert abs(forms[0] - forms[1]) <= bound, (forms, bound)

    a2 = turned(q, e2)
    pairs = ((e1, a2), (turned(p, e1), turned(p, a2)))
    mids = np.array([np.linalg.det(0.5 * (x + y)) for x, y in pairs])
    assert abs(mids[0] - mids[1]) <= tol * mids[0]
    g1, g2 = eval_jet(f, np.array([s1, s2])).v
    gm = eval_jet(f, mids)
    residuals = gm.v - 0.5 * (g1 + g2)
    bound = tol * (mids[0] * abs(gm.d1[0]) + abs(gm.v[0]) + abs(g1) + abs(g2))
    assert abs(residuals[0] - residuals[1]) <= bound, (residuals, bound)
