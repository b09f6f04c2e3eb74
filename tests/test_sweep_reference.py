"""The stacked randomized sweep against a per-sample reference loop.

``reference_sample_convexity`` is the loop the stacked sweep replaced:
``g_hess_form`` on each pair and the hand LU ``linalg.det`` for the
midpoint check, one sample at a time.  It draws sample i by the block
rule through ``reference_block``, an inline per-matrix draw from one
PCG64 stream per block and role.  The draws must agree bit for bit;
values may differ in the last digits because the sweep takes its
determinants from LAPACK.

``reference_block_kernel`` is the stacked block loop as it was before the
floor moved to a Cholesky proof and the determinants and jets of a block
to one call each: an ``eigh`` floor on the whole stack, and four
``np.linalg.det`` and four ``eval_jet`` calls per block.  The sweep must
equal it in every bit.
"""

import numpy as np
import pytest

from detconvex import linalg
from detconvex.certifier import SWEEP_BLOCK, SWEEP_FAIL_TOL, sample_convexity, sweep_block
from detconvex.detcalculus import condition_bracket, g_hess_form, hess_terms
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


def _posdef_from(logs, gauss):
    """One matrix from its log eigenvalues and Gaussian matrix, as the
    per-seed draw wrote it: QR frame with positive-diagonal signs, lower
    triangle mirrored."""
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    a = (q * np.exp(logs)) @ q.T
    low = np.tril(a)
    return low + low.T - np.diag(np.diag(a))


def old_posdef_draw(n, log_eig_range, seed):
    """The per-seed draw as written before the stacked one replaced it."""
    gen = np.random.Generator(np.random.PCG64(seed))
    logs = gen.uniform(log_eig_range[0], log_eig_range[1], size=n)
    return _posdef_from(logs, gen.standard_normal((n, n)))


def old_sym_draw(n, scale, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    out = np.zeros((n, n))
    for i in range(n):
        vals = gen.uniform(-scale, scale, size=n - i)
        out[i, i:] = vals
        out[i:, i] = vals
    return out


def reference_posdef_rows(n, log_eig_range, seed, k):
    """k positive definite matrices from one stream, one call at a time:
    first the k eigenvalue rows, then the k Gaussian matrices."""
    gen = np.random.Generator(np.random.PCG64(seed))
    logs = [gen.uniform(log_eig_range[0], log_eig_range[1], size=n) for _ in range(k)]
    gauss = [gen.standard_normal((n, n)) for _ in range(k)]
    return [_posdef_from(lg, g) for lg, g in zip(logs, gauss)]


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
    """The (C, H, A1, A2) lists of block b of a sweep with ``seed``, drawn
    per matrix from words 4b .. 4b+3 of the seed's SeedSequence."""
    words = np.random.SeedSequence(seed).generate_state(4 * (b + 1), dtype=np.uint64)[4 * b :]
    posdef = [reference_posdef_rows(n, log_eig_range, int(w), SWEEP_BLOCK) for w in words[[0, 2, 3]]]
    return posdef[0], reference_sym_rows(n, 1.0, int(words[1]), SWEEP_BLOCK), posdef[1], posdef[2]


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
        c, h, a1, a2 = (x[j] for x in block)
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
    # a count-1 stack is the draw of a single seed, as it was before the
    # block streams
    for seed in seeds:
        pd = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, 1)
        sym = random_sym(n, seed, 1)
        assert pd.shape == sym.shape == (1, n, n)
        assert np.array_equal(pd[0], random_posdef_array(n, DEFAULT_LOG_EIG_RANGE, int(seed)))
        assert np.array_equal(pd[0], old_posdef_draw(n, DEFAULT_LOG_EIG_RANGE, int(seed)))
        assert np.array_equal(sym[0], old_sym_draw(n, 1.0, int(seed)))
    # row j of a k-stack is the j-th matrix of the stream drawn one call
    # at a time
    k = 40
    seed = int(seeds[0])
    pd = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, k)
    sym = random_sym(n, seed, k)
    assert pd.shape == sym.shape == (k, n, n)
    ref_pd = reference_posdef_rows(n, DEFAULT_LOG_EIG_RANGE, seed, k)
    ref_sym = reference_sym_rows(n, 1.0, seed, k)
    for j in range(k):
        assert np.array_equal(pd[j], ref_pd[j])
        assert np.array_equal(sym[j], ref_sym[j])


def test_frames_need_no_sign_convention():
    # random_posdef_stack takes Q as LAPACK returns it; the reference flips
    # Q's columns to a positive diagonal of R.  Each flip cancels in
    # Q diag Q^T, so the draws agree bit for bit
    k = 64
    for n in range(1, 34):
        seed = 900 + n
        got = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seed, k)
        want = reference_posdef_rows(n, DEFAULT_LOG_EIG_RANGE, seed, k)
        assert all(np.array_equal(got[j], want[j]) for j in range(k)), n


def test_rng_tag_names_the_block_size():
    assert linalg.RNG_ALGORITHM == f"numpy-pcg64-block{SWEEP_BLOCK}"


def test_block_helper_is_the_reference_block():
    n, seed = 3, 9
    words = linalg.seed_words(seed, 8)
    for b in range(2):
        got = sweep_block(n, DEFAULT_LOG_EIG_RANGE, words[4 * b : 4 * b + 4])
        want = reference_block(n, DEFAULT_LOG_EIG_RANGE, seed, b)
        for stack, rows in zip(got, want):
            assert stack.shape == (SWEEP_BLOCK, n, n)
            assert all(np.array_equal(stack[j], rows[j]) for j in range(SWEEP_BLOCK))


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
    assert [fail[0] for fail in diag.hess_failures] == hess_idx
    assert [fail[0] for fail in diag.midpoint_failures] == mid_idx
    tol = rel_tol(n)
    for got, want in (
        (diag.min_hess_form, min_hess),
        (diag.min_midpoint_residual, min_mid),
        (diag.max_midpoint_residual, max_mid),
    ):
        assert abs(got - want) <= tol * abs(want), (got, want)


def replay(seed, n, i):
    """(C, H, A1, A2) of sample i, from the seed, n and i alone."""
    b, j = divmod(i, SWEEP_BLOCK)
    words = linalg.seed_words(seed, 4 * (b + 1))[4 * b :]
    return tuple(stack[j] for stack in sweep_block(n, DEFAULT_LOG_EIG_RANGE, words))


def assert_failures_replay(diag, seed, n):
    for i, c, h, v in diag.hess_failures:
        want_c, want_h, _, _ = replay(seed, n, i)
        assert np.array_equal(c, want_c) and np.array_equal(h, want_h)
        assert v < -SWEEP_FAIL_TOL
    for i, a1, a2, r in diag.midpoint_failures:
        _, _, want_a1, want_a2 = replay(seed, n, i)
        assert np.array_equal(a1, want_a1) and np.array_equal(a2, want_a2)
        assert r > SWEEP_FAIL_TOL


def test_failures_replay_from_their_index():
    n, seed = 3, 4
    diag = sample_convexity(parse("s"), n, 300, seed=seed)
    assert diag.hess_failures and diag.midpoint_failures
    assert any(fail[0] >= SWEEP_BLOCK for fail in diag.hess_failures)
    assert_failures_replay(diag, seed, n)


@pytest.mark.parametrize("num", [1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_block_helper(text, num):
    n, seed = 3, 11
    diag = sample_convexity(parse(text), n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.hess_failures and diag.hess_failures[-1][0] >= 3 * SWEEP_BLOCK
    assert_failures_replay(diag, seed, n)


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    n, seed, short, long = 3, 12, SWEEP_BLOCK + 40, 3 * SWEEP_BLOCK
    f = parse(text)
    a = sample_convexity(f, n, short, seed=seed)
    b = sample_convexity(f, n, long, seed=seed)
    assert a.hess_failures and a.hess_failures[-1][0] >= SWEEP_BLOCK
    for fa, fb in ((a.hess_failures, b.hess_failures), (a.midpoint_failures, b.midpoint_failures)):
        prefix = [fail for fail in fb if fail[0] < short]
        assert [x[0] for x in fa] == [y[0] for y in prefix]
        for x, y in zip(fa, prefix):
            assert np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2])
    assert a.min_hess_form >= b.min_hess_form


def reference_block_kernel(f, n, num_samples, seed):
    """The fields of ``ConvexitySampleDiagnostics`` from the stacked block
    loop with an ``eigh`` floor and one ``np.linalg.det`` and one
    ``eval_jet`` call per stack."""
    blocks = -(-num_samples // SWEEP_BLOCK)
    words = linalg.seed_words(seed, 4 * blocks)
    min_hess, min_mid, max_mid = np.inf, np.inf, -np.inf
    hess_failures, mid_failures = [], []
    run = skipped = 0
    for b in range(blocks):
        start = b * SWEEP_BLOCK
        stacks = sweep_block(n, DEFAULT_LOG_EIG_RANGE, words[4 * b : 4 * b + 4])
        c, h, a1, a2 = (x[: num_samples - start] for x in stacks)
        smallest = np.linalg.eigh(c)[0][:, 0]
        if np.any(smallest <= linalg.posdef_floor(c)):
            raise NotPositiveDefiniteError("a draw below the positivity floor")
        inner, cross = hess_terms(c, h)
        s = np.linalg.det(c)
        jet = eval_jet(f, s)
        g1 = eval_jet(f, np.linalg.det(a1)).v
        g2 = eval_jet(f, np.linalg.det(a2)).v
        gm = eval_jet(f, np.linalg.det(0.5 * (a1 + a2))).v
        ok = ~(np.isnan(jet.v) | np.isnan(g1) | np.isnan(g2) | np.isnan(gm))
        k = int(ok.sum())
        run += k
        skipped += len(s) - k
        if k == 0:
            continue
        with np.errstate(all="ignore"):
            v = s * condition_bracket(jet, s, inner, cross)
            r = gm - 0.5 * (g1 + g2)
        min_hess = min(min_hess, float(v[ok].min()))
        min_mid = min(min_mid, float(r[ok].min()))
        max_mid = max(max_mid, float(r[ok].max()))
        for j in np.flatnonzero(ok & (v < -SWEEP_FAIL_TOL)).tolist():
            hess_failures.append((start + j, c[j], h[j], float(v[j])))
        for j in np.flatnonzero(ok & (r > SWEEP_FAIL_TOL)).tolist():
            mid_failures.append((start + j, a1[j], a2[j], float(r[j])))
    return (run, skipped, float(min_hess), float(min_mid), float(max_mid),
            hess_failures, mid_failures)


def same_failures(got, want) -> bool:
    return len(got) == len(want) and all(
        x[0] == y[0] and np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2])
        and x[3] == y[3]
        for x, y in zip(got, want)
    )


KERNEL_FUNCTIONS = ["-ln(s)", "s", "-ln(s)+1e-7*s^2", "ln(s-5)", "exp(exp(s))"]


@pytest.mark.parametrize("num", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("text", KERNEL_FUNCTIONS)
def test_sweep_equals_the_block_kernel_reference_bit_for_bit(text, n, num):
    f = parse(text)
    seed = 70 + n
    diag = sample_convexity(f, n, num, seed=seed)
    run, skipped, min_hess, min_mid, max_mid, hess_failures, mid_failures = (
        reference_block_kernel(f, n, num, seed)
    )
    assert (diag.samples_run, diag.samples_skipped) == (run, skipped)
    # inf over a sweep that ran no sample compares equal too
    assert diag.min_hess_form == min_hess
    assert diag.min_midpoint_residual == min_mid
    assert diag.max_midpoint_residual == max_mid
    assert same_failures(diag.hess_failures, hess_failures)
    assert same_failures(diag.midpoint_failures, mid_failures)
    # each function exercises what it was chosen for
    if num == 1000 and text in ("ln(s-5)", "exp(exp(s))"):
        assert 0 < skipped
    # at n = 1, g = f is linear and its forms are zero
    if num == 1000 and text == "s" and n > 1:
        assert hess_failures and mid_failures
