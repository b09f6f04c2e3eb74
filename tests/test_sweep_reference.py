"""The stacked randomized sweep against a per-sample reference loop.

``reference_sample_convexity`` is the loop the stacked sweep replaced:
``g_hess_form`` on each pair and the hand LU ``linalg.det`` for the
midpoint check, one sample at a time.  It draws sample i by the block
rule through ``reference_block``, an inline per-row draw: log
eigenvalues from ``PCG64(word)``, the Gaussians of the Householder
frames from its ``jumped()`` stream, one row per call, and each frame
built one reflection at a time.  The draws must agree bit for bit;
values may differ in the last digits because the sweep takes its
determinants from the drawn spectrum and from LAPACK.

``reference_block_kernel`` is the stacked block loop as it was before the
determinants and jets of a block moved to one call each: an ``eigh``
floor on the whole stack (the sweep checks none, because its draws clear
the floor by construction), and four determinant rows and four
``eval_jet`` calls per block.  It draws whole
blocks and slices the last one.  The sweep, which draws only the rows it
uses, must equal it in every bit, and the matrices that replay from a
failure's index must be the ones the reference failed on.
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
    2b+1 of the seed's SeedSequence: C, A1 and A2 of sample j are rows
    3j, 3j+1 and 3j+2 of word 2b's stack."""
    words = np.random.SeedSequence(seed).generate_state(2 * (b + 1), dtype=np.uint64)[2 * b :]
    rows, logs = reference_posdef_rows(n, log_eig_range, int(words[0]), 3 * SWEEP_BLOCK)
    dets = [tuple(np.exp(np.sum(lg)) for lg in logs[3 * j : 3 * j + 3]) for j in range(SWEEP_BLOCK)]
    h = reference_sym_rows(n, 1.0, int(words[1]), SWEEP_BLOCK)
    return rows[0::3], h, rows[1::3], rows[2::3], dets


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
    assert linalg.RNG_ALGORITHM == f"numpy-pcg64-householder-block{SWEEP_BLOCK}"


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


def assert_failures_replay(f, diag, seed, n):
    for i, v in diag.hess_failures:
        assert replayed_values(f, seed, n, i)[0] == v
        assert v < -SWEEP_FAIL_TOL
    for i, r in diag.midpoint_failures:
        assert replayed_values(f, seed, n, i)[1] == r
        assert r > SWEEP_FAIL_TOL


def test_failures_replay_from_their_index():
    n, seed = 3, 4
    f = parse("s")
    diag = sample_convexity(f, n, 300, seed=seed)
    assert diag.hess_failures and diag.midpoint_failures
    assert any(fail[0] >= SWEEP_BLOCK for fail in diag.hess_failures)
    assert_failures_replay(f, diag, seed, n)


@pytest.mark.parametrize("num", [1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 1000])
@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_replay_through_the_block_helper(text, num):
    n, seed = 3, 11
    f = parse(text)
    diag = sample_convexity(f, n, num, seed=seed)
    assert diag.samples_run + diag.samples_skipped == num
    if num == 1000:
        assert diag.hess_failures and diag.hess_failures[-1][0] >= 3 * SWEEP_BLOCK
    assert_failures_replay(f, diag, seed, n)


@pytest.mark.parametrize("text", ["s", "ln(s-5)"])
def test_failures_of_a_shorter_sweep_are_a_prefix(text):
    n, seed, short, long = 3, 14, SWEEP_BLOCK + 40, 3 * SWEEP_BLOCK
    f = parse(text)
    a = sample_convexity(f, n, short, seed=seed)
    b = sample_convexity(f, n, long, seed=seed)
    assert a.hess_failures and a.hess_failures[-1][0] >= SWEEP_BLOCK
    for fa, fb in ((a.hess_failures, b.hess_failures), (a.midpoint_failures, b.midpoint_failures)):
        prefix = [fail for fail in fb if fail[0] < short]
        assert [x[0] for x in fa] == [y[0] for y in prefix]
        # the same matrices, so the same values to the bit
        assert [x[1] for x in fa] == [y[1] for y in prefix]
    assert a.min_hess_form >= b.min_hess_form


def reference_block_kernel(f, n, num_samples, seed):
    """The fields of ``ConvexitySampleDiagnostics`` from the stacked block
    loop with an ``eigh`` floor and one ``eval_jet`` call per stack, the
    failures with their matrices."""
    blocks = -(-num_samples // SWEEP_BLOCK)
    words = linalg.seed_words(seed, 2 * blocks)
    min_hess, min_mid, max_mid = np.inf, np.inf, -np.inf
    hess_failures, mid_failures = [], []
    run = skipped = 0
    for b in range(blocks):
        start = b * SWEEP_BLOCK
        stacks = sweep_block(n, words[2 * b : 2 * b + 2], SWEEP_BLOCK)
        c, h, a1, a2, dets = (x[: num_samples - start] for x in stacks)
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


def same_failures(got, want, seed, n, roles) -> bool:
    """``got`` lists (index, value) and ``want`` (index, X, Y, value); the
    matrices ``roles`` of (C, H, A1, A2) that replay from each index are X
    and Y.  The failures of a block replay from one draw of that block's
    rows up to its last failure."""
    if [x[0] for x in got] != [y[0] for y in want] or [x[1] for x in got] != [y[3] for y in want]:
        return False
    last = {}
    for i, *_ in want:
        b, j = divmod(i, SWEEP_BLOCK)
        last[b] = j + 1
    words = linalg.seed_words(seed, 2 * (max(last, default=0) + 1))
    drawn = {b: sweep_block(n, words[2 * b : 2 * b + 2], count)
             for b, count in last.items()}
    return all(
        np.array_equal(drawn[i // SWEEP_BLOCK][r][i % SWEEP_BLOCK], m)
        for i, *matrices, _ in want
        for r, m in zip(roles, matrices)
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
    assert same_failures(diag.hess_failures, hess_failures, seed, n, (0, 1))
    assert same_failures(diag.midpoint_failures, mid_failures, seed, n, (2, 3))
    # each function exercises what it was chosen for
    if num == 1000 and text in ("ln(s-5)", "exp(exp(s))"):
        assert 0 < skipped
    # at n = 1, g = f is linear and its forms are zero
    if num == 1000 and text == "s" and n > 1:
        assert hess_failures and mid_failures


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
    # C, A1 and A2 of a sample are three rows of one draw per block
    blocks = -(-m // SWEEP_BLOCK)
    assert len(requested["posdef"]) == len(requested["sym"]) == blocks
    assert sum(requested["posdef"]) == 3 * m
    assert sum(requested["sym"]) == m
