"""The stacked randomized sweep against the per-sample loop it replaced.

``reference_sample_convexity`` is that loop, kept here as the reference:
one ``random_posdef`` / ``random_sym`` draw per seed word, ``g_hess_form``
on each pair, and the hand LU ``linalg.det`` for the midpoint check.  The
draws must agree bit for bit; values may differ in the last digits because
the sweep takes its determinants from LAPACK.
"""

import numpy as np
import pytest

from detconvex import linalg
from detconvex.certifier import DEFAULT_LOG_EIG_RANGE, SWEEP_BLOCK, sample_convexity
from detconvex.detcalculus import g_hess_form
from detconvex.errors import DomainError, NonFiniteError
from detconvex.linalg import (
    random_posdef,
    random_posdef_array,
    random_posdef_stack,
    random_sym,
    random_sym_stack,
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


def old_posdef_draw(n, log_eig_range, seed):
    """The per-seed draw as written before the stacked one replaced it."""
    gen = np.random.Generator(np.random.PCG64(seed))
    eigs = np.exp(gen.uniform(log_eig_range[0], log_eig_range[1], size=n))
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    a = (q * eigs) @ q.T
    low = np.tril(a)
    return low + low.T - np.diag(np.diag(a))


def old_sym_draw(n, scale, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    out = np.zeros((n, n))
    for i in range(n):
        vals = gen.uniform(-scale, scale, size=n - i)
        out[i, i:] = vals
        out[i:, i] = vals
    return out


def reference_sample_convexity(f, n, num_samples, seed, log_eig_range=DEFAULT_LOG_EIG_RANGE,
                               fail_tol=1e-8):
    """(run, skipped, min_hess, min_mid, max_mid, hess indices, midpoint
    indices) from one sample at a time."""
    seeds = np.random.SeedSequence(seed).generate_state(4 * num_samples, dtype=np.uint64)
    min_hess, min_mid, max_mid = np.inf, np.inf, -np.inf
    hess_idx, mid_idx = [], []
    run = skipped = 0
    for i in range(num_samples):
        c = random_posdef(n, log_eig_range, int(seeds[4 * i]))
        h = random_sym(n, 1.0, int(seeds[4 * i + 1]))
        a1 = random_posdef_array(n, log_eig_range, int(seeds[4 * i + 2]))
        a2 = random_posdef_array(n, log_eig_range, int(seeds[4 * i + 3]))
        try:
            v = g_hess_form(f, c, h)
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
    pd = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, seeds)
    sym = random_sym_stack(n, 1.0, seeds)
    assert pd.shape == sym.shape == (40, n, n)
    for i, seed in enumerate(seeds):
        assert np.array_equal(pd[i], random_posdef_array(n, DEFAULT_LOG_EIG_RANGE, int(seed)))
        assert np.array_equal(pd[i], old_posdef_draw(n, DEFAULT_LOG_EIG_RANGE, int(seed)))
        assert np.array_equal(sym[i], random_sym(n, 1.0, int(seed)))
        assert np.array_equal(sym[i], old_sym_draw(n, 1.0, int(seed)))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("text", ["ln(s-5)", "s"])
def test_sweep_matches_reference_loop(text, n):
    # one sample past a block boundary
    num = SWEEP_BLOCK + 1
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


def test_failures_replay_from_their_index():
    n, seed = 3, 4
    diag = sample_convexity(parse("s"), n, 300, seed=seed)
    words = np.random.SeedSequence(seed).generate_state(4 * 300, dtype=np.uint64)
    assert diag.hess_failures and diag.midpoint_failures

    def posdef(word):
        return random_posdef_array(n, DEFAULT_LOG_EIG_RANGE, int(word))

    for i, c, h, v in diag.hess_failures:
        assert np.array_equal(c, posdef(words[4 * i]))
        assert np.array_equal(h, random_sym(n, 1.0, int(words[4 * i + 1])))
        assert v < -diag.fail_tol
    for i, a1, a2, r in diag.midpoint_failures:
        assert np.array_equal(a1, posdef(words[4 * i + 2]))
        assert np.array_equal(a2, posdef(words[4 * i + 3]))
        assert r > diag.fail_tol
