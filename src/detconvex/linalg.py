"""Dense symmetric matrix arithmetic for small n, on plain ndarrays.

Sized for the certification workloads (n up to ``cli.MAX_DIM``, 64):
LAPACK eigendecompositions of symmetric matrices, inverses through the
eigendecomposition, a hand LU determinant that is exact on diagonal input
(the witnesses' C; stacks take LAPACK's), a Cholesky admissibility mask
over a stack, and seeded sampling of test matrices as (N, n, n) stacks
from one seed word each, a shorter stack a prefix of a longer one
(``random_pairs`` draws the (C, H) pairs of the oracle and the
self-test).  Each seeded stack is the build of its draw
(``posdef_draw``/``posdef_build``, ``sym_draw``/``sym_build``), so the
randomized sweep builds the draws of several seed words at once.  There
is no matrix wrapper: a matrix is validated once where it enters, by
``symmetric`` (square, finite, lower triangle mirrored, read-only) or by
the seeded draws, and is passed on as a plain array.  ``PosDefMatrix``
adds the cached determinant, inverse and spectrum of a positive definite
one.  All operations are pure functions.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
)

# Generator family and stream layout of the sampling routines, recorded in
# report headers so results can be reproduced: PCG64, one seed word per
# sweep block of 256 samples (certifier.SWEEP_BLOCK) and matrix kind, two
# streams per word, Householder frames, and a sweep drawn in the
# eigenbasis of C and A1 (``certifier.sweep_block``).  How many blocks
# the sweep evaluates in one pass moves no draw, so it is not recorded.
RNG_ALGORITHM = "numpy-pcg64-eigenbasis-block256"

# Log eigenvalue range of the default draws: eigenvalues in [0.1, 10], so that
# up to n = 64 every draw clears the positivity floor by construction.
DEFAULT_LOG_EIG_RANGE = (float(np.log(0.1)), float(np.log(10.0)))

POSDEF_EIG_FLOOR = 1e-12  # relative to the Frobenius norm

_FLOAT_TINY = sys.float_info.min  # smallest normal float


def seed_words(seed: int, count: int) -> np.ndarray:
    """``count`` uint64 words of ``SeedSequence(seed)``, each seeding one
    draw's own PCG64 stream (one matrix, or one stack of them), so a draw
    replays from its index alone.  The words for a smaller count are a
    prefix of those for a larger one.  A negative seed raises
    ParameterError."""
    if seed < 0:
        raise ParameterError(f"seed {seed} must be >= 0")
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def _check_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of a matrix, or of each matrix in a stack,
    onto the upper one."""
    idx = np.arange(a.shape[-1])
    return np.where(idx[:, None] >= idx, a, np.swapaxes(a, -1, -2))


def _as_array(m) -> np.ndarray:
    """Any array-like as a 2-d float ndarray."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def symmetric(a) -> np.ndarray:
    """A matrix entering the package: square, n >= 1 and finite.  Returns
    a read-only copy with the lower triangle mirrored onto the upper one,
    so ``m[i, j] == m[j, i]`` holds exactly."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionError("dimension must be >= 1")
    _check_finite(a)
    sym = _mirror_lower(a)
    sym.setflags(write=False)
    return sym


class PosDefMatrix(NamedTuple):
    """Symmetric positive definite matrix ``a`` with cached spectral data.

    ``det`` comes from a hand LU factorization and is independently
    checked against the eigenvalue product by the test suite; ``inverse``
    is Q diag(1/eig) Q^T from the LAPACK decomposition (``jacobi_eigen``)
    with eigenvalues ascending and A = Q diag(eig) Q^T.  Both are exact on
    diagonal input.  Every array is read-only.
    """

    a: np.ndarray
    det: float
    inverse: np.ndarray
    eigenvalues: np.ndarray
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def from_sym(a) -> "PosDefMatrix":
        a = symmetric(a)
        eigenvalues, q = jacobi_eigen(a)
        floor = posdef_floor(a)
        if eigenvalues[0] <= floor:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {eigenvalues[0]:.3e} below the "
                f"positivity floor {floor:.3e}"
            )
        eigenvalues.setflags(write=False)
        q.setflags(write=False)
        inverse = symmetric((q / eigenvalues) @ q.T)
        return PosDefMatrix(a=a, det=det(a), inverse=inverse, eigenvalues=eigenvalues, q=q)

    @staticmethod
    def from_diag(d) -> "PosDefMatrix":
        return PosDefMatrix.from_sym(np.diag(np.asarray(d, dtype=float)))


def _rescaled_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes of ``a``, with the entries
    divided by their largest absolute value before they are squared.  A
    norm beyond the largest float is inf, without a warning."""
    scale = np.max(np.abs(a), axis=(-2, -1))
    scale = np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)
    with np.errstate(over="ignore"):
        return scale * np.sqrt(np.sum((a / scale[..., None, None]) ** 2, axis=(-2, -1)))


def frob_norm(m):
    """Frobenius norm over the last two axes: a numpy float for a matrix,
    an array for an (N, n, n) stack.  The square root of the plain sum of
    squares, unless that sum is not a finite normal float (entries beyond
    about 1e154 overflow the squares, below about 1e-154 they underflow);
    then the entries are rescaled first."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    with np.errstate(over="ignore"):
        squares = np.add.reduce(a * a, axis=(-2, -1))
    norms = np.sqrt(squares)
    redo = ~((squares >= _FLOAT_TINY) & (squares < np.inf))
    if redo.any():
        norms = np.where(redo, _rescaled_norms(a), norms)
    # a matrix's norm comes out of np.where as a 0-d array
    return norms[()]


def posdef_floor(a):
    """The positivity floor of a matrix, or of each matrix of a stack:
    POSDEF_EIG_FLOOR times its Frobenius norm, and never below the
    smallest normal float.  A positive definite matrix has its smallest
    eigenvalue above it, so the entries of its inverse stay below
    1 / _FLOAT_TINY (about 4.5e307) and finite; the reciprocal of a
    subnormal eigenvalue can overflow."""
    return np.maximum(POSDEF_EIG_FLOOR * frob_norm(a), _FLOAT_TINY)


def frob_inner(a, b) -> float:
    """Trace inner product <A,B> = tr(A B^T) = sum_ij A_ij B_ij."""
    aa, bb = _as_array(a), _as_array(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"shape mismatch {aa.shape} vs {bb.shape}")
    return float(np.sum(aa * bb))


def det(a) -> float:
    """Determinant via LU with partial pivoting, in Python.

    Independent of the LAPACK eigensolver, so the determinant-vs-eigenvalue
    product invariant is a genuine dual-route check.  Exact for diagonal
    input (the pivot product reduces to the plain entry product), which
    ``np.linalg.det`` is not: it sums logarithms of the pivots and gives
    23.999999999999993 for diag(2, 3, 4).
    """
    m = _as_array(a).astype(float, copy=True)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"determinant needs a square matrix, got {m.shape}")
    n = m.shape[0]
    sign = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if m[piv, k] == 0.0:
            return 0.0
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
            sign = -sign
        factors = m[k + 1 :, k] / m[k, k]
        m[k + 1 :, k + 1 :] -= np.outer(factors, m[k, k + 1 :])
    d = sign
    for k in range(n):
        d *= float(m[k, k])
    return d


def jacobi_eigen(a):
    """(eigenvalues, q) of a symmetric matrix by LAPACK syevd, as
    ``np.linalg.eigh`` returns them: eigenvalues ascending, A = Q diag(eig)
    Q^T.  Only the lower triangle is read, the one ``symmetric`` keeps.

    The name is historical (this was a cyclic Jacobi solver); the
    benchmark's trace still records the call under it.  Exact on diagonal
    input: the eigenvalues are the sorted entries and Q is a signed
    permutation.  Raises ConvergenceError if LAPACK does not converge.
    """
    try:
        eigenvalues, q = np.linalg.eigh(_as_array(a))
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"symmetric eigensolver failed: {e}") from e
    return eigenvalues, q


def cholesky_posdef(a) -> np.ndarray:
    """Admissibility test of the finite-difference stencil: for each matrix
    of an (..., n, n) stack, whether its entries are finite and LAPACK
    finds its Cholesky factor.  A boolean array of shape ``a.shape[:-2]``.
    """
    m = np.asarray(a, dtype=float)
    flat = m.reshape((-1,) + m.shape[-2:])
    ok = np.isfinite(flat).all(axis=(-2, -1))
    try:
        np.linalg.cholesky(flat[ok])
    except np.linalg.LinAlgError:
        # the stacked call names no matrix; factor the finite ones singly
        ok[ok] = [_has_cholesky(x) for x in flat[ok]]
    return ok.reshape(m.shape[:-2])


def _has_cholesky(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# The documented size of one ``PCG64.jumped()``: the returned generator's
# state is the seeded one advanced by this many draws.
_PCG64_JUMP = 210306068529402873165736369884012333109


def jumped_rng(seed: int) -> np.random.Generator:
    """The generator of ``PCG64(seed).jumped()``, from the same state.
    ``jumped()`` first seeds its new generator from OS entropy, which
    costs more than a sweep block's draw, and then overwrites that state;
    this advances a generator seeded from ``seed`` instead."""
    bits = np.random.PCG64(int(seed))
    bits.advance(_PCG64_JUMP)
    return np.random.Generator(bits)


def _householder_frames(z: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal (count, n, n) frames, row j the product
    H_0 H_1 ... H_{n-2} of Householder reflections (Stewart, SIAM J.
    Numer. Anal. 17(3), 1980), accumulated from the last.  H_k acts on
    coordinates k .. n-1 and maps a Gaussian vector x_k of length n - k
    onto the k-th axis; row j of ``z`` holds x_0, x_1, ..., x_{n-2} in
    turn.  Times a diagonal of signs the product is a Haar frame, and the
    signs cancel in ``Q diag Q^T``."""
    q = np.tile(np.eye(n), (len(z), 1, 1))
    end = z.shape[1]
    for k in range(n - 2, -1, -1):
        v = z[:, end - (n - k) : end].copy()
        end -= n - k
        norm = np.sqrt(np.sum(v * v, axis=1))
        v[:, 0] += np.copysign(norm, v[:, 0])
        # H_k = I - w v^T with w = v / (|x_k| |v_0|), since |v|^2 = 2 |x_k| |v_0|
        w = v / (norm * np.abs(v[:, 0]))[:, None]
        block = q[:, k:, k:]
        # the outer product by einsum has the bits of the broadcast one,
        # in fewer inner loops when the block is small
        block -= np.einsum("ri,rc->ric", w, (v[:, None, :] @ block)[:, 0])
    return q


def posdef_draw(n: int, log_eig_range: tuple, seed: int, count: int) -> tuple:
    """The raw numbers of ``count`` positive definite samples: a (count,
    n(n+1)/2 - 1) block of Gaussians and a (count, n) block of log
    eigenvalues, which ``posdef_build`` turns into the stack.

    Two PCG64 streams come from ``seed``: ``PCG64(seed)`` gives the
    uniforms over ``log_eig_range`` and its ``jumped()`` stream the
    Gaussians.  Row j is only row j of each block, so k rows are the
    first k rows of any longer draw from the same seed.
    """
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    lo, hi = float(log_eig_range[0]), float(log_eig_range[1])
    if lo > hi:
        raise ParameterError(f"log eigenvalue range has lo={lo} > hi={hi}")
    # the two streams start from the seeded state, so count cannot move either
    z = jumped_rng(seed).standard_normal((count, n * (n + 1) // 2 - 1))
    return z, _rng(int(seed)).uniform(lo, hi, size=(count, n))


def posdef_build(z: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """The (count, n, n) stack of ``posdef_draw``'s rows, or of rows of
    several draws stacked: row j is Q diag(exp(logs[j])) Q^T, with Q the
    Householder product (``_householder_frames``) of the Gaussians
    z[j], lower triangle mirrored."""
    n = logs.shape[1]
    q = _householder_frames(z, n)
    out = _mirror_lower((q * np.exp(logs)[:, None, :]) @ np.swapaxes(q, -1, -2))
    _check_finite(out)
    return out


def random_posdef_stack(n: int, log_eig_range: tuple, seed: int, count: int) -> tuple:
    """``count`` positive definite samples as a (count, n, n) stack, with
    their (count, n) log eigenvalues: ``posdef_build`` of ``posdef_draw``.
    A stack of k rows is the first k rows of any longer stack from the
    same seed.
    """
    z, logs = posdef_draw(n, log_eig_range, seed, count)
    return posdef_build(z, logs), logs


def random_posdef_array(n: int, log_eig_range: tuple, seed: int) -> np.ndarray:
    """Raw positive definite sample as a plain symmetric ndarray; the
    count-1 case of ``random_posdef_stack``.  Identical seeds give
    identical output."""
    return random_posdef_stack(n, log_eig_range, seed, 1)[0][0]


def random_posdef(n: int, log_eig_range: tuple, seed: int) -> PosDefMatrix:
    """Seeded positive definite sample with cached spectral data."""
    return PosDefMatrix.from_sym(random_posdef_array(n, log_eig_range, seed))


def sym_draw(n: int, seed: int, count: int) -> np.ndarray:
    """The (count, n(n+1)/2) uniforms in [-1, 1] of ``count`` symmetric
    samples, from one PCG64 stream seeded with ``seed``; ``sym_build``
    turns them into the stack."""
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    return _rng(int(seed)).uniform(-1.0, 1.0, size=(count, n * (n + 1) // 2))


def sym_build(vals: np.ndarray, n: int) -> np.ndarray:
    """The (count, n, n) stack of ``sym_draw``'s rows, or of rows of
    several draws stacked: row j fills the i <= j entries of matrix j
    row-major, and they are mirrored."""
    # entry (i, j) of every matrix is one gather from its row of vals;
    # take keeps the stack C-ordered, which later sums rely on for their bits
    rows, cols = np.triu_indices(n)
    at = np.empty((n, n), dtype=np.intp)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    return np.take(vals, at, axis=1)


def random_sym(n: int, seed: int, count: int) -> np.ndarray:
    """``count`` symmetric samples as a (count, n, n) stack, entries
    uniform in [-1, 1]: ``sym_build`` of ``sym_draw``."""
    return sym_build(sym_draw(n, seed, count), n)


def random_pairs(n: int, seed: int, count: int):
    """``count`` (C, H) pairs as two (count, n, n) stacks, pair i in row i
    of both.  C is positive definite with eigenvalues over
    DEFAULT_LOG_EIG_RANGE, which keeps it above the positivity floor, from
    word 0 of ``seed_words(seed, 2)``; H is symmetric, from word 1.  Fewer
    pairs are a prefix of more."""
    words = seed_words(seed, 2)
    c = random_posdef_stack(n, DEFAULT_LOG_EIG_RANGE, words[0], count)[0]
    return c, random_sym(n, words[1], count)
