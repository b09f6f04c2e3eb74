"""Dense symmetric matrix arithmetic for small n, on plain ndarrays.

Sized for the certification workloads (n up to ``cli.MAX_DIM``, 64):
LAPACK eigenvalues of symmetric matrices, a hand LU determinant that is
exact on diagonal input (the witnesses' C; stacks take LAPACK's), the
determinants of a positive definite stack from one stacked Cholesky
call, which names the first matrix that has no factor, and seeded
sampling of test matrices as (N, n, n) stacks from one seed word each,
their spectra in [0.1, 10] and their frames the LAPACK QR factors of
Gaussian matrices, a shorter stack a prefix of a longer one
(``random_pairs`` draws the (C, H) pairs of the oracle and the
self-test).  ``sym_build`` turns rows of uniforms into a
symmetric stack for ``random_sym``; the randomized sweep draws only
spectra of diagonal matrices, which it never builds.  Matrices are plain
arrays, checked by the routine that needs the check: ``symmetric``
(square, finite, lower triangle mirrored, read-only) for
``PosDefMatrix``, such an array above the positivity floor with its
determinant, and ``detcalculus.directional_forms`` for its stacks
(finite, equal to their transposes); the seeded draws are symmetric by
construction.  ``integer`` is the one rule of the package's integer
inputs: dimensions, sample counts and seeds.  All operations are pure
functions.
"""

from __future__ import annotations

import operator
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, ParameterError

# Log eigenvalue range of every positive definite draw: eigenvalues in
# [0.1, 10], so that up to n = 64 every draw clears the positivity floor by
# construction, and the oracle's stencil stays far inside the cone.
DEFAULT_LOG_EIG_RANGE = (float(np.log(0.1)), float(np.log(10.0)))

POSDEF_EIG_FLOOR = 1e-12  # relative to the Frobenius norm

_FLOAT_TINY = sys.float_info.min  # smallest normal float


def integer(value, name: str, least: int) -> int:
    """``value`` as an int; ParameterError, naming ``name``, unless it is
    an integer (a numpy integer is one, a bool is not) >= ``least``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name}={value!r} must be an integer") from None
    if value < least:
        raise ParameterError(f"{name}={value} must be >= {least}")
    return value


def dimension(n) -> int:
    """The dimension n as an int, an integer >= 1."""
    return integer(n, "dimension n", 1)


def seed_words(seed: int, count: int) -> np.ndarray:
    """``count`` uint64 words of ``SeedSequence(seed)``, each seeding one
    draw's own PCG64 stream (one matrix, or one stack of them), so a draw
    replays from its index alone.  The words for a smaller count are a
    prefix of those for a larger one.  A negative seed raises
    ParameterError."""
    return np.random.SeedSequence(integer(seed, "seed", 0)).generate_state(count, dtype=np.uint64)


def _check_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of a matrix, or of each matrix in a stack,
    onto the upper one."""
    idx = np.arange(a.shape[-1])
    return np.where(idx[:, None] >= idx, a, np.swapaxes(a, -1, -2))


def _as_array(m) -> np.ndarray:
    """Any array-like as a square 2-d float ndarray, the one check of a
    single matrix's shape, or ParameterError."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetric(a) -> np.ndarray:
    """A matrix entering the package: square, n >= 1 and finite.  Returns
    a read-only copy with the lower triangle mirrored onto the upper one,
    so ``m[i, j] == m[j, i]`` holds exactly."""
    a = _as_array(a)
    dimension(a.shape[0])
    _check_finite(a)
    sym = _mirror_lower(a)
    sym.setflags(write=False)
    return sym


class PosDefMatrix(NamedTuple):
    """Symmetric positive definite matrix ``a``, read-only, with its
    determinant from the hand LU (``det``), exact on diagonal input."""

    a: np.ndarray
    det: float

    @staticmethod
    def from_sym(a) -> "PosDefMatrix":
        """``symmetric(a)`` with its smallest eigenvalue above
        ``posdef_floor``, or NotPositiveDefiniteError."""
        a = symmetric(a)
        lowest = jacobi_eigen(a)[0][0]
        floor = posdef_floor(a)
        if lowest <= floor:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {lowest:.3e} below the positivity floor {floor:.3e}"
            )
        return PosDefMatrix(a=a, det=det(a))


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
        raise ParameterError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
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


def det(a) -> float:
    """Determinant via LU with partial pivoting, in Python.

    Independent of the LAPACK eigensolver, so the determinant-vs-eigenvalue
    product invariant is a genuine dual-route check.  Exact for diagonal
    input (the pivot product reduces to the plain entry product), which
    ``np.linalg.det`` is not: it sums logarithms of the pivots and gives
    23.999999999999993 for diag(2, 3, 4).  No witness relies on that
    exactness: the witnesses' C = s^(1/n) I has det C = s only up to the
    rounding of s^(1/n).  Its one caller is ``PosDefMatrix.from_sym``,
    and the benchmark's trace records the call under this name.
    """
    m = _as_array(a).astype(float, copy=True)
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
    """The determinants of an (..., n, n) stack of positive definite
    matrices, of shape ``a.shape[:-2]``: exp(2 sum_i log L_ii) of each
    Cholesky factor L, from one LAPACK call over the stack.  Summed in the
    log domain, as ``np.linalg.det`` sums the logarithms of its LU pivots,
    a determinant over- or underflows only where the product of the
    eigenvalues does.  NotPositiveDefiniteError names the index of the
    first matrix that has no factor.  The entries must be finite: LAPACK
    may factor a NaN into a NaN determinant.
    """
    m = np.asarray(a, dtype=float)
    try:
        diag = np.linalg.cholesky(m).diagonal(axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        # the stacked call names no matrix; the first that fails alone is named
        for k, x in enumerate(m.reshape((-1,) + m.shape[-2:])):
            try:
                np.linalg.cholesky(x)
            except np.linalg.LinAlgError:
                where = tuple(int(i) for i in np.unravel_index(k, m.shape[:-2]))
                raise NotPositiveDefiniteError(f"matrix {where} of the stack has no Cholesky factor") from None
        raise
    return np.exp(2.0 * np.log(diag).sum(axis=-1))


def random_posdef_stack(n: int, seed: int, count: int) -> tuple:
    """``count`` positive definite samples as a (count, n, n) stack, with
    their (count, n) log eigenvalues.

    Two PCG64 streams come from ``seed``: ``PCG64(seed)`` gives the
    uniform log eigenvalues over DEFAULT_LOG_EIG_RANGE, so every
    eigenvalue lies in [0.1, 10], and its ``jumped()`` stream an n x n
    Gaussian matrix per row, whose LAPACK QR factor Q is a Haar frame up
    to the signs of its columns (Mezzadri, Notices AMS 54(5), 2007); the
    signs cancel in Q diag Q^T.  Row j is Q diag(exp(logs[j])) Q^T, lower
    triangle mirrored, from row j of each stream's block, so a stack of k
    rows is the first k rows of any longer stack from the same seed.
    """
    n = dimension(n)
    # the two streams start from the seeded state, so count cannot move either
    bits = np.random.PCG64(integer(seed, "seed", 0))
    count = integer(count, "count", 0)
    q = np.linalg.qr(np.random.Generator(bits.jumped()).standard_normal((count, n, n)))[0]
    logs = np.random.Generator(bits).uniform(*DEFAULT_LOG_EIG_RANGE, size=(count, n))
    return _mirror_lower((q * np.exp(logs)[:, None, :]) @ np.swapaxes(q, -1, -2)), logs


def random_posdef_array(n: int, seed: int) -> np.ndarray:
    """Raw positive definite sample as a plain symmetric ndarray; the
    count-1 case of ``random_posdef_stack``.  Identical seeds give
    identical output."""
    return random_posdef_stack(n, seed, 1)[0][0]


def sym_build(vals: np.ndarray, n: int) -> np.ndarray:
    """The (count, n, n) symmetric stack of the (count, n(n+1)/2) rows
    ``vals``: row j fills the i <= j entries of matrix j row-major, and
    they are mirrored."""
    # entry (i, j) of every matrix is one gather from its row of vals;
    # take keeps the stack C-ordered, which later sums rely on for their bits
    rows, cols = np.triu_indices(n)
    at = np.empty((n, n), dtype=np.intp)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    return np.take(vals, at, axis=1)


def random_sym(n: int, seed: int, count: int) -> np.ndarray:
    """``count`` symmetric samples as a (count, n, n) stack, entries
    uniform in [-1, 1], from one PCG64 stream seeded with ``seed``: the
    ``sym_build`` of its (count, n(n+1)/2) uniforms."""
    n = dimension(n)
    gen = np.random.Generator(np.random.PCG64(integer(seed, "seed", 0)))
    return sym_build(gen.uniform(-1.0, 1.0, size=(integer(count, "count", 0), n * (n + 1) // 2)), n)


def random_pairs(n: int, seed: int, count: int):
    """``count`` (C, H) pairs as two (count, n, n) stacks, pair i in row i
    of both.  C is positive definite with eigenvalues over
    DEFAULT_LOG_EIG_RANGE, which keeps it above the positivity floor, from
    word 0 of ``seed_words(seed, 2)``; H is symmetric, from word 1.  Fewer
    pairs are a prefix of more."""
    words = seed_words(seed, 2)
    c = random_posdef_stack(n, words[0], count)[0]
    return c, random_sym(n, words[1], count)
