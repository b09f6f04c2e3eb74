"""Dense symmetric matrix arithmetic for small n, on plain ndarrays.

Everything here is sized for the certification workloads (n up to ~16):
LAPACK eigendecompositions of symmetric matrices, inverses through the
eigendecomposition, a hand LU determinant that is exact on diagonal
input, and seeded sampling of test matrices, one at a time or as
(N, n, n) stacks.  There is no matrix wrapper: a matrix is validated once
where it enters, by ``symmetric`` (square, finite, lower triangle
mirrored, read-only) or by the seeded draws, and is passed on as a plain
array.  ``PosDefMatrix`` adds the cached determinant, inverse and
spectrum of a positive definite one.  All operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
)

# Generator family used by every sampling routine; recorded in report
# headers so results can be reproduced.
RNG_ALGORITHM = "numpy-pcg64"

POSDEF_EIG_FLOOR = 1e-12  # relative to the Frobenius norm

_FLOAT_TINY = sys.float_info.min  # smallest normal float


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


@dataclass(frozen=True, eq=False)
class PosDefMatrix:
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
    eigenvalues: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def from_sym(a) -> "PosDefMatrix":
        a = symmetric(a)
        eigenvalues, q = jacobi_eigen(a)
        floor = POSDEF_EIG_FLOOR * frob_norm(a)
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
    divided by their largest absolute value before they are squared."""
    scale = np.max(np.abs(a), axis=(-2, -1))
    scale = np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)
    return scale * np.sqrt(np.sum((a / scale[..., None, None]) ** 2, axis=(-2, -1)))


def frob_norm(m) -> float:
    """Frobenius norm: the square root of the plain sum of squares, unless
    that sum is not a finite normal float (entries beyond about 1e154
    overflow the squares, below about 1e-154 they underflow); then the
    entries are rescaled first."""
    a = _as_array(m)
    with np.errstate(over="ignore"):
        squares = float(np.add.reduce(a * a, axis=None))
    if _FLOAT_TINY <= squares < math.inf:
        return math.sqrt(squares)
    return float(_rescaled_norms(a))


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


def cholesky_posdef(a) -> bool:
    """Fast admissibility pre-check used inside finite-difference loops."""
    m = _as_array(a)
    if not np.all(np.isfinite(m)):
        return False
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_posdef_stack(n: int, log_eig_range: tuple, seeds) -> np.ndarray:
    """Positive definite samples as an (N, n, n) stack, one per seed.

    Each seed drives its own PCG64 stream: n uniform draws over
    ``log_eig_range`` whose exp gives the eigenvalues, then an n x n
    Gaussian matrix whose QR factor, with the positive-diagonal sign
    convention, gives the orthogonal frame.  The QR and the products run
    on the whole stack; every matrix is the one its seed gives alone.
    """
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    lo, hi = float(log_eig_range[0]), float(log_eig_range[1])
    if lo > hi:
        raise ParameterError(f"log eigenvalue range has lo={lo} > hi={hi}")
    logs = np.empty((len(seeds), n))
    gauss = np.empty((len(seeds), n, n))
    for i, seed in enumerate(seeds):
        gen = _rng(int(seed))
        logs[i] = gen.uniform(lo, hi, size=n)
        gauss[i] = gen.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    out = _mirror_lower((q * np.exp(logs)[:, None, :]) @ np.swapaxes(q, -1, -2))
    _check_finite(out)
    return out


def random_sym_stack(n: int, scale: float, seeds) -> np.ndarray:
    """Symmetric samples as an (N, n, n) stack, entries uniform in
    [-scale, scale], one PCG64 stream per seed.

    Each stream fills the i <= j entries row-major; they are mirrored.
    """
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    if scale < 0:
        raise ParameterError("scale must be >= 0")
    rows, cols = np.triu_indices(n)
    out = np.zeros((len(seeds), n, n))
    for i, seed in enumerate(seeds):
        vals = _rng(int(seed)).uniform(-scale, scale, size=rows.size)
        out[i, rows, cols] = vals
        out[i, cols, rows] = vals
    _check_finite(out)
    return out


def require_posdef_stack(a: np.ndarray):
    """Apply the eigenvalue floor of ``PosDefMatrix.from_sym`` to every
    matrix of an (N, n, n) stack; raises NotPositiveDefiniteError naming
    the first sample below it."""
    smallest = np.linalg.eigvalsh(a)[:, 0]
    with np.errstate(over="ignore"):
        squares = np.sum(a**2, axis=(-2, -1))
    norms = np.sqrt(squares)
    # the rule of frob_norm, per matrix
    redo = ~((squares >= _FLOAT_TINY) & (squares < np.inf))
    if redo.any():
        norms = np.where(redo, _rescaled_norms(a), norms)
    floors = POSDEF_EIG_FLOOR * norms
    below = np.flatnonzero(smallest <= floors)
    if below.size:
        i = int(below[0])
        raise NotPositiveDefiniteError(
            f"sample {i}: smallest eigenvalue {smallest[i]:.3e} below the "
            f"positivity floor {floors[i]:.3e}"
        )


def random_posdef_array(n: int, log_eig_range: tuple, seed: int) -> np.ndarray:
    """Raw positive definite sample as a plain symmetric ndarray; the
    single-seed case of ``random_posdef_stack``.  Identical seeds give
    identical output."""
    return random_posdef_stack(n, log_eig_range, [seed])[0]


def random_posdef(n: int, log_eig_range: tuple, seed: int) -> PosDefMatrix:
    """Seeded positive definite sample with cached spectral data."""
    return PosDefMatrix.from_sym(random_posdef_array(n, log_eig_range, seed))


def random_sym(n: int, scale: float, seed: int) -> np.ndarray:
    """Seeded symmetric sample with entries uniform in [-scale, scale]; the
    single-seed case of ``random_sym_stack``."""
    return random_sym_stack(n, scale, [seed])[0]
