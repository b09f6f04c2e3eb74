"""Dense symmetric matrix arithmetic for small n.

Everything here is sized for the certification workloads (n up to ~16):
plain dense numpy storage, a hand-rolled cyclic Jacobi eigensolver for
symmetric matrices, inverses through the eigendecomposition, and seeded
sampling of test matrices, one at a time or as (N, n, n) stacks.  All
values are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

import math
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

JACOBI_SWEEP_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100
POSDEF_EIG_FLOOR = 1e-12  # relative to the Frobenius norm


def _check_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of a matrix, or of each matrix in a stack,
    onto the upper one."""
    idx = np.arange(a.shape[-1])
    return np.where(idx[:, None] >= idx, a, np.swapaxes(a, -1, -2))


def _as_array(m) -> np.ndarray:
    """Accept SymMatrix or any array-like and return a float ndarray."""
    if isinstance(m, SymMatrix):
        return m.a
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric n x n matrix; the lower triangle is authoritative.

    The constructor mirrors the lower triangle onto the upper one, so
    ``entry(i,j) == entry(j,i)`` holds exactly by construction.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionError("dimension must be >= 1")
        _check_finite(a)
        sym = _mirror_lower(a)
        sym.setflags(write=False)
        object.__setattr__(self, "a", sym)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def from_diag(d) -> "SymMatrix":
        return SymMatrix(np.diag(np.asarray(d, dtype=float)))

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix(np.eye(n))

    @staticmethod
    def zero(n: int) -> "SymMatrix":
        return SymMatrix(np.zeros((n, n)))

    def scaled(self, t: float) -> "SymMatrix":
        return SymMatrix(self.a * t)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise DimensionError("dimension mismatch in matrix addition")
        return SymMatrix(self.a + other.a)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Orthogonal Q and eigenvalues (ascending) with A = Q diag(eig) Q^T."""

    q: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.q.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    def reconstruct(self) -> np.ndarray:
        return (self.q * self.eigenvalues) @ self.q.T


@dataclass(frozen=True, eq=False)
class PosDefMatrix:
    """Symmetric positive definite matrix with cached spectral data.

    ``det`` comes from an LU factorization and is independently checked
    against the eigenvalue product by the test suite; ``inverse`` is
    Q diag(1/eig) Q^T from the Jacobi decomposition.
    """

    base: SymMatrix
    det: float
    inverse: SymMatrix
    eigen: EigenDecomposition = field(repr=False)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.eigenvalues

    @staticmethod
    def from_sym(sym: SymMatrix) -> "PosDefMatrix":
        if not isinstance(sym, SymMatrix):
            sym = SymMatrix(sym)
        eig = jacobi_eigen(sym)
        floor = POSDEF_EIG_FLOOR * frob_norm(sym.a)
        if eig.eigenvalues[0] <= floor:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {eig.eigenvalues[0]:.3e} below the "
                f"positivity floor {floor:.3e}"
            )
        inv = SymMatrix((eig.q / eig.eigenvalues) @ eig.q.T)
        return PosDefMatrix(base=sym, det=det(sym.a), inverse=inv, eigen=eig)

    @staticmethod
    def from_diag(d) -> "PosDefMatrix":
        return PosDefMatrix.from_sym(SymMatrix.from_diag(d))


def frob_norm(m) -> float:
    return float(np.sqrt(np.sum(_as_array(m) ** 2)))


def frob_inner(a, b) -> float:
    """Trace inner product <A,B> = tr(A B^T) = sum_ij A_ij B_ij."""
    aa, bb = _as_array(a), _as_array(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"shape mismatch {aa.shape} vs {bb.shape}")
    return float(np.sum(aa * bb))


def det(a) -> float:
    """Determinant via LU with partial pivoting.

    Independent of the Jacobi eigensolver, so the determinant-vs-eigenvalue
    product invariant is a genuine dual-route check.  Exact for diagonal
    input (the pivot product reduces to the plain entry product).
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


def jacobi_eigen(a) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate away every off-diagonal pair until the off-diagonal
    Frobenius norm drops below ``JACOBI_SWEEP_TOL`` times the input norm;
    raises ConvergenceError after ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    if not isinstance(a, SymMatrix):
        a = SymMatrix(_as_array(a))  # mirror lower triangle, validate
    m = a.a
    n = m.shape[0]
    w = m.copy()
    q = np.eye(n)
    if n == 1:
        return EigenDecomposition(q=q, eigenvalues=w.diagonal().copy())

    target = JACOBI_SWEEP_TOL * frob_norm(m)

    def off_norm(x):
        od = x - np.diag(np.diag(x))
        return float(np.sqrt(np.sum(od * od)))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm(w) <= target:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = float(w[p, r])
                if apr == 0.0:
                    continue
                # plain-float arithmetic and hypot keep huge theta (tiny
                # pivot) from overflowing; t then underflows to a no-op
                # rotation and the explicit zeroing absorbs the entry
                theta = (float(w[r, r]) - float(w[p, p])) / (2.0 * apr)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                w[:, [p, r]] = w[:, [p, r]] @ rot
                w[[p, r], :] = rot.T @ w[[p, r], :]
                w[p, r] = w[r, p] = 0.0
                q[:, [p, r]] = q[:, [p, r]] @ rot
    else:
        raise ConvergenceError(
            f"Jacobi sweep cap ({JACOBI_MAX_SWEEPS}) hit; "
            f"off-diagonal norm {off_norm(w):.3e} > {target:.3e}"
        )

    eigs = w.diagonal().copy()
    order = np.argsort(eigs, kind="stable")
    return EigenDecomposition(q=q[:, order], eigenvalues=eigs[order])


def is_positive_definite(a) -> bool:
    """Eigenvalue test with a Cholesky fast path.

    Cholesky succeeding is accepted immediately; on failure the Jacobi
    eigenvalue floor decides, so near-singular inputs get the authoritative
    answer.
    """
    m = _as_array(a)
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        pass
    try:
        eig = jacobi_eigen(m)
    except (ConvergenceError, ParameterError):
        return False
    return bool(eig.eigenvalues[0] > POSDEF_EIG_FLOOR * frob_norm(m))


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


def adjugate(a) -> SymMatrix:
    """Adjugate of a symmetric matrix, defined for singular input too.

    Cofactors are computed for i <= j and mirrored, so the result is
    symmetric by construction; adjugate(A) @ A == det(A) * I up to roundoff.
    """
    m = _as_array(a)
    if not isinstance(a, SymMatrix):
        m = SymMatrix(m).a
    n = m.shape[0]
    if n == 1:
        return SymMatrix(np.ones((1, 1)))
    out = np.zeros((n, n))
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(i, n):
            cols = [c for c in range(n) if c != j]
            minor = m[np.ix_(rows, cols)]
            cof = (-1.0) ** (i + j) * det(minor)
            # adjugate is the transposed cofactor matrix; symmetry makes
            # the transpose a no-op once mirrored
            out[j, i] = cof
            out[i, j] = cof
    return SymMatrix(out)


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
    floors = POSDEF_EIG_FLOOR * np.sqrt(np.sum(a**2, axis=(-2, -1)))
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
    return PosDefMatrix.from_sym(SymMatrix(random_posdef_array(n, log_eig_range, seed)))


def random_sym(n: int, scale: float, seed: int) -> SymMatrix:
    """Seeded symmetric sample with entries uniform in [-scale, scale]; the
    single-seed case of ``random_sym_stack``."""
    return SymMatrix(random_sym_stack(n, scale, [seed])[0])
