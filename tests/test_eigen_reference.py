"""The LAPACK eigendecomposition behind ``PosDefMatrix.from_sym`` against
the cyclic Jacobi solver it replaced.

``reference_jacobi`` is that solver, kept here as the reference.  On
general symmetric input the two agree to rounding; on diagonal input, which
every witness matrix is, both must be exact: the spectrum is the sorted
diagonal and the frame a signed permutation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detconvex import linalg
from detconvex.certifier import KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER, GridSpec, witness_pair
from detconvex.linalg import PosDefMatrix, jacobi_eigen, random_posdef_array, random_sym

EPS = float(np.finfo(float).eps)

JACOBI_SWEEP_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100


def reference_jacobi(a: np.ndarray):
    """(ascending eigenvalues, Q) of a symmetric array by cyclic Jacobi
    sweeps, as ``linalg.jacobi_eigen`` computed them before LAPACK."""
    n = a.shape[0]
    w = a.copy()
    q = np.eye(n)
    if n == 1:
        return w.diagonal().copy(), q

    target = JACOBI_SWEEP_TOL * float(np.sqrt(np.sum(a * a)))

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
        raise AssertionError("reference Jacobi hit its sweep cap")

    eigs = w.diagonal().copy()
    order = np.argsort(eigs, kind="stable")
    return eigs[order], q[:, order]


def eig_tol(a: np.ndarray) -> float:
    """Both solvers are backward stable, so each eigenvalue lies within a
    small multiple of n eps ||A||_F of the exact one (Weyl)."""
    return 32.0 * a.shape[0] * EPS * float(np.sqrt(np.sum(a * a)))


def assert_eigenvalues_agree(a: np.ndarray):
    got, _ = jacobi_eigen(a)
    ref, _ = reference_jacobi(a)
    assert np.max(np.abs(got - ref)) <= eig_tol(a)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_random_draws_agree(n):
    for seed in range(8):
        assert_eigenvalues_agree(3.0 * random_sym(n, seed=seed, count=1)[0])
        assert_eigenvalues_agree(random_posdef_array(n, seed=100 + seed))


# The reference squares entries in its stopping test: when ||A||_F^2
# underflows it stops before the first rotation and returns the diagonal.
# Entries below 1e-100 in magnitude are therefore drawn as 0.
@given(
    st.integers(1, 6).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64).map(
                lambda x: x if abs(x) >= 1e-100 else 0.0
            ),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_matrices_agree(a):
    assert_eigenvalues_agree(linalg.symmetric(a))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", [KIND_POSITIVE_FPRIME, KIND_SECOND_ORDER])
def test_witness_matrices_exact(kind, n):
    # C = s^(1/n) I, for either kind, across the default grid
    ones = np.ones(n)
    for s in GridSpec().points():
        c, _ = witness_pair(kind, float(s), n)
        eigenvalues, q = jacobi_eigen(c.a)
        ref, _ = reference_jacobi(c.a)
        assert np.array_equal(eigenvalues, np.sort(np.diag(c.a)))
        assert np.array_equal(eigenvalues, ref)
        perm = np.abs(q)
        assert np.all((perm == 0.0) | (perm == 1.0))
        assert np.array_equal(perm.sum(axis=0), ones)
        assert np.array_equal(perm.sum(axis=1), ones)


def test_lapack_failure_is_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        jacobi_eigen(np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        PosDefMatrix.from_sym(np.diag([1.0, 2.0]))
