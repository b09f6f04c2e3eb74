"""First and second derivatives of g = f(det(.)) on the positive definite
cone, with finite-difference oracles to cross-check every analytic form.

The second directional derivative in a symmetric direction H is

    D2g(C).(H,H) = det C * { [f''(det C) det C + f'(det C)] <C^-1, H>^2
                             - f'(det C) <H C^-1, C^-1 H> }

where <.,.> is the trace inner product.  ``condition_lhs_full`` is the same
bracket without the leading det C factor; ``condition_lhs_diag`` is its
diagonalized normal form (divided once more by det C).  ``g_hess_form``
is det C times ``condition_lhs_full``, which takes both inner products
from ``hess_terms``, the one kernel shared by single pairs and the stacked
randomized sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, scalarfun
from .errors import (
    DegenerateDirectionError,
    DimensionError,
    DomainError,
    NonFiniteError,
    ParameterError,
)
from .linalg import PosDefMatrix, frob_inner, frob_norm

_EPS = float(np.finfo(float).eps)
FD_MAX_HALVINGS = 40

# Second differences at eps^(1/4) scale leave h^2 truncation above 1e-5
# relative for well-spread spectra (condition ~100); eps^0.3 ~ 2e-5 keeps
# truncation below the oracle tolerances with the roundoff floor still two
# orders further down.
FD_SECOND_SCALE = _EPS**0.3
FD_FIRST_SCALE = _EPS ** (1.0 / 3.0)

# Relative discrepancies the oracle sweep accepts between the analytic
# Hessian / gradient forms and their central differences.
ORACLE_HESS_TOL = 1e-5
ORACLE_GRAD_TOL = 1e-6


def _check_pair(c: PosDefMatrix, h) -> np.ndarray:
    harr = linalg._as_array(h)
    if harr.shape != (c.n, c.n):
        raise DimensionError(f"direction shape {harr.shape} does not match n={c.n}")
    return harr


def g_grad_form(f, c: PosDefMatrix, h) -> float:
    """Dg(C).H = f'(det C) * det C * <C^-1, H>  (chain rule through det)."""
    harr = _check_pair(c, h)
    jet = scalarfun.eval_jet(f, c.det)
    return jet.d1 * c.det * frob_inner(c.inverse, harr)


def hess_terms(c, h):
    """(<C^-1, H>, <H C^-1, C^-1 H>) for a symmetric pair or for stacks of
    pairs of shape (..., n, n).

    With X = C^-1 H from one LAPACK solve (no explicit inverse) and C, H
    symmetric, <C^-1, H> = tr X and <H C^-1, C^-1 H> = sum(X * X^T).
    """
    x = np.linalg.solve(c, h)
    return x.trace(axis1=-2, axis2=-1), (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))


def condition_bracket(jet, s: float, inner: float, cross: float) -> float:
    """[f''(s) s + f'(s)] inner^2 - f'(s) cross, from the jet of f at s."""
    return (jet.d2 * s + jet.d1) * inner * inner - jet.d1 * cross


def g_hess_form(f, c: PosDefMatrix, h) -> float:
    """D2g(C).(H,H) = det C * condition_lhs_full; quadratic in H."""
    return c.det * condition_lhs_full(f, c, h)


def condition_lhs_full(f, c: PosDefMatrix, h) -> float:
    """[f'' det C + f'] <C^-1,H>^2 - f' <HC^-1, C^-1H>; non-negativity of
    this quantity over all (C, H) characterizes convexity of g."""
    inner, cross = hess_terms(c.a, _check_pair(c, h))
    jet = scalarfun.eval_jet(f, c.det)
    return condition_bracket(jet, c.det, float(inner), float(cross))


def condition_lhs_diag(f, dvec, h):
    """Diagonal normal form of the convexity condition for one pair or for
    stacks: ``dvec`` of shape (..., n) holds the diagonal of D^-1
    (reciprocal eigenvalues), ``h`` has shape (..., n, n).  With
    s = 1/prod(dvec) the returned value is

        (f''(s) + f'(s)/s) <D^-1,H>^2 - (f'(s)/s) <D^-1 H, H D^-1>

    where <D^-1,H> = sum_i d_i h_ii and <D^-1 H, H D^-1> = sum_ij d_i d_j
    h_ij^2.  It equals condition_lhs_full / det C after rotating H into
    the eigenbasis, and takes no solve, so it stays a check on the kernel.
    """
    d = np.asarray(dvec, dtype=float)
    if d.ndim < 1 or np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ParameterError("dvec must hold positive finite reciprocal eigenvalues")
    harr = np.asarray(h, dtype=float)
    if harr.shape != d.shape + d.shape[-1:]:
        raise DimensionError(f"direction shape {harr.shape} does not match dvec {d.shape}")
    s = 1.0 / np.prod(d, axis=-1)
    jet = scalarfun.eval_jet(f, s)
    inner = np.sum(d * np.diagonal(harr, axis1=-2, axis2=-1), axis=-1)
    cross = np.sum(d[..., :, None] * d[..., None, :] * harr * harr, axis=(-2, -1))
    return (jet.d2 + jet.d1 / s) * inner * inner - (jet.d1 / s) * cross


# --------------------------------------------------------------------------
# finite-difference oracles


def _stencil(c: PosDefMatrix, h, scale: float):
    """(det(C+tH), det(C-tH), t) for the central differences of
    t -> g(C + tH).  The step starts at the direction-scaled
    scale * (1 + |C|) / (1 + |H|) and is halved until C +/- tH stays
    positive definite."""
    harr = _check_pair(c, h)
    t = scale * (1.0 + frob_norm(c.a)) / (1.0 + frob_norm(harr))
    if t <= 0:
        # the norm of H overflowed
        raise ParameterError("finite-difference step must be positive")
    if np.any(harr):
        for _ in range(FD_MAX_HALVINGS + 1):
            if all(linalg.cholesky_posdef(c.a + sign * t * harr) for sign in (1.0, -1.0)):
                break
            t *= 0.5
        else:
            raise DegenerateDirectionError(
                f"no admissible step after {FD_MAX_HALVINGS} halvings (h={t:.3e})"
            )
    dets = []
    for sign in (1.0, -1.0):
        s = linalg.det(c.a + sign * t * harr)
        if s <= 0.0:
            raise DomainError(f"perturbed matrix left the positive cone (det={s})")
        dets.append(s)
    return *dets, t


def fd_second_directional_with_step(f, c: PosDefMatrix, h):
    """(value, h_used) for the central second difference of t -> g(C + tH).
    The three values of f come from one evaluator call, in the order
    (det C, det(C+tH), det(C-tH))."""
    sp, sm, t = _stencil(c, h, FD_SECOND_SCALE)
    g0, gp, gm = scalarfun.eval_all(f, np.array([c.det, sp, sm])).tolist()
    return (gp - 2.0 * g0 + gm) / (t * t), t


def fd_second_directional(f, c: PosDefMatrix, h) -> float:
    """Central second difference (g(C+hH) - 2 g(C) + g(C-hH)) / h^2."""
    return fd_second_directional_with_step(f, c, h)[0]


def fd_first_directional(f, c: PosDefMatrix, h) -> float:
    """Central first difference (g(C+hH) - g(C-hH)) / (2h)."""
    sp, sm, t = _stencil(c, h, FD_FIRST_SCALE)
    gp, gm = scalarfun.eval_all(f, np.array([sp, sm])).tolist()
    return (gp - gm) / (2.0 * t)


# --------------------------------------------------------------------------
# sampling sweep


@dataclass(frozen=True)
class QuadFormSample:
    """One (C, H) draw with the analytic quadratic form and its oracle."""

    c: PosDefMatrix
    h: np.ndarray
    analytic: float
    fd: float
    h_used: float
    agreeing: bool


@dataclass(frozen=True)
class OracleSweepResult:
    samples: tuple
    max_hess_disc: float
    max_grad_disc: float
    min_hess_disc: float
    min_grad_disc: float
    skipped: int

    @property
    def all_agree(self) -> bool:
        return self.max_hess_disc <= ORACLE_HESS_TOL and self.max_grad_disc <= ORACLE_GRAD_TOL


def builtin_corpus(n: int):
    """Family instances the sweep cycles through by default.

    Mixes convex and non-convex members; exponents stay moderate so the
    finite-difference oracle is well conditioned across det in
    [0.1^n, 10^n].
    """
    return (
        scalarfun.NeoHookeVolumetric(mu=1.0),
        scalarfun.LogFamily(c=-2.0, d=0.5),
        scalarfun.PowerLaw(c=-1.0, p=0.5),
        scalarfun.PowerLaw(c=1.0, p=1.0, d=-1.0),
        scalarfun.PowerLaw(c=-0.5, p=-0.5, d=0.2),
        scalarfun.FamilyA(a=0.0, c=-1.0, d=0.0, n=n),
        scalarfun.FamilyA(a=0.75, c=-2.0, d=1.0, n=n),
    )


def oracle_sweep(n: int, num_samples: int, seed: int, functions=None) -> OracleSweepResult:
    """Compare g_hess_form / g_grad_form against central differences over
    seeded random (C, H) pairs.

    Discrepancies are |analytic - fd| / max(1, |analytic|); a sample is
    ``agreeing`` when its Hessian discrepancy is within ORACLE_HESS_TOL.  A
    sample whose function fails to evaluate (outside its domain or
    overflowing) or that admits no finite-difference step is skipped.
    """
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    seeds = linalg.seed_words(seed, 2 * num_samples)
    funcs = builtin_corpus(n) if functions is None else tuple(functions)
    samples = []
    hess_disc = []
    grad_disc = []
    skipped = 0
    for i in range(num_samples):
        f = funcs[i % len(funcs)]
        c = linalg.random_posdef(n, linalg.DEFAULT_LOG_EIG_RANGE, int(seeds[2 * i]))
        h = linalg.random_sym(n, int(seeds[2 * i + 1]))
        try:
            analytic = g_hess_form(f, c, h)
            fd, h_used = fd_second_directional_with_step(f, c, h)
            grad = g_grad_form(f, c, h)
            fd_grad = fd_first_directional(f, c, h)
        except (DomainError, NonFiniteError, DegenerateDirectionError):
            skipped += 1
            continue
        hd = abs(analytic - fd) / max(1.0, abs(analytic))
        gd = abs(grad - fd_grad) / max(1.0, abs(grad))
        hess_disc.append(hd)
        grad_disc.append(gd)
        samples.append(
            QuadFormSample(
                c=c, h=h, analytic=analytic, fd=fd, h_used=h_used, agreeing=hd <= ORACLE_HESS_TOL
            )
        )
    if not samples:
        raise DegenerateDirectionError("every sample was skipped")
    return OracleSweepResult(
        samples=tuple(samples),
        max_hess_disc=float(max(hess_disc)),
        max_grad_disc=float(max(grad_disc)),
        min_hess_disc=float(min(hess_disc)),
        min_grad_disc=float(min(grad_disc)),
        skipped=skipped,
    )
