"""First and second derivatives of g = f(det(.)) on the positive definite
cone, with finite-difference oracles to cross-check every analytic form.

The second directional derivative in a symmetric direction H is

    D2g(C).(H,H) = det C * { [f''(det C) det C + f'(det C)] <C^-1, H>^2
                             - f'(det C) <H C^-1, C^-1 H> }

where <.,.> is the trace inner product.  ``condition_lhs_full`` is the same
bracket without the leading det C factor; ``condition_lhs_diag`` is its
diagonalized normal form (divided once more by det C).  ``g_hess_form``
and ``condition_lhs_full`` take both inner products from ``hess_terms``,
the one kernel shared by single pairs and the stacked randomized sweep.
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


def _pair_terms(c: PosDefMatrix, h):
    inner, cross = hess_terms(c.a, _check_pair(c, h))
    return float(inner), float(cross)


def g_hess_form(f, c: PosDefMatrix, h) -> float:
    """D2g(C).(H,H); quadratic in H."""
    inner, cross = _pair_terms(c, h)
    jet = scalarfun.eval_jet(f, c.det)
    return c.det * condition_bracket(jet, c.det, inner, cross)


def condition_lhs_full(f, c: PosDefMatrix, h) -> float:
    """[f'' det C + f'] <C^-1,H>^2 - f' <HC^-1, C^-1H>; non-negativity of
    this quantity over all (C, H) characterizes convexity of g.

    Identity: condition_lhs_full * det C == g_hess_form.
    """
    inner, cross = _pair_terms(c, h)
    return condition_bracket(scalarfun.eval_jet(f, c.det), c.det, inner, cross)


def condition_lhs_diag(f, dvec, h) -> float:
    """Diagonal normal form of the convexity condition.

    ``dvec`` holds the diagonal of D^-1 (reciprocal eigenvalues); with
    s = 1/prod(dvec) the returned value is

        (f''(s) + f'(s)/s) <D^-1,H>^2 - (f'(s)/s) <D^-1 H, H D^-1>

    which equals condition_lhs_full / det C after rotating H into the
    eigenbasis.
    """
    d = np.asarray(dvec, dtype=float)
    if d.ndim != 1:
        raise ParameterError("dvec must be a 1-d vector of reciprocal eigenvalues")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ParameterError("dvec entries must be positive and finite")
    harr = linalg._as_array(h)
    n = d.shape[0]
    if harr.shape != (n, n):
        raise DimensionError(f"direction shape {harr.shape} does not match n={n}")
    s = 1.0 / float(np.prod(d))
    jet = scalarfun.eval_jet(f, s)
    dinv = np.diag(d)
    inner = frob_inner(dinv, harr)
    cross = frob_inner(dinv @ harr, harr @ dinv)
    return (jet.d2 + jet.d1 / s) * inner * inner - (jet.d1 / s) * cross


# --------------------------------------------------------------------------
# finite-difference oracles


def default_second_step(c: PosDefMatrix, h) -> float:
    """Direction-scaled step for second central differences."""
    return FD_SECOND_SCALE * (1.0 + frob_norm(c.a)) / (1.0 + frob_norm(h))


def default_first_step(c: PosDefMatrix, h) -> float:
    """Direction-scaled step for first central differences."""
    return FD_FIRST_SCALE * (1.0 + frob_norm(c.a)) / (1.0 + frob_norm(h))


def _admissible_step(c: PosDefMatrix, harr: np.ndarray, h: float) -> float:
    """Halve h until C +/- h H stays positive definite."""
    base = c.a
    if not np.any(harr):
        return h
    for _ in range(FD_MAX_HALVINGS + 1):
        if np.isfinite(h):
            if linalg.cholesky_posdef(base + h * harr) and linalg.cholesky_posdef(
                base - h * harr
            ):
                return h
        h *= 0.5
    raise DegenerateDirectionError(
        f"no admissible step after {FD_MAX_HALVINGS} halvings (h={h:.3e})"
    )


def _det_in_cone(m: np.ndarray) -> float:
    s = linalg.det(m)
    if s <= 0.0:
        raise DomainError(f"perturbed matrix left the positive cone (det={s})")
    return s


def _f_values(f, dets) -> list:
    """f at each determinant, from one evaluator call; the first point that
    fails raises its own error."""
    dets = np.array(dets)
    values = scalarfun.eval_value(f, dets)
    failed = np.isnan(values)
    if failed.any():
        raise scalarfun.failure_at(f, float(dets[np.argmax(failed)]))
    return values.tolist()


def fd_second_directional_with_step(f, c: PosDefMatrix, h, step: float | None = None):
    """(value, h_used) for the central second difference of t -> g(C + tH)."""
    harr = _check_pair(c, h)
    h0 = default_second_step(c, harr) if step is None else float(step)
    if h0 <= 0:
        raise ParameterError("finite-difference step must be positive")
    h_used = _admissible_step(c, harr, h0)
    base = c.a
    g0, gp, gm = _f_values(
        f, (c.det, _det_in_cone(base + h_used * harr), _det_in_cone(base - h_used * harr))
    )
    return (gp - 2.0 * g0 + gm) / (h_used * h_used), h_used


def fd_second_directional(f, c: PosDefMatrix, h, step: float | None = None) -> float:
    """Central second difference (g(C+hH) - 2 g(C) + g(C-hH)) / h^2."""
    return fd_second_directional_with_step(f, c, h, step)[0]


def fd_first_directional(f, c: PosDefMatrix, h, step: float | None = None) -> float:
    """Central first difference (g(C+hH) - g(C-hH)) / (2h)."""
    harr = _check_pair(c, h)
    h0 = default_first_step(c, harr) if step is None else float(step)
    if h0 <= 0:
        raise ParameterError("finite-difference step must be positive")
    h_used = _admissible_step(c, harr, h0)
    base = c.a
    gp, gm = _f_values(f, (_det_in_cone(base + h_used * harr), _det_in_cone(base - h_used * harr)))
    return (gp - gm) / (2.0 * h_used)


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
    hess_tol: float
    grad_tol: float
    max_hess_disc: float
    max_grad_disc: float
    min_hess_disc: float
    min_grad_disc: float
    skipped: int

    @property
    def all_agree(self) -> bool:
        return self.max_hess_disc <= self.hess_tol and self.max_grad_disc <= self.grad_tol


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


def oracle_sweep(
    n: int,
    num_samples: int,
    seed: int,
    functions=None,
    log_eig_range=(np.log(0.1), np.log(10.0)),
    hess_tol: float = 1e-5,
    grad_tol: float = 1e-6,
) -> OracleSweepResult:
    """Compare g_hess_form / g_grad_form against central differences over
    seeded random (C, H) pairs.

    Discrepancies are |analytic - fd| / max(1, |analytic|); a sample is
    ``agreeing`` when its Hessian discrepancy is within ``hess_tol``.  A
    sample whose function fails to evaluate (outside its domain or
    overflowing) or that admits no finite-difference step is skipped.
    """
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed {seed} must be >= 0")
    funcs = builtin_corpus(n) if functions is None else tuple(functions)
    seeds = np.random.SeedSequence(seed).generate_state(2 * num_samples, dtype=np.uint64)
    samples = []
    hess_disc = []
    grad_disc = []
    skipped = 0
    for i in range(num_samples):
        f = funcs[i % len(funcs)]
        c = linalg.random_posdef(n, log_eig_range, int(seeds[2 * i]))
        h = linalg.random_sym(n, 1.0, int(seeds[2 * i + 1]))
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
            QuadFormSample(c=c, h=h, analytic=analytic, fd=fd, h_used=h_used, agreeing=hd <= hess_tol)
        )
    if not samples:
        raise DegenerateDirectionError("every sample was skipped")
    return OracleSweepResult(
        samples=tuple(samples),
        hess_tol=hess_tol,
        grad_tol=grad_tol,
        max_hess_disc=float(max(hess_disc)),
        max_grad_disc=float(max(grad_disc)),
        min_hess_disc=float(min(hess_disc)),
        min_grad_disc=float(min(grad_disc)),
        skipped=skipped,
    )
