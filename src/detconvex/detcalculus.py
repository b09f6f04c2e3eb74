"""First and second derivatives of g = f(det(.)) on the positive definite
cone, with finite-difference oracles to cross-check every analytic form.

The second directional derivative in a symmetric direction H is

    D2g(C).(H,H) = det C * { [f''(det C) det C + f'(det C)] <C^-1, H>^2
                             - f'(det C) <H C^-1, C^-1 H> }

where <.,.> is the trace inner product.  ``condition_bracket`` is the
bracket without the leading det C factor; ``condition_lhs_diag`` is its
diagonalized normal form (divided once more by det C).  The inner
products come from ``hess_terms``, one solve for a pair or an (N, n, n)
stack of pairs, or from C's spectrum alone through ``diag_terms``.

``directional_forms`` checks a stack of pairs at once: one solve for the
inner products, one Richardson stencil at one step per pair for both
central differences of t -> f(det(C + tH)) (``_stencil``), whose four
points per pair are factored in one Cholesky call for their
determinants, and one evaluator call per function over the five points
of each of its rows.
``g_hess_form``, ``g_grad_form`` and the fd functions are the arithmetic
on top.  The oracle runs it on one seeded draw.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import linalg, scalarfun
from .errors import DomainError, ParameterError
from .linalg import frob_norm

_EPS = float(np.finfo(float).eps)

# Outer step T of both central differences, as a multiple of the
# direction scale (1 + |C|) / (1 + |H|).  Each difference is also taken at
# T/2, and Richardson's (4 D(T/2) - D(T)) / 3 cancels its h^2 term, which
# left the single second difference at eps^0.3 above 1e-5 on about one
# n=10 draw in 100.  Truncation is then h^4, so both step at 8 and 16
# times eps^0.3 (about 1.6e-4 and 3.2e-4), where the roundoff of the
# second, eps / T^2, stays near 1e-8 of |f| (of the first, near 1e-12).
FD_STEP_SCALE = 16.0 * _EPS**0.3

# Relative discrepancies the oracle sweep accepts between the analytic
# Hessian / gradient forms and their central differences.
ORACLE_HESS_TOL = 1e-5
ORACLE_GRAD_TOL = 1e-6


def hess_terms(c, h):
    """(<C^-1, H>, <H C^-1, C^-1 H>) for a symmetric pair or for stacks of
    pairs of shape (..., n, n).

    With X = C^-1 H from one LAPACK solve (no explicit inverse) and C, H
    symmetric, <C^-1, H> = tr X and <H C^-1, C^-1 H> = sum(X * X^T).
    """
    x = np.linalg.solve(c, h)
    return x.trace(axis1=-2, axis2=-1), (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))


def condition_bracket(jet, s, inner, cross):
    """[f''(s) s + f'(s)] inner^2 - f'(s) cross, from the jet of f at s."""
    return (jet.d2 * s + jet.d1) * inner * inner - jet.d1 * cross


def g_grad_form(jet, s, inner):
    """Dg(C).H = f'(s) s <C^-1, H> at s = det C (chain rule through det),
    from the jet of f at s and the first term of ``hess_terms``; floats,
    or arrays with one entry per pair."""
    return jet.d1 * s * inner


def g_hess_form(jet, s, inner, cross):
    """D2g(C).(H,H) = s * condition_bracket at s = det C, from the jet of f
    at s and both terms of ``hess_terms``; quadratic in H."""
    return s * condition_bracket(jet, s, inner, cross)


def condition_lhs_diag(f, dvec, h):
    """Diagonal normal form of the convexity condition for one pair or for
    stacks: ``dvec`` of shape (..., n) holds the diagonal of D^-1
    (reciprocal eigenvalues), ``h`` has shape (..., n, n).  With
    s = 1/prod(dvec) the returned value is

        (f''(s) + f'(s)/s) <D^-1,H>^2 - (f'(s)/s) <D^-1 H, H D^-1>

    with the sums of ``diag_terms``.  It equals condition_bracket / det C
    after rotating H into the eigenbasis, and takes no solve, so it stays
    a check on the kernel ``hess_terms``.
    """
    d = np.asarray(dvec, dtype=float)
    if d.ndim < 1 or np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ParameterError("dvec must hold positive finite reciprocal eigenvalues")
    harr = np.asarray(h, dtype=float)
    if harr.shape != d.shape + d.shape[-1:]:
        raise ParameterError(f"direction shape {harr.shape} does not match dvec {d.shape}")
    s = 1.0 / np.prod(d, axis=-1)
    jet = scalarfun.eval_jet(f, s)
    inner, cross = diag_terms(d, harr)
    return (jet.d2 + jet.d1 / s) * inner * inner - (jet.d1 / s) * cross


def diag_terms(d, h):
    """``hess_terms`` at C = diag(1/d) without a solve, d of shape (..., n):
    <D^-1,H> = sum_i d_i h_ii and <D^-1 H, H D^-1> = sum_ij d_i d_j h_ij^2,
    as tr X and sum(X * X^T) of X = D^-1 H, X_ij = d_i h_ij."""
    x = d[..., :, None] * h
    return x.trace(axis1=-2, axis2=-1), (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))


# --------------------------------------------------------------------------
# finite-difference oracles

# the stencil points C + o T H of both differences
_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def _stencil(c, h):
    """(steps, dets) of the stencil of both central differences of
    t -> f(det(C + tH)), for the (N, n, n) stacks c and h.

    steps[i] is the outer step T at row i, FD_STEP_SCALE times
    (1 + |C_i|) / (1 + |H_i|), and dets[i] holds det(C_i + o T H_i) for
    o = 1, -1, 1/2, -1/2, from one ``cholesky_posdef`` call over the whole
    stencil.  NotPositiveDefiniteError names row i and offset k where C_i
    is within about T |H_i| of the cone's boundary, which no draw of
    ``linalg.random_pairs`` is: T |H| < FD_STEP_SCALE (1 + 10 sqrt(n)) <=
    0.026 < 0.1, its smallest eigenvalue, up to n = 64.
    """
    steps = FD_STEP_SCALE * (1.0 + frob_norm(c)) / (1.0 + frob_norm(h))
    if not np.all(steps > 0):
        # the norm of an H overflowed
        raise ParameterError("finite-difference step must be positive")
    t = steps[:, None] * _OFFSETS
    return steps, linalg.cholesky_posdef(c[:, None] + t[..., None, None] * h[:, None])


def _richardson(full, half):
    """(value, estimate): Richardson's (4 D(T/2) - D(T)) / 3 and the
    estimate |D(T) - D(T/2)| of the h^2 term."""
    return (4.0 * half - full) / 3.0, np.abs(full - half)


def fd_second_directional_with_step(g0, g, steps):
    """(value, estimate) of the Richardson second difference at t = 0 of
    t -> f(det(C + tH)), from f at the centre, g0, and at the stencil
    points, g[..., :] at t = T, -T, T/2, -T/2, with the outer step
    T = ``steps``:

        D(T) = (g(T) - 2 g0 + g(-T)) / T^2,   value = (4 D(T/2) - D(T)) / 3

    The name is historical (this returned the step it chose); the
    benchmark's trace records the call under it."""
    half = 0.5 * steps
    return _richardson(
        (g[..., 0] - 2.0 * g0 + g[..., 1]) / (steps * steps),
        (g[..., 2] - 2.0 * g0 + g[..., 3]) / (half * half),
    )


def fd_first_directional(g, steps):
    """(value, estimate) of the Richardson first difference at t = 0 of
    t -> f(det(C + tH)), from f at the stencil points g[..., :] (t = T,
    -T, T/2, -T/2) with the outer step T = ``steps``:
    D(T) = (g(T) - g(-T)) / (2T).  It does not read the centre, so a
    failure of f there leaves it finite."""
    return _richardson((g[..., 0] - g[..., 1]) / (2.0 * steps), (g[..., 2] - g[..., 3]) / steps)


class DirectionalForms(NamedTuple):
    """Per row of a stack of pairs: the analytic D2g(C).(H,H) and Dg(C).H,
    their Richardson central differences, and the Richardson estimates
    |D(T) - D(T/2)| of both differences.  NaN marks a row whose f failed
    at one of its points: outside the domain, overflowing, or at a
    determinant that under- or overflowed."""

    hess: np.ndarray
    fd_hess: np.ndarray
    grad: np.ndarray
    fd_grad: np.ndarray
    hess_est: np.ndarray
    grad_est: np.ndarray


@np.errstate(all="ignore")
def directional_forms(functions, c, h) -> DirectionalForms:
    """Analytic and finite-difference forms for every pair of the
    (N, n, n) stacks c and h; row i takes f = functions[i % len(functions)].

    One ``hess_terms`` solve gives both inner products, LAPACK's
    ``det`` the centres, one ``_stencil`` the four points both differences
    share with their determinants, and one evaluator call per function f
    at its rows' five points, with no warning on overflow.  C and H must
    be finite and equal to their transposes exactly, since a Cholesky
    factor reads only the lower triangle of each stencil matrix
    (ParameterError), and C far enough inside the cone for the step
    (NotPositiveDefiniteError, ``_stencil``).
    """
    if not functions:
        raise ParameterError("directional_forms needs at least one function")
    c, h = (np.asarray(x, dtype=float) for x in (c, h))
    if c.ndim != 3 or c.shape[1] != c.shape[2] or h.shape != c.shape:
        raise ParameterError(f"expected (N, n, n) stacks, got {c.shape} and {h.shape}")
    if not (np.isfinite(c).all() and np.isfinite(h).all()):
        raise ParameterError("matrix entries must be finite")
    if not (np.array_equal(c, c.swapaxes(1, 2)) and np.array_equal(h, h.swapaxes(1, 2))):
        raise ParameterError("C and H must be symmetric")
    s = np.linalg.det(c)
    steps, dets = _stencil(c, h)
    inner, cross = hess_terms(c, h)
    points = np.concatenate([s[:, None], dets], axis=1)
    v, d1, d2 = jets = np.empty((3,) + points.shape)
    k = len(functions)
    for j, f in enumerate(functions[: len(points)]):
        rows = points[j::k]
        jets[:, j::k] = np.reshape(scalarfun.eval_jet(f, rows.ravel()), (3,) + rows.shape)
    centre = scalarfun.Jet2(v[:, 0], d1[:, 0], d2[:, 0])
    fd_hess, hess_est = fd_second_directional_with_step(v[:, 0], v[:, 1:], steps)
    fd_grad, grad_est = fd_first_directional(v[:, 1:], steps)
    return DirectionalForms(
        hess=g_hess_form(centre, s, inner, cross),
        fd_hess=fd_hess,
        grad=g_grad_form(centre, s, inner),
        fd_grad=fd_grad,
        hess_est=hess_est,
        grad_est=grad_est,
    )


# --------------------------------------------------------------------------
# sampling sweep


def _relative(err, scale):
    return err / np.maximum(1.0, np.abs(scale))


class OracleSweepResult(NamedTuple):
    """The rows an oracle sweep evaluated: ``samples`` holds their indices
    (sample i is row i of the draw), and ``hess_disc``, ``grad_disc`` and
    ``richardson`` line up with it.  A discrepancy is |analytic - fd| /
    max(1, |analytic|); ``richardson`` is the larger Richardson estimate
    of the row's two differences, scaled the same way.  ``skipped``
    counts the other rows."""

    samples: np.ndarray
    hess_disc: np.ndarray
    grad_disc: np.ndarray
    richardson: np.ndarray
    skipped: int

    @property
    def max_hess_disc(self) -> float:
        return float(self.hess_disc.max())

    @property
    def max_grad_disc(self) -> float:
        return float(self.grad_disc.max())

    @property
    def all_agree(self) -> bool:
        return self.max_hess_disc <= ORACLE_HESS_TOL and self.max_grad_disc <= ORACLE_GRAD_TOL


@cache
def builtin_corpus(n: int):
    """Family instances the sweep cycles through by default, one tuple per
    n (at most the CLI's MAX_DIM), so each compiles its program once.

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
    """Compare the analytic Hessian and gradient forms against their
    central differences over ``num_samples`` seeded (C, H) pairs.

    The pairs are the rows of ``linalg.random_pairs(n, seed, num_samples)``
    and sample i pairs with functions[i % len(functions)] (the built-in
    corpus by default).  A sample whose function fails to evaluate at one
    of its points (outside its domain or overflowing) is skipped;
    DomainError if every sample is.
    """
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    c, h = linalg.random_pairs(n, seed, num_samples)
    funcs = builtin_corpus(n) if functions is None else tuple(functions)
    forms = directional_forms(funcs, c, h)
    # an infinite form makes inf - inf or inf / inf, a NaN discrepancy
    with np.errstate(all="ignore"):
        hess_disc = _relative(np.abs(forms.hess - forms.fd_hess), forms.hess)
        grad_disc = _relative(np.abs(forms.grad - forms.fd_grad), forms.grad)
        richardson = np.maximum(
            _relative(forms.hess_est, forms.hess), _relative(forms.grad_est, forms.grad)
        )
    kept = ~np.isnan(hess_disc + grad_disc)
    if not kept.any():
        raise DomainError("every sample was skipped")
    return OracleSweepResult(
        samples=np.flatnonzero(kept),
        hess_disc=hess_disc[kept],
        grad_disc=grad_disc[kept],
        richardson=richardson[kept],
        skipped=int(num_samples - np.count_nonzero(kept)),
    )
