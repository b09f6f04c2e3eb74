"""Limiting-case ODE machinery and figure-curve export.

The boundary of the convexity condition is the linear initial value
problem y' + ((n-1)/(n x)) y = 0, y(xi) = eta, whose unique solution is
y_limit(x) = eta * xi^((n-1)/n) * x^(-(n-1)/n) (``y_limit_function``).
Antiderivatives of y_limit are c s^(1/n) + d with c <= 0, the family
member ``FamilyA(a=0, c, d, n)``.  A comparison check orders arbitrary
sampled curves against y_limit on both sides of xi, and a curve exporter
writes the standard family members as CSV tables.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import scalarfun
from .errors import ParameterError
from .scalarfun import FamilyA, PowerLaw, Value

CLASSIFY_TOL = 1e-8


class IvpSpec(Value):
    """Initial point xi > 0, initial value eta <= 0, dimension n, all finite.

    The decay coefficient is (n-1)/n; n = 3 reproduces the classical 2/3.
    """

    __slots__ = __match_args__ = ("xi", "eta", "n")

    def __init__(self, xi: float, eta: float, n: int = 3):
        super().__init__(xi, eta, n)
        scalarfun.require_finite(self)
        if not (self.xi > 0):
            raise ParameterError(f"xi={self.xi} must be positive")
        if self.eta > 0:
            raise ParameterError(f"eta={self.eta} must be <= 0 (slopes stay non-positive)")
        if self.n < 1:
            raise ParameterError(f"dimension n={self.n} must be >= 1")

    @property
    def q(self) -> float:
        return (self.n - 1) / self.n

    def rhs(self, x: float, y: float) -> float:
        """F(x, y) = -((n-1)/(n x)) y."""
        return -self.q / x * y


class CurveTable(Value):
    """Sampled curve with strictly increasing positive x, optional
    derivative column."""

    __slots__ = __match_args__ = ("label", "params", "xs", "ys", "dydx")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, label: str, params: dict, xs, ys, dydx=None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ParameterError("xs and ys must be 1-d arrays of equal length")
        if not np.all(np.isfinite(xs) & (xs > 0)):
            raise ParameterError("x samples must be finite and positive")
        if np.any(np.diff(xs) <= 0):
            raise ParameterError("x samples must be strictly increasing")
        if dydx is not None:
            dydx = np.asarray(dydx, dtype=float)
            if dydx.shape != xs.shape:
                raise ParameterError("derivative column length mismatch")
        super().__init__(label, params, xs, ys, dydx)

    def to_csv(self) -> str:
        def fmt(v):
            return repr(float(v)) if isinstance(v, (float, np.floating)) else repr(v)

        pieces = ",".join(f"{k}={fmt(v)}" for k, v in self.params.items())
        lines = [f"# {self.label}" + (f" [{pieces}]" if pieces else ""), "x,y"]
        lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in zip(self.xs, self.ys))
        return "\n".join(lines) + "\n"


def y_limit_function(spec: IvpSpec) -> PowerLaw:
    """Unique solution of the limiting IVP, eta xi^q x^(-q) with
    q = (n-1)/n, as an evaluable function of x."""
    return PowerLaw(c=spec.eta * spec.xi**spec.q, p=-spec.q, d=0.0)


def _rk4(spec: IvpSpec, x_end: float, steps: int, forcing: float) -> CurveTable:
    if not (x_end > spec.xi):
        raise ParameterError(f"x_end={x_end} must exceed xi={spec.xi}")
    if steps < 10:
        raise ParameterError(f"steps={steps} must be >= 10")
    h = (x_end - spec.xi) / steps
    xs = spec.xi + h * np.arange(steps + 1)
    xs[-1] = x_end
    ys = np.empty(steps + 1)
    ds = np.empty(steps + 1)

    def rhs(x, y):
        return spec.rhs(x, y) + forcing

    y = spec.eta
    ys[0] = y
    ds[0] = rhs(xs[0], y)
    for i in range(steps):
        x = xs[i]
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
        ds[i + 1] = rhs(xs[i + 1], y)
    label = "rk4" if forcing == 0.0 else f"rk4+{forcing!r}"
    params = {"xi": spec.xi, "eta": spec.eta, "n": spec.n, "steps": steps}
    if forcing:
        params["forcing"] = forcing
    return CurveTable(label=label, params=params, xs=xs, ys=ys, dydx=ds)


def solve_livp_numeric(spec: IvpSpec, x_end: float, steps: int) -> CurveTable:
    """Classical fixed-step RK4 integration of the limiting IVP."""
    return _rk4(spec, x_end, steps, forcing=0.0)


def solve_livp_perturbed(spec: IvpSpec, eps: float, x_end: float, steps: int) -> CurveTable:
    """RK4 for the additively perturbed equation y' = F(x,y) + eps.

    For eta < 0 and eps > 0 the solution leaves y <= 0 at finite x, so the
    perturbation cannot generate globally admissible slope functions.
    """
    return _rk4(spec, x_end, steps, forcing=float(eps))


class ComparisonReport(NamedTuple):
    """Sub/supersolution classification and ordering against y_limit.

    ``residuals`` holds y'(x) - F(x, y(x)) per sample; the weak flags use
    the classification tolerance, the strict ones require the residual to
    clear it.  Ordering violations are (x, y, y_limit) triples.
    """

    classification: str
    is_weak_subsolution: bool
    is_strict_subsolution: bool
    is_weak_supersolution: bool
    is_strict_supersolution: bool
    initial_value_ok: bool
    ordering_checked: bool
    ordering_violations: tuple
    residuals: np.ndarray
    y_limit_values: np.ndarray


def _table_derivative(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    d = np.empty_like(ys)
    d[1:-1] = (ys[2:] - ys[:-2]) / (xs[2:] - xs[:-2])
    d[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
    d[-1] = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return d


def _value_at(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    i = int(np.argmin(np.abs(xs - x)))
    if abs(xs[i] - x) <= 1e-9 * max(1.0, x):
        return float(ys[i])
    return float(np.interp(x, xs, ys))


def comparison_check(curve: CurveTable, spec: IvpSpec, tol: float = CLASSIFY_TOL) -> ComparisonReport:
    """Classify a sampled curve against the limiting solution.

    A curve with residual y' - F(x,y) >= 0 everywhere (weak subsolution)
    and y(xi) = eta lies above y_limit on [xi, inf) and below it on
    (0, xi]; a supersolution orders the other way round.  Strict residuals
    give strict ordering away from xi.  The derivative column is used when
    present, otherwise central differences on the table grid.
    """
    xs, ys = curve.xs, curve.ys
    if not (xs[0] <= spec.xi <= xs[-1]):
        raise ParameterError(
            f"initial point xi={spec.xi} outside curve range [{xs[0]}, {xs[-1]}]"
        )
    dydx = curve.dydx if curve.dydx is not None else _table_derivative(xs, ys)
    residuals = dydx - spec.rhs(xs, ys)

    weak_sub = bool(np.all(residuals >= -tol))
    strict_sub = bool(np.all(residuals > tol))
    weak_super = bool(np.all(residuals <= tol))
    strict_super = bool(np.all(residuals < -tol))
    if strict_sub:
        classification = "strict_subsolution"
    elif strict_super:
        classification = "strict_supersolution"
    elif weak_sub and weak_super:
        classification = "weak_sub_and_supersolution"
    elif weak_sub:
        classification = "weak_subsolution"
    elif weak_super:
        classification = "weak_supersolution"
    else:
        classification = "mixed"

    ylim = scalarfun.eval_all(y_limit_function(spec), xs)
    initial_ok = abs(_value_at(xs, ys, spec.xi) - spec.eta) <= tol * (1.0 + abs(spec.eta))

    violations = ()
    ordering_checked = initial_ok and (weak_sub or weak_super)
    if ordering_checked:
        diff = (1.0 if weak_sub else -1.0) * (ys - ylim)
        # the curve must lie on the diff >= 0 side right of xi and on the
        # other side left of it, strictly for strict residuals
        side = np.where(xs > spec.xi, diff, -diff)
        bad = side <= 0.0 if strict_sub or strict_super else side < -tol
        bad = np.where(xs == spec.xi, np.abs(diff) > tol * (1.0 + np.abs(ylim)), bad)
        violations = tuple(zip(xs[bad].tolist(), ys[bad].tolist(), ylim[bad].tolist()))
    return ComparisonReport(
        classification=classification,
        is_weak_subsolution=weak_sub,
        is_strict_subsolution=strict_sub,
        is_weak_supersolution=weak_super,
        is_strict_supersolution=strict_super,
        initial_value_ok=initial_ok,
        ordering_checked=ordering_checked,
        ordering_violations=violations,
        residuals=residuals,
        y_limit_values=ylim,
    )


# --------------------------------------------------------------------------
# figure curves


def figure_families():
    """The four standard members shown in the reference figures, at n = 3.

    All pass through (1, 0) with slope -1.
    """
    return (
        ("-ln(s)", FamilyA(a=1.0 / 3.0, c=-1.0, d=0.0, n=3)),
        ("-3*s^(1/3)+3", FamilyA(a=0.0, c=-3.0, d=3.0, n=3)),
        ("-6*s^(1/6)+6", FamilyA(a=1.0 / 6.0, c=-6.0, d=6.0, n=3)),
        ("3*s^(-1/3)-3", FamilyA(a=2.0 / 3.0, c=-3.0, d=-3.0, n=3)),
    )


def export_family_curves(params, grid):
    """Curve tables for the standard figure set plus any extra members,
    sampled at the points of ``grid``, a ``certifier.GridSpec``.

    ``params`` is a sequence of FamilyA instances appended after the four
    standard curves.
    """
    ss = grid.points()
    curves = []
    members = list(figure_families())
    for fam in params:
        if not isinstance(fam, FamilyA):
            raise ParameterError(f"extra curves must be family members, got {type(fam).__name__}")
        members.append((f"fa(a={fam.a!r},c={fam.c!r},d={fam.d!r},n={fam.n})", fam))
    for label, fam in members:
        ys = scalarfun.eval_all(fam, ss)
        curves.append(
            CurveTable(
                label=label,
                params={"a": fam.a, "c": fam.c, "d": fam.d, "n": fam.n},
                xs=ss,
                ys=ys,
            )
        )
    return curves
