"""The one jet evaluator against the per-point evaluators it replaced.

``ref_eval_jet`` is the old evaluation, kept here as the reference: a
recursive walk of the expression AST in ``math`` floats that raises at the
first failing node, and the four hand-coded family jets.  The evaluator
must fail at the same points with the same error types, give a point of
an array the same bits as the point evaluated alone as a float (which it
walks as a one-point array), and stay within ``JET_RTOL`` of the
reference: ``math`` and numpy ufuncs may differ by an ulp, and the lowered
families' products associate differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from detconvex import certifier, cli
from detconvex.certifier import GridSpec
from detconvex.errors import DomainError, NonFiniteError
from detconvex.scalarfun import (
    Add,
    Constant,
    Div,
    Exp,
    FamilyA,
    Ln,
    LogFamily,
    Mul,
    Negate,
    NeoHookeVolumetric,
    Pow,
    PowerLaw,
    Sqrt,
    Sub,
    Variable,
    eval_jet,
    parse,
)
from detconvex.selftest import EXPRESSION_CORPUS

EPS = float(np.finfo(float).eps)
# An ulp of difference in a library function or in a reassociated product,
# carried through the few operations of each input.  Gaps are relative to
# the field, or to 1 where the field is a cancellation residue of terms of
# order 1 (like ln(exp(s)) at s = 1e-3), which a relative bound would
# charge with the terms' rounding.
JET_RTOL = 16 * EPS


# --------------------------------------------------------------------------
# the reference: the per-point math evaluator as it was


@dataclass(frozen=True)
class RefJet:
    v: float
    d1: float
    d2: float

    def __add__(self, o):
        return RefJet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __sub__(self, o):
        return RefJet(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __neg__(self):
        return RefJet(-self.v, -self.d1, -self.d2)

    def __mul__(self, o):
        return RefJet(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    def __truediv__(self, o):
        if o.v == 0.0:
            raise DomainError("division by zero")
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v
        return RefJet(q, q1, q2)


def ref_ln(u):
    if u.v <= 0.0:
        raise DomainError(f"ln of non-positive value {u.v}")
    w1 = u.d1 / u.v
    return RefJet(math.log(u.v), w1, u.d2 / u.v - w1 * w1)


def ref_exp(u):
    try:
        w = math.exp(u.v)
    except OverflowError as e:
        raise NonFiniteError(f"exp overflow at {u.v}") from e
    return RefJet(w, w * u.d1, w * (u.d2 + u.d1 * u.d1))


def ref_sqrt(u):
    if u.v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {u.v}")
    w = math.sqrt(u.v)
    w1 = u.d1 / (2.0 * w)
    return RefJet(w, w1, (u.d2 - 2.0 * w1 * w1) / (2.0 * w))


def ref_pow_const(u, p):
    try:
        if u.v > 0.0:
            w = math.pow(u.v, p)
            wp1 = p * math.pow(u.v, p - 1.0)
            wp2 = p * (p - 1.0) * math.pow(u.v, p - 2.0)
        elif float(p).is_integer():
            k = int(p)
            if u.v == 0.0 and k < 0:
                raise DomainError("0 raised to a negative power")
            w = u.v**k
            wp1 = p * u.v ** (k - 1) if k != 0 else 0.0
            wp2 = p * (p - 1.0) * u.v ** (k - 2) if k not in (0, 1) else 0.0
        else:
            raise DomainError(f"{u.v} raised to non-integer power {p}")
    except OverflowError as e:
        raise NonFiniteError(f"overflow in {u.v} ** {p}") from e
    return RefJet(w, wp1 * u.d1, wp2 * u.d1 * u.d1 + wp1 * u.d2)


def ref_pow(base, expo):
    if expo.d1 == 0.0 and expo.d2 == 0.0:
        return ref_pow_const(base, expo.v)
    return ref_exp(expo * ref_ln(base))


def ref_node(node, s):
    match node:
        case Constant(value=v):
            return RefJet(float(v), 0.0, 0.0)
        case Variable():
            return s
        case Negate(arg=a):
            return -ref_node(a, s)
        case Add(left=l, right=r):
            return ref_node(l, s) + ref_node(r, s)
        case Sub(left=l, right=r):
            return ref_node(l, s) - ref_node(r, s)
        case Mul(left=l, right=r):
            return ref_node(l, s) * ref_node(r, s)
        case Div(left=l, right=r):
            return ref_node(l, s) / ref_node(r, s)
        case Pow(base=b, exponent=e):
            return ref_pow(ref_node(b, s), ref_node(e, s))
        case Ln(arg=a):
            return ref_ln(ref_node(a, s))
        case Exp(arg=a):
            return ref_exp(ref_node(a, s))
        case Sqrt(arg=a):
            return ref_sqrt(ref_node(a, s))
    raise TypeError(node)


def _pow(s, p):
    try:
        return math.pow(s, p)
    except OverflowError as e:
        raise NonFiniteError(f"overflow in {s} ** {p}") from e


def _power_jet(d, c, p, s):
    return RefJet(
        d + c * _pow(s, p), c * p * _pow(s, p - 1.0), c * p * (p - 1.0) * _pow(s, p - 2.0)
    )


def _log_jet(d, c, s):
    return RefJet(d + c * math.log(s), c / s, -c / (s * s))


def ref_family_jet(f, s):
    """The hand-coded family jets."""
    if isinstance(f, PowerLaw):
        return _power_jet(f.d, f.c, f.p, s)
    if isinstance(f, LogFamily):
        return _log_jet(f.d, f.c, s)
    if isinstance(f, NeoHookeVolumetric):
        return RefJet(-f.mu * math.log(s), -f.mu / s, f.mu / (s * s))
    if f.branch == "log":
        return _log_jet(f.d, f.c, s)
    coeff = f.c if f.branch == "power" else -f.c
    return _power_jet(f.d, coeff, 1.0 / f.n - f.a, s)


def ref_eval_jet(f, s: float) -> RefJet:
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"scalar functions are defined for s > 0, got s={s}")
    if isinstance(f, (PowerLaw, LogFamily, NeoHookeVolumetric, FamilyA)):
        try:
            jet = ref_family_jet(f, s)
        except ZeroDivisionError as e:
            # s * s underflows to 0 below s ~ 1e-162, where the old log jets
            # crashed; the second derivative there is past the float range
            raise NonFiniteError(f"non-finite second derivative at s={s}") from e
    else:
        jet = ref_node(f, RefJet(s, 1.0, 0.0))
    if not (math.isfinite(jet.v) and math.isfinite(jet.d1) and math.isfinite(jet.d2)):
        raise NonFiniteError(f"non-finite jet {jet} at s={s}")
    return jet


def ref_certify_grid(f, n, grid, tol=certifier.DEFAULT_TOL_BASE):
    """The old per-point grid loop: (flags up to the first failure, the
    annotation of that failure or None)."""
    flags = []
    for s in grid.points():
        s = float(s)
        try:
            jet = ref_eval_jet(f, s)
        except (DomainError, NonFiniteError) as e:
            return flags, f"domain failure during grid evaluation: {e}"
        lhs = jet.d2 + ((n - 1) / (n * s)) * jet.d1
        tol_p = tol + tol * abs(jet.d1) + tol * abs(jet.d2)
        flags.append((jet.d1 <= tol_p, lhs >= -tol_p))
    return flags, None


# --------------------------------------------------------------------------
# inputs


def straddle(*edges, width=0.5, count=41):
    """Points on both sides of each edge, the edge and its float
    neighbours included."""
    pts = [np.geomspace(1e-3, 1e3, 61)]
    for e in edges:
        pts.append(np.linspace(e - width, e + width, count))
        pts.append([e, np.nextafter(e, 0.0), np.nextafter(e, np.inf)])
    s = np.unique(np.concatenate(pts))
    return s[s != 0.0]


EDGE_CASES = {
    "ln(s-1)": straddle(1.0),
    "1/(s-1)": straddle(1.0),
    "(s-s)^-1": straddle(1.0),
    "(0-s)^(1/2)": straddle(1.0),
    "exp(exp(s))": straddle(math.log(709.78)),
    "exp(-exp(s))": straddle(709.78),
    "(ln(s-2))^0": straddle(2.0, 3.0),
    # the exponent's jet is constant only at s = 1
    "(s-2)^((s-1)^3)": straddle(1.0, 2.0),
    "-ln(s)": np.array([-1.0, 0.0, np.nan, np.inf, 1e-320, 1.0, 1e300]),
}

# beyond the corpus's own range, into overflow of 2^s, s^(s/100), exp(s)
CORPUS_GRID = np.concatenate([np.geomspace(1e-3, 1e3, 401), np.geomspace(1e3, 1e5, 41)[1:]])

FAMILIES = (
    PowerLaw(c=-1.0, p=0.5),
    PowerLaw(c=2.0, p=-0.5, d=1.0),
    PowerLaw(c=1.0, p=1.0, d=-1.0),
    PowerLaw(c=-0.5, p=0.0, d=0.2),
    PowerLaw(c=1.5, p=3.0, d=-2.0),
    LogFamily(c=-2.0, d=0.5),
    NeoHookeVolumetric(mu=2.5),
    FamilyA(a=0.0, c=-3.0, d=3.0, n=3),
    FamilyA(a=1.0 / 3.0, c=-1.0, d=0.0, n=3),
    FamilyA(a=1.0, c=-2.0, d=1.0, n=3),
    FamilyA(a=0.1, c=-1.0, d=0.5, n=5),
    FamilyA(a=0.2, c=-1.0, d=0.0, n=5),
    FamilyA(a=0.75, c=-2.0, d=1.0, n=5),
)
# from underflow of the powers' second factor to overflow
FAMILY_GRID = np.geomspace(1e-300, 1e300, 601)

CASES = (
    [(text, parse(text), CORPUS_GRID) for text in EXPRESSION_CORPUS]
    + [(text, parse(text), s) for text, s in EDGE_CASES.items()]
    + [(repr(f), f, FAMILY_GRID) for f in FAMILIES]
)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (DomainError, NonFiniteError) as e:
        return None, type(e)


@pytest.mark.parametrize("label,f,s", CASES, ids=[c[0] for c in CASES])
def test_matches_the_reference(label, f, s):
    arr = eval_jet(f, s)
    failed = np.isnan(arr.v)
    for field in arr:
        assert np.array_equal(np.isnan(field), failed)
    for i, x in enumerate(s.tolist()):
        ref, ref_error = _outcome(ref_eval_jet, f, x)
        new, new_error = _outcome(eval_jet, f, x)
        assert new_error is ref_error, x
        assert failed[i] == (ref_error is not None), x
        if ref is None:
            continue
        got = tuple(float(field[i]) for field in arr)
        # one evaluator: the array point has the float point's bits
        assert got == tuple(new), x
        for g, r in zip(got, (ref.v, ref.d1, ref.d2)):
            assert abs(g - r) <= JET_RTOL * max(abs(r), 1.0), (x, g, r)


def test_some_points_fail_and_some_do_not():
    # the edge grids exercise both outcomes
    for text, s in EDGE_CASES.items():
        failed = np.isnan(eval_jet(parse(text), s).v)
        if text in ("(s-s)^-1", "(0-s)^(1/2)"):
            assert failed.all(), text
        else:
            assert failed.any() and not failed.all(), text


def test_constant_exponent_chosen_per_point():
    f = parse("(s-2)^((s-1)^3)")
    s = np.array([0.5, 1.0, 1.5, 2.5])
    jet = eval_jet(f, s)
    # (-1)^0 at s = 1 through the monomial rule, exp(e ln b) beyond 2
    assert np.isnan(jet.v).tolist() == [True, False, True, False]
    assert jet.v[1] == 1.0


def test_failed_point_is_not_revived():
    jet = eval_jet(parse("(ln(s-2))^0"), np.array([1.0, 3.0]))
    assert np.isnan(jet.v[0]) and np.isnan(jet.d1[0]) and np.isnan(jet.d2[0])
    assert (jet.v[1], jet.d1[1], jet.d2[1]) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        "-ln(s)",
        "family:fa:a=0.5",
        "family:neohooke:mu=2",
        "family:power:p=0.5",
        "s",
        "-ln(s)+1e-7*s^2",
        "exp(s)",
        "-sqrt(s)",
        "1/s",
        "s^(1/3)",
        "-s*ln(s)+s^2/(1+s)",
    ],
)
def test_grid_pass_matches_the_reference(spec):
    f = cli.parse_function_spec(spec, 3)
    grid = GridSpec(1e-3, 1e3, 20000)
    rep = certifier.certify(f, 3, grid)
    flags, annotation = ref_certify_grid(f, 3, grid)
    assert list(zip(rep.fprime_ok.tolist(), rep.lhs_ok.tolist())) == flags
    failures = [a for a in rep.annotations if a.startswith("domain failure")]
    assert failures == ([] if annotation is None else [annotation])
