"""The one jet evaluator against the evaluators it replaced.

``ref_eval_jet`` is the per-point evaluation, kept here as a reference: a
recursive walk of the expression AST in ``math`` floats that raises at the
first failing node, and the four hand-coded family jets.  The evaluator
must fail at the same points with the same error types, give a point of
an array the same bits as the point evaluated alone as a float (which it
evaluates as a one-point array), and stay within ``JET_RTOL`` of the
reference: ``math`` and numpy ufuncs may differ by an ulp, and the lowered
families' products associate differently.

``walk_eval_jet`` is the recursive walk over arrays that the compiled
program replaced, with a fresh array per node.  The program must give its
bytes (signed zeros and the NaN of every failed point included), its
first error, and no more than one column more memory at its peak.
"""

from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from detconvex import certifier, cli
from detconvex.certifier import GridSpec
from detconvex.detcalculus import builtin_corpus
from detconvex.errors import DomainError, NonFiniteError
from detconvex.scalarfun import (
    Add,
    BuiltinFamily,
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
    failure_at,
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
            # each power raises on its own, so the first to overflow is named
            w, pw1, pw2 = (_pow(u.v, q) for q in (p, p - 1.0, p - 2.0))
            wp1 = p * pw1
            wp2 = p * (p - 1.0) * pw2
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


def varies(node):
    """Whether s occurs in the expression; a power's rule is decided on its
    exponent's AST: the monomial rule for a constant, exp(e ln b) for any
    other."""
    match node:
        case Variable():
            return True
        case Constant():
            return False
    return any(varies(getattr(node, name)) for name in node.__match_args__)


def ref_pow(base, expo, varying):
    if not varying:
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
            return ref_pow(ref_node(b, s), ref_node(e, s), varies(e))
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
# the bit reference: the recursive walk over arrays that the compiled
# program replaced, with its jet arithmetic as it was.  A node allocates
# fresh arrays for its jet; the program must give the same bytes.


class Jet2(NamedTuple):
    """The walk's jet, with the operators its nodes used."""

    v: float | np.ndarray
    d1: float | np.ndarray
    d2: float | np.ndarray

    def __add__(self, o):
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __sub__(self, o):
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __mul__(self, o):
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )


_INF = float("inf")
_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


class Walk:
    def __init__(self, s):
        self.s = s
        self.failed = False
        self.first = None
        if not (s.min(initial=_INF) > 0.0 and s.max(initial=0.0) < _INF):
            domain = (s > 0.0) & np.isfinite(s)
            self.fail(~domain, DomainError, "scalar functions are defined for s > 0, got s={}", s)

    def fail(self, bad, error, template, *values):
        if np.count_nonzero(bad):
            self.failed = self.failed | bad
            if self.first is None:
                k = np.argmax(bad)
                at = (float(np.broadcast_to(v, bad.shape).flat[k]) for v in values)
                self.first = (error, template.format(*at))


def walk_div(walk, a, b):
    walk.fail(b.v == 0.0, DomainError, "division by zero")
    q = a.v / b.v
    q1 = (a.d1 - q * b.d1) / b.v
    q2 = (a.d2 - 2.0 * q1 * b.d1 - q * b.d2) / b.v
    return Jet2(q, q1, q2)


def walk_ln(walk, u, c=1.0):
    walk.fail(u.v <= 0.0, DomainError, "ln of non-positive value {}", u.v)
    r1 = u.d1 / u.v
    w1 = c * u.d1 / u.v
    return Jet2(c * np.log(u.v), w1, c * u.d2 / u.v - w1 * r1)


def walk_exp(walk, u):
    w = np.exp(u.v)
    walk.fail((w == _INF) & (u.v < _INF), NonFiniteError, "exp overflow at {}", u.v)
    return Jet2(w, w * u.d1, w * (u.d2 + u.d1 * u.d1))


def walk_sqrt(walk, u):
    walk.fail(u.v <= 0.0, DomainError, "sqrt of non-positive value {}", u.v)
    w = np.sqrt(u.v)
    w1 = u.d1 / (2.0 * w)
    return Jet2(w, w1, (u.d2 - 2.0 * w1 * w1) / (2.0 * w))


def walk_pow_const(walk, u, p):
    pos = u.v > 0.0
    all_pos = pos.all()
    used1 = used2 = True
    if not all_pos:
        fractional = p % 1.0 != 0.0
        walk.fail(~pos & fractional, DomainError, "{} raised to non-integer power {}", u.v, p)
        walk.fail((u.v == 0.0) & (p < 0.0), DomainError, "0 raised to a negative power")
        used1 = pos | (p != 0.0)
        used2 = used1 & (pos | (p != 1.0))
    w = np.power(u.v, p)
    pw1 = np.power(u.v, p - 1.0)
    pw2 = np.power(u.v, p - 2.0)
    if not np.isfinite(np.sum(w) + np.sum(pw1) + np.sum(pw2)):
        over = (abs(w) == _INF) | used1 & (abs(pw1) == _INF) | used2 & (abs(pw2) == _INF)
        over &= (abs(u.v) < _INF) & (abs(p) < _INF)
        # the first power that overflowed, in the order p, p - 1, p - 2
        q = np.where(abs(w) == _INF, p, np.where(abs(pw1) == _INF, p - 1.0, p - 2.0))
        walk.fail(over, NonFiniteError, "overflow in {} ** {}", u.v, q)
    wp1 = p * pw1
    wp2 = p * (p - 1.0) * pw2
    if not all_pos:
        wp1 = np.where(used1, wp1, 0.0)
        wp2 = np.where(used2, wp2, 0.0)
    return Jet2(w, wp1 * u.d1, wp2 * u.d1 * u.d1 + wp1 * u.d2)


def walk_pow(walk, base, expo, varying):
    if not varying:
        return walk_pow_const(walk, base, expo.v)
    return walk_exp(walk, expo * walk_ln(walk, base))


def walk_node(node, walk):
    match node:
        case Constant(value=v):
            return Jet2(np.float64(v), _ZERO, _ZERO)
        case Variable():
            return Jet2(walk.s, _ONE, _ZERO)
        case Negate(arg=a):
            return -walk_node(a, walk)
        case Add(left=l, right=r):
            return walk_node(l, walk) + walk_node(r, walk)
        case Sub(left=l, right=r):
            return walk_node(l, walk) - walk_node(r, walk)
        case Mul(left=Constant(value=c), right=Ln(arg=a)):
            return walk_ln(walk, walk_node(a, walk), c=float(c))
        case Mul(left=l, right=r):
            return walk_node(l, walk) * walk_node(r, walk)
        case Div(left=l, right=r):
            return walk_div(walk, walk_node(l, walk), walk_node(r, walk))
        case Pow(base=b, exponent=e):
            return walk_pow(walk, walk_node(b, walk), walk_node(e, walk), varies(e))
        case Ln(arg=a):
            return walk_ln(walk, walk_node(a, walk))
        case Exp(arg=a):
            return walk_exp(walk, walk_node(a, walk))
        case Sqrt(arg=a):
            return walk_sqrt(walk, walk_node(a, walk))
    raise TypeError(node)


def walk_eval_jet(f, s):
    point = not isinstance(s, np.ndarray) or s.ndim == 0
    s = np.array(s, dtype=float, ndmin=1, copy=None)
    walk = Walk(s)
    with np.errstate(all="ignore"):
        jet = walk_node(f.expr if isinstance(f, BuiltinFamily) else f, walk)
    jet = Jet2(*(x if isinstance(x, np.ndarray) and x.ndim else np.full(s.shape, x) for x in jet))
    ok = np.isfinite(jet.v)
    ok &= np.isfinite(jet.d1)
    ok &= np.isfinite(jet.d2)
    if walk.failed is not False:
        ok &= ~walk.failed
    if point:
        jet = Jet2(*(float(x[0]) for x in jet))
        if walk.first is not None:
            error, message = walk.first
            raise error(message)
        if not ok[0]:
            raise NonFiniteError(f"non-finite jet {jet} at s={float(s[0])}")
        return jet
    if not ok.all():
        jet = Jet2(*(np.where(ok, x, np.nan) for x in jet))
    return jet


def walk_failure_at(f, s):
    try:
        walk_eval_jet(f, s)
    except (DomainError, NonFiniteError) as e:
        return e
    return NonFiniteError(f"non-finite jet at s={s}")


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
    # a varying exponent: exp(e ln b) fails wherever b <= 0, s = 1 too,
    # where e's jet is (0, 0, 0)
    "(s-2)^((s-1)^3)": straddle(1.0, 2.0),
    "-ln(s)": np.array([-1.0, 0.0, np.nan, np.inf, 1e-320, 1.0, 1e300]),
    # the monomial rule skips its overflow mask where all three powers are
    # finite: pw2 = s^-1.5 alone overflows below about 1e-206
    "s^0.5": np.array([0.0, 1e-320, 1e-300, 1.0]),
    # at 5.8 only d2 = 400*399*s^398 goes non-finite, beyond it s^400 does
    "s^400": np.array([5.8, 5.9, 6.0]),
    # a zero base under an integer exponent: finite powers, then 0^-2
    "(s-1)^2": straddle(1.0),
    "(s-1)^-2": straddle(1.0),
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
    # the edge grids exercise both outcomes, but for those that fail
    # everywhere or nowhere
    for text, s in EDGE_CASES.items():
        failed = np.isnan(eval_jet(parse(text), s).v)
        if text in ("(s-s)^-1", "(0-s)^(1/2)", "s^400"):
            assert failed.all(), text
        elif text == "(s-1)^2":
            assert not failed.any(), text
        else:
            assert failed.any() and not failed.all(), text


def test_a_varying_exponent_needs_a_positive_base():
    s = straddle(1.0, 2.0)
    # exp(e ln b) at every point, s = 1 included, where e = (s-1)^3 is 0
    # with a zero jet
    f = parse("(s-2)^((s-1)^3)")
    failed = np.isnan(eval_jet(f, s).v)
    assert np.array_equal(failed[s <= 5.0], s[s <= 5.0] <= 2.0)
    for x in s[s < 2.0].tolist():
        assert _returned(failure_at(f, x)) == (DomainError, f"ln of non-positive value {x - 2.0}")
    # an exponent in s varies, even one that is 2 at every point
    assert np.array_equal(np.isnan(eval_jet(parse("(s-1)^(s-s+2)"), s).v), s <= 1.0)
    assert np.isfinite(eval_jet(parse("(s-1)^2"), s)).all()


@pytest.mark.parametrize(
    "text, s, error, message",
    [
        # s^0.5 and its p - 1 power s^-0.5 are finite, its p - 2 power is not
        ("s^0.5", 1e-300, NonFiniteError, "overflow in 1e-300 ** -1.5"),
        # s^-0.5 is finite, its p - 1 power is not
        ("s^-0.5", 1e-300, NonFiniteError, "overflow in 1e-300 ** -1.5"),
        # all three powers of s^-2 overflow; the first, p itself, is named
        ("s^-2", 1e-200, NonFiniteError, "overflow in 1e-200 ** -2.0"),
        ("s^400", 6.0, NonFiniteError, "overflow in 6.0 ** 400.0"),
        ("s^400", 5.8, NonFiniteError, "non-finite jet"),
        ("(s-1)^-2", 1.0, DomainError, "0 raised to a negative power"),
    ],
)
def test_a_point_names_the_power_that_overflowed(text, s, error, message):
    # an overflowing power is named, even when it is the second derivative's
    # alone; a product that overflows after it only fails the jet
    with pytest.raises(error, match=re.escape(message)):
        eval_jet(parse(text), s)


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


# --------------------------------------------------------------------------
# the program against the walk, byte for byte

GRID_SPECS = (
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
)

# a log at 0, exp past 709.8, a negative base under an integer power, a
# varying exponent, a division by zero at s = 1
FAILING = ("ln(s-1)", "exp(s)", "(s-2)^3", "s^s", "1/(s-1)")

# constant subexpressions, which the compiler folds: failing ones, named
# first or after another failure in walk order, as a power's base and as
# its exponent, an exponent whose jet is not finite, and constant functions
FOLDED = (
    "ln(0-1) + s",
    "sqrt(s-3) + 1/(1-1)",
    "(0-2)^s",
    "s^ln(0-1)",
    "s^(exp(1000)*0)",
    "ln(2)",
    "3",
    "-(2^0.5)*s",
)

# -a, a + b and a - b compile one field at a time: a field over constants
# alone folds, any other writes over an operand's row or to a new one; the
# last three fail where their operand does
FIELDWISE = (
    "s-s",
    "-(-s)",
    "2-(3-s)",
    "-(s-1)",
    "s+s",
    "(s+1)*(s-2)",
    "ln(s-1)+1",
    "1/(s-1)-1",
    "exp(s)+1",
)

BIT_CASES = list(
    {
        label: (label, f)
        for label, f in [(text, parse(text)) for text in EXPRESSION_CORPUS + FAILING + FOLDED]
        + [(f"n={n}:{f!r}", f) for n in (1, 3, 10) for f in builtin_corpus(n)]
        + [(spec, cli.parse_function_spec(spec, 3)) for spec in GRID_SPECS]
        + [(text, parse(text)) for text in FIELDWISE]
    }.values()
)


def bit_points(size):
    """size points from 1e-3 to 1e5, with s = 1 among them."""
    s = np.geomspace(1e-3, 1e5, size)
    s[np.argmin(np.abs(np.log(s)))] = 1.0
    return s


def _raised(fn, *args):
    try:
        fn(*args)
    except (DomainError, NonFiniteError) as e:
        return type(e), str(e)
    return None


def _returned(e):
    return type(e), str(e)


def _same_bytes(new, ref):
    assert len(new) == len(ref) == 3
    for a, b in zip(new, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _same_outcome(f, s):
    ref = walk_eval_jet(f, s)
    _same_bytes(eval_jet(f, s), ref)
    failed = np.flatnonzero(np.isnan(ref.v))
    for x in {float(s[i]) for i in (*failed[:1], *failed[-1:], 0)}:
        assert _returned(failure_at(f, x)) == _returned(walk_failure_at(f, x))


@pytest.mark.parametrize("size", [1, 36, 1000, 20000])
@pytest.mark.parametrize("label,f", BIT_CASES, ids=[c[0] for c in BIT_CASES])
def test_program_has_the_walks_bytes(label, f, size):
    _same_outcome(f, bit_points(size))


@pytest.mark.parametrize("text", EDGE_CASES)
def test_program_has_the_walks_bytes_at_the_edges(text):
    _same_outcome(parse(text), EDGE_CASES[text])


@pytest.mark.parametrize(
    "text, rows",
    [
        ("-s*ln(s)+s^2/(1+s)", 9),
        ("(s-2)*(s+3)", 7),
        ("(s+1)*(s-2)", 7),
        ("(1+s)^(1-s)", 7),
        ("exp((1-s)*ln(1+s))", 7),
        ("2-(3-s)", 3),
        ("-(s-1)", 3),
        ("1 - s + s", 3),
    ],
)
def test_a_constant_field_takes_no_row(text, rows):
    # the derivatives of -s and 1 + s are constants, which take no row
    f = parse(text)
    eval_jet(f, np.ones(2))
    assert f._program[1] == rows


VARYING_POWERS = (
    ("s^s", "exp(s*ln(s))"),
    ("2^s", "exp(s*ln(2))"),
    ("s^(s/100)", "exp((s/100)*ln(s))"),
    ("(1+s)^(1-s)", "exp((1-s)*ln(1+s))"),
    ("(s-2)^((s-1)^3)", "exp((s-1)^3*ln(s-2))"),
)


@pytest.mark.parametrize("power,form", VARYING_POWERS, ids=[p for p, _ in VARYING_POWERS])
def test_a_varying_power_is_its_exp_ln_program(power, form):
    # one rule per power, fixed when it is compiled: b^e is the program of
    # exp(e*ln(b)), its rows, its bytes and its first failure
    f, g = parse(power), parse(form)
    for s in [bit_points(size) for size in (1, 36, 1000, 20000)] + [straddle(1.0, 2.0)]:
        form_jet = eval_jet(g, s)
        _same_bytes(eval_jet(f, s), form_jet)
        failed = np.flatnonzero(np.isnan(form_jet.v))
        for x in s[failed[:1]].tolist():
            assert _raised(eval_jet, f, x) == _raised(eval_jet, g, x) is not None, x
    assert f._program[1] == g._program[1]


def test_the_failing_cases_take_their_paths():
    s = bit_points(1000)
    for text in ("ln(s-1)", "exp(s)", "1/(s-1)"):
        failed = np.isnan(eval_jet(parse(text), s).v)
        assert failed.any() and not failed.all(), text
    assert np.isnan(eval_jet(parse("1/(s-1)"), s).v[s == 1.0]).all()
    # a negative base under an integer power, and a varying exponent, hold
    assert (eval_jet(parse("(s-2)^3"), s).v[s < 2.0] < 0.0).all()
    s = s[s < 100.0]
    assert np.array_equal(eval_jet(parse("s^s"), s).v, np.exp(s * np.log(s)))


@pytest.mark.parametrize("label,f", BIT_CASES[:: 7], ids=[c[0] for c in BIT_CASES[:: 7]])
def test_a_stack_of_points_has_the_walks_bytes(label, f):
    # an (..., n) stack of matrices sends an N-D array of determinants
    s = bit_points(24).reshape(2, 3, 4)
    new = eval_jet(f, s)
    _same_bytes(new, walk_eval_jet(f, s))
    for i in range(2):
        _same_bytes([x[i] for x in new], eval_jet(f, s[i]))


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_the_program_peaks_within_a_column_of_the_walk(spec):
    # tracemalloc peaks at 20000 points, in 160 KB columns, of the walk:
    # -ln(s) 6.0, fa 9.1, neohooke 6.0, power 9.1, s 2.3, -ln(s)+1e-7*s^2
    # 12.1, exp(s) 6.3, -sqrt(s) 6.0, 1/s 5.0, s^(1/3) 9.1,
    # -s*ln(s)+s^2/(1+s) 12.1
    f = cli.parse_function_spec(spec, 3)
    s = GridSpec(1e-3, 1e3, 20000).points()
    peaks = []
    for evaluate in (walk_eval_jet, eval_jet):
        evaluate(f, s)
        tracemalloc.start()
        try:
            evaluate(f, s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    walk_peak, peak = peaks
    assert peak <= walk_peak + s.nbytes, (peak / s.nbytes, walk_peak / s.nbytes)


def test_the_grid_peak_holds_the_rows_of_its_program():
    # -s*ln(s)+s^2/(1+s) at 20000 points: its 9 rows of 160 KB and boolean
    # masks of 20 KB
    f = parse("-s*ln(s)+s^2/(1+s)")
    s = GridSpec(1e-3, 1e3, 20000).points()
    eval_jet(f, s)
    tracemalloc.start()
    try:
        eval_jet(f, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * s.nbytes, peak / s.nbytes


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_a_returned_jet_holds_only_its_own_rows(spec):
    # a caller that keeps the jet keeps its three columns and frees the
    # scratch rows; the value of f = s is s itself, so that jet holds two
    f = cli.parse_function_spec(spec, 3)
    s = GridSpec(1e-3, 1e3, 20000).points()
    eval_jet(f, s)
    tracemalloc.start()
    try:
        jet = eval_jet(f, s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    columns = 2 if spec == "s" else 3
    assert held <= 1.01 * columns * s.nbytes, held / s.nbytes


def test_a_program_is_compiled_once_per_expression():
    f = parse("-ln(s)+1e-7*s^2")
    eval_jet(f, 2.0)
    program = f._program
    eval_jet(f, np.ones(3))
    assert f._program is program
    # an equal expression is another object, with a program of its own
    twin = parse("-ln(s)+1e-7*s^2")
    assert twin == f and not hasattr(twin, "_program")
    family = PowerLaw(c=-1.0, p=0.5)
    eval_jet(family, 2.0)
    assert family.expr._program is not None
