"""Scalar functions f of one positive real with exact first and second
derivatives.

Two input channels: a small expression language over the single variable
``s``, parsed to an AST, and four closed-form built-in families, each of
which lowers to the same AST once per instance.  One evaluator,
:func:`eval_jet`, walks the AST with truncated second-order Taylor (jet)
arithmetic on numpy ufuncs and returns the (value, f', f'') triple exact
up to roundoff.

``eval_jet`` takes a float or a 1-D float array of points, and both walk
the same AST with the same ufuncs, so a point gives the same bits either
way.  A float outside the domain raises DomainError, an overflow
NonFiniteError.  An array returns a Jet2 of arrays in which a point that
failed at any node is NaN in all three fields; evaluating that point as a
float raises its error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, ParameterError, ParseError, UnknownIdentifierError

BRANCH_TOL = 1e-12  # |a - 1/n| below this selects the logarithmic branch

# Node checks compare with infinity through operators, which are cheap on
# the numpy scalar of a float input and elementwise on an array.
_INF = float("inf")


class Jet2(NamedTuple):
    """Second-order Taylor triple (value, first, second derivative); the
    fields are floats, or arrays with one entry per point.  A named tuple
    is the cheapest immutable record to build once per node."""

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


_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


class _Walk:
    """Failure bookkeeping of one evaluation.

    A float input walks as a numpy scalar (``raises``) and raises at the
    first failing node, with the point's value in the message.  An array
    input marks the point in ``failed`` and goes on.  Constants stay numpy
    scalars either way, so the nodes run the same ufuncs on the same kinds
    of operands: np.power with a scalar exponent gives an array the bits of
    the scalar call, which an array exponent does not.  ``scope`` restricts
    a check to the points that a per-point branch applies to.  Overflow
    inside exp and pow is a failure; elsewhere an infinity only fails the
    point if the final jet is not finite.
    """

    def __init__(self, s):
        self.s = s
        self.raises = s.ndim == 0
        self.failed = False if self.raises else ~((s > 0.0) & np.isfinite(s))

    def all(self, mask) -> bool:
        return bool(mask) if self.raises else bool(mask.all())

    def select(self, mask, a, b):
        """a where mask holds, else b."""
        if self.raises or mask is True:
            return a if mask else b
        return np.where(mask, a, b)

    def fail(self, bad, scope, error, template, *values):
        bad = bad & scope
        if self.raises:
            if bad:
                raise error(template.format(*map(float, values)))
        else:
            self.failed |= bad


def jet_div(walk: _Walk, a: Jet2, b: Jet2) -> Jet2:
    walk.fail(b.v == 0.0, True, DomainError, "division by zero")
    q = a.v / b.v
    q1 = (a.d1 - q * b.d1) / b.v
    q2 = (a.d2 - 2.0 * q1 * b.d1 - q * b.d2) / b.v
    return Jet2(q, q1, q2)


def jet_ln(walk: _Walk, u: Jet2, scope=True, c: float = 1.0) -> Jet2:
    """c * ln(u); the constant factor enters before the divisions by u, so
    c * ln(s) has the closed-form slope c/s."""
    walk.fail(u.v <= 0.0, scope, DomainError, "ln of non-positive value {}", u.v)
    r1 = u.d1 / u.v
    w1 = c * u.d1 / u.v
    return Jet2(c * np.log(u.v), w1, c * u.d2 / u.v - w1 * r1)


def jet_exp(walk: _Walk, u: Jet2, scope=True) -> Jet2:
    w = np.exp(u.v)
    walk.fail((w == _INF) & (u.v < _INF), scope, NonFiniteError, "exp overflow at {}", u.v)
    return Jet2(w, w * u.d1, w * (u.d2 + u.d1 * u.d1))


def jet_sqrt(walk: _Walk, u: Jet2) -> Jet2:
    walk.fail(u.v <= 0.0, True, DomainError, "sqrt of non-positive value {}", u.v)
    w = np.sqrt(u.v)
    w1 = u.d1 / (2.0 * w)
    return Jet2(w, w1, (u.d2 - 2.0 * w1 * w1) / (2.0 * w))


def jet_pow_const(walk: _Walk, u: Jet2, p: np.ndarray, scope=True) -> Jet2:
    """Monomial rule u^p for an exponent p that is constant at each point.

    Valid for u > 0 with any real p, and for u < 0 / u == 0 when p is an
    integer (non-negative in the zero case).
    """
    pos = u.v > 0.0
    used1 = used2 = True
    if not walk.all(pos):
        # p % 1 is nan for nan and inf exponents, which are not integers either
        fractional = p % 1.0 != 0.0
        walk.fail(
            ~pos & fractional, scope, DomainError, "{} raised to non-integer power {}", u.v, p
        )
        walk.fail((u.v == 0.0) & (p < 0.0), scope, DomainError, "0 raised to a negative power")
        # an integer power skips the factors that its zero coefficient cancels
        used1 = pos | (p != 0.0)
        used2 = used1 & (pos | (p != 1.0))
    w = np.power(u.v, p)
    pw1 = np.power(u.v, p - 1.0)
    pw2 = np.power(u.v, p - 2.0)
    # math.pow and ** raise on an infinite result from finite arguments
    over = (abs(w) == _INF) | used1 & (abs(pw1) == _INF) | used2 & (abs(pw2) == _INF)
    over &= (abs(u.v) < _INF) & (abs(p) < _INF)
    walk.fail(over, scope, NonFiniteError, "overflow in {} ** {}", u.v, p)
    wp1 = walk.select(used1, p * pw1, 0.0)
    wp2 = walk.select(used2, p * (p - 1.0) * pw2, 0.0)
    return Jet2(w, wp1 * u.d1, wp2 * u.d1 * u.d1 + wp1 * u.d2)


def jet_pow(walk: _Walk, base: Jet2, expo: Jet2) -> Jet2:
    """General power, chosen per point: the monomial rule where the
    exponent's jet is constant, exp(expo * ln(base)) (base > 0) where it
    varies."""
    const = (expo.d1 == 0.0) & (expo.d2 == 0.0)
    if walk.all(const):
        return jet_pow_const(walk, base, expo.v)
    varying = ~const
    w = jet_exp(walk, expo * jet_ln(walk, base, varying), varying)
    if walk.all(varying):
        return w
    m = jet_pow_const(walk, base, expo.v, const)
    return Jet2(*(np.where(const, a, b) for a, b in zip(m, w)))


# --------------------------------------------------------------------------
# expression AST


class Expr:
    """Base class for expression nodes over the single variable ``s``."""

    def eval_jet(self, s):
        return eval_jet(self, s)


@dataclass(frozen=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True)
class Variable(Expr):
    pass


@dataclass(frozen=True)
class Negate(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


def _eval_node(node: Expr, walk: _Walk) -> Jet2:
    match node:
        case Constant(value=v):
            return Jet2(np.float64(v), _ZERO, _ZERO)
        case Variable():
            return Jet2(walk.s, _ONE, _ZERO)
        case Negate(arg=a):
            return -_eval_node(a, walk)
        case Add(left=l, right=r):
            return _eval_node(l, walk) + _eval_node(r, walk)
        case Sub(left=l, right=r):
            return _eval_node(l, walk) - _eval_node(r, walk)
        case Mul(left=Constant(value=c), right=Ln(arg=a)):
            return jet_ln(walk, _eval_node(a, walk), c=float(c))
        case Mul(left=l, right=r):
            return _eval_node(l, walk) * _eval_node(r, walk)
        case Div(left=l, right=r):
            return jet_div(walk, _eval_node(l, walk), _eval_node(r, walk))
        case Pow(base=b, exponent=e):
            return jet_pow(walk, _eval_node(b, walk), _eval_node(e, walk))
        case Ln(arg=a):
            return jet_ln(walk, _eval_node(a, walk))
        case Exp(arg=a):
            return jet_exp(walk, _eval_node(a, walk))
        case Sqrt(arg=a):
            return jet_sqrt(walk, _eval_node(a, walk))
    raise TypeError(f"unknown expression node {node!r}")


# --------------------------------------------------------------------------
# parser
#
# precedence, lowest to highest:
#   additive (+ -, left assoc)
#   multiplicative (* /, left assoc)
#   unary minus
#   power (^, right assoc)
#   atoms: number, s, ln(e), exp(e), sqrt(e), ( e )

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"ln": Ln, "exp": Exp, "sqrt": Sqrt}


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# Deepest expression the parser accepts, counting every operator, function
# call and parenthesis pair on the way from the root to a leaf.  Parsing
# and evaluation recurse once or a few times per level, so a deeper input
# would exhaust the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent that also tracks the depth of what it builds.

    The grammar methods return (expr, depth).  ``level`` counts the
    constructs open on the way down, so excessive nesting is refused
    before it recurses; ``_node`` checks the finished depth, which also
    covers the iteratively built left-associative chains.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    @staticmethod
    def _too_deep(pos: int) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)

    def _nested(self, parse, pos: int) -> tuple[Expr, int]:
        """Run ``parse`` one level further down; pos is where that level
        opens."""
        if self.level >= MAX_DEPTH:
            raise self._too_deep(pos)
        self.level += 1
        e, depth = parse()
        self.level -= 1
        return e, depth

    def _node(self, cls, pos: int, *parts) -> tuple[Expr, int]:
        """Build cls over (expr, depth) parts; pos is its operator."""
        depth = 1 + max(d for _, d in parts)
        if depth > MAX_DEPTH:
            raise self._too_deep(pos)
        return cls(*(e for e, _ in parts)), depth

    def parse(self) -> Expr:
        e, _ = self.additive()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def additive(self) -> tuple[Expr, int]:
        e = self.multiplicative()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.multiplicative()
                e = self._node(Add if text == "+" else Sub, pos, e, rhs)
            else:
                return e

    def multiplicative(self) -> tuple[Expr, int]:
        e = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                e = self._node(Mul if text == "*" else Div, pos, e, rhs)
            else:
                return e

    def unary(self) -> tuple[Expr, int]:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return self._node(Negate, pos, self._nested(self.unary, pos))
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right associative; the exponent may carry a unary minus
            return self._node(Pow, pos, base, self._nested(self.unary, pos))
        return base

    def atom(self) -> tuple[Expr, int]:
        kind, text, pos = self.advance()
        if kind == "num":
            return Constant(float(text)), 0
        if kind == "ident":
            if text == "s":
                return Variable(), 0
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self._nested(self.additive, pos)
                self.expect_op(")")
                return self._node(_FUNCTIONS[text], pos, arg)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e, depth = self._nested(self.additive, pos)
            self.expect_op(")")
            if depth + 1 > MAX_DEPTH:
                raise self._too_deep(pos)
            return e, depth + 1
        raise ParseError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse an expression in the variable ``s``.

    Raises ParseError (with byte offset) on malformed input or on nesting
    deeper than ``MAX_DEPTH``, and UnknownIdentifierError for identifiers
    other than s/ln/exp/sqrt.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# built-in families
#
# Each family keeps its parameters and validation and lowers to the
# expression AST once per instance (``expr``); eval_jet walks that AST.


def _affine(d: float, c: float, g: Expr) -> Expr:
    """d + c * g."""
    return Add(Constant(d), Mul(Constant(c), g))


@dataclass(frozen=True)
class PowerLaw:
    """f(s) = d + c * s^p."""

    c: float
    p: float
    d: float = 0.0

    @cached_property
    def expr(self) -> Expr:
        return _affine(self.d, self.c, Pow(Variable(), Constant(self.p)))


@dataclass(frozen=True)
class LogFamily:
    """f(s) = d + c * ln s."""

    c: float
    d: float = 0.0

    @cached_property
    def expr(self) -> Expr:
        return _affine(self.d, self.c, Ln(Variable()))


@dataclass(frozen=True)
class FamilyA:
    """Three-branch family, convex under composition with det by design.

    With q = 1/n - a:
        a in [0, 1/n)   ->  d + c * s^q
        a == 1/n        ->  d + c * ln s
        a in (1/n, inf) ->  d - c * s^q
    Requires a >= 0 and c <= 0.  The classical statement is n = 3; other n
    generalize the exponent and are flagged by reports.
    """

    a: float
    c: float
    d: float = 0.0
    n: int = 3

    def __post_init__(self):
        if self.a < 0:
            raise ParameterError(f"family parameter a={self.a} must be >= 0")
        if self.c > 0:
            raise ParameterError(f"family parameter c={self.c} must be <= 0")
        if self.n < 1:
            raise ParameterError(f"dimension n={self.n} must be >= 1")

    @property
    def branch(self) -> str:
        inv_n = 1.0 / self.n
        if abs(self.a - inv_n) <= BRANCH_TOL:
            return "log"
        return "power" if self.a < inv_n else "inverted-power"

    @cached_property
    def expr(self) -> Expr:
        br = self.branch
        if br == "log":
            return _affine(self.d, self.c, Ln(Variable()))
        coeff = self.c if br == "power" else -self.c
        return _affine(self.d, coeff, Pow(Variable(), Constant(1.0 / self.n - self.a)))


@dataclass(frozen=True)
class NeoHookeVolumetric:
    """Determinant-dependent part of the compressible Neo-Hooke energy:
    f(s) = -mu * ln s with shear modulus mu > 0."""

    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError(f"shear modulus mu={self.mu} must be > 0")

    @cached_property
    def expr(self) -> Expr:
        return Mul(Constant(-self.mu), Ln(Variable()))


BuiltinFamily = PowerLaw | LogFamily | FamilyA | NeoHookeVolumetric
ScalarFunction = Expr | BuiltinFamily


def _check_point(s: float):
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"scalar functions are defined for s > 0, got s={s}")


def eval_jet(f, s) -> Jet2:
    """Evaluate f to (f(s), f'(s), f''(s)) at a float s or at each point of
    a 1-D float array s; s must be positive.

    Works for parsed expressions and built-in families alike; any other
    object's own ``eval_jet`` receives s, float or array.  A float raises
    DomainError outside the domain and NonFiniteError if evaluation
    overflows; an array is NaN in all three fields at such points.
    """
    raises = not isinstance(s, np.ndarray) or s.ndim == 0
    if raises:
        _check_point(s)
        s = float(s)
    if isinstance(f, BuiltinFamily):
        f = f.expr
    failed = False
    if isinstance(f, Expr):
        walk = _Walk(np.float64(s) if raises else np.array(s, dtype=float))
        with np.errstate(all="ignore"):
            jet = _eval_node(f, walk)
        failed = walk.failed
        if raises:
            jet = Jet2(float(jet.v), float(jet.d1), float(jet.d2))
    else:
        jet = f.eval_jet(s)
    if raises:
        if not (math.isfinite(jet.v) and math.isfinite(jet.d1) and math.isfinite(jet.d2)):
            raise NonFiniteError(f"non-finite jet {jet} at s={s}")
        return jet
    # a field that never met s, like the slope of a constant, is a scalar
    jet = Jet2(*(x if isinstance(x, np.ndarray) and x.ndim else np.full(s.shape, x) for x in jet))
    bad = failed | ~(np.isfinite(jet.v) & np.isfinite(jet.d1) & np.isfinite(jet.d2))
    if bad.any():
        jet = Jet2(*(np.where(bad, np.nan, x) for x in jet))
    return jet


def eval_value(f, s):
    return eval_jet(f, s).v


def failure_at(f, s: float) -> DomainError | NonFiniteError:
    """The error that evaluating f at the float s raises: the reason for a
    point that an array evaluation returned as NaN."""
    try:
        eval_jet(f, s)
    except (DomainError, NonFiniteError) as e:
        return e
    return NonFiniteError(f"non-finite jet at s={s}")
