"""Scalar functions f of one positive real with exact first and second
derivatives.

Two input channels: a small expression language over the single variable
``s``, parsed to an AST, and four closed-form built-in families, each of
which lowers to the same AST once per instance.  One evaluator,
:func:`eval_jet`, walks the AST with truncated second-order Taylor (jet)
arithmetic on numpy ufuncs and returns the (value, f', f'') triple exact
up to roundoff.

``eval_jet`` walks an array of points: a failure at any node marks the
point and the walk goes on, and a point that failed is NaN in all three
fields of the returned Jet2.  A float is walked as a one-point array, so
it has the bits it has in any array, and raises the first failure of its
walk: DomainError outside the domain, NonFiniteError on overflow.

"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, ParameterError, ParseError, UnknownIdentifierError

BRANCH_TOL = 1e-12  # |a - 1/n| below this selects the logarithmic branch
_set = object.__setattr__  # how a Value sets its fields

# Node checks compare with infinity through operators, elementwise on the
# points and on the numpy scalars of constant subexpressions alike.
_INF = float("inf")


class Jet2(NamedTuple):
    """Second-order Taylor triple (value, first, second derivative); the
    fields are floats, or arrays with one entry per point.  A named tuple
    is the cheapest record to build per node, and unpacks as a triple."""

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


# Constants stay numpy scalars rather than arrays over the points: np.power
# with a scalar exponent gives every point the bits of the scalar call,
# which an array exponent does not, so a point has the same bits in an
# array of any length.
_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


class _Walk:
    """Failure bookkeeping of one evaluation over an array of points.

    The first check is the domain rule s > 0.  A check that fails marks
    its points in ``failed`` and the walk goes on.  ``first`` keeps the
    first failure in walk order as (error class, message), with the values
    of the first point that failed; the exception is built where it is
    raised, since one kept here would hold its traceback, whose frames
    hold this walk, in a cycle that keeps the arrays alive until the
    cyclic collector runs.  ``scope`` restricts a check to the points that
    a per-point branch applies to.  Overflow inside exp and pow is a
    failure; elsewhere an infinity only fails the point if the final jet
    is not finite.
    """

    def __init__(self, s):
        self.s = s
        self.failed = False
        self.first = None
        # two reductions decide a grid, whose points all lie in the domain;
        # NaN fails both
        if not (s.min(initial=_INF) > 0.0 and s.max(initial=0.0) < _INF):
            domain = (s > 0.0) & np.isfinite(s)
            self.fail(~domain, True, DomainError, "scalar functions are defined for s > 0, got s={}", s)

    def fail(self, bad, scope, error, template, *values):
        if scope is not True:
            bad = bad & scope
        # quicker than bad.any() on the few points of a small call
        if np.count_nonzero(bad):
            self.failed = self.failed | bad
            if self.first is None:
                k = np.argmax(bad)
                at = (float(np.broadcast_to(v, bad.shape).flat[k]) for v in values)
                self.first = (error, template.format(*at))


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
    all_pos = pos.all()
    used1 = used2 = True
    if not all_pos:
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
    # math.pow and ** raise on an infinite result from finite arguments; a
    # sum of finite powers is finite unless it overflows, so where it is
    # finite no power overflowed
    if not np.isfinite(np.sum(w) + np.sum(pw1) + np.sum(pw2)):
        over = (abs(w) == _INF) | used1 & (abs(pw1) == _INF) | used2 & (abs(pw2) == _INF)
        over &= (abs(u.v) < _INF) & (abs(p) < _INF)
        walk.fail(over, scope, NonFiniteError, "overflow in {} ** {}", u.v, p)
    wp1 = p * pw1
    wp2 = p * (p - 1.0) * pw2
    if not all_pos:
        wp1 = np.where(used1, wp1, 0.0)
        wp2 = np.where(used2, wp2, 0.0)
    return Jet2(w, wp1 * u.d1, wp2 * u.d1 * u.d1 + wp1 * u.d2)


def jet_pow(walk: _Walk, base: Jet2, expo: Jet2) -> Jet2:
    """General power, chosen per point: the monomial rule where the
    exponent's jet is constant, exp(expo * ln(base)) (base > 0) where it
    varies."""
    const = (expo.d1 == 0.0) & (expo.d2 == 0.0)
    if const.all():
        return jet_pow_const(walk, base, expo.v)
    varying = ~const
    w = jet_exp(walk, expo * jet_ln(walk, base, varying), varying)
    if varying.all():
        return w
    m = jet_pow_const(walk, base, expo.v, const)
    return Jet2(*(np.where(const, a, b) for a, b in zip(m, w)))


# --------------------------------------------------------------------------
# expression AST


class Value:
    """Immutable record of the fields ``__match_args__`` names.  Two are
    equal when of one class with equal fields (an Add never equals a Sub,
    as tuples would), hash alike, repr as ``Name(field=value, ...)`` and
    pickle through the class.  ``__init__`` sets the fields once: as slots,
    or in ``__dict__`` in a class that caches properties."""

    __slots__ = ()
    __match_args__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if isinstance(other, Value):
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class Expr(Value):
    """Base class for expression nodes over the single variable ``s``."""

    __slots__ = ()


# Explicit __init__s: nodes are built often, and Value's loop is slower.
class Constant(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Variable(Expr):
    __slots__ = ()
    __init__ = object.__init__


class _Unary(Expr):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


class _Binary(Expr):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Negate(_Unary):
    __slots__ = ()


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Ln(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Sqrt(_Unary):
    __slots__ = ()


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
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is not a finite float", pos)
            return Constant(value), 0
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


def require_finite(record: Value):
    """Raise ParameterError naming the first field of ``record`` that is not finite."""
    for name in record.__match_args__:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ParameterError(f"{type(record).__name__} {name}={value} must be finite")


def _affine(d: float, c: float, g: Expr) -> Expr:
    """d + c * g."""
    return Add(Constant(d), Mul(Constant(c), g))


class PowerLaw(Value):
    """f(s) = d + c * s^p."""

    __match_args__ = ("c", "p", "d")

    def __init__(self, c: float, p: float, d: float = 0.0):
        super().__init__(c, p, d)
        require_finite(self)

    @cached_property
    def expr(self) -> Expr:
        return _affine(self.d, self.c, Pow(Variable(), Constant(self.p)))


class LogFamily(Value):
    """f(s) = d + c * ln s."""

    __match_args__ = ("c", "d")

    def __init__(self, c: float, d: float = 0.0):
        super().__init__(c, d)
        require_finite(self)

    @cached_property
    def expr(self) -> Expr:
        return _affine(self.d, self.c, Ln(Variable()))


class FamilyA(Value):
    """Three-branch family, convex under composition with det by design.

    With q = 1/n - a:
        a in [0, 1/n)   ->  d + c * s^q
        a == 1/n        ->  d + c * ln s
        a in (1/n, inf) ->  d - c * s^q
    Requires finite fields, a >= 0 and c <= 0.  The classical statement is
    n = 3; other n generalize the exponent and are flagged by reports.
    """

    __match_args__ = ("a", "c", "d", "n")

    def __init__(self, a: float, c: float, d: float = 0.0, n: int = 3):
        super().__init__(a, c, d, n)
        require_finite(self)
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


class NeoHookeVolumetric(Value):
    """Determinant-dependent part of the compressible Neo-Hooke energy:
    f(s) = -mu * ln s with shear modulus mu > 0."""

    __match_args__ = ("mu",)

    def __init__(self, mu: float):
        super().__init__(mu)
        require_finite(self)
        if self.mu <= 0:
            raise ParameterError(f"shear modulus mu={self.mu} must be > 0")

    @cached_property
    def expr(self) -> Expr:
        return Mul(Constant(-self.mu), Ln(Variable()))


BuiltinFamily = PowerLaw | LogFamily | FamilyA | NeoHookeVolumetric


def eval_jet(f, s) -> Jet2:
    """Evaluate f to (f(s), f'(s), f''(s)) at a float s or at each point of
    a 1-D float array s; s must be positive.

    f is a parsed expression or a built-in family.  An array is NaN in all
    three fields at a point outside the domain or where evaluation
    overflows.  A float (or a numpy scalar or 0-d array) is evaluated as a
    one-point array and raises there: DomainError, or NonFiniteError on
    overflow.  A float64 array is walked without a copy, so a field of the
    result may be s itself (the value of f = s is).
    """
    point = not isinstance(s, np.ndarray) or s.ndim == 0
    s = np.array(s, dtype=float, ndmin=1, copy=None)
    walk = _Walk(s)
    with np.errstate(all="ignore"):
        jet = _eval_node(f.expr if isinstance(f, BuiltinFamily) else f, walk)
    # a field that never met s, like the slope of a constant, is a scalar
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


def eval_all(f, s: np.ndarray) -> np.ndarray:
    """f at every point of the 1-D array s, from one evaluator call; the
    first point that fails raises its own error."""
    values = eval_jet(f, s).v
    failed = np.isnan(values)
    if failed.any():
        raise failure_at(f, float(s[np.argmax(failed)]))
    return values


def failure_at(f, s: float) -> DomainError | NonFiniteError:
    """The error that evaluating f at the float s raises: the reason for a
    point that an array evaluation returned as NaN."""
    try:
        eval_jet(f, s)
    except (DomainError, NonFiniteError) as e:
        return e
    return NonFiniteError(f"non-finite jet at s={s}")
