"""Scalar functions f of one positive real with exact first and second
derivatives.

One kind of function, an expression AST over the single variable
``s``, from two sources: text, parsed by one binding-power loop over one
operator table, and four built-in families, whose members ``family``
builds from their parameters.  One evaluator, :func:`eval_jet`,
returns the (value, f', f'') triple exact up to roundoff by truncated
second-order Taylor (jet) arithmetic on numpy ufuncs.  An expression is
compiled once, in one post-order pass that folds its constant
subexpressions, to a flat program that is cached on it: numpy calls over
one register file of rows, s, the walk and constants.  The pass fixes
each power's rule: the monomial rule for a constant exponent, the ops of
exp(e ln b) for any other.  A constant subexpression whose fold fails
stays an op, which fails every point.  Negation, + and - compile to one
ufunc call per jet field, and a field over constants alone stays a
constant: the derivatives of -s and 1 + s take no row.  An evaluation
runs the program over (rows, points) floats, and a row is reused once
its one reader has run.  The jet's own rows are one
array and the scratch rows another, which the evaluation frees on
return, so a caller that keeps the jet keeps its rows alone.

``eval_jet`` evaluates an array of points: a failure at any op marks the
point and the walk goes on, and a point that failed is NaN in all three
fields of the returned Jet2.  A float is evaluated as a one-point array,
so it has the bits it has in any array, and raises the first failure in
walk order, the expression's post-order: DomainError outside the domain,
NonFiniteError on overflow.  ``eval_jet`` also takes a sequence of
functions, one per row of a point array in turn: each program runs over
its rows, with the bits one function gives them, and the functions share
one walk, so one domain check, one error state and one NaN pass.

The figure curves are members of the fa family sampled on a grid
(``export_family_curves``), each returned as its CSV text.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, ParameterError, ParseError
from .linalg import dimension

BRANCH_TOL = 1e-12  # |a - 1/n| below this selects the logarithmic branch
_set = object.__setattr__  # how a Value sets its fields

# Node checks compare with infinity through operators, elementwise on the
# points and on the numpy scalars of constant subexpressions alike.
_INF = float("inf")


class Jet2(NamedTuple):
    """Second-order Taylor triple (value, first, second derivative); the
    fields are floats, or arrays with one entry per point."""

    v: float | np.ndarray
    d1: float | np.ndarray
    d2: float | np.ndarray


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
    cyclic collector runs.  Overflow inside exp and pow is a failure;
    elsewhere an infinity only fails the point if the final jet is not
    finite.  ``failed`` is shaped like s; one walk may run several
    programs, each over some rows of s (``eval_jet`` over a sequence of
    functions), and ``rows`` indexes those of the one that runs.
    """

    def __init__(self, s):
        self.failed = False
        self.first = None
        self.shape = s.shape
        self.rows = ...  # the rows of s that the running program reads
        # two reductions decide a grid, whose points all lie in the domain;
        # NaN fails both
        if not (s.min(initial=_INF) > 0.0 and s.max(initial=0.0) < _INF):
            domain = (s > 0.0) & np.isfinite(s)
            self.fail(~domain, DomainError, "scalar functions are defined for s > 0, got s={}", s)

    def fail(self, bad, error, template, *values):
        # quicker than bad.any() on the few points of a small call
        if np.count_nonzero(bad):
            if self.failed is False:
                self.failed = np.zeros(self.shape, dtype=bool)
            self.failed[self.rows] |= bad
            if self.first is None:
                k = np.argmax(bad)
                at = (float(np.broadcast_to(v, bad.shape).flat[k]) for v in values)
                self.first = (error, template.format(*at))


# --------------------------------------------------------------------------
# op kernels
#
# A compiled program is a list of numpy calls over one register file (see
# _Compiler).  A kernel jet_* takes the walk first, then its operands'
# fields, arrays over the points or numpy scalars, and writes its jet to
# the rows v, d1 and d2 with out= ufuncs in the order of operations of the
# jet formula, so with its bits.  v is a row of its own; d1 and d2 may be
# the rows of the same fields of an operand (see _Compiler.op), which a
# kernel reads before it writes over them.  t, t2, ... are scratch rows.
# -a, a + b and a - b need no kernel: each of their fields is one call of
# np.negative, np.add or np.subtract, whose out may be an operand's row.


def jet_mul(walk, av, a1, a2, bv, b1, b2, v, d1, d2, t, t2):
    """(a b)' = a' b + a b', (a b)'' = a'' b + 2 a' b' + a b''; d1 and d2
    may be either operand's."""
    np.multiply(av, b2, t)
    np.multiply(np.multiply(2.0, a1, t2), b1, t2)
    np.add(np.add(np.multiply(a2, bv, d2), t2, d2), t, d2)  # a2 bv + 2 a1 b1 + av b2
    np.multiply(av, b1, t)
    np.add(np.multiply(a1, bv, d1), t, d1)  # a1 bv + av b1
    np.multiply(av, bv, v)


def jet_div(walk, av, a1, a2, bv, b1, b2, v, d1, d2, t):
    walk.fail(bv == 0.0, DomainError, "division by zero")
    np.divide(av, bv, v)  # q
    np.divide(np.subtract(a1, np.multiply(v, b1, t), d1), bv, d1)  # q1 = (a1 - q b1) / bv
    np.subtract(a2, np.multiply(np.multiply(2.0, d1, t), b1, t), d2)
    np.divide(np.subtract(d2, np.multiply(v, b2, t), d2), bv, d2)  # (a2 - 2 q1 b1 - q b2) / bv


def jet_ln(walk, uv, u1, u2, c, v, d1, d2, t):
    """c * ln(u) for a constant factor c, a numpy scalar (1 for ln(u)); c
    enters before the divisions by u, so c * ln(s) has the closed-form
    slope c/s."""
    walk.fail(uv <= 0.0, DomainError, "ln of non-positive value {}", uv)
    np.divide(u1, uv, t)  # r1
    np.divide(np.multiply(c, u2, d2), uv, d2)
    np.divide(np.multiply(c, u1, d1), uv, d1)  # w1 = c u1 / uv
    np.subtract(d2, np.multiply(d1, t, t), d2)  # c u2 / uv - w1 r1
    np.multiply(c, np.log(uv, v), v)


def jet_exp(walk, uv, u1, u2, v, d1, d2, t):
    np.exp(uv, v)
    walk.fail((v == _INF) & (uv < _INF), NonFiniteError, "exp overflow at {}", uv)
    np.multiply(v, np.add(u2, np.multiply(u1, u1, t), d2), d2)  # w (u2 + u1 u1)
    np.multiply(v, u1, d1)


def jet_sqrt(walk, uv, u1, u2, v, d1, d2, t):
    walk.fail(uv <= 0.0, DomainError, "sqrt of non-positive value {}", uv)
    np.sqrt(uv, v)
    np.divide(u1, np.multiply(2.0, v, t), d1)  # w1 = u1 / (2 w)
    np.subtract(u2, np.multiply(np.multiply(2.0, d1, t), d1, t), d2)
    np.divide(d2, np.multiply(2.0, v, t), d2)  # (u2 - 2 w1 w1) / (2 w)


def jet_pow_const(walk, uv, u1, u2, p, v, d1, d2, t, t2):
    """Monomial rule u^p for a constant exponent p, a numpy scalar.

    Valid for u > 0 with any real p, and for u < 0 / u == 0 when p is an
    integer (non-negative in the zero case).  An overflow names the first
    of u^p, u^(p-1), u^(p-2) to overflow at the first failing point.
    """
    pos = uv > 0.0
    all_pos = pos.all()
    used1 = used2 = True
    if not all_pos:
        # p % 1 is nan for nan and inf exponents, which are not integers either
        walk.fail(~pos & (p % 1.0 != 0.0), DomainError, "{} raised to non-integer power {}", uv, p)
        walk.fail((uv == 0.0) & (p < 0.0), DomainError, "0 raised to a negative power")
        # an integer power skips the factors that its zero coefficient cancels
        used1 = pos | (p != 0.0)
        used2 = used1 & (pos | (p != 1.0))
    np.power(uv, p, v)
    np.power(uv, p - 1.0, t)
    np.power(uv, p - 2.0, t2)
    # math.pow and ** raise on an infinite result from finite arguments; a
    # sum of finite powers is finite unless it overflows, so where it is
    # finite no power overflowed
    if not np.isfinite(v.sum() + t.sum() + t2.sum()):
        over = np.isinf(v) | used1 & np.isinf(t) | used2 & np.isinf(t2)
        over &= np.isfinite(uv) & np.isfinite(p)
        q = np.where(np.isinf(v), p, np.where(np.isinf(t), p - 1.0, p - 2.0))
        walk.fail(over, NonFiniteError, "overflow in {} ** {}", uv, q)
    np.multiply(p, t, t)  # wp1
    np.multiply(p * (p - 1.0), t2, t2)
    if not all_pos:
        np.copyto(t, 0.0, where=~used1)
        np.copyto(t2, 0.0, where=~used2)
    np.add(np.multiply(np.multiply(t2, u1, t2), u1, t2), np.multiply(t, u2, d2), d2)
    np.multiply(t, u1, d1)


# --------------------------------------------------------------------------
# expression AST


class Value:
    """Immutable record of the fields ``__match_args__`` names.  Two are
    equal when of one class with equal fields (an Add never equals a Sub,
    as tuples would), hash alike, repr as ``Name(field=value, ...)`` and
    pickle through the class.  ``__init__`` sets the fields once, as
    slots."""

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
    """Base class for expression nodes over the single variable ``s``.  A
    root node holds its compiled program, once it has been evaluated."""

    __slots__ = ("_program",)


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


# --------------------------------------------------------------------------
# the compiler


# node class: kernel, scratch rows, and the operands (offsets into the
# op's operand registers) whose d1 and d2 rows the jet may take over, when
# those registers are rows
_RULES = {
    Mul: (jet_mul, 2, (0, 3)),
    Div: (jet_div, 1, (0,)),
    Ln: (jet_ln, 1, (0,)),
    Exp: (jet_exp, 1, (0,)),
    Sqrt: (jet_sqrt, 1, (0,)),
}
# node class: the ufunc of each of its fields
_FIELDWISE = {Negate: np.negative, Add: np.add, Sub: np.subtract}
_WALK, _ZERO_REG, _ONE_REG = -2, -3, -4  # the walk and the first constants


class _Compiler:
    """One post-order pass over an expression, to ops (fn, registers) in
    walk order; an op runs as fn(*registers).  Register i >= 0 is row i,
    -1 is s, -2 the walk and -3, -4, ... are the constants.  A node's jet
    is three registers.  -a, a + b and a - b compile field by field, to a
    ufunc: a field over constants alone is a constant, any other writes
    over an operand's row or to a new row.  Every other node but s and a
    constant is a kernel op, which takes the walk first, and writes v to a
    new row and d1 and d2 to new rows or to those of an operand.  A node
    frees its operands' rows, since it is their one reader.  A power's
    rule is fixed here: a constant exponent takes the monomial rule, any
    other exponent e the ops of exp(e ln b).  The rows are renumbered at
    the end so that the result's rows, three, or two for f = s, come
    before the scratch rows."""

    def __init__(self):
        self.ops, self.consts, self.free, self.rows = [], [_ZERO, _ONE], [], 0

    def const(self, x) -> int:
        self.consts.append(x)
        return -2 - len(self.consts)

    def row(self) -> int:
        if self.free:
            return self.free.pop()
        self.rows += 1
        return self.rows - 1

    def field(self, ufunc, *ins) -> int:
        """One field of -a, a + b or a - b."""
        if max(ins) < _WALK:
            # over constants alone: a constant
            return self.const(ufunc(*[self.consts[-3 - r] for r in ins]))
        rows = [r for r in ins if r >= 0]
        out = rows[0] if rows else self.row()
        self.ops.append((ufunc, (*ins, out)))
        self.free += rows[1:]
        return out

    def op(self, kernel, temps, donors, ins) -> tuple:
        if max(ins) < _WALK:
            # over constants alone: run it now, on one point, and keep its
            # jet as constants; one that fails is left to fail every point
            # at run time, in walk order
            out = np.empty((3 + temps, 1))
            walk = _Walk(np.ones(1))
            kernel(walk, *[self.consts[-3 - r] for r in ins], *out)
            if walk.first is None:
                return tuple(self.const(x[0]) for x in out[:3])
        v = self.row()
        for k in donors:
            if min(ins[k + 1 : k + 3]) >= 0:
                d = ins[k + 1 : k + 3]
                break
        else:
            d = self.row(), self.row()
        scratch = [self.row() for _ in range(temps)]
        self.ops.append((kernel, (_WALK, *ins, v, *d, *scratch)))
        self.free += scratch + [r for r in ins if r >= 0 and r not in d]
        return v, *d

    def node(self, e: Expr) -> tuple:
        kind = type(e)
        if kind is Constant:
            return self.const(np.float64(e.value)), _ZERO_REG, _ZERO_REG
        if kind is Variable:
            return -1, _ONE_REG, _ZERO_REG
        if kind is Mul and type(e.left) is Constant and type(e.right) is Ln:
            # c * ln(u) is one op, whose last operand is c
            return self.op(*_RULES[Ln], self.node(e.right.arg) + self.node(e.left)[:1])
        if kind not in _FIELDWISE and kind not in _RULES and kind is not Pow:
            raise TypeError(f"unknown expression node {e!r}")
        jets = [self.node(a) for a in e.__reduce__()[1]]  # the operands, in field order
        if kind in _FIELDWISE:
            return tuple(self.field(_FIELDWISE[kind], *regs) for regs in zip(*jets))
        if kind is Pow and jets[1][0] < _WALK:
            return self.op(jet_pow_const, 2, (0,), jets[0] + jets[1][:1])
        if kind is Pow:
            ln = self.op(*_RULES[Ln], jets[0] + (_ONE_REG,))
            return self.op(*_RULES[Exp], self.op(*_RULES[Mul], jets[1] + ln))
        if kind is Ln:
            jets.append((_ONE_REG,))
        return self.op(*_RULES[kind], sum(jets, ()))

    def compile(self, e: Expr) -> tuple:
        """(ops, rows, the jet's rows, constants from the end, the jet's
        registers); the jet's rows are renumbered to come first."""
        result = list(self.node(e))
        # a constant field is copied to a row; s stays the caller's array
        for i, r in enumerate(result):
            if r < _WALK:
                result[i] = self.row()
                self.ops.append((np.copyto, (result[i], r)))
        own = [r for r in result if r >= 0]
        order = own + [r for r in range(self.rows) if r not in own]
        new = {r: i for i, r in enumerate(order)}
        rename = lambda regs: tuple(new.get(r, r) for r in regs)
        ops = tuple((fn, rename(args)) for fn, args in self.ops)
        return ops, self.rows, len(own), tuple(reversed(self.consts)), rename(result)


# --------------------------------------------------------------------------
# parser
#
# One binding-power loop (Pratt, "Top down operator precedence", 1973).
# An operator joins its left operand to the expression that follows when
# its binding power in _BINARY exceeds that of the loop it meets: + - at 1
# and * / at 2, so each is left associative, and ^ at 4.  A unary minus
# parses its operand at _PREFIX, 3, and so does ^ its right operand, so ^
# is right associative and its exponent may carry a minus.  The prefixes:
# a unary minus, a number, s, ln(e), exp(e), sqrt(e) and ( e ).

# every character starts a match: whitespace, a token, or a bad character
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>.)"
)

_FUNCTIONS = {"ln": Ln, "exp": Exp, "sqrt": Sqrt}
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div), "^": (4, Pow)}
_PREFIX = 3


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest expression the parser accepts, counting every operator, function
# call and parenthesis pair on the way from the root to a leaf.  Only
# parsing and compiling recurse, once or a few times per level, so a deeper
# input would exhaust the interpreter's recursion limit; a compiled program
# runs as a flat loop.
MAX_DEPTH = 100


def parse(text: str) -> Expr:
    """Parse an expression in the variable ``s``.

    Raises ParseError (with byte offset) on malformed input, on nesting
    deeper than ``MAX_DEPTH`` and on identifiers other than s/ln/exp/sqrt.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    at = 0  # the next token

    def take(op=None):
        nonlocal at
        kind, tok, pos = tokens[at]
        if op is not None and tok != op:
            raise ParseError(f"expected {op!r}", pos)
        at += 1
        return kind, tok, pos

    # A part is (expr, depth).  ``level`` counts the minuses, exponents,
    # calls and parentheses open on the way down: nested refuses level
    # MAX_DEPTH before it recurses, at pos, where that level opens; node
    # checks the depth of each finished node, which also covers the
    # left-associative chains the loop builds without recursing.
    too_deep = f"expression nested deeper than {MAX_DEPTH} levels"

    def nested(bp, level, pos):
        if level >= MAX_DEPTH:
            raise ParseError(too_deep, pos)
        return expr(bp, level + 1)

    def node(cls, pos, *parts):
        depth = 1 + max(d for _, d in parts)
        if depth > MAX_DEPTH:
            raise ParseError(too_deep, pos)
        return cls(*(e for e, _ in parts)), depth

    def expr(bp, level):
        """A prefix, then each operator that binds tighter than bp."""
        kind, tok, pos = take()
        if tok == "-":
            left = node(Negate, pos, nested(_PREFIX, level, pos))
        elif kind == "num":
            value = float(tok)
            if not math.isfinite(value):
                raise ParseError(f"number {tok!r} is not a finite float", pos)
            left = Constant(value), 0
        elif tok == "s":
            left = Variable(), 0
        else:
            if kind == "ident":
                if tok not in _FUNCTIONS:
                    raise ParseError(f"unknown identifier {tok!r}", pos)
                take("(")
            elif tok != "(":
                raise ParseError(f"expected a value, got {tok!r}" if tok else "unexpected end of input", pos)
            # a call or a parenthesis pair, one level around its argument
            arg = nested(0, level, pos)
            take(")")
            left = node(_FUNCTIONS.get(tok, lambda e: e), pos, arg)
        while True:
            power, cls = _BINARY.get(tokens[at][1], (0, None))
            if power <= bp:
                return left
            _, _, pos = take()
            right = nested(_PREFIX, level, pos) if cls is Pow else expr(power, level)
            left = node(cls, pos, left, right)

    e, _ = expr(0, 0)
    kind, tok, pos = tokens[at]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return e


# --------------------------------------------------------------------------
# built-in families

# family name -> default parameters, in checking order; None marks a required one
_FAMILIES = {
    "fa": {"a": None, "c": -1.0, "d": 0.0},
    "power": {"c": -1.0, "p": None, "d": 0.0},
    "log": {"c": -1.0, "d": 0.0},
    "neohooke": {"mu": 1.0},
}


def family(name: str, n: int = 3, /, **params) -> Expr:
    """The expression of a member of a built-in family, from finite
    parameters or their defaults in ``_FAMILIES``; ParameterError names a
    bad name or parameter.  power is d + c s^p, log d + c ln s, neohooke
    -mu ln s with mu > 0 (the determinant part of the compressible
    Neo-Hooke energy) and fa the three-branch family, convex under det by
    design: with a >= 0, c <= 0 and q = 1/n - a, d + c s^q for a < 1/n,
    d + c ln s at a = 1/n (within BRANCH_TOL) and d - c s^q beyond.  Only
    fa reads n >= 1, positional like name; its classical statement is n = 3.
    """
    if name not in _FAMILIES:
        raise ParameterError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    for k in params:
        if k not in _FAMILIES[name]:
            raise ParameterError(f"unknown parameter {k!r} for family {name!r}")
    params = {**_FAMILIES[name], **params}
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ParameterError(f"family {name!r} requires parameters: {', '.join(missing)}")
    for k, v in params.items():
        if not math.isfinite(v):
            raise ParameterError(f"family {name!r} parameter {k}={v} must be finite")
    if name == "neohooke":
        if params["mu"] <= 0:
            raise ParameterError(f"shear modulus mu={params['mu']} must be > 0")
        return Mul(Constant(-params["mu"]), Ln(Variable()))
    if name == "fa":
        n, a, c = dimension(n), params["a"], params["c"]
        if a < 0:
            raise ParameterError(f"family parameter a={a} must be >= 0")
        if c > 0:
            raise ParameterError(f"family parameter c={c} must be <= 0")
        if abs(a - 1.0 / n) <= BRANCH_TOL:
            name = "log"
        else:
            name, params["c"], params["p"] = "power", c if a < 1.0 / n else -c, 1.0 / n - a
    g = Ln(Variable()) if name == "log" else Pow(Variable(), Constant(params["p"]))
    return Add(Constant(params["d"]), Mul(Constant(params["c"]), g))


def _run(f, walk, s) -> list:
    """The fields of f's jet at the points s, from f's program, compiled
    on its first run, in ``walk``: rows of one new array that holds them
    alone, or s itself for the value of f = s."""
    try:
        ops, rows, own, consts, result = f._program
    except AttributeError:
        _set(f, "_program", _Compiler().compile(f))
        ops, rows, own, consts, result = f._program
    # the jet's rows apart from the scratch rows, which the call frees
    regs = [*np.empty((own,) + s.shape), *np.empty((rows - own,) + s.shape), *consts, walk, s]
    for fn, args in ops:
        fn(*[regs[i] for i in args])
    return [regs[i] for i in result]


def eval_jet(f, s) -> Jet2:
    """Evaluate f to (f(s), f'(s), f''(s)) at a float s or at each point of
    an array s; s must be positive.

    f is an expression, parsed or built by ``family``, compiled on its
    first evaluation, or a non-empty sequence of k expressions, where row
    i of s (its first axis) takes f[i % k].  An array is NaN in all three
    fields at a point outside the domain or where evaluation overflows.
    A float (or a numpy scalar or 0-d array) is evaluated as a one-point
    array and raises there: DomainError, or NonFiniteError on overflow.
    The fields of an array's jet are rows of one array that holds them
    alone, shaped like s.  One expression reads a float64 array without a
    copy, so a field may be s itself (the value of f = s is).  Each of a
    sequence's programs runs over a contiguous copy of its rows, so every
    field has the bits one expression gives it, and its jet is written
    into its rows of one new array; the sequence shares one walk, so one
    domain check, one error state and one NaN pass.
    """
    point = not isinstance(s, np.ndarray) or s.ndim == 0
    s = np.array(s, dtype=float, ndmin=1, copy=None)
    one = isinstance(f, Expr)
    if not one and len(f) == 0:
        raise ParameterError("eval_jet needs at least one function")
    walk = _Walk(s)
    with np.errstate(all="ignore"):
        if one:
            jet = Jet2(*_run(f, walk, s))
        else:
            jet = Jet2(*np.empty((3,) + s.shape))
            for j, fj in enumerate(f[: len(s)]):
                walk.rows = slice(j, None, len(f))
                # ufuncs over strided rows run slower than over a copy
                fields = _run(fj, walk, np.ascontiguousarray(s[walk.rows]))
                for x, field in zip(jet, fields):
                    x[walk.rows] = field
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
        bad = ~ok
        # the value of f = s is the caller's s itself
        jet = Jet2(*(x.copy() if x is s else x for x in jet))
        for x in jet:
            np.copyto(x, np.nan, where=bad)
    return jet


def failure_at(f, s: float) -> DomainError | NonFiniteError:
    """The error that evaluating f at the float s raises: the reason for a
    point that an array evaluation returned as NaN."""
    try:
        eval_jet(f, s)
    except (DomainError, NonFiniteError) as e:
        return e
    return NonFiniteError(f"non-finite jet at s={s}")


# --------------------------------------------------------------------------
# figure curves


# (label, fa parameters) of the four standard members of the reference
# figures, at n = 3; all pass through (1, 0) with slope -1.
FIGURE_FAMILIES = (
    ("-ln(s)", {"a": 1.0 / 3.0, "c": -1.0, "d": 0.0}),
    ("-3*s^(1/3)+3", {"a": 0.0, "c": -3.0, "d": 3.0}),
    ("-6*s^(1/6)+6", {"a": 1.0 / 6.0, "c": -6.0, "d": 6.0}),
    ("3*s^(-1/3)-3", {"a": 2.0 / 3.0, "c": -3.0, "d": -3.0}),
)


def export_family_curves(extras, grid, n: int = 3):
    """(label, CSV text) of the standard figure set plus any extra members,
    sampled at the points of ``grid``, a ``certifier.GridSpec``.

    ``extras`` is a sequence of keyword dicts of ``family("fa", n, ...)``,
    whose curves follow the four standard ones at n = 3.  A text's header
    is ``# label [k=v,...]`` and lists every parameter, defaults and n
    included; then come ``x,y`` and one ``repr,repr`` row per point.  All
    members are built first, then each is evaluated in one call; the first
    point that fails, in member order, raises its own error.
    """
    members = [(label, 3, params) for label, params in FIGURE_FAMILIES]
    for extra in extras:
        p = {**_FAMILIES["fa"], **extra}
        members.append((f"fa(a={p['a']!r},c={p['c']!r},d={p['d']!r},n={n})", n, p))
    fs = [family("fa", dim, **params) for _, dim, params in members]
    ss = grid.points()
    xs = ss.tolist()
    curves = []
    for (label, dim, params), f in zip(members, fs):
        ys = eval_jet(f, ss).v
        failed = np.isnan(ys)
        if failed.any():
            raise failure_at(f, float(ss[np.argmax(failed)]))
        pieces = ",".join(
            f"{k}={(float(v) if isinstance(v, (float, np.floating)) else v)!r}"
            for k, v in {**params, "n": dim}.items()
        )
        rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys.tolist()))
        curves.append((label, f"# {label} [{pieces}]\nx,y\n{rows}"))
    return curves
