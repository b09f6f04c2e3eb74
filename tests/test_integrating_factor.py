"""The identities behind self-test checks c09 and c10, symbolically.

With q = (n-1)/n and phi(s) = s^q f'(s):

- phi' = s^q lhs, so lhs >= 0 and f' <= 0 say that phi is nondecreasing
  and nonpositive;
- u(t) = f(t^n) has u'(t) = n phi(t^n), so phi carries the slope of the
  scalar reduction;
- the forced equation y' = -q y/x + eps, y(xi) = eta, has the closed form
  x^q y = xi^q eta + eps (x^(q+1) - xi^(q+1))/(q+1), which vanishes at
  x* = (xi^(q+1) - (q+1) xi^q eta/eps)^(1/(q+1)).
"""

import pytest
import sympy as sp

s, t, x, xi, eps = sp.symbols("s t x xi epsilon", positive=True)
n = sp.Symbol("n", positive=True, integer=True)
eta = sp.Symbol("eta", nonpositive=True)
q = (n - 1) / n
F = sp.Function("f")


def phi(f, s, q):
    return s**q * sp.diff(f, s)


def lhs(f, s, n):
    return sp.diff(f, s, 2) + (n - 1) / (n * s) * sp.diff(f, s)


@pytest.mark.parametrize(
    "f, dim",
    [(F(s), n), (-sp.log(s) - 10 * s ** sp.Rational(-1, 2), 3)],
    ids=["generic", "-ln(s)-10*s^(-0.5)"],
)
def test_phi_prime_is_s_to_the_q_times_lhs(f, dim):
    qd = (dim - 1) / sp.S(dim)
    assert sp.simplify(sp.diff(phi(f, s, qd), s) - s**qd * lhs(f, s, dim)) == 0


def test_phi_of_the_example():
    f = -sp.log(s) - 10 * s ** sp.Rational(-1, 2)
    want = (5 * s - s ** sp.Rational(3, 2)) / s ** sp.Rational(11, 6)
    assert sp.simplify(phi(f, s, sp.Rational(2, 3)) - want) == 0


@pytest.mark.parametrize("dim", [n, 3], ids=["generic", "n=3"])
def test_the_reduction_slope_is_n_phi(dim):
    u = F(t**dim)
    slope = dim * phi(F(s), s, (dim - 1) / sp.S(dim)).subs(s, t**dim)
    assert sp.simplify(sp.diff(u, t) - slope) == 0


def test_forced_closed_form():
    y = (xi**q * eta + eps * (x ** (q + 1) - xi ** (q + 1)) / (q + 1)) / x**q
    assert sp.simplify(sp.diff(y, x) + q * y / x - eps) == 0
    assert sp.simplify(y.subs(x, xi) - eta) == 0
    x_star = (xi ** (q + 1) - (q + 1) * xi**q * eta / eps) ** (1 / (q + 1))
    assert sp.simplify(y.subs(x, x_star)) == 0
    # the crossing that c10 reports for xi = 1, eta = -1.5, eps = 0.1, n = 3
    value = x_star.subs({xi: 1, eta: sp.Rational(-3, 2), eps: sp.Rational(1, 10), n: 3})
    assert value == 26 ** sp.Rational(3, 5)
    assert f"{float(value):.4f}" == "7.0629"
