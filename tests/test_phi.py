"""The integrating factor phi(s) = s^q f'(s), q = (n-1)/n, over the
library's jets.

phi' = s^q lhs, so f' <= 0 and lhs >= 0 say that phi is nonpositive and
nondecreasing.  Per member of the built-in corpus at n = 2, 3, 5, a
central difference of phi matches s^q lhs, and the certifier's grid
verdict is that reading of phi.  The limiting equation y' + (q/x) y = 0
of the slope is phi = const, solved by eta xi^q x^(-q); the forced
equation y' = -q y/x + eps is solved by eta xi^q x^(-q) plus
eps (x - xi^(q+1) x^(-q))/(q+1), which crosses zero at
x* = (xi^(q+1) - (q+1) xi^q eta/eps)^(1/(q+1)).
"""

import numpy as np
import pytest

from detconvex import certifier, detcalculus
from detconvex.certifier import CERTIFIED, GridSpec, certify
from detconvex.scalarfun import Add, eval_jet, family

GRID = GridSpec(1e-2, 1e2, 200)
CORPUS = [(n, f) for n in (2, 3, 5) for f in detcalculus.builtin_corpus(n)]
CORPUS_IDS = [f"n={n}-{f!r}" for n, f in CORPUS]


@pytest.mark.parametrize("n, f", CORPUS, ids=CORPUS_IDS)
def test_phi_prime_matches_s_to_the_q_times_lhs(n, f):
    q = (n - 1) / n
    s = GRID.points()
    h = 1e-5 * s
    phi_p = (s + h) ** q * eval_jet(f, s + h).d1
    phi_m = (s - h) ** q * eval_jet(f, s - h).d1
    exact = s**q * certifier.diff_ineq_lhs(f, s, n)
    err = np.abs((phi_p - phi_m) / (2.0 * h) - exact) / (1.0 + np.abs(exact))
    assert err.max() <= 1e-6


@pytest.mark.parametrize("n, f", CORPUS, ids=CORPUS_IDS)
def test_the_grid_verdict_reads_phi(n, f):
    s = GRID.points()
    phi = s ** ((n - 1) / n) * eval_jet(f, s).d1
    admissible = bool(np.all(phi <= 0.0) and np.all(np.diff(phi) >= -1e-12 * np.abs(phi[:-1])))
    assert (certify(f, n, GRID).verdict == CERTIFIED) == admissible


SPEC = (1.0, -1.5, 3)  # xi, eta, n


def constant_phi(xi, eta, n):
    q = (n - 1) / n
    return family("power", c=eta * xi**q, p=-q)


class TestConstantPhi:
    def test_initial_condition(self):
        assert eval_jet(constant_phi(*SPEC), 1.0).v == -1.5

    def test_decay_value(self):
        assert abs(eval_jet(constant_phi(*SPEC), 8.0).v - (-0.375)) <= 1e-15

    def test_zero_eta_identically_zero(self):
        for x in (0.1, 1.0, 50.0):
            assert eval_jet(constant_phi(2.0, 0.0, 3), x).v == 0.0

    def test_ode_residual_via_jets(self):
        for x in np.geomspace(1e-2, 1e2, 100):
            jet = eval_jet(constant_phi(*SPEC), float(x))
            assert abs(jet.d1 + 2.0 / (3.0 * x) * jet.v) <= 1e-12 * (1.0 + abs(jet.v))

    def test_never_crosses_zero(self):
        # without forcing, a negative slope stays negative
        xs = np.geomspace(1e-2, 1e2, 500)
        assert np.all(eval_jet(constant_phi(*SPEC), xs).v < 0.0)


FORCED = [(1.0, -1.5, 0.1, 3), (2.0, -0.5, 0.3, 2), (0.5, -2.0, 1.0, 5)]


@pytest.mark.parametrize("xi, eta, eps, n", FORCED)
def test_forced_closed_form_crosses_zero_at_x_star(xi, eta, eps, n):
    q = (n - 1) / n
    b = eps / (q + 1.0)
    a = xi**q * eta - b * xi ** (q + 1.0)
    forced = Add(family("power", c=a, p=-q), family("power", c=b, p=1.0))
    x_star = (xi ** (q + 1.0) - (q + 1.0) * xi**q * eta / eps) ** (1.0 / (q + 1.0))
    xs = np.geomspace(1e-2, 1e3, 400)
    jet = eval_jet(forced, xs)
    assert np.all(np.abs(jet.d1 + (q / xs) * jet.v - eps) <= 1e-12 * (1.0 + np.abs(jet.d1)))
    assert abs(eval_jet(forced, xi).v - eta) <= 1e-12
    assert abs(eval_jet(forced, x_star).v) <= 1e-12
    assert np.all((jet.v < 0.0) == (xs < x_star))
