"""Workloads of the detconvex benchmark and the closed forms that judge them.

Each workload is a fixed list of top-level ``detconvex`` command lines (one
"pass").  The benchmark seed only picks the ``--seed`` handed to each call,
so every pass of a run repeats identical calls and any two runs with the
same seed issue the same calls.

Accepted verdict sets below are derived by hand from the closed-form
conditions ``f'(s) <= 0`` and ``lhs(s) = f''(s) + (n-1)/(n s) f'(s) >= 0``
on the default grid ``[1e-3, 1e3]``; ``test_perfbench.py`` re-derives them
with mpmath.  They are never taken from the program's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CERTIFIED = "CertifiedOnGrid"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# README exit-code table for ``certify``.
VERDICT_EXIT = {CERTIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}


@dataclass(frozen=True)
class Spec:
    """A function spec with its hand-derived verdict set.

    ``f(s, n, m)`` evaluates the function with the math module ``m``
    (``math`` for the witness re-check, ``mpmath`` in the self-test).
    """

    text: str
    accepted: frozenset
    f: object
    derivation: str


def _fa_half(s, n, m):
    # family fa, a=0.5 > 1/n, c=-1, d=0: inverted branch d - c*s^q = s^q,
    # q = 1/n - a < 0
    return s ** (1.0 / n - 0.5)


SPECS = {
    s.text: s
    for s in (
        Spec("-ln(s)", frozenset({CERTIFIED}), lambda s, n, m: -m.log(s),
             "f'=-1/s<0, lhs=1/(n s^2)>0"),
        Spec("family:fa:a=0.5", frozenset({CERTIFIED}), _fa_half,
             "f=s^q, q=1/n-1/2<0: f'=q s^(q-1)<0, lhs=q(q-1/n) s^(q-2)=-a q s^(q-2)>0"),
        Spec("family:neohooke:mu=2", frozenset({CERTIFIED}), lambda s, n, m: -2 * m.log(s),
             "f'=-2/s<0, lhs=2/(n s^2)>0"),
        Spec("family:power:p=0.5", frozenset({REFUTED}), lambda s, n, m: -(s**0.5),
             "f=-s^(1/2): lhs=s^(-3/2)(1/4-(n-1)/(2n))<0 for n>=2"),
        Spec("s", frozenset({REFUTED}), lambda s, n, m: s, "f'=1>0"),
        Spec("-ln(s)+1e-7*s^2", frozenset({CERTIFIED, REFUTED}),
             lambda s, n, m: -m.log(s) + 1e-7 * s * s,
             "lhs>0 everywhere; f'=-1/s+2e-7 s<0 on the grid but >0 beyond s=sqrt(5e6)~2236, "
             "which the sweep's det range can reach"),
        Spec("exp(s)", frozenset({REFUTED}), lambda s, n, m: m.exp(s),
             "f'=e^s>0 at every grid point before the overflow near s=709.8"),
        Spec("-sqrt(s)", frozenset({REFUTED}), lambda s, n, m: -m.sqrt(s),
             "same function as family:power:p=0.5"),
        Spec("1/s", frozenset({CERTIFIED}), lambda s, n, m: 1 / s,
             "f'=-1/s^2<0, lhs=s^(-3)(2-(n-1)/n)>0"),
        Spec("s^(1/3)", frozenset({REFUTED}), lambda s, n, m: s ** (1.0 / 3.0),
             "f'=s^(-2/3)/3>0"),
        Spec("-s*ln(s)+s^2/(1+s)", frozenset({REFUTED}),
             lambda s, n, m: -s * m.log(s) + s * s / (1 + s),
             "f'=-ln(s)-1/(1+s)^2>0 for s<~0.5 (e.g. 5.9 at s=1e-3)"),
    )
}

# Failures present at the commit that introduced the benchmark.  They are
# still counted in ``failed``; they only keep ``correct`` true, so that a
# new failure stands out.  Key: (spec, reason code, observed verdict).
KNOWN_DEFECTS = {
    ("exp(s)", "verdict", INCONCLUSIVE): (
        "the first domain error (overflow near s=709.8) aborts the grid pass, "
        "so the grid points with f'>0 before it never yield a witness"
    ),
    (None, "oracle_tolerance", None): (
        "at n=10 the fd second difference misses the 1e-5 tolerance on about one "
        "seed in 100 (oracle --dim 10 --samples 28 --seed 727168335: sample 3, "
        "f=s-1, discrepancy 1.25e-5)"
    ),
}


@dataclass(frozen=True)
class Call:
    """One top-level command line; ``spec`` is None for ``oracle``."""

    argv: tuple
    kind: str
    spec: str | None
    n: int
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    specs: tuple
    dims: tuple
    extra: tuple
    tiny_extra: tuple
    # seconds of one pass at the seed, in reference seconds (see run.py)
    nominal_pass_s: float
    calls_per_pass: int = 1

    def passes(self, seconds: float) -> int:
        """Whole passes that fill about ``seconds`` at the seed's speed; at
        least one.  The count depends only on ``seconds``, so runs compare
        equal work."""
        return max(1, int(seconds / self.nominal_pass_s))

    def calls(self, seed: int, tiny: bool = False) -> list:
        """The pass for benchmark seed ``seed``: program seeds come from it."""
        rng = random.Random(seed)
        extra = self.tiny_extra if tiny else self.extra
        out = []
        if self.kind == "oracle":
            for n in self.dims:
                for _ in range(self.calls_per_pass):
                    s = rng.randrange(2**31)
                    argv = ("oracle", "--dim", str(n), "--seed", str(s)) + extra
                    out.append(Call(argv, "oracle", None, n, s))
            return out
        for n in self.dims:
            for spec in self.specs:
                s = rng.randrange(2**31)
                argv = ("certify", "-f", spec, "--dim", str(n), "--seed", str(s),
                        "--no-timestamp") + extra
                out.append(Call(argv, "certify", spec, n, s))
        return out

    def setup_items(self) -> list:
        """(spec, n) pairs a fresh process parses during set-up."""
        return [(spec, n) for n in self.dims for spec in self.specs]


_SWEEP_SPECS = ("-ln(s)", "family:fa:a=0.5", "family:neohooke:mu=2", "family:power:p=0.5",
                "s", "-ln(s)+1e-7*s^2", "exp(s)")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify_sweep",
            why="certify at its defaults (1000-point grid, 1000-sample sweep), n=3 and n=5: "
                "what users run; random draws, Jacobi, det and the Hessian form dominate",
            kind="certify",
            specs=_SWEEP_SPECS,
            dims=(3, 5),
            extra=(),
            tiny_extra=("--grid-count", "100", "--samples", "20"),
            nominal_pass_s=17.0,
        ),
        Workload(
            name="certify_grid",
            why="certify --samples 0 on a 20000-point grid at n=3: jet evaluation, the grid "
                "loop, witnesses and JSON output, with no sweep and almost no linalg",
            kind="certify",
            specs=_SWEEP_SPECS + ("-sqrt(s)", "1/s", "s^(1/3)", "-s*ln(s)+s^2/(1+s)"),
            dims=(3,),
            extra=("--samples", "0", "--grid-count", "20000"),
            tiny_extra=("--samples", "0", "--grid-count", "400"),
            nominal_pass_s=2.5,
        ),
        Workload(
            name="oracle_n10",
            why="oracle --dim 10 on the built-in corpus: the same linalg layer at larger n, "
                "dominated by Jacobi, Cholesky admissibility checks and fd evaluations",
            kind="oracle",
            specs=(),
            dims=(10,),
            # 28 samples visit each of the 7 corpus functions 4 times
            extra=("--samples", "28"),
            tiny_extra=("--samples", "7"),
            nominal_pass_s=0.83,
            calls_per_pass=4,
        ),
    )
}
