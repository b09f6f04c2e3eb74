"""Byte-identity net for the command line: stdout and exit code of fixed
command lines against the golden files under ``tests/golden/``.

What the files pin:

- ``certify_neg_ln.json``, ``certify_s.json`` and ``certify_exp.json``:
  a certified, a refuted and an inconclusive report (exp(s) overflows
  inside the grid, which cuts it) at n = 3 with a 50-sample sweep.
- ``certify_mixed_dim5.json``: the default 1000-sample sweep at n = 5,
  and a slope witness that only the beyond-grid pass finds.
- ``certify_neg_ln_dim10.json``: a sweep at n = 10 and a beyond-grid
  pass that fails nothing.
- ``certify_grid_mixed.json`` and ``certify_ln_dim1.json``: the grid pass
  alone (``--samples 0``) at the grid benchmark's 20000 points; the first
  fails both conditions and holds both witness kinds, the second takes
  the n = 1 branch, where f' >= 0 is not a condition.
- ``certify_neohooke.json``, ``certify_fa_dim5.json`` and
  ``certify_power_flat.json``: family specs and the report lines that
  the spec alone gives, the Neo-Hooke note at n = 3 and the note on the
  fa family's exponent at n = 5, and the closed form's annotation for
  c = 1e-12, p = 1, which no witness confirms.
- ``witness_s.txt`` and ``witness_neg_s.txt``: the witness command's
  lines for each witness kind.
- ``curves/``: the five CSV files of ``curves --count 20`` with one extra
  family member, and their names.

A change that moves no report byte leaves every file as it is: a
refactor, a speed-up or a new check that passes.  A change that moves a
byte on purpose (a report field, a verdict rule, the sweep's draws, the
witness construction) regenerates the files it moves, in the same
change, by running their command lines below, and says in the change
log which files moved and which fields in them.  Each witness of a
regenerated certify file is re-checked at 50 digits
(``test_gap_witnesses_recompute_below_zero``).
"""

import json
from pathlib import Path

import mpmath
import pytest

from detconvex.cli import main

GOLDEN = Path(__file__).parent / "golden"
CERTIFY = ("--dim", "3", "--no-timestamp", "--samples", "50", "--grid-count", "200")

CASES = [
    ("certify_neg_ln.json", 0, ("certify", "-f", "-ln(s)", *CERTIFY)),
    ("certify_s.json", 1, ("certify", "-f", "s", *CERTIFY)),
    ("certify_exp.json", 2, ("certify", "-f", "exp(s)", *CERTIFY)),
    # the default 1000 samples, one pass at n = 5, refuted by a slope
    # failure beyond the grid
    (
        "certify_mixed_dim5.json",
        1,
        ("certify", "-f", "-ln(s)+1e-7*s^2", "--dim", "5", "--seed", "3", "--no-timestamp"),
    ),
    (
        "certify_neg_ln_dim10.json",
        0,
        ("certify", "-f", "-ln(s)", "--dim", "10", "--samples", "300", "--seed", "4",
         "--no-timestamp"),
    ),
    # the grid pass alone at the grid benchmark's size: both conditions fail
    (
        "certify_grid_mixed.json",
        1,
        ("certify", "-f", "-s*ln(s)+s^2/(1+s)", "--samples", "0", "--grid-count", "20000",
         "--no-timestamp"),
    ),
    # n = 1, where only f'' >= 0 applies
    (
        "certify_ln_dim1.json",
        1,
        ("certify", "-f", "ln(s)", "--dim", "1", "--samples", "0", "--grid-count", "20000",
         "--no-timestamp"),
    ),
    ("certify_neohooke.json", 0, ("certify", "-f", "family:neohooke:mu=2", *CERTIFY)),
    (
        "certify_fa_dim5.json",
        0,
        ("certify", "-f", "family:fa:a=0.5", *CERTIFY[2:], "--dim", "5"),
    ),
    ("certify_power_flat.json", 2, ("certify", "-f", "family:power:c=1e-12,p=1", *CERTIFY)),
    ("witness_s.txt", 0, ("witness", "-f", "s")),
    ("witness_neg_s.txt", 0, ("witness", "-f", "-s")),
]


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_match_the_golden_file(capsys, name, code, argv):
    assert main(list(argv)) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_curve_files_match_the_golden_files(capsys, tmp_path):
    argv = ["curves", "--count", "20", "-f", "family:fa:a=0.9,c=-1,d=0", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    golden = sorted((GOLDEN / "curves").glob("*.csv"))
    assert len(golden) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in golden]
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# f of each certify golden that holds a witness, in mpmath at the floats
# the parser reads
MP_F = {
    "certify_s.json": lambda s: s,
    "certify_mixed_dim5.json": lambda s: -mpmath.log(s) + mpmath.mpf(1e-7) * s**2,
    "certify_grid_mixed.json": lambda s: -s * mpmath.log(s) + s**2 / (1 + s),
    "certify_ln_dim1.json": mpmath.log,
}


@pytest.mark.parametrize("name", sorted(MP_F))
def test_gap_witnesses_recompute_below_zero(name):
    # g(C + tau H) + g(C - tau H) - 2 g(C) from the reported C, H and tau
    # at 50 digits: a counterexample to convexity, and the reported gap
    # to within its rounding bound
    witnesses = json.loads((GOLDEN / name).read_text())["witnesses"]
    assert witnesses and all(w["confirmed_by"] == "gap" for w in witnesses)
    f = MP_F[name]
    with mpmath.workdps(50):
        for w in witnesses:
            c, h, tau = mpmath.matrix(w["C"]), mpmath.matrix(w["H"]), mpmath.mpf(w["tau"])
            gap = f(mpmath.det(c + tau * h)) + f(mpmath.det(c - tau * h)) - 2 * f(mpmath.det(c))
            assert gap < 0, w["kind"]
            assert abs(gap - w["gap"]) <= w["gap_bound"], (w["kind"], gap)
