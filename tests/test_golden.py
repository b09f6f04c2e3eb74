"""Byte-identity net for the command line: stdout and exit code of fixed
command lines against the golden files under ``tests/golden/``.

The files were written by the package before the matrices and grid
columns became plain arrays; the certify files were regenerated when the
sweep moved to one PCG64 stream per block, which changed their ``rng``
tag and the ``min_hess_form`` of the two that sweep.  The witness
lines ``fd oracle (h=...) = ...`` and the witness ``fd`` field of
``certify_s.json`` were regenerated when the fd oracle moved to
Richardson's extrapolation over steps 16 times longer, the only bytes
that changed.  A change that alters any report byte must regenerate
them on purpose;
``certify_exp.json`` will change when a domain failure no longer hides
the refutation of exp(s).  ``certify_mixed_dim5.json`` and
``certify_neg_ln_dim10.json`` pin sweeps of more than one block at n=5
and n=10; they were written before the sweep's floor moved to a
Cholesky proof and its determinants and jets to one call per block.
All five certify files were regenerated when the draws moved to
Householder frames from two streams per seed word, one positive
definite draw per sweep block and determinants from the drawn spectrum:
only their ``rng`` tag and, in the four that sweep, ``min_hess_form``
changed.  They were regenerated again, with the same two fields
changing, when the sweep moved to the eigenbasis of C and A1.  When the
sweep's quadratic form moved from a LAPACK solve on the diagonal C to
C's drawn spectrum, and its extremes to finite values only, no byte of
any file changed, so none was regenerated.  All five certify files were
regenerated when the ``failing_points`` list gave way to the
``grid_failures`` runs; with that key removed, each is byte-identical to
its previous version.  They were regenerated again when the sweep's
midpoint pair moved into one diagonal basis, and only their ``rng`` tag
changed.  They were regenerated again when the sweep moved from blocks
of 256 samples to one PCG64 stream, one row per sample: only the ``rng``
tag and, in the four that sweep, ``min_hess_form`` changed.  They were
regenerated again when the report gained the sweep's failure counts,
its other extremes and the worst samples' indices, and only their
``diagnostics`` changed.  All seven certify files were regenerated when
the sweep moved from a quadratic form per sample to the two conditions
at det C, with 3n draws per sample: only their ``rng`` tag and
``diagnostics`` changed, and no verdict or exit code.  The two at
``--samples 0`` changed only in the ``-1`` worst-sample indices of the
new condition fields.  The five files that hold a witness
(``certify_s.json``, ``certify_grid_mixed.json``,
``certify_ln_dim1.json``, ``witness_s.txt``, ``witness_neg_s.txt``) were
regenerated when both witness kinds moved to the one pair C = s^(1/n) I,
H = s^(1/n) D: only the witness matrices, the analytic and fd values and
the fd step changed, and the witness of ``certify_ln_dim1.json`` moved
from the retry's s = 1.00035 to the first violating point, s = 1e-3.

``certify_grid_mixed.json`` and ``certify_ln_dim1.json`` pin the grid
pass alone (``--samples 0``) at the 20000 points of the grid benchmark:
the first fails both conditions and is refuted by a slope and a
second-order witness, the second takes the n = 1 branch, where f' >= 0
is not a condition.  They were written before the grid pass dropped its
bookkeeping array passes, which must leave every column bit, and so
every report byte, where it was.  When the jet evaluator moved from a
recursive walk to a compiled program over one workspace, no byte of any
file changed, so none was regenerated.  ``certify_ln_dim1.json`` and
``witness_neg_s.txt`` were regenerated when the fd stencil moved its
determinants from LU to the Cholesky factors that test its step: only
the witness ``fd`` digits changed.
"""

from pathlib import Path

import pytest

from detconvex.cli import main

GOLDEN = Path(__file__).parent / "golden"
CERTIFY = ("--dim", "3", "--no-timestamp", "--samples", "50", "--grid-count", "200")

CASES = [
    ("certify_neg_ln.json", 0, ("certify", "-f", "-ln(s)", *CERTIFY)),
    ("certify_s.json", 1, ("certify", "-f", "s", *CERTIFY)),
    ("certify_exp.json", 2, ("certify", "-f", "exp(s)", *CERTIFY)),
    # the default 1000 samples, one pass at n = 5, with slope failures
    # beyond the grid
    (
        "certify_mixed_dim5.json",
        0,
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
    ("witness_s.txt", 0, ("witness", "-f", "s")),
    ("witness_neg_s.txt", 0, ("witness", "-f", "-s")),
]


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_match_the_golden_file(capsys, name, code, argv):
    assert main(list(argv)) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
