"""Byte-identity net for the command line: stdout and exit code of fixed
command lines against the golden files under ``tests/golden/``.

The files were written by the package before the matrices and grid
columns became plain arrays.  A change that alters any report byte must
regenerate them on purpose; ``certify_exp.json`` will change when a
domain failure no longer hides the refutation of exp(s).
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
    ("witness_s.txt", 0, ("witness", "-f", "s")),
    ("witness_neg_s.txt", 0, ("witness", "-f", "-s")),
]


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_match_the_golden_file(capsys, name, code, argv):
    assert main(list(argv)) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
