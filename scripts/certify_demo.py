#!/usr/bin/env python3
"""Certify a spread of scalar functions and print a verdict table.

Each row is one ``certify`` call, which runs the beyond-grid pass and
the randomized midpoint sweep too.  It shows the verdict next to the
beyond-grid pass's failing points of the two conditions, lhs and
f' <= 0 ("-" when the pass adds no point, as at n <= 3), and the
sweep's midpoint failures, so certified and refuted cases can be
compared at a glance.
"""

import argparse

from detconvex.certifier import GridSpec, certify
from detconvex.cli import parse_function_spec

# (label, function as the CLI's --function takes it)
CASES = [
    ("-ln(s)", "-ln(s)"),
    ("s", "s"),
    ("-s", "-s"),
    ("-sqrt(s)", "-sqrt(s)"),
    ("s^(1/3) (increasing)", "s^(1/3)"),
    ("neo-hooke mu=2", "family:neohooke:mu=2"),
    ("family a=0", "family:fa:a=0"),
    ("family a=2", "family:fa:a=2"),
    ("power p=0.5 c=-1", "family:power:p=0.5"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--samples", type=int, default=300, help="sampling sweep size (0 skips)")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.samples < 0:
        ap.error(f"--samples must be >= 0, got {args.samples}")

    grid = GridSpec(1e-3, 1e3, 500)
    print(f"{'function':<24} {'verdict':<16} {'witness':<20} {'beyond lhs/slope':<18} midpoint")
    for label, spec in CASES:
        f = parse_function_spec(spec, args.dim)
        rep = certify(f, args.dim, grid, samples=args.samples, seed=args.seed)
        kinds = ",".join(w.kind for w in rep.witnesses) or "-"
        b, diag = rep.beyond_grid, rep.diagnostics
        beyond = "-" if b is None else f"{b.lhs_bad.sum()}/{b.fprime_bad.sum()}"
        midpoint = "-" if diag is None else diag.midpoint_failures
        print(f"{label:<24} {rep.verdict:<16} {kinds:<20} {beyond:<18} {midpoint}")


if __name__ == "__main__":
    main()
