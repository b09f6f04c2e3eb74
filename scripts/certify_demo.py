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
from detconvex.scalarfun import FamilyA, NeoHookeVolumetric, PowerLaw, parse

CASES = [
    ("-ln(s)", parse("-ln(s)")),
    ("s", parse("s")),
    ("-s", parse("-s")),
    ("-sqrt(s)", parse("-sqrt(s)")),
    ("s^(1/3) (increasing)", parse("s^(1/3)")),
    ("neo-hooke mu=2", NeoHookeVolumetric(mu=2.0)),
    ("family a=0", FamilyA(a=0.0, c=-1.0, d=0.0, n=3)),
    ("family a=2", FamilyA(a=2.0, c=-1.0, d=0.0, n=3)),
    ("power p=0.5 c=-1", PowerLaw(c=-1.0, p=0.5, d=0.0)),
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
    for label, f in CASES:
        if isinstance(f, FamilyA) and f.n != args.dim:
            f = FamilyA(a=f.a, c=f.c, d=f.d, n=args.dim)
        rep = certify(f, args.dim, grid, samples=args.samples, seed=args.seed)
        kinds = ",".join(w.kind for w in rep.witnesses) or "-"
        b, diag = rep.beyond_grid, rep.diagnostics
        beyond = "-" if b is None else f"{b.lhs_bad.sum()}/{b.fprime_bad.sum()}"
        midpoint = "-" if diag is None else diag.midpoint_failures
        print(f"{label:<24} {rep.verdict:<16} {kinds:<20} {beyond:<18} {midpoint}")


if __name__ == "__main__":
    main()
