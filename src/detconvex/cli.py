"""Command-line front end.

Subcommands: certify, witness, curves, oracle, selftest.  Reports are
deterministic given the same flags and seed: JSON field order is fixed,
floats serialize as shortest round-trip decimals, and the timestamp can be
suppressed with --no-timestamp.

``main(argv)`` may be called any number of times in one process.  It
builds its argument parser on the first call and reuses it afterwards;
each call still parses its own arguments and computes its own report.

The certify report, ``json.dumps(report, indent=2)``, is one
``certifier.certify`` report, beyond-grid pass, sweep and annotations
included, with the run's flags.  It summarizes the failing grid points
per condition as runs of consecutive column indices, and the
beyond-grid pass by its counts and first failures; the library report
keeps every point's values.

Exit codes for certify: 0 certified on grid, 1 refuted, 2 inconclusive,
3 usage or parse error, or an output path that cannot be written.  Any
command that cannot finish because a function fails to evaluate, an
eigensolver does not converge, or a matrix falls below the positivity
floor or has no Cholesky factor exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, certifier, detcalculus, scalarfun
from .certifier import CERTIFIED, INCONCLUSIVE, REFUTED, RNG_ALGORITHM, GridSpec
from .errors import (
    ConvergenceError,
    DomainError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
    ParseError,
)

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {CERTIFIED: EXIT_CERTIFIED, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE}

# Largest sizes the commands accept; larger values exit 3 before anything
# is allocated.  The grid pass holds several arrays of --grid-count floats,
# the curve export writes --count lines per curve, the sweep draws and
# evaluates its samples pass after pass with 2n draws per sample, and the
# oracle's solves and eigendecompositions grow as n^3.
MAX_DIM = 64
MAX_GRID_COUNT = 200_000
MAX_SAMPLES = 1_000_000
# The oracle holds all its samples as (--samples, n, n) stacks and its
# stencil as five copies of them, C and four perturbed, next to their
# Cholesky factors of the same size (the stencil's t*H temporary is freed
# first): --samples * n^2 entries per stack at most; oracle --dim 64
# --samples 256 peaks at about 145 MB.
MAX_ORACLE_ENTRIES = 2**20


# family name -> (class, default parameters); None marks a required one
_FAMILIES = {
    "fa": (scalarfun.FamilyA, {"a": None, "c": -1.0, "d": 0.0}),
    "power": (scalarfun.PowerLaw, {"p": None, "c": -1.0, "d": 0.0}),
    "log": (scalarfun.LogFamily, {"c": -1.0, "d": 0.0}),
    "neohooke": (scalarfun.NeoHookeVolumetric, {"mu": 1.0}),
}


def parse_function_spec(spec: str, n: int):
    """Expression text or ``family:<name>:k=v,...`` -> evaluable function."""
    if not spec.startswith("family:"):
        return scalarfun.parse(spec)
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ParameterError(f"malformed family spec {spec!r}")
    name = parts[1]
    if name not in _FAMILIES:
        raise ParameterError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    cls, defaults = _FAMILIES[name]
    params = dict(defaults)
    if len(parts) == 3 and parts[2]:
        for item in parts[2].split(","):
            if "=" not in item:
                raise ParameterError(f"malformed family parameter {item!r} (expected k=v)")
            k, v = item.split("=", 1)
            k = k.strip()
            if k not in params:
                raise ParameterError(f"unknown parameter {k!r} for family {name!r}")
            try:
                params[k] = float(v)
            except ValueError:
                raise ParameterError(f"parameter {k}={v!r} is not a number") from None
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ParameterError(f"family {name!r} requires parameters: {', '.join(missing)}")
    if cls is scalarfun.FamilyA:
        params["n"] = n
    return cls(**params)


def _grid_failures(report) -> dict:
    """The grid points failing either condition, counted, and per
    condition: its count, the maximal runs of consecutive failing column
    indices (both ends inclusive, with their s), and its worst point, the
    largest finite failing f' or the smallest finite failing lhs (the
    first on ties; null when none is finite)."""
    s = report.s
    doc = {"points": len(s) - int(np.count_nonzero(report.fprime_ok & report.lhs_ok))}
    for key, values, ok, worst, never in (
        ("fprime", report.fprime, report.fprime_ok, np.argmax, -math.inf),
        ("lhs", report.lhs, report.lhs_ok, np.argmin, math.inf),
    ):
        idx = np.flatnonzero(~ok)
        breaks = np.flatnonzero(np.diff(idx) != 1)
        starts = np.concatenate((idx[:1], idx[breaks + 1]))
        ends = np.concatenate((idx[breaks], idx[-1:]))
        runs = zip(starts.tolist(), ends.tolist(), s[starts].tolist(), s[ends].tolist())
        failing = values[idx]
        finite = np.isfinite(failing)
        at = None
        if finite.any():
            failing[~finite] = never
            k = int(idx[worst(failing)])
            at = {"s": float(s[k]), "value": float(values[k])}
        doc[key] = {
            "points": len(idx),
            "runs": [{"from": i, "to": j, "s_from": a, "s_to": b} for i, j, a, b in runs],
            "worst": at,
        }
    return doc


def _finite(x):
    """x, or None where it is not finite, so that the report is strict JSON."""
    return x if math.isfinite(x) else None


def _beyond_grid_json(b) -> dict | None:
    """The beyond-grid pass: its range, its points and those skipped, and
    per condition its failing points and the first of them, with its
    value (null when not finite); null when the pass adds no point."""
    if b is None:
        return None
    doc = {"s_min": b.grid.s_min, "s_max": b.grid.s_max, "points": len(b.s), "skipped": b.skipped}
    for key, values, bad in (("fprime", b.fprime, b.fprime_bad), ("lhs", b.lhs, b.lhs_bad)):
        k = int(np.argmax(bad))
        first = {"s": float(b.s[k]), "value": _finite(float(values[k]))} if bad[k] else None
        doc[key] = {"points": int(np.count_nonzero(bad)), "first": first}
    return doc


def _diagnostics_json(d) -> dict:
    """The sweep's counts, extremes and worst sample index; an extreme
    over no finite value and its index are null, not +-inf and -1, and
    without a sweep the counts are 0."""
    if d is None:
        d = certifier.ConvexitySampleDiagnostics(0, 0, math.inf, -math.inf, 0, -1)
    return {
        "samples_run": d.samples_run,
        "samples_skipped": d.samples_skipped,
        "max_midpoint_residual": _finite(d.max_midpoint_residual),
        "max_midpoint_sample": d.max_midpoint_sample if d.max_midpoint_sample >= 0 else None,
        "min_midpoint_residual": _finite(d.min_midpoint_residual),
        "midpoint_failures": d.midpoint_failures,
    }


def _report_json(args, report) -> dict:
    """The certify report document, from one ``certify`` report and the flags."""
    doc = {
        "version": __version__,
        "function_source": args.function,
        "n": report.n,
        "grid": {
            "s_min": report.grid.s_min,
            "s_max": report.grid.s_max,
            "count": report.grid.count,
        },
        "tol": report.tol,
        "verdict": report.verdict,
        "grid_failures": _grid_failures(report),
        "beyond_grid": _beyond_grid_json(report.beyond_grid),
        "witnesses": [
            {
                "kind": w.kind,
                "s": w.s_star,
                "det_c": w.det_c,
                "C": w.c.tolist(),
                "H": w.h.tolist(),
                "analytic": w.analytic_value,
                **{key: _finite(getattr(w, key)) for key in ("tau", "gap", "gap_bound")},
                "confirmed_by": w.confirmed_by,
            }
            for w in report.witnesses
        ],
        "diagnostics": _diagnostics_json(report.diagnostics),
        "analytic_convex": report.analytic_convex,
        "annotations": list(report.annotations),
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
    }
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _cmd_certify(args) -> int:
    f = parse_function_spec(args.function, args.dim)
    grid = GridSpec(args.s_min, args.s_max, args.grid_count)
    report = certifier.certify(f, args.dim, grid, args.tol, args.samples, args.seed)
    # json.dumps ends the document without a newline
    text = json.dumps(_report_json(args, report), indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def _fmt_matrix(m) -> str:
    return "\n".join("  [" + ", ".join(repr(v) for v in row) + "]" for row in m.tolist())


def _cmd_witness(args) -> int:
    f = parse_function_spec(args.function, args.dim)
    grid = GridSpec(args.s_min, args.s_max, args.grid_count)
    report = certifier.certify(f, args.dim, grid, args.tol)
    if report.verdict == CERTIFIED:
        print("no violation found on grid")
        return EXIT_CERTIFIED
    if report.verdict == INCONCLUSIVE:
        print("\n".join(report.annotations))
        return EXIT_INCONCLUSIVE
    w = report.witnesses[0]
    print(f"witness kind={w.kind} at s={w.s_star!r}")
    print(f"det C = {w.det_c!r}")
    print("C =", _fmt_matrix(w.c), "H =", _fmt_matrix(w.h), sep="\n")
    print(f"analytic D2g(C).(H,H) = {w.analytic_value!r}")
    print(f"gap g(C+tau H) + g(C-tau H) - 2 g(C) at tau={w.tau!r} = {w.gap!r}, bound {w.gap_bound!r}")
    print(f"confirmed: {'yes' if w.confirmed else 'no'}")
    print(f"confirmed by: {w.confirmed_by}")
    return EXIT_CERTIFIED


def _slug(label: str) -> str:
    """The label's letters and digits, with its signs as m and p, so that
    labels that differ in a sign differ."""
    out = re.sub(r"[^A-Za-z0-9]+", "_", label.replace("-", "_m_").replace("+", "_p_")).strip("_")
    return out or "curve"


def _cmd_curves(args) -> int:
    extras = [parse_function_spec(args.function, args.dim)] if args.function else []
    curves = scalarfun.export_family_curves(extras, GridSpec(args.s_min, args.s_max, args.count))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, curve in enumerate(curves):
        path = outdir / f"curve{i:02d}_{_slug(curve.label)}.csv"
        path.write_text(curve.to_csv())
        print(path)
    return EXIT_CERTIFIED


def _cmd_oracle(args) -> int:
    if args.samples * args.dim**2 > MAX_ORACLE_ENTRIES:
        raise ParameterError(
            f"--samples {args.samples} at --dim {args.dim} exceeds the limit of "
            f"{MAX_ORACLE_ENTRIES} entries per stack (--samples * --dim^2)"
        )
    functions = None
    label = "builtin corpus"
    if args.function:
        functions = [parse_function_spec(args.function, args.dim)]
        label = args.function
    res = detcalculus.oracle_sweep(args.dim, args.samples, args.seed, functions=functions)
    print(f"oracle sweep: n={args.dim} samples={args.samples} seed={args.seed} f={label}")
    for kind, disc, tol in (
        ("hess", res.hess_disc, detcalculus.ORACLE_HESS_TOL),
        ("grad", res.grad_disc, detcalculus.ORACLE_GRAD_TOL),
    ):
        low, high = float(disc.min()), float(disc.max())
        print(f"{kind} discrepancy: min={low!r} max={high!r} tol={tol!r}")
    print(f"skipped: {res.skipped}")
    hess_row, grad_row = (int(res.samples[d.argmax()]) for d in (res.hess_disc, res.grad_disc))
    print(
        f"worst samples: hess={hess_row} grad={grad_row} "
        f"richardson_est={float(res.richardson.max())!r}"
    )
    return EXIT_CERTIFIED if res.all_agree else EXIT_REFUTED


# Built on the first main() call and reused by every later one: building
# the six parsers takes half as long as an oracle run of 28 samples at
# n = 10.  parse_args leaves a parser as it found it, so calls share
# nothing through it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detconvex",
        description="Certify or refute convexity of C -> f(det C) on positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the sizes _check_sizes reads, for the subcommands that lack them
    parser.set_defaults(dim=0, grid_count=0, count=0, samples=0)

    def add_common(p, function_required=True):
        p.add_argument(
            "--function",
            "-f",
            required=function_required,
            help="expression in s (e.g. '-ln(s)') or family:<fa|power|log|neohooke>:k=v,...",
        )
        p.add_argument("--dim", "-n", type=int, default=3, help="matrix dimension n (default 3)")

    p_cert = sub.add_parser("certify", help="run the grid certification and emit a JSON report")
    p_wit = sub.add_parser(
        "witness", help="print certify's first witness pair (exit 0), or its annotations (exit 2)"
    )
    for p in (p_cert, p_wit):
        add_common(p)
        p.add_argument("--s-min", type=float, default=1e-3)
        p.add_argument("--s-max", type=float, default=1e3)
        p.add_argument("--grid-count", type=int, default=1000)
        p.add_argument("--tol", type=float, default=certifier.DEFAULT_TOL_BASE)
    p_cert.add_argument("--samples", type=int, default=1000, help="sampling sweep size (0 skips)")
    p_cert.add_argument("--output", "-o", default="-", help="report path, '-' for stdout")
    p_cert.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")

    p_cur = sub.add_parser("curves", help="export the figure curves (plus extras) as CSV")
    add_common(p_cur, function_required=False)
    p_cur.add_argument("--s-min", type=float, default=0.05)
    p_cur.add_argument("--s-max", type=float, default=8.0)
    p_cur.add_argument("--count", type=int, default=200)
    p_cur.add_argument("--outdir", default="curves")

    p_or = sub.add_parser("oracle", help="analytic vs finite-difference sweep")
    add_common(p_or, function_required=False)
    p_or.add_argument("--samples", type=int, default=1000)
    # witness and curves draw nothing at random
    for p in (p_cert, p_or):
        p.add_argument("--seed", type=int, default=42)

    sub.add_parser("selftest", help="run the built-in acceptance suite")
    return parser


def _normalize_argv(argv):
    """Join '--function VALUE' into one token so expressions starting with
    a minus sign (like -ln(s)) are not mistaken for flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--function", "-f") and i + 1 < len(argv):
            out.append(f"--function={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _check_sizes(args):
    for flag, value, limit in (
        ("--dim", args.dim, MAX_DIM),
        ("--grid-count", args.grid_count, MAX_GRID_COUNT),
        ("--count", args.count, MAX_GRID_COUNT),
        ("--samples", args.samples, MAX_SAMPLES),
    ):
        if value > limit:
            raise ParameterError(f"{flag} {value} exceeds the limit {limit}")


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as e:
        return EXIT_CERTIFIED if e.code in (0, None) else EXIT_USAGE
    try:
        _check_sizes(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "curves":
            return _cmd_curves(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        # only a self-test run loads the self-test
        from . import selftest

        return selftest.run_selftest()
    except ParseError as e:
        print(f"error: cannot parse function: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, OSError) as e:
        # OSError: the report or a curve file cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NonFiniteError, ConvergenceError, NotPositiveDefiniteError) as e:
        # the run cannot reach an answer; 1 would claim a refutation or a
        # discrepancy
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
