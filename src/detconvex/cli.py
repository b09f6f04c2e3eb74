"""Command-line front end.

Subcommands: certify, witness, curves, oracle, selftest.  Reports are
deterministic given the same flags and seed: JSON field order is fixed,
floats serialize as shortest round-trip decimals, and the timestamp can be
suppressed with --no-timestamp.

The certify report is the text of ``json.dumps(report, indent=2)``.
``indent`` sends json to its pure-Python encoder, which took most of a
large grid run walking one object per failing point, so ``_report_text``
dumps only the rest of the report that way.  It writes the failing points
from three float columns: ``float.__repr__`` in C gives json's own
spelling of each finite float (with a table for NaN and the infinities),
and one fixed template places them at json's indentation.

Exit codes for certify: 0 certified on grid, 1 refuted, 2 inconclusive,
3 usage or parse error.  Any command that cannot finish because a function
fails to evaluate, no finite-difference step exists, an eigensolver does
not converge or a matrix falls below the positivity floor exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, certifier, detcalculus, odelimit, scalarfun, selftest
from .certifier import CERTIFIED, INCONCLUSIVE, REFUTED, GridSpec
from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
    ParseError,
)
from .linalg import RNG_ALGORITHM

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {CERTIFIED: EXIT_CERTIFIED, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE}

# Largest sizes the commands accept; larger values exit 3 before anything
# is allocated.  The grid pass holds several arrays of --grid-count floats,
# the curve export evaluates --count points per curve one at a time, the
# sweep makes 32 bytes of seed words per sample up front, and the work per
# sample (solves, eigendecompositions, determinants) grows as n^3.
MAX_DIM = 64
MAX_GRID_COUNT = 200_000
MAX_SAMPLES = 1_000_000


class UsageError(Exception):
    pass


_FAMILY_DEFAULTS = {
    "fa": {"a": None, "c": -1.0, "d": 0.0},
    "power": {"p": None, "c": -1.0, "d": 0.0},
    "log": {"c": -1.0, "d": 0.0},
    "neohooke": {"mu": 1.0},
}


def parse_function_spec(spec: str, n: int):
    """Expression text or ``family:<name>:k=v,...`` -> evaluable function."""
    if not spec.startswith("family:"):
        return scalarfun.parse(spec)
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"malformed family spec {spec!r}")
    name = parts[1]
    if name not in _FAMILY_DEFAULTS:
        raise UsageError(f"unknown family {name!r}; choose from {sorted(_FAMILY_DEFAULTS)}")
    params = dict(_FAMILY_DEFAULTS[name])
    if len(parts) == 3 and parts[2]:
        for item in parts[2].split(","):
            if "=" not in item:
                raise UsageError(f"malformed family parameter {item!r} (expected k=v)")
            k, v = item.split("=", 1)
            k = k.strip()
            if k not in params:
                raise UsageError(f"unknown parameter {k!r} for family {name!r}")
            try:
                params[k] = float(v)
            except ValueError:
                raise UsageError(f"parameter {k}={v!r} is not a number") from None
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise UsageError(f"family {name!r} requires parameters: {', '.join(missing)}")
    try:
        if name == "fa":
            return scalarfun.FamilyA(a=params["a"], c=params["c"], d=params["d"], n=n)
        if name == "power":
            return scalarfun.PowerLaw(c=params["c"], p=params["p"], d=params["d"])
        if name == "log":
            return scalarfun.LogFamily(c=params["c"], d=params["d"])
        return scalarfun.NeoHookeVolumetric(mu=params["mu"])
    except ParameterError as e:
        raise UsageError(str(e)) from e


def _function_annotations(f):
    notes = []
    if isinstance(f, scalarfun.NeoHookeVolumetric):
        notes.append(
            "volumetric part f(s) = -mu*ln(s) certified; the remaining trace "
            "term mu*<C-I,I> is linear in C, hence convex, so the full "
            "energy is convex in C exactly when this part is"
        )
    return notes


def _report_json(args, report, diagnostics) -> dict:
    """The report document for ``_report_text``, which writes the failing
    points into its empty ``failing_points`` list."""
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
        "failing_points": [],
        "witnesses": [
            {
                "kind": w.kind,
                "s": w.s_star,
                "C": w.c.a.tolist(),
                "H": w.h.tolist(),
                "analytic": w.analytic_value,
                "fd": w.fd_value,
            }
            for w in report.witnesses
        ],
        "diagnostics": {
            "samples_run": 0 if diagnostics is None else diagnostics.samples_run,
            "samples_skipped": 0 if diagnostics is None else diagnostics.samples_skipped,
            "min_hess_form": None if diagnostics is None else diagnostics.min_hess_form,
        },
        "analytic_convex": report.analytic_convex,
        "annotations": list(report.annotations),
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
    }
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


# One failing point at indent levels 2 and 3 of json.dumps(indent=2).
_POINT_TEMPLATE = '    {\n      "s": %s,\n      "fprime": %s,\n      "lhs": %s\n    }'
_EMPTY_POINTS = '"failing_points": []'
# float.__repr__ spells finite floats as json does (shortest round-trip
# decimals, -0.0 included) but not the non-finite ones
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column) -> list:
    """The JSON text of each float of the 1-D array ``column``."""
    out = list(map(float.__repr__, column.tolist()))
    if not _NONFINITE.keys().isdisjoint(out):
        out = [_NONFINITE.get(r, r) for r in out]
    return out


def _report_text(doc: dict, columns) -> str:
    """The report as json.dumps with indent=2 writes it, byte for byte,
    with ``columns`` (s, f'(s) and the condition's left-hand side of the
    failing points, three 1-D float arrays) as the objects {"s", "fprime",
    "lhs"} of ``failing_points``.

    ``doc`` holds an empty ``failing_points`` list and goes through
    json.dumps.  Each column is formatted by ``float.__repr__`` in C and
    the three are joined through one template.  The text
    '"failing_points": []' occurs once in the dumped head, as the key:
    inside a JSON string every quote is escaped.
    """
    head = json.dumps(doc, indent=2)
    if not len(columns[0]):
        return head
    points = map(_POINT_TEMPLATE.__mod__, zip(*map(_json_floats, columns)))
    block = '"failing_points": [\n' + ",\n".join(points) + "\n  ]"
    return head.replace(_EMPTY_POINTS, block, 1)


def _emit(text: str, path: str):
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_certify(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be >= 0, got {args.samples}")
    f = parse_function_spec(args.function, args.dim)
    grid = GridSpec(args.s_min, args.s_max, args.grid_count)
    report = certifier.certify(f, args.dim, grid, args.tol)
    diagnostics = None
    if args.samples > 0 and not any("domain failure" in a for a in report.annotations):
        diagnostics = certifier.sample_convexity(f, args.dim, args.samples, args.seed)
    doc = _report_json(args, report, diagnostics)
    doc["annotations"] = list(report.annotations) + _function_annotations(f)
    failing = report.failing_points
    columns = (report.s[failing], report.fprime[failing], report.lhs[failing])
    _emit(_report_text(doc, columns), args.output)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def _fmt_matrix(m) -> str:
    return "\n".join("  [" + ", ".join(repr(v) for v in row) + "]" for row in m.tolist())


def _cmd_witness(args) -> int:
    f = parse_function_spec(args.function, args.dim)
    grid = GridSpec(args.s_min, args.s_max, args.grid_count)
    report = certifier.certify(f, args.dim, grid, args.tol)
    if any("domain failure" in a for a in report.annotations):
        print(report.annotations[-1])
        return EXIT_INCONCLUSIVE
    failing = report.failing_points
    if not failing.size:
        print("no violation found on grid")
        return EXIT_CERTIFIED
    first = failing[0]
    s = float(report.s[first])
    # slope violations take precedence at a shared point
    if report.fprime_ok[first]:
        kind = certifier.KIND_SECOND_ORDER
    else:
        kind = certifier.KIND_POSITIVE_FPRIME
    c, h, analytic, fd, h_used, confirmed = certifier.witness_attempt(f, kind, s, args.dim)
    print(f"witness kind={kind} at s={s!r}")
    print("C =")
    print(_fmt_matrix(c.a))
    print("H =")
    print(_fmt_matrix(h))
    print(f"analytic D2g(C).(H,H) = {analytic!r}")
    print(f"fd oracle (h={h_used!r}) = {fd!r}")
    print(f"confirmed: {'yes' if confirmed else 'no'}")
    return EXIT_CERTIFIED


def _slug(label: str) -> str:
    out = re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")
    return out or "curve"


def _cmd_curves(args) -> int:
    extras = []
    if args.function:
        f = parse_function_spec(args.function, args.dim)
        if not isinstance(f, scalarfun.FamilyA):
            raise UsageError("curves accepts only family:fa:... extra members")
        extras.append(f)
    curves = odelimit.export_family_curves(extras, (args.s_min, args.s_max), args.count)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, curve in enumerate(curves):
        path = outdir / f"curve{i:02d}_{_slug(curve.label)}.csv"
        path.write_text(curve.to_csv())
        print(path)
    return EXIT_CERTIFIED


def _cmd_oracle(args) -> int:
    functions = None
    label = "builtin corpus"
    if args.function:
        functions = [parse_function_spec(args.function, args.dim)]
        label = args.function
    res = detcalculus.oracle_sweep(args.dim, args.samples, args.seed, functions=functions)
    print(f"oracle sweep: n={args.dim} samples={args.samples} seed={args.seed} f={label}")
    print(
        f"hess discrepancy: min={res.min_hess_disc!r} max={res.max_hess_disc!r} "
        f"tol={res.hess_tol!r}"
    )
    print(
        f"grad discrepancy: min={res.min_grad_disc!r} max={res.max_grad_disc!r} "
        f"tol={res.grad_tol!r}"
    )
    print(f"skipped: {res.skipped}")
    return EXIT_CERTIFIED if res.all_agree else EXIT_REFUTED


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
        p.add_argument("--seed", type=int, default=42)

    p_cert = sub.add_parser("certify", help="run the grid certification and emit a JSON report")
    add_common(p_cert)
    p_cert.add_argument("--s-min", type=float, default=1e-3)
    p_cert.add_argument("--s-max", type=float, default=1e3)
    p_cert.add_argument("--grid-count", type=int, default=1000)
    p_cert.add_argument("--tol", type=float, default=certifier.DEFAULT_TOL_BASE)
    p_cert.add_argument("--samples", type=int, default=1000, help="sampling sweep size (0 skips)")
    p_cert.add_argument("--output", "-o", default="-", help="report path, '-' for stdout")
    p_cert.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")

    p_wit = sub.add_parser("witness", help="print the counterexample pair at the first violation")
    add_common(p_wit)
    p_wit.add_argument("--s-min", type=float, default=1e-3)
    p_wit.add_argument("--s-max", type=float, default=1e3)
    p_wit.add_argument("--grid-count", type=int, default=1000)
    p_wit.add_argument("--tol", type=float, default=certifier.DEFAULT_TOL_BASE)

    p_cur = sub.add_parser("curves", help="export the figure curves (plus extras) as CSV")
    add_common(p_cur, function_required=False)
    p_cur.add_argument("--s-min", type=float, default=0.05)
    p_cur.add_argument("--s-max", type=float, default=8.0)
    p_cur.add_argument("--count", type=int, default=200)
    p_cur.add_argument("--outdir", default="curves")

    p_or = sub.add_parser("oracle", help="analytic vs finite-difference sweep")
    add_common(p_or, function_required=False)
    p_or.add_argument("--samples", type=int, default=1000)

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
            raise UsageError(f"{flag} {value} exceeds the limit {limit}")


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
        return selftest.run_selftest()
    except ParseError as e:
        print(f"error: cannot parse function: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ParameterError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DomainError,
        NonFiniteError,
        DegenerateDirectionError,
        ConvergenceError,
        NotPositiveDefiniteError,
    ) as e:
        # the run cannot reach an answer; 1 would claim a refutation or a
        # discrepancy
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
