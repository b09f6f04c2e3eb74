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
from dataclasses import dataclass
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


@dataclass
class CliConfig:
    command: str
    function: str | None = None
    n: int = 3
    s_min: float = 1e-3
    s_max: float = 1e3
    grid_count: int = 1000
    tol: float = certifier.DEFAULT_TOL_BASE
    samples: int = 1000
    seed: int = 42
    output: str = "-"
    no_timestamp: bool = False
    outdir: str = "curves"
    count: int = 200


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


def _report_json(config: CliConfig, report, diagnostics) -> dict:
    """The report document for ``_report_text``; ``failing_points`` holds
    the grid records themselves, not one dict per point."""
    doc = {
        "version": __version__,
        "function_source": config.function,
        "n": report.n,
        "grid": {
            "s_min": report.grid.s_min,
            "s_max": report.grid.s_max,
            "count": report.grid.count,
        },
        "tol": report.tol,
        "verdict": report.verdict,
        "failing_points": report.failing_points,
        "witnesses": [
            {
                "kind": w.kind,
                "s": w.s_star,
                "C": w.c.base.a.tolist(),
                "H": w.h.a.tolist(),
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
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
    }
    if not config.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


# One failing point at indent levels 2 and 3 of json.dumps(indent=2).
_POINT_TEMPLATE = '    {\n      "s": %s,\n      "fprime": %s,\n      "lhs": %s\n    }'
_EMPTY_POINTS = '"failing_points": []'
# float.__repr__ spells finite floats as json does (shortest round-trip
# decimals, -0.0 included) but not the non-finite ones
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column) -> list:
    """The JSON text of each float of ``column``."""
    out = list(map(float.__repr__, column))
    if not _NONFINITE.keys().isdisjoint(out):
        out = [_NONFINITE.get(r, r) for r in out]
    return out


def _report_text(doc: dict) -> str:
    """The report as json.dumps with indent=2 writes it, byte for byte.
    ``doc["failing_points"]`` holds rows whose first three fields (s, f'(s)
    and the condition's left-hand side, all floats) are written as the
    object {"s", "fprime", "lhs"}.

    The rest of the document goes through json.dumps with an empty list in
    place of the points.  The points are three columns, each formatted by
    ``float.__repr__`` in C and joined through one template.  The text
    '"failing_points": []' occurs once in the dumped head, as the key:
    inside a JSON string every quote is escaped.
    """
    rows = doc["failing_points"]
    head = json.dumps({**doc, "failing_points": []}, indent=2)
    if not rows:
        return head
    columns = list(zip(*rows))[:3]
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


def _cmd_certify(config: CliConfig) -> int:
    if config.samples < 0:
        raise UsageError(f"--samples must be >= 0, got {config.samples}")
    f = parse_function_spec(config.function, config.n)
    grid = GridSpec(config.s_min, config.s_max, config.grid_count)
    report = certifier.certify(f, config.n, grid, config.tol)
    diagnostics = None
    if config.samples > 0 and not any("domain failure" in a for a in report.annotations):
        diagnostics = certifier.sample_convexity(f, config.n, config.samples, config.seed)
    doc = _report_json(config, report, diagnostics)
    doc["annotations"] = list(report.annotations) + _function_annotations(f)
    _emit(_report_text(doc), config.output)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def _fmt_matrix(m) -> str:
    return "\n".join("  [" + ", ".join(repr(v) for v in row) + "]" for row in m.tolist())


def _cmd_witness(config: CliConfig) -> int:
    f = parse_function_spec(config.function, config.n)
    grid = GridSpec(config.s_min, config.s_max, config.grid_count)
    report = certifier.certify(f, config.n, grid, config.tol)
    if any("domain failure" in a for a in report.annotations):
        print(report.annotations[-1])
        return EXIT_INCONCLUSIVE
    failing = report.failing_points
    if not failing:
        print("no violation found on grid")
        return EXIT_CERTIFIED
    first = failing[0]
    # slope violations take precedence at a shared point
    if not first.fprime_ok:
        kind = certifier.KIND_POSITIVE_FPRIME
        c, h = certifier.witness_positive_fprime(first.s, config.n)
    else:
        kind = certifier.KIND_SECOND_ORDER
        c, h = certifier.witness_second_order(first.s, config.n)
    analytic = detcalculus.g_hess_form(f, c, h)
    fd, h_used = detcalculus.fd_second_directional_with_step(f, c, h)
    confirmed = analytic < 0 and abs(analytic - fd) <= certifier.WITNESS_CONFIRM_TOL * max(
        1.0, abs(analytic)
    )
    print(f"witness kind={kind} at s={first.s!r}")
    print("C =")
    print(_fmt_matrix(c.base.a))
    print("H =")
    print(_fmt_matrix(h.a))
    print(f"analytic D2g(C).(H,H) = {analytic!r}")
    print(f"fd oracle (h={h_used!r}) = {fd!r}")
    print(f"confirmed: {'yes' if confirmed else 'no'}")
    return EXIT_CERTIFIED


def _slug(label: str) -> str:
    out = re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")
    return out or "curve"


def _cmd_curves(config: CliConfig) -> int:
    extras = []
    if config.function:
        f = parse_function_spec(config.function, config.n)
        if not isinstance(f, scalarfun.FamilyA):
            raise UsageError("curves accepts only family:fa:... extra members")
        extras.append(f)
    curves = odelimit.export_family_curves(extras, (config.s_min, config.s_max), config.count)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, curve in enumerate(curves):
        path = outdir / f"curve{i:02d}_{_slug(curve.label)}.csv"
        path.write_text(curve.to_csv())
        print(path)
    return EXIT_CERTIFIED


def _cmd_oracle(config: CliConfig) -> int:
    functions = None
    label = "builtin corpus"
    if config.function:
        functions = [parse_function_spec(config.function, config.n)]
        label = config.function
    res = detcalculus.oracle_sweep(config.n, config.samples, config.seed, functions=functions)
    print(f"oracle sweep: n={config.n} samples={config.samples} seed={config.seed} f={label}")
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


def _config_from_args(args) -> CliConfig:
    config = CliConfig(command=args.command)
    for src, dst in (
        ("function", "function"),
        ("dim", "n"),
        ("s_min", "s_min"),
        ("s_max", "s_max"),
        ("grid_count", "grid_count"),
        ("tol", "tol"),
        ("samples", "samples"),
        ("seed", "seed"),
        ("output", "output"),
        ("no_timestamp", "no_timestamp"),
        ("outdir", "outdir"),
        ("count", "count"),
    ):
        if hasattr(args, src):
            setattr(config, dst, getattr(args, src))
    return config


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


def _check_sizes(config: CliConfig):
    for flag, value, limit in (
        ("--dim", config.n, MAX_DIM),
        ("--grid-count", config.grid_count, MAX_GRID_COUNT),
        ("--count", config.count, MAX_GRID_COUNT),
        ("--samples", config.samples, MAX_SAMPLES),
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
    config = _config_from_args(args)
    try:
        _check_sizes(config)
        if config.command == "certify":
            return _cmd_certify(config)
        if config.command == "witness":
            return _cmd_witness(config)
        if config.command == "curves":
            return _cmd_curves(config)
        if config.command == "oracle":
            return _cmd_oracle(config)
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
