import argparse
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from detconvex import certifier, cli, detcalculus, linalg, scalarfun, selftest
from detconvex.cli import main
from detconvex.errors import ParameterError

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CERT_FAST = ("--grid-count", "50", "--samples", "20")

# the report's diagnostics when no sweep ran
NO_SWEEP = {
    "samples_run": 0,
    "samples_skipped": 0,
    "max_midpoint_residual": None,
    "max_midpoint_sample": None,
    "min_midpoint_residual": None,
    "midpoint_failures": 0,
}


class TestCertifyCommand:
    def test_convex_expression_exits_zero(self, capsys):
        code, out, err = run(capsys, "certify", "-f", "-ln(s)", "--dim", "3", *CERT_FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CertifiedOnGrid"
        none = {"points": 0, "runs": [], "worst": None}
        assert doc["grid_failures"] == {"points": 0, "fprime": none, "lhs": none}
        assert "verdict: CertifiedOnGrid" in err

    def test_increasing_function_refuted_with_witness(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "s", "--dim", "3", *CERT_FAST)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "Refuted"
        w = doc["witnesses"][0]
        assert w["kind"] == "PositiveFPrime"
        s_star = w["s"]
        # C = r I and H = r diag(1, -1, 0) with r = s^(1/3)
        r = s_star ** (1.0 / 3.0)
        assert w["C"] == [[r, 0.0, 0.0], [0.0, r, 0.0], [0.0, 0.0, r]]
        assert w["H"] == [[r, 0.0, 0.0], [0.0, -r, 0.0], [0.0, 0.0, 0.0]]
        # -2 s f'(s) at the grid's s exactly, beside det C = r^3, and a gap
        # of f at tau = 1/2 below its bound
        assert w["analytic"] == -2.0 * s_star
        assert w["det_c"] == pytest.approx(s_star, rel=1e-15)
        assert (w["tau"], w["confirmed_by"]) == (0.5, "gap") and w["gap"] < -w["gap_bound"]
        # f' = 1 at every point: one run over the grid, the first point worst
        assert doc["grid_failures"] == {
            "points": 50,
            "fprime": {
                "points": 50,
                "runs": [{"from": 0, "to": 49, "s_from": 1e-3, "s_to": 1e3}],
                "worst": {"s": 1e-3, "value": 1.0},
            },
            "lhs": {"points": 0, "runs": [], "worst": None},
        }

    def test_family_spec_certifies(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-f", "family:fa:a=0.5,c=-1,d=0", "--dim", "3", *CERT_FAST
        )
        assert code == 0
        assert json.loads(out)["analytic_convex"] is True

    def test_a_family_the_closed_form_refuses_is_not_certified(self, capsys):
        # the band hides f = 1e-12 s on the grid; f' > 0 all the same
        code, out, err = run(capsys, "certify", "-f", "family:power:c=1e-12,p=1")
        doc = json.loads(out)
        assert (code, err, doc["verdict"]) == (2, "verdict: Inconclusive\n", "Inconclusive")
        assert doc["analytic_convex"] is False and doc["witnesses"] == []
        assert doc["annotations"] == [
            "closed form of the term 1e-12*s^1.0 is not convex at n=3, but no witness pair confirms it"
        ]

    def test_neo_hooke_annotates_trace_term(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "family:neohooke:mu=2.0", *CERT_FAST)
        assert code == 0
        doc = json.loads(out)
        assert any("trace" in note for note in doc["annotations"])

    @pytest.mark.parametrize(
        "spec, text",
        [("family:power:c=2,p=3,d=0.5", "0.5+2*s^3"), ("family:log:c=2,d=1", "1+2*ln(s)")],
    )
    def test_a_family_spec_is_its_text(self, capsys, spec, text):
        # the spec and the text parse to one tree, so their reports differ
        # in the source alone, the closed form included
        assert cli.parse_function_spec(spec, 3) == scalarfun.parse(text)
        (code, out, _), (text_code, text_out, _) = (
            run(capsys, "certify", "-f", f, "--no-timestamp", *CERT_FAST) for f in (spec, text)
        )
        assert code == text_code
        docs = [json.loads(out), json.loads(text_out)]
        assert [d.pop("function_source") for d in docs] == [spec, text]
        assert docs[0] == docs[1] and docs[0]["analytic_convex"] is False

    @pytest.mark.parametrize(
        "spec, text, want",
        [
            ("family:power:c=-1e-12,p=0.34", "-1e-12*s^0.34", 2),
            ("family:power:c=-2,p=3,d=1", "1-2*s^3", 1),
            ("family:log:c=-2,d=-0.5", "-0.5-2*ln(s)", 0),
        ],
    )
    def test_a_signed_coefficient_has_its_familys_report(self, capsys, spec, text, want):
        # a negated literal and d - c*term give the family's closed form,
        # so the reports differ in the source alone
        (code, out, _), (text_code, text_out, _) = (
            run(capsys, "certify", "-f", f, "--no-timestamp", "--samples", "20") for f in (spec, text)
        )
        assert code == text_code == want
        docs = [json.loads(out), json.loads(text_out)]
        assert [d.pop("function_source") for d in docs] == [spec, text]
        assert docs[0] == docs[1] and docs[0]["analytic_convex"] is (want == 0)

    @pytest.mark.parametrize(
        "spec, dim, first, last",
        [
            # s^(0.2 - 200) and mu/s^2 overflow at the grid's first point
            ("family:fa:a=200", "5", "family exponent uses", "domain failure"),
            ("family:neohooke:mu=1e308", "3", "domain failure", "volumetric part"),
        ],
    )
    def test_the_spec_notes_come_first_and_last(self, capsys, spec, dim, first, last):
        code, out, _ = run(capsys, "certify", "-f", spec, "--dim", dim, *CERT_FAST)
        notes = json.loads(out)["annotations"]
        assert code == 2 and len(notes) == 2
        assert notes[0].startswith(first) and notes[1].startswith(last)

    def test_domain_failure_exits_two(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "ln(s-1)", *CERT_FAST)
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "Inconclusive"
        assert any("domain failure" in a for a in doc["annotations"])

    @pytest.mark.parametrize("spec, s_min, power", [
        # s^0.2 and s^-0.8 are finite at 1e-300, s^-1.8, which f'' takes, is not
        ("-s^0.2", "1e-300", "1e-300 ** -1.8"),
        # s^-2.5 is finite at 1e-100, s^-3.5 is not
        ("s^-2.5", "1e-100", "1e-100 ** -3.5"),
        # at 1e-150 s^-2.5 itself overflows, and is the one named
        ("s^-2.5", "1e-150", "1e-150 ** -2.5"),
    ])
    def test_an_overflowing_power_is_named_in_the_annotation(self, capsys, spec, s_min, power):
        # the grid is cut at its first point, where the named power overflows
        code, out, err = run(capsys, "certify", "-f", spec, "--s-min", s_min, "--s-max", "1e300",
                             "--grid-count", "2000", "--samples", "0", "--no-timestamp")
        doc = json.loads(out)
        assert (code, err, doc["verdict"]) == (2, "verdict: Inconclusive\n", "Inconclusive")
        assert doc["annotations"] == [f"domain failure during grid evaluation: overflow in {power}"]

    def test_json_schema_fields(self, capsys):
        _, out, _ = run(capsys, "certify", "-f", "-ln(s)", "--no-timestamp", *CERT_FAST)
        doc = json.loads(out)
        expected = {
            "version",
            "function_source",
            "n",
            "grid",
            "tol",
            "verdict",
            "grid_failures",
            "beyond_grid",
            "witnesses",
            "diagnostics",
            "analytic_convex",
            "annotations",
            "seed",
            "rng",
        }
        assert set(doc) == expected
        assert set(doc["grid"]) == {"s_min", "s_max", "count"}
        assert set(doc["grid_failures"]) == {"points", "fprime", "lhs"}
        for condition in ("fprime", "lhs"):
            assert set(doc["grid_failures"][condition]) == {"points", "runs", "worst"}
        # the pass adds no point to the default range at n = 3
        assert doc["beyond_grid"] is None
        assert set(doc["diagnostics"]) == set(NO_SWEEP)
        assert doc["rng"] == "numpy-pcg64-sweep-midpoint"

    @pytest.mark.parametrize("spec, n, want", [
        ("-ln(s)", 4, {"s_min": 1e-4, "s_max": 1e4, "points": 200, "skipped": 0,
                       "fprime": {"points": 0, "first": None},
                       "lhs": {"points": 0, "first": None}}),
        # f' = -1/s + 2e-7 s > 0 past sqrt(5e6), first at 10^3.35
        ("-ln(s)+1e-7*s^2", 5, {"s_min": 1e-5, "s_max": 1e5, "points": 400, "skipped": 0,
                                "fprime": {"points": 166, "first": {"s": 2238.7211385683377,
                                                                    "value": 1.0606355627040213e-06}},
                                "lhs": {"points": 0, "first": None}}),
    ])
    def test_beyond_grid_object(self, capsys, spec, n, want):
        argv = ("certify", "-f", spec, "--dim", str(n), "--samples", "0", "--no-timestamp")
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert doc["beyond_grid"] == want
        assert list(doc)[list(doc).index("grid_failures") + 1] == "beyond_grid"

    def test_beyond_grid_values_are_strict_json(self, capsys):
        # lhs = -1.6e308 - 1.2e308 of -8e307*s^2 at n = 4 overflows to
        # -inf at every point, so its first failing value is null, not
        # -Infinity
        argv = ("certify", "-f", "-8e307*s^2", "--dim", "4", "--s-min", "1e-4", "--s-max", "1e-3",
                "--samples", "0", "--no-timestamp")
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        lhs = doc["beyond_grid"]["lhs"]
        assert lhs["points"] > 0 and lhs["first"]["value"] is None

    def test_timestamp_present_unless_suppressed(self, capsys):
        _, out, _ = run(capsys, "certify", "-f", "-ln(s)", *CERT_FAST)
        assert "timestamp" in json.loads(out)

    def test_deterministic_bytes_without_timestamp(self, capsys):
        args = ("certify", "-f", "-ln(s)", "--no-timestamp", "--seed", "7", *CERT_FAST)
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_float_round_trip(self, capsys):
        _, out, _ = run(capsys, "certify", "-f", "s", "--no-timestamp", *CERT_FAST)
        doc = json.loads(out)
        assert doc["witnesses"][0]["s"] == 1e-3

    def test_zero_samples_skips_sweep(self, capsys):
        _, out, _ = run(capsys, "certify", "-f", "-ln(s)", "--grid-count", "50", "--samples", "0")
        doc = json.loads(out)
        assert doc["diagnostics"] == NO_SWEEP

    def test_all_skipped_sweep_has_no_minimum(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-f", "ln(s-5)", "--s-min", "6", "--samples", "1", "--seed", "0"
        )
        assert code == 1
        assert '"max_midpoint_residual": null' in out
        assert '"max_midpoint_sample": null' in out
        # strict JSON: no Infinity token
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        assert doc["diagnostics"] == {**NO_SWEEP, "samples_skipped": 1}

    @pytest.mark.parametrize("spec, n, s_min", [
        ("s", 3, "1e-3"), ("-ln(s)+1e-7*s^2", 5, "1e-3"), ("ln(s-5)", 3, "6"),
    ])
    def test_diagnostics_are_the_sweeps(self, capsys, spec, n, s_min):
        # every field of the library's diagnostics, the worst samples'
        # indices included, so that they replay; ln(s-5) skips samples
        argv = ("certify", "-f", spec, "--dim", str(n), "--seed", "9", "--grid-count", "50",
                "--s-min", s_min)
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        diag = certifier.sample_convexity(cli.parse_function_spec(spec, n), n, 1000, 9)
        assert doc["diagnostics"] == diag._asdict()
        assert list(doc["diagnostics"]) == list(NO_SWEEP)

    @pytest.mark.parametrize("tol, failures", [(None, 0), ("1e-13", 400)])
    def test_the_beyond_grid_pass_takes_the_grid_tolerance(self, capsys, tol, failures):
        # the slope 1e-12 of 1e-12*s lies inside the default band, about
        # 1e-9, and outside one of 1e-13, on the grid as beyond it
        argv = ["certify", "-f", "1e-12*s", "--dim", "5", *CERT_FAST, "--no-timestamp"]
        if tol is not None:
            argv += ["--tol", tol]
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == (1 if failures else 0)
        assert doc["grid_failures"]["fprime"]["points"] == (50 if failures else 0)
        assert doc["beyond_grid"]["fprime"]["points"] == failures
        assert doc["beyond_grid"]["lhs"]["points"] == 0

    @pytest.mark.parametrize("spec, code, condition", [
        ("8e307*s^2", 1, "fprime"),
        ("-8e307*s^2", 1, "lhs"),
    ])
    def test_overflowing_columns_give_strict_json(self, capsys, spec, code, condition):
        # lhs overflows to +-inf at every grid point; f' and the band stay
        # finite, so the condition fails at all 1000 (an overflowing band
        # once passed both conditions from the 698th point on).  Both are
        # refuted at s = 1e-3, where the witness forms are finite
        argv = ("certify", "-f", spec, "--s-max", "1", "--seed", "0", "--no-timestamp")
        with warnings.catch_warnings():
            # overflow in the sweep and the witness checks stays silent,
            # as in the grid pass
            warnings.simplefilter("error", RuntimeWarning)
            assert main(list(argv)) == code
        out = capsys.readouterr().out
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        failures = doc["grid_failures"]
        assert failures["points"] == failures[condition]["points"] == 1000
        assert failures[condition]["runs"] == [
            {"from": 0, "to": 999, "s_from": 1e-3, "s_to": 1.0}
        ]
        # every failing lhs of -8e307*s^2 is -inf, so it has no worst point
        assert (failures[condition]["worst"] is None) == (condition == "lhs")

    def test_overflowing_grid_witness_under_warnings_as_errors(self):
        # the forms of the -8e307*s^2 witness overflow past s = 0.56; a
        # warning of theirs, raised as an error, ended the run in a
        # traceback with exit 1, which claims a refutation.  The grid's
        # pair stays unconfirmed, and the beyond-grid pass's confirms at
        # s = 1e-3
        argv = ["certify", "-f", "-8e307*s^2", "--s-min", "0.6", "--s-max", "1", "--seed", "0",
                "--no-timestamp"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "detconvex.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "verdict: Refuted\n"
        doc = json.loads(proc.stdout)
        assert doc["annotations"] == [
            "second-order violation at s=0.6 not confirmed by its witness pair"
        ]
        assert [(w["kind"], w["s"]) for w in doc["witnesses"]] == [("SecondOrderDeficit", 1e-3)]

    def test_no_workload_call_exits_1_without_a_witness_under_warnings_as_errors(self):
        # every certify call of the benchmark's sweep and grid workloads,
        # at their dims, through main in one process that turns numpy's
        # RuntimeWarnings into errors: a warning raised in the sweep's
        # draws or evaluation would end in a traceback with exit 1
        script = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from detconvex.cli import main
from detconvex.errors import ParameterError
for name in ("certify_sweep", "certify_grid"):
    for call in WORKLOADS[name].calls(1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(call.argv))
        print(json.dumps([call.argv, code, len(json.loads(out.getvalue())["witnesses"])]))
"""
        root = Path(cli.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script, str(root / "perfbench")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        # 7 specs at n = 3 and 5, and 11 at n = 3
        assert len(results) == 25
        for argv, code, witnesses in results:
            assert code in (0, 1, 2), argv
            assert code != 1 or witnesses > 0, argv

    def test_dimension_one_concave_function_is_refuted(self, capsys):
        # the pair C = H = s confirms at the first violating point, s = 1e-3
        argv = ("certify", "-f", "ln(s)", "--dim", "1", "--samples", "0", "--no-timestamp")
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == "verdict: Refuted\n"
        doc = json.loads(out)
        assert doc["annotations"] == []
        assert [(w["kind"], w["s"]) for w in doc["witnesses"]] == [("SecondOrderDeficit", 1e-3)]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", "-f", "-ln(s)", "--output", str(target), *CERT_FAST
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "CertifiedOnGrid"

    def test_a_narrow_grid_stays_in_its_range(self, capsys):
        # every s in the range is in the domain of -ln(s-10); the rounding
        # of 10 to a log10 put the middle point at 10.0, below s_min:
        # Inconclusive, "ln of non-positive value 0.0"
        argv = ("--s-min", "10.000000000000002", "--s-max", "10.000000000000004", "--grid-count", "3")
        code, out, err = run(capsys, "certify", "-f", "-ln(s-10)", *argv, "--samples", "0", "--no-timestamp")
        assert code == 0 and err == "verdict: CertifiedOnGrid\n"
        assert json.loads(out)["annotations"] == []


class TestRepeatedCalls:
    """main() builds its parser once per process and reuses it; no call
    may see another through it."""

    GOLDEN = ("certify", "-f", "-ln(s)", "--dim", "3", "--no-timestamp", "--samples", "50",
              "--grid-count", "200")
    CALLS = (
        GOLDEN,
        ("certify", "-f", "s", "--dim", "three"),
        ("certify", "--help"),
        ("oracle", "--dim", "10", "--samples", "28", "--seed", "3"),
    )

    def test_interleaved_calls_repeat_their_first_result(self, capsys):
        first = [run(capsys, *argv) for argv in self.CALLS]
        assert [code for code, _, _ in first] == [0, 3, 0, 0]
        assert first[0][1] == (GOLDEN_DIR / "certify_neg_ln.json").read_text()
        assert "invalid int value: 'three'" in first[1][2]
        assert first[2][1].startswith("usage: detconvex certify")
        order = [0, 1, 2, 3, 0, 3, 2, 1, 0]
        for i in order:
            assert run(capsys, *self.CALLS[i]) == first[i], self.CALLS[i]

    def test_defaults_do_not_leak_between_calls(self, capsys):
        base = ("certify", "-f", "-ln(s)", "--grid-count", "20", "--samples", "5",
                "--no-timestamp")
        _, out, _ = run(capsys, *base, "--seed", "7", "--dim", "5")
        doc = json.loads(out)
        assert (doc["seed"], doc["n"]) == (7, 5)
        _, out, _ = run(capsys, *base)
        doc = json.loads(out)
        assert (doc["seed"], doc["n"]) == (42, 3)
        _, out, _ = run(capsys, "oracle", "--samples", "2")
        assert out.startswith("oracle sweep: n=3 samples=2 seed=42 f=builtin corpus\n")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.CALLS + self.CALLS:
            run(capsys, *argv)
        # the top-level parser and one per subcommand
        assert len(built) == 6


class TestUsageErrors:
    def test_unparseable_function(self, capsys):
        code, _, err = run(capsys, "certify", "-f", "2^^3", *CERT_FAST)
        assert code == 3
        assert "offset" in err

    def test_unknown_identifier(self, capsys):
        code, _, err = run(capsys, "certify", "-f", "2*x", *CERT_FAST)
        assert code == 3

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "certify", "-f", "family:mystery:a=1", *CERT_FAST)
        assert code == 3
        assert "unknown family" in err

    def test_malformed_family_params(self, capsys):
        assert run(capsys, "certify", "-f", "family:fa:a")[0] == 3
        assert run(capsys, "certify", "-f", "family:fa:a=zzz")[0] == 3
        assert run(capsys, "certify", "-f", "family:fa:q=1")[0] == 3
        assert run(capsys, "certify", "-f", "family:fa:c=-1")[0] == 3  # a required

    def test_invalid_family_parameters(self, capsys):
        code, _, err = run(capsys, "certify", "-f", "family:fa:a=-1,c=-1,d=0")
        assert code == 3

    def test_missing_function_flag(self, capsys):
        assert run(capsys, "certify")[0] == 3

    def test_bad_numeric_argument(self, capsys):
        assert run(capsys, "certify", "-f", "s", "--dim", "three")[0] == 3

    def test_an_oracle_dimension_below_one_names_n(self, capsys):
        # as certify's does; it read "dimension must be >= 1"
        code, out, err = run(capsys, "oracle", "--dim", "0")
        assert (code, out, err) == (3, "", "error: dimension n=0 must be >= 1\n")

    def test_a_negative_oracle_dimension_is_blamed_before_the_entry_limit(self, capsys):
        # the limit squared -5 and blamed --samples
        code, out, err = run(capsys, "oracle", "--dim", "-5", "--samples", "1000000")
        assert (code, out, err) == (3, "", "error: dimension n=-5 must be >= 1\n")

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "certify", "-f", "s", "--s-min", "-1")
        assert code == 3

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "s" + ")" * 3000,
            "-" * 3000 + "s",
            "+".join(["s"] * 3000),
            "^".join(["s"] * 3000),
        ],
        ids=["parentheses", "unary-minus", "sum-chain", "power-chain"],
    )
    def test_deep_expression_rejected(self, capsys, text):
        # these ended in a RecursionError traceback, exit 1
        code, out, err = run(capsys, "certify", "-f", text, *CERT_FAST)
        assert code == 3
        assert out == "" and "nested deeper" in err and "offset" in err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("certify", "-f", "2^^3"), "cannot parse function: expected a value, got '^' (at offset 2)"),
            (("certify", "-f", "family:fa:a=1:x"), "malformed family spec 'family:fa:a=1:x'"),
            (("certify", "-f", "family:fa:a"), "malformed family parameter 'a' (expected k=v)"),
            (("certify", "-f", "family:mystery:a=1"),
             "unknown family 'mystery'; choose from ['fa', 'log', 'neohooke', 'power']"),
            (("certify", "-f", "family:fa:q=1"), "unknown parameter 'q' for family 'fa'"),
            (("certify", "-f", "family:fa:c=-1"), "family 'fa' requires parameters: a"),
            (("certify", "-f", "family:fa:a=zzz"), "parameter a='zzz' is not a number"),
            (("certify", "-f", "family:fa:a=-1,c=-1,d=0"), "family parameter a=-1.0 must be >= 0"),
            (("certify", "-f", "family:power:p=1,p=0.5"), "family parameter 'p' given twice"),
            (("curves", "-f", "family:fa:a=0.5,a=2"), "family parameter 'a' given twice"),
            (("certify", "-f", "family:fa:a=0.5,n=5"), "unknown parameter 'n' for family 'fa'"),
            (("certify", "-f", "family:power:p=1,name=1"),
             "unknown parameter 'name' for family 'power'"),
            (("oracle", "-f", "family:power:p=1,n=2"), "unknown parameter 'n' for family 'power'"),
            (("curves", "-f", "family:fa:a=0.5,n=7"), "unknown parameter 'n' for family 'fa'"),
            (("oracle", "-f", "family:neohooke:mu=0", "--samples", "3"), "shear modulus mu=0.0 must be > 0"),
            (("certify", "-f", "s", "--dim", "65"), "--dim 65 exceeds the limit 64"),
            (("oracle", "--dim", "10", "--samples", "20000"),
             "--samples 20000 at --dim 10 exceeds the limit of 1048576 entries per stack "
             "(--samples * --dim^2)"),
            # checked once, by certify and by export_family_curves
            (("certify", "-f", "s", "--samples", "-1"), "samples=-1 must be >= 0"),
            (("curves", "-f", "s"), "curves accepts only family:fa:... extra members"),
        ],
        ids=[
            "unparseable", "malformed-spec", "malformed-parameter", "unknown-family",
            "unknown-parameter", "missing-parameter", "non-numeric-parameter",
            "invalid-family-parameter", "repeated-parameter", "repeated-parameter-curves",
            "dimension-parameter", "name-parameter", "dimension-parameter-oracle",
            "dimension-parameter-curves",
            "invalid-family-parameter-oracle", "oversized-run",
            "oracle-entry-limit", "negative-samples", "curves-non-fa-extra",
        ],
    )
    def test_every_user_error_exits_3_with_one_line(self, capsys, tmp_path, argv, err):
        outdir = tmp_path / "x"
        if argv[0] == "curves":
            argv += ("--outdir", str(outdir))
        assert run(capsys, *argv) == (3, "", f"error: {err}\n")
        assert not outdir.exists()

    def test_negative_samples_rejected(self, capsys):
        assert run(capsys, "certify", "-f", "s", "--samples", "-5")[0] == 3

    def test_unbounded_tolerance_rejected(self, capsys):
        # an unbounded band used to certify the increasing function s
        for tol in ("inf", "1e30", "1", "nan"):
            code, out, err = run(capsys, "certify", "-f", "s", "--tol", tol, *CERT_FAST)
            assert code == 3, tol
            assert out == "" and "tolerance" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "-f", "s", "--dim", str(cli.MAX_DIM + 1)),
            ("certify", "-f", "s", "--grid-count", str(cli.MAX_GRID_COUNT + 1)),
            ("certify", "-f", "s", "--samples", str(cli.MAX_SAMPLES + 1)),
            ("witness", "-f", "s", "--grid-count", str(cli.MAX_GRID_COUNT + 1)),
            ("oracle", "--dim", str(cli.MAX_DIM + 1)),
            ("oracle", "--samples", str(cli.MAX_SAMPLES + 1)),
            # 20 000 samples at n = 10 hold 2e6 entries per stack
            ("oracle", "--dim", "10", "--samples", "20000"),
            ("curves", "--dim", str(cli.MAX_DIM + 1)),
            ("curves", "--count", str(cli.MAX_GRID_COUNT + 1)),
        ],
    )
    def test_oversized_run_rejected_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized run started")

        monkeypatch.setattr(cli, "parse_function_spec", refuse)
        monkeypatch.setattr(cli.certifier, "certify", refuse)
        monkeypatch.setattr(cli.detcalculus, "oracle_sweep", refuse)
        monkeypatch.setattr(cli.scalarfun, "export_family_curves", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and "exceeds the limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "-f", "bad(", "--dim", "0"),
            ("witness", "-f", "s", "--dim", "-2"),
            ("curves", "-f", "s", "--dim", "0"),
            ("oracle", "--samples", "3", "--dim", "0"),
        ],
        ids=["certify", "witness", "curves", "oracle"],
    )
    def test_the_gate_refuses_a_dimension_before_any_work(self, capsys, monkeypatch, argv):
        # certify reported the parse error of "bad(" first, and curves
        # its non-fa extra
        def refuse(*args, **kwargs):
            raise AssertionError("a run with a bad dimension started")

        monkeypatch.setattr(cli, "parse_function_spec", refuse)
        monkeypatch.setattr(cli.certifier, "certify", refuse)
        monkeypatch.setattr(cli.detcalculus, "oracle_sweep", refuse)
        monkeypatch.setattr(cli.scalarfun, "export_family_curves", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: dimension n={argv[-1]} must be >= 1\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("certify", "-f", "-s*ln(s)+s^2/(1+s)", "--tol", "1", "--samples", "0"),
             "tolerance 1.0 must be positive and below 1"),
            (("certify", "-f", "-s*ln(s)+s^2/(1+s)", "--seed", "-1"), "seed=-1 must be >= 0"),
            # the grid's domain failure skipped the sweep: Inconclusive, exit 2
            (("certify", "-f", "ln(s-1)", "--seed", "-1"), "seed=-1 must be >= 0"),
            (("curves", "-f", "family:fa:a=-1"), "family parameter a=-1.0 must be >= 0"),
            # the standard curves overflow at s = 1e-300 and exited 2
            (("curves", "-f", "family:fa:a=-1", "--s-min", "1e-300"), "family parameter a=-1.0 must be >= 0"),
        ],
        ids=["certify-tol", "certify-seed", "certify-seed-domain-failure", "curves-extra",
             "curves-extra-failing-curve"],
    )
    def test_a_bad_argument_is_refused_before_any_evaluation(self, capsys, monkeypatch, tmp_path, argv, err):
        def refuse(*args):
            raise AssertionError("evaluated before the refusal")

        monkeypatch.setattr(scalarfun, "eval_jet", refuse)
        monkeypatch.setattr(certifier.GridSpec, "points", refuse)
        outdir = tmp_path / "x"
        if argv[0] == "curves":
            argv += ("--outdir", str(outdir))
        assert run(capsys, *argv) == (3, "", f"error: {err}\n")
        assert not outdir.exists()

    def test_sizes_at_the_limits_pass_the_check(self):
        args = argparse.Namespace(
            dim=cli.MAX_DIM,
            grid_count=cli.MAX_GRID_COUNT,
            samples=cli.MAX_SAMPLES,
            count=cli.MAX_GRID_COUNT,
        )
        cli._check_sizes(args)

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("certify", "-f", "-ln(s)", "--seed", "-1", *CERT_FAST), 3,
             "error: seed=-1 must be >= 0\n"),
            (("oracle", "--seed", "-1", "--samples", "3"), 3, "error: seed=-1 must be >= 0\n"),
            (("certify", "-f", "-ln(s)", "--samples", "-1"), 3,
             "error: samples=-1 must be >= 0\n"),
            # no sweep draws, so the seed is never read
            (("certify", "-f", "-ln(s)", "--seed", "-1", "--samples", "0", "--no-timestamp"), 0,
             "verdict: CertifiedOnGrid\n"),
        ],
        ids=["certify", "oracle", "certify-negative-samples", "certify-no-sweep"],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv, code, err):
        # SeedSequence raised a bare ValueError: a traceback with exit 1
        got, out, got_err = run(capsys, *argv)
        assert (got, got_err) == (code, err)
        if code == 3:
            assert out == ""
        else:
            doc = json.loads(out)
            assert doc["seed"] == -1 and doc["diagnostics"] == NO_SWEEP

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "-f", "-ln(s)", "--samples", "0"),
            ("witness", "-f", "s", "--grid-count", "50"),
            ("curves", "--count", "20"),
        ],
        ids=["certify", "witness", "curves"],
    )
    @pytest.mark.parametrize("bound", ["--s-max=inf", "--s-max=nan", "--s-min=inf"])
    def test_non_finite_range_is_usage_error(self, capsys, recwarn, tmp_path, argv, bound):
        # s_max = inf ran the grid through a RuntimeWarning to exit 2
        outdir = ("--outdir", str(tmp_path)) if argv[0] == "curves" else ()
        code, out, err = run(capsys, *argv, bound, *outdir)
        assert code == 3
        assert out == "" and err.startswith("error: ") and "must be finite" in err
        assert not any(tmp_path.iterdir())
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "-f", "family:fa:a=nan", *CERT_FAST),
            ("certify", "-f", "family:power:p=inf", *CERT_FAST),
            ("certify", "-f", "family:log:c=nan", *CERT_FAST),
            ("certify", "-f", "family:neohooke:mu=inf", *CERT_FAST),
            ("curves", "-f", "family:fa:a=nan", "--count", "20"),
            ("oracle", "-f", "family:log:c=nan", "--samples", "3"),
        ],
        ids=["fa", "power", "log", "neohooke", "curves", "oracle"],
    )
    def test_non_finite_family_parameter_is_usage_error(self, capsys, tmp_path, argv):
        # these ran to an Inconclusive domain failure, exit 2
        outdir = ("--outdir", str(tmp_path)) if argv[0] == "curves" else ()
        code, out, err = run(capsys, *argv, *outdir)
        assert code == 3
        assert out == "" and err.startswith("error: ") and "must be finite" in err
        assert not any(tmp_path.iterdir())

    def test_overflowing_literal_is_parse_error(self, capsys):
        code, out, err = run(capsys, "certify", "-f", "1e999*s", *CERT_FAST)
        assert code == 3
        assert out == "" and "not a finite float (at offset 0)" in err
        # a literal that underflows to 0 is still a number
        assert run(capsys, "certify", "-f", "-ln(s) + 1e-999*s", *CERT_FAST)[0] == 0

    def test_unwritable_report_path_is_usage_error(self, capsys, tmp_path):
        # a missing directory ended in a FileNotFoundError traceback, exit 1
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "certify", "-f", "-ln(s)", "--samples", "0", "-o", str(target))
        assert code == 3
        assert out == "" and err.startswith("error: ") and "missing" in err
        assert not any(tmp_path.iterdir())

    def test_outdir_that_is_a_file_is_usage_error(self, capsys, tmp_path):
        # mkdir raised FileExistsError: a traceback with exit 1
        blocker = tmp_path / "curves"
        blocker.write_text("kept\n")
        code, out, err = run(capsys, "curves", "--count", "20", "--outdir", str(blocker))
        assert code == 3
        assert out == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv",
        [("witness", "-f", "s", "--grid-count", "50"), ("curves", "--count", "20")],
        ids=["witness", "curves"],
    )
    def test_seed_is_refused_where_nothing_is_drawn(self, capsys, tmp_path, argv):
        outdir = ("--outdir", str(tmp_path)) if argv[0] == "curves" else ()
        code, out, err = run(capsys, *argv, "--seed", "1", *outdir)
        assert code == 3
        assert out == "" and "unrecognized arguments: --seed 1" in err
        assert not any(tmp_path.iterdir())

    def test_witness_at_dimension_one_has_no_slope_condition(self, capsys):
        # n = 1 has no slope witness; asking for one ended in a traceback,
        # then in exit 3.  At n = 1, g is f itself: s is convex, and -s^2
        # gets the second-order witness
        code, out, _ = run(capsys, "witness", "-f", "s", "--dim", "1", "--grid-count", "50")
        assert code == 0 and out == "no violation found on grid\n"
        code, out, _ = run(capsys, "witness", "-f", "-s^2", "--dim", "1", "--grid-count", "50")
        assert code == 0 and "kind=SecondOrderDeficit" in out and "confirmed: yes" in out


class TestLapackFailures:
    """A LAPACK routine that fails leaves the run without an answer: exit 2
    with numpy's message on one error line."""

    def test_an_eigensolver_failure_exits_two(self, capsys, monkeypatch):
        # s is refuted by a witness, whose C is checked by its eigenvalues;
        # the message had a "symmetric eigensolver failed: " prefix
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run(capsys, "certify", "-f", "s", *CERT_FAST) == (2, "", "error: Eigenvalues did not converge\n")

    def test_a_stacked_cholesky_failure_exits_two(self, capsys, monkeypatch):
        # every matrix of the oracle's stencil factors alone, so none is
        # named; LAPACK's error escaped main, a traceback and exit 1
        cholesky = np.linalg.cholesky

        def fail_stacked(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fail_stacked)
        assert run(capsys, "oracle", "--samples", "5") == (2, "", "error: Matrix is not positive definite\n")


class TestWitnessCommand:
    def test_prints_pair_for_violation(self, capsys):
        code, out, _ = run(capsys, "witness", "-f", "s", "--grid-count", "50")
        assert code == 0
        assert "kind=PositiveFPrime" in out
        assert "C =" in out and "H =" in out
        assert "confirmed: yes" in out

    def test_second_order_kind(self, capsys):
        code, out, _ = run(capsys, "witness", "-f", "-s", "--grid-count", "50")
        assert code == 0
        assert "kind=SecondOrderDeficit" in out

    def test_witness_below_positivity_floor_refutes(self, capsys):
        # the slope pair's C = s^(1/n) I clears the eigenvalue floor at
        # any normal s (diag(1, 1, s) failed it below s ~ 1.4e-12, and
        # both commands exited 2)
        argv = ("-f", "s", "--s-min", "1e-20", "--s-max", "1e-15")
        code, out, _ = run(capsys, "witness", *argv, "--grid-count", "5")
        assert code == 0
        assert "kind=PositiveFPrime at s=1e-20" in out and "confirmed: yes" in out
        code, out, err = run(capsys, "certify", *argv, "--samples", "0")
        assert code == 1 and "verdict: Refuted" in err
        doc = json.loads(out)
        assert doc["verdict"] == "Refuted"
        w = doc["witnesses"][0]
        assert w["kind"] == "PositiveFPrime" and w["s"] == 1e-20
        c = np.array(w["C"])
        assert np.linalg.det(c) == pytest.approx(w["s"], rel=1e-9)
        assert np.all(np.linalg.eigvalsh(c) > 0)
        assert w["analytic"] < 0

    def test_no_violation_message(self, capsys):
        code, out, _ = run(capsys, "witness", "-f", "-ln(s)", "--grid-count", "50")
        assert code == 0
        assert "no violation found on grid" in out

    def test_domain_failure_after_clean_points(self, capsys):
        code, out, _ = run(capsys, "witness", "-f", "1/s + 0*ln(10-s)", "--grid-count", "50")
        assert code == 2
        assert out.startswith("domain failure during grid evaluation: ln of non-positive")
        code, out, _ = run(capsys, "witness", "-f", "ln(s-1)", "--grid-count", "50")
        assert code == 2 and out.startswith("domain failure")

    def test_subnormal_second_order_witness(self, capsys):
        # C = s I at s ~ 1e-320 is below the floor; its inverse overflowed
        # with a numpy warning and "matrix entries must be finite", exit 3
        # -s^2 + 10*s^3 is concave only below s = 1/30, outside the
        # beyond-grid pass's [0.1, 10] at n = 1
        argv = ("-f", "-s^2 + 10*s^3", "--dim", "1", "--s-min", "1e-320", "--s-max", "1e-310",
                "--grid-count", "5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "certify", *argv, "--samples", "0", "--no-timestamp")
            assert code == 2 and err == "verdict: Inconclusive\n"
            doc = json.loads(out)
            assert doc["verdict"] == "Inconclusive" and doc["witnesses"] == []
            assert doc["annotations"] == [
                "second-order violation at s=9.99989e-321 not confirmed by its witness pair"
            ]
            # witness prints certify's annotation instead of building a pair
            code, out, err = run(capsys, "witness", *argv)
            assert code == 2 and err == ""
            assert out == (
                "second-order violation at s=9.99989e-321 not confirmed by its witness pair\n"
            )


def _witness_text(w) -> re.Pattern:
    """The witness command's text for one witness of the certify JSON, in
    which a jet witness's tau, gap and bound are null (printed nan)."""

    def rows(m):
        return "".join("  [" + ", ".join(map(repr, r)) + "]\n" for r in m)

    tau, gap, bound = (math.nan if w[k] is None else w[k] for k in ("tau", "gap", "gap_bound"))
    return re.compile(
        re.escape(
            f"witness kind={w['kind']} at s={w['s']!r}\ndet C = {w['det_c']!r}\n"
            f"C =\n{rows(w['C'])}H =\n{rows(w['H'])}analytic D2g(C).(H,H) = {w['analytic']!r}\n"
            f"gap g(C+tau H) + g(C-tau H) - 2 g(C) at tau={tau!r} = {gap!r}, bound {bound!r}\n"
            f"confirmed: yes\nconfirmed by: {w['confirmed_by']}\n"
        )
    )


class TestWitnessMatchesCertify:
    """The witness command prints what certify concluded: its first
    witness, "no violation found on grid" when certified, or its
    annotations with exit 2."""

    def certify_doc(self, capsys, argv):
        code, out, _ = run(capsys, "certify", *argv, "--samples", "0", "--no-timestamp")
        return code, json.loads(out)

    @pytest.mark.parametrize("spec", ["ln(s)", "sqrt(s)", "-1/s"])
    def test_dimension_one_prints_the_confirmed_witness(self, capsys, spec):
        argv = ("-f", spec, "--dim", "1")
        _, doc = self.certify_doc(capsys, argv)
        w = doc["witnesses"][0]
        code, out, err = run(capsys, "witness", *argv)
        assert code == 0 and err == ""
        assert "confirmed: yes" in out.splitlines()
        assert out.startswith(f"witness kind={w['kind']} at s={w['s']!r}\n")
        assert _witness_text(w).fullmatch(out)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", selftest.EXPRESSION_CORPUS)
    def test_corpus_agrees_with_certify(self, capsys, spec, n):
        argv = ("-f", spec, "--dim", str(n), "--grid-count", "50")
        cert_code, doc = self.certify_doc(capsys, argv)
        code, out, err = run(capsys, "witness", *argv)
        assert err == ""
        if doc["verdict"] == "Refuted":
            assert code == 0 and _witness_text(doc["witnesses"][0]).fullmatch(out)
        elif doc["verdict"] == "CertifiedOnGrid":
            assert code == 0 and out == "no violation found on grid\n"
        else:
            assert cert_code == code == 2
            assert out == "".join(line + "\n" for line in doc["annotations"])


class TestCurvesCommand:
    def test_writes_standard_set(self, capsys, tmp_path):
        outdir = tmp_path / "curves"
        code, out, _ = run(capsys, "curves", "--outdir", str(outdir), "--count", "20")
        assert code == 0
        files = sorted(outdir.glob("*.csv"))
        assert len(files) == 4
        text = files[0].read_text()
        assert text.splitlines()[1] == "x,y"

    def test_extra_family_member(self, capsys, tmp_path):
        outdir = tmp_path / "curves"
        code, _, _ = run(
            capsys,
            "curves",
            "-f",
            "family:fa:a=0.9,c=-1,d=0",
            "--outdir",
            str(outdir),
            "--count",
            "20",
        )
        assert code == 0
        assert len(list(outdir.glob("*.csv"))) == 5

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_a_dimension_below_one_is_refused_before_any_file(self, capsys, tmp_path, dim):
        # as certify, witness and oracle refuse it; curves wrote its files
        # and exited 0
        outdir = tmp_path / "curves"
        code, out, err = run(capsys, "curves", "--dim", dim, "--outdir", str(outdir))
        assert (code, out, err) == (3, "", f"error: dimension n={dim} must be >= 1\n")
        assert not outdir.exists()

    def test_deterministic_output(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "curves", "--outdir", str(d1), "--count", "30")
        run(capsys, "curves", "--outdir", str(d2), "--count", "30")
        for f1, f2 in zip(sorted(d1.glob("*.csv")), sorted(d2.glob("*.csv"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_slugs_of_the_figure_set_and_an_extra_member_are_distinct(self):
        # -3*s^(1/3)+3 and 3*s^(-1/3)-3 differ only in their signs, which
        # the slug dropped: both were 3_s_1_3_3
        extra = {"a": 0.9, "c": -1.0, "d": 0.0}
        curves = scalarfun.export_family_curves([extra], certifier.GridSpec(0.05, 8.0, 3))
        slugs = [cli._slug(label) for label, _ in curves]
        assert len(set(slugs)) == len(slugs) == 5
        assert slugs[1] == "m_3_s_1_3_p_3" and slugs[3] == "3_s_m_1_3_m_3"

    def test_expression_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "curves", "-f", "-ln(s)", "--outdir", str(tmp_path / "x"))
        assert code == 3

    def test_range_with_repeated_points(self, capsys, tmp_path):
        # 6 distinct points among 1000, a range certify and witness accept;
        # this exited 3 with "x samples must be strictly increasing"
        outdir = tmp_path / "curves"
        argv = ("--s-min", "1", "--s-max", "1.000000000000001", "--count", "1000")
        code, _, err = run(capsys, "curves", *argv, "--outdir", str(outdir))
        assert code == 0 and err == ""
        assert len(list(outdir.glob("*.csv"))) == 4

    def test_overflowing_curve_exits_two(self, capsys, tmp_path):
        # f'' overflows near s = 1e-300; this ended in a NonFiniteError
        # traceback, exit 1
        code, _, err = run(capsys, "curves", "--s-min", "1e-300", "--outdir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: non-finite jet")


class TestTopOfTheFloatRange:
    """10 to the rounded log10 of the top float overflows; the grid's points
    warned there, which under the suite's warnings-as-errors, as under
    python -W error, was a traceback and exit 1, "refuted"."""

    TOP = "1.7976931348623157e308"

    def test_certify(self, capsys):
        argv = ("certify", "-f", "-ln(s)", "--s-max", self.TOP, "--samples", "0", "--no-timestamp")
        code, out, err = run(capsys, *argv)
        assert code == 0 and "Warning" not in err
        assert json.loads(out)["grid"]["s_max"] == float(self.TOP)

    def test_certify_on_a_narrow_grid_at_the_top(self, capsys):
        # its interior points were inf: Inconclusive, "got s=inf"
        argv = ("--s-min", "1.7976931348623e308", "--s-max", self.TOP, "--samples", "0")
        code, out, err = run(capsys, "certify", "-f", "-ln(s)", *argv, "--no-timestamp")
        assert code == 0 and "Warning" not in err
        assert json.loads(out)["verdict"] == "CertifiedOnGrid"

    def test_witness(self, capsys):
        code, _, err = run(capsys, "witness", "-f", "s", "--s-max", self.TOP)
        assert code == 0 and "Warning" not in err

    def test_curves(self, capsys, tmp_path):
        outdir = tmp_path / "curves"
        code, _, err = run(capsys, "curves", "--s-max", self.TOP, "--outdir", str(outdir))
        assert code == 0 and "Warning" not in err
        assert len(list(outdir.glob("*.csv"))) == 4


class TestOracleCommand:
    def test_builtin_sweep(self, capsys):
        code, out, _ = run(capsys, "oracle", "--dim", "2", "--samples", "60")
        assert code == 0
        assert "hess discrepancy" in out
        assert "grad discrepancy" in out

    def test_explicit_function(self, capsys):
        code, out, _ = run(capsys, "oracle", "-f", "-ln(s)", "--dim", "3", "--samples", "40")
        assert code == 0

    def test_overflowing_sample_skipped(self, capsys):
        # exp(exp(s)) overflows at one of these determinants, beyond
        # s = ln(709.78...) = 6.56; the sample ended in a NonFiniteError
        # traceback, exit 1 ("discrepancy")
        argv = ("oracle", "-f", "exp(exp(s))", "--samples", "5", "--seed", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "skipped: 1" in out
        c, _ = linalg.random_pairs(3, 1, 5)
        assert np.count_nonzero(np.linalg.det(c) > np.log(np.log(np.finfo(float).max))) == 1

    @pytest.mark.parametrize("dim, want", [(1, 1), (3, 2), (10, 2)])
    def test_overflowing_forms_exit_without_a_warning(self, capsys, dim, want):
        # 1e308*s overflows beyond det C = 1.8; the oracle's forms and
        # discrepancies ran unguarded, so under error::RuntimeWarning the
        # first overflow ended in a traceback (exit 1).  At n = 1 the
        # analytic form, 1e308 s (inner^2 - cross), is roundoff of 1e308
        # and fails its tolerance (exit 1); at n = 3 and 10 every sample
        # overflows and is skipped (exit 2)
        argv = ("oracle", "-f", "1e308*s", "--samples", "30", "--dim", str(dim))
        code, out, err = run(capsys, *argv)
        assert code == want
        if want == 1:
            assert err == "" and "hess discrepancy" in out
        else:
            assert out == "" and err == "error: every sample was skipped\n"

    def test_worst_samples_replay(self, capsys):
        # the last line names the rows of the largest discrepancies; sample
        # i is row i of the --samples-row stacks of random_pairs and pairs
        # with corpus member i % 7, so one row replays alone
        code, out, _ = run(capsys, "oracle", "--dim", "10", "--samples", "28", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "oracle sweep: n=10 samples=28 seed=3 f=builtin corpus"
        worst = re.fullmatch(r"worst samples: hess=(\d+) grad=(\d+) richardson_est=(\S+)", lines[4])
        c, h = linalg.random_pairs(10, 3, 28)
        corpus = detcalculus.builtin_corpus(10)
        estimates = []
        for i in range(28):
            row = slice(i, i + 1)
            forms = detcalculus.directional_forms((corpus[i % 7],), c[row], h[row])
            pairs = (
                (forms.hess, forms.fd_hess, forms.hess_est),
                (forms.grad, forms.fd_grad, forms.grad_est),
            )
            discs = [float(abs(a[0] - fd[0]) / max(1.0, abs(a[0]))) for a, fd, _ in pairs]
            estimates.append(max(est[0] / max(1.0, abs(a[0])) for a, _, est in pairs))
            for k, (kind, line, tol) in enumerate(
                (("hess", lines[1], "1e-05"), ("grad", lines[2], "1e-06"))
            ):
                printed = re.fullmatch(rf"{kind} discrepancy: min=\S+ max=(\S+) tol={tol}", line)
                if i == int(worst.group(1 + k)):
                    assert printed.group(1) == repr(discs[k])
        assert worst.group(3) == repr(float(max(estimates)))
        assert lines[3] == "skipped: 0" and len(lines) == 5

    def test_samples_at_the_entry_limit_run(self, capsys, monkeypatch):
        def reached(*args, **kwargs):
            raise ParameterError("reached the sweep")

        monkeypatch.setattr(cli.detcalculus, "oracle_sweep", reached)
        samples = cli.MAX_ORACLE_ENTRIES // 100
        code, _, err = run(capsys, "oracle", "--dim", "10", "--samples", str(samples))
        assert code == 3 and err == "error: reached the sweep\n"
        code, _, err = run(capsys, "oracle", "--dim", "10", "--samples", str(samples + 1))
        assert code == 3 and "exceeds the limit" in err

    def test_rows_whose_f_fails_are_skipped(self, capsys):
        # ln(s-1) fails where det C or a stencil determinant is at most 1:
        # those rows are skipped, and the others are compared
        code, out, _ = run(capsys, "oracle", "-f", "ln(s-1)", "--samples", "30")
        assert code == 1 and "skipped: 13\n" in out
        c, h = linalg.random_pairs(3, 42, 30)
        t = detcalculus.FD_STEP_SCALE * (1 + linalg.frob_norm(c)) / (1 + linalg.frob_norm(h))
        points = [c] + [c + (o * t)[:, None, None] * h for o in (1, -1, 0.5, -0.5)]
        assert np.count_nonzero(np.min([np.linalg.det(m) for m in points], axis=0) <= 1) == 13

    def test_every_sample_skipped_exits_two(self, capsys):
        code, out, err = run(capsys, "oracle", "-f", "ln(s-1e9)", "--samples", "3")
        assert code == 2
        assert out == "" and err.startswith("error: every sample was skipped")


class TestSelftestCommand:
    def test_wiring_and_exit_codes(self, capsys, monkeypatch):
        ok = lambda: selftest.CheckResult("c00", "stub pass", True, "fine")
        bad = lambda: selftest.CheckResult("c99", "stub fail", False, "broken")
        monkeypatch.setattr(selftest, "ALL_CHECKS", (ok,))
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "[PASS] c00" in out
        monkeypatch.setattr(selftest, "ALL_CHECKS", (ok, bad))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "[FAIL] c99" in out


class TestDemoScript:
    DEMO = Path(__file__).resolve().parent.parent / "scripts" / "certify_demo.py"

    def test_zero_samples_skip_the_sweep(self, capsys, monkeypatch):
        # as certify --samples 0 does; the sweep once raised ParameterError
        monkeypatch.setattr(sys, "argv", [str(self.DEMO), "--samples", "0"])
        runpy.run_path(str(self.DEMO), run_name="__main__")
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 9 and all(row.endswith(" -") for row in rows)
