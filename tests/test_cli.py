import argparse
import json

import numpy as np
import pytest

from detconvex import cli, selftest
from detconvex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CERT_FAST = ("--grid-count", "50", "--samples", "20")


class TestCertifyCommand:
    def test_convex_expression_exits_zero(self, capsys):
        code, out, err = run(capsys, "certify", "-f", "-ln(s)", "--dim", "3", *CERT_FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CertifiedOnGrid"
        assert doc["failing_points"] == []
        assert "verdict: CertifiedOnGrid" in err

    def test_increasing_function_refuted_with_witness(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "s", "--dim", "3", *CERT_FAST)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "Refuted"
        w = doc["witnesses"][0]
        assert w["kind"] == "PositiveFPrime"
        s_star = w["s"]
        assert w["C"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, s_star]]
        assert w["H"] == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
        assert w["analytic"] == -2.0 * s_star
        assert doc["failing_points"]

    def test_family_spec_certifies(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-f", "family:fa:a=0.5,c=-1,d=0", "--dim", "3", *CERT_FAST
        )
        assert code == 0
        assert json.loads(out)["analytic_convex"] is True

    def test_neo_hooke_annotates_trace_term(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "family:neohooke:mu=2.0", *CERT_FAST)
        assert code == 0
        doc = json.loads(out)
        assert any("trace" in note for note in doc["annotations"])

    def test_domain_failure_exits_two(self, capsys):
        code, out, _ = run(capsys, "certify", "-f", "ln(s-1)", *CERT_FAST)
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "Inconclusive"
        assert any("domain failure" in a for a in doc["annotations"])

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
            "failing_points",
            "witnesses",
            "diagnostics",
            "analytic_convex",
            "annotations",
            "seed",
            "rng",
        }
        assert set(doc) == expected
        assert set(doc["grid"]) == {"s_min", "s_max", "count"}
        assert set(doc["diagnostics"]) == {"samples_run", "samples_skipped", "min_hess_form"}
        assert doc["rng"] == "numpy-pcg64"

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
        assert doc["diagnostics"] == {
            "samples_run": 0,
            "samples_skipped": 0,
            "min_hess_form": None,
        }

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", "-f", "-ln(s)", "--output", str(target), *CERT_FAST
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "CertifiedOnGrid"


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
        monkeypatch.setattr(cli.odelimit, "export_family_curves", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and "exceeds the limit" in err

    def test_sizes_at_the_limits_pass_the_check(self):
        args = argparse.Namespace(
            dim=cli.MAX_DIM,
            grid_count=cli.MAX_GRID_COUNT,
            samples=cli.MAX_SAMPLES,
            count=cli.MAX_GRID_COUNT,
        )
        cli._check_sizes(args)

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "-f", "-ln(s)", "--seed", "-1", *CERT_FAST),
            ("oracle", "--seed", "-1", "--samples", "3"),
        ],
        ids=["certify", "oracle"],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        # SeedSequence raised a bare ValueError: a traceback with exit 1
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err == "error: seed -1 must be >= 0\n"

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

    def test_witness_dimension_error_is_usage_error(self, capsys):
        # n = 1 has no slope witness; this used to end in a traceback
        code, out, err = run(capsys, "witness", "-f", "s", "--dim", "1", "--grid-count", "50")
        assert code == 3
        assert "n >= 2" in err


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
        # diag(1, 1, s) at s < 1e-12 fails the eigenvalue floor, so both
        # commands exited 2; the slope witness is s^(1/n) I there
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

    def test_deterministic_output(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "curves", "--outdir", str(d1), "--count", "30")
        run(capsys, "curves", "--outdir", str(d2), "--count", "30")
        for f1, f2 in zip(sorted(d1.glob("*.csv")), sorted(d2.glob("*.csv"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_expression_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "curves", "-f", "-ln(s)", "--outdir", str(tmp_path / "x"))
        assert code == 3

    def test_overflowing_curve_exits_two(self, capsys, tmp_path):
        # f'' overflows near s = 1e-300; this ended in a NonFiniteError
        # traceback, exit 1
        code, _, err = run(capsys, "curves", "--s-min", "1e-300", "--outdir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: non-finite jet")


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
        # exp(exp(s)) overflows at one of these determinants; the sample
        # ended in a NonFiniteError traceback, exit 1 ("discrepancy")
        code, out, _ = run(capsys, "oracle", "-f", "exp(exp(s))", "--samples", "5")
        assert code == 0
        assert "skipped: 1" in out

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
