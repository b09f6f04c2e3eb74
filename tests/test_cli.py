import argparse
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from detconvex import cli, detcalculus, linalg, selftest
from detconvex.certifier import GridSpec
from detconvex.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


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
        assert w["C"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, s_star]]
        assert w["H"] == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
        assert w["analytic"] == -2.0 * s_star
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
            "grid_failures",
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
        assert set(doc["diagnostics"]) == {"samples_run", "samples_skipped", "min_hess_form"}
        assert doc["rng"] == "numpy-pcg64-eigenbasis-block256"

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

    def test_all_skipped_sweep_has_no_minimum(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-f", "ln(s-5)", "--s-min", "6", "--samples", "1", "--seed", "0"
        )
        assert code == 1
        assert '"min_hess_form": null' in out
        # strict JSON: no Infinity token
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        assert doc["diagnostics"] == {
            "samples_run": 0,
            "samples_skipped": 1,
            "min_hess_form": None,
        }

    @pytest.mark.parametrize("spec, code, condition", [
        ("8e307*s^2", 1, "fprime"),
        ("-8e307*s^2", 2, "lhs"),
    ])
    def test_overflowing_columns_give_strict_json(self, capsys, spec, code, condition):
        # lhs overflows to +-inf at every grid point and the band from the
        # 698th on, which passes both conditions there; f' stays finite
        argv = ("certify", "-f", spec, "--s-max", "1", "--seed", "0", "--no-timestamp")
        with warnings.catch_warnings():
            # the fd check of the unconfirmed -8e307*s^2 witness overflows
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(list(argv)) == code
        out = capsys.readouterr().out
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        failures = doc["grid_failures"]
        assert failures["points"] == failures[condition]["points"] == 697
        s_to = float(GridSpec(1e-3, 1.0, 1000).points()[696])
        assert failures[condition]["runs"] == [
            {"from": 0, "to": 696, "s_from": 1e-3, "s_to": s_to}
        ]
        # every failing lhs of -8e307*s^2 is -inf, so it has no worst point
        assert (failures[condition]["worst"] is None) == (condition == "lhs")

    def test_dimension_one_concave_function_is_refuted(self, capsys):
        # the first violating point, s = 1e-3, has no confirmed witness;
        # the retry nearest s = 1 has
        argv = ("certify", "-f", "ln(s)", "--dim", "1", "--samples", "0", "--no-timestamp")
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == "verdict: Refuted\n"
        doc = json.loads(out)
        assert doc["annotations"] == []
        assert [w["kind"] for w in doc["witnesses"]] == ["SecondOrderDeficit"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", "-f", "-ln(s)", "--output", str(target), *CERT_FAST
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "CertifiedOnGrid"


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

    def test_domain_failure_after_clean_points(self, capsys):
        code, out, _ = run(capsys, "witness", "-f", "1/s + 0*ln(10-s)", "--grid-count", "50")
        assert code == 2
        assert out.startswith("domain failure during grid evaluation: ln of non-positive")
        code, out, _ = run(capsys, "witness", "-f", "ln(s-1)", "--grid-count", "50")
        assert code == 2 and out.startswith("domain failure")

    def test_subnormal_second_order_witness(self, capsys):
        # C = s I at s ~ 1e-320 is below the floor; its inverse overflowed
        # with a numpy warning and "matrix entries must be finite", exit 3
        argv = ("-f", "-s^2", "--dim", "1", "--s-min", "1e-320", "--s-max", "1e-310",
                "--grid-count", "5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "certify", *argv, "--samples", "0", "--no-timestamp")
            assert code == 2 and err == "verdict: Inconclusive\n"
            doc = json.loads(out)
            assert doc["verdict"] == "Inconclusive" and doc["witnesses"] == []
            assert doc["annotations"] == [
                "second-order violation at s=9.99989e-321 not confirmed by the fd oracle"
            ]
            # witness prints certify's annotation instead of building a pair
            code, out, err = run(capsys, "witness", *argv)
            assert code == 2 and err == ""
            assert out == (
                "second-order violation at s=9.99989e-321 not confirmed by the fd oracle\n"
            )


def _witness_text(w) -> re.Pattern:
    """The witness command's text for one witness of the certify JSON; the
    fd step is not in the JSON and matches any float."""

    def rows(m):
        return "".join("  [" + ", ".join(map(repr, r)) + "]\n" for r in m)

    return re.compile(
        re.escape(
            f"witness kind={w['kind']} at s={w['s']!r}\nC =\n{rows(w['C'])}H =\n{rows(w['H'])}"
            f"analytic D2g(C).(H,H) = {w['analytic']!r}\nfd oracle (h="
        )
        + r"[0-9.e+-]+"
        + re.escape(f") = {w['fd']!r}\nconfirmed: yes\n")
    )


class TestWitnessMatchesCertify:
    """The witness command prints what certify concluded: its first
    witness, "no violation found on grid" when certified, or its
    annotations with exit 2."""

    def certify_doc(self, capsys, argv):
        code, out, _ = run(capsys, "certify", *argv, "--samples", "0", "--no-timestamp")
        return code, json.loads(out)

    @pytest.mark.parametrize("spec", ["ln(s)", "sqrt(s)", "-1/s"])
    def test_dimension_one_prints_the_confirmed_retry(self, capsys, spec):
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
        # exp(exp(s)) overflows at one of these determinants, beyond
        # s = ln(709.78...) = 6.56; the sample ended in a NonFiniteError
        # traceback, exit 1 ("discrepancy")
        argv = ("oracle", "-f", "exp(exp(s))", "--samples", "5", "--seed", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "skipped: 1" in out
        c, _ = linalg.random_pairs(3, 1, 5)
        assert np.count_nonzero(np.linalg.det(c) > np.log(np.log(np.finfo(float).max))) == 1

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
            s = np.linalg.det(c[row])
            forms = detcalculus.directional_forms((corpus[i % 7],), c[row], h[row], s)
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
            raise cli.UsageError("reached the sweep")

        monkeypatch.setattr(cli.detcalculus, "oracle_sweep", reached)
        samples = cli.MAX_ORACLE_ENTRIES // 100
        code, _, err = run(capsys, "oracle", "--dim", "10", "--samples", str(samples))
        assert code == 3 and err == "error: reached the sweep\n"
        code, _, err = run(capsys, "oracle", "--dim", "10", "--samples", str(samples + 1))
        assert code == 3 and "exceeds the limit" in err

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
