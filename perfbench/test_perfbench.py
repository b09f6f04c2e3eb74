"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import gate
import probe
import run
import spans
from workloads import CERTIFIED, REFUTED, SPECS, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs():
    """One tiny traced and one tiny untraced run of every workload."""
    return {
        (name, trace): run.run(name, 5, 0.0, trace, out_dir=None, tiny=True)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name, trace):
    line = tiny_runs[name, trace]
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= 1


def test_every_named_span_fires_on_some_workload(tiny_runs):
    silent = [
        name for name in spans.SPAN_NAMES
        if not any(line["metrics"][f"{name}.calls"]["value"] > 0
                   for (_, trace), line in tiny_runs.items() if trace)
    ]
    assert silent == []


def test_tracer_restores_the_package(tiny_runs):
    cli, scalarfun, certifier, detcalculus, linalg, errors = run._import_package()
    assert not hasattr(scalarfun.eval_jet, "__wrapped__")
    assert not hasattr(linalg.PosDefMatrix.from_sym, "__wrapped__")
    assert not hasattr(certifier._confirmed_witness, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    outer = tracer._wrap("cli.main", lambda: inner(), None)
    inner = tracer._wrap("linalg.det", lambda: None, None)
    outer()
    s = tracer.summary()
    assert s["cli.main"]["calls"] == s["linalg.det"]["calls"] == 1
    assert s["cli.main"]["self_s"] == pytest.approx(
        s["cli.main"]["total_s"] - s["linalg.det"]["total_s"])


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(100)]) == (84.0, 15)
    assert run.tail([float(i) for i in range(17)]) == (14.0, 2)


def test_a_run_is_a_fixed_number_of_whole_passes():
    for w in WORKLOADS.values():
        assert w.passes(0.0) == 1
        assert w.passes(10.5 * w.nominal_pass_s) == 10


def test_probe_scales_by_the_samples_taken_in_an_interval():
    speed = probe.SpeedProbe()
    nominal = probe.REF_NOMINAL_S
    for t, ref in ((0.0, nominal), (1.0, 2 * nominal), (2.0, 4 * nominal), (5.0, nominal)):
        speed.start.append(t)
        speed.ref.append(ref)
        speed.spent.append(0.01)
    work, ref, scaled = speed.scale(0.5, 2.5)
    assert work == pytest.approx(1.98)
    assert ref == pytest.approx(3 * nominal) and scaled == pytest.approx(0.66)
    # a short interval takes the samples around it, or the nearest one
    assert speed.scale(0.95, 1.05)[1] == pytest.approx(2 * nominal)
    assert speed.scale(3.3, 3.4)[1] == pytest.approx(4 * nominal)


def test_a_probed_loop_scales_every_call():
    runner = run.Runner(WORKLOADS["oracle_n10"], 1, tiny=True)
    passes = runner.loop(2)
    assert len(passes) == 2 and len(runner.records) == 2 * len(runner.pass_calls)
    assert all(r["scaled_s"] > 0 and r["ref_s"] > 0 for r in runner.records)
    assert passes[0] == sum(r["scaled_s"] for r in runner.records[:len(runner.pass_calls)])


def _certify_output(spec, n=3):
    argv = ["certify", "-f", spec, "--dim", str(n), "--grid-count", "50", "--samples", "0",
            "--no-timestamp"]
    rc, out, _, exc = run.Runner(WORKLOADS["certify_grid"], 1, tiny=True)._invoke(argv)
    assert exc is None
    return rc, out


def test_gate_passes_a_real_refutation():
    rc, out = _certify_output("s")
    assert rc == 1 and gate.check_certify("s", 3, rc, out) == []


def test_gate_rejects_a_planted_wrong_verdict():
    rc, out = _certify_output("-ln(s)")
    doc = json.loads(out)
    doc["verdict"] = REFUTED
    codes = {c for c, _ in gate.check_certify("-ln(s)", 3, rc, json.dumps(doc))}
    assert {"verdict", "exit_code", "witness"} <= codes
    assert {c for c, _ in gate.check_certify("-ln(s)", 3, 2, out)} == {"exit_code"}


@pytest.mark.parametrize("plant", ["flip_h", "scale_analytic", "positive", "move_c"])
def test_gate_rejects_a_planted_bad_witness(plant):
    rc, out = _certify_output("family:power:p=0.5")
    doc = json.loads(out)
    w = doc["witnesses"][0]
    if plant == "flip_h":
        w["H"] = [[-v if i == j == 0 else 0.0 for j, v in enumerate(row)]
                  for i, row in enumerate(w["H"])]
    elif plant == "scale_analytic":
        w["analytic"] *= 1.01
    elif plant == "positive":
        w["analytic"] = -w["analytic"]
    else:
        w["C"] = [[2 * v for v in row] for row in w["C"]]
    reasons = gate.check_certify("family:power:p=0.5", 3, rc, json.dumps(doc))
    assert [c for c, _ in reasons] == ["witness"]


def test_only_a_marginal_oracle_disagreement_is_the_known_defect():
    out = ("hess discrepancy: min=1e-08 max=1.25e-05 tol=1e-05\n"
           "grad discrepancy: min=1e-12 max=3e-08 tol=1e-06\nskipped: 0\n")
    assert [c for c, _ in gate.check_oracle(1, out)] == ["oracle_tolerance"]
    assert [c for c, _ in gate.check_oracle(1, out.replace("1.25e-05", "1e-03"))] == ["oracle"]
    assert [c for c, _ in gate.check_oracle(0, out.replace("skipped: 0", "skipped: 2"))] == [
        "oracle"]


def test_an_unknown_failure_makes_the_run_incorrect(monkeypatch):
    real = gate.check_certify

    def planted(spec, n, rc, out):
        extra = [("verdict", "planted")] if spec == "-ln(s)" else []
        return real(spec, n, rc, out) + extra

    monkeypatch.setattr(gate, "check_certify", planted)
    line = run.run("certify_grid", 5, 0.0, False, out_dir=None, tiny=True)
    assert not line["correct"] and line["failed"] == 2


def test_byte_mismatch_between_identical_calls_fails():
    runner = run.Runner(WORKLOADS["oracle_n10"], 1, tiny=True)
    call = runner.pass_calls[0]
    rc, out, _, _ = runner._invoke(call.argv)
    assert runner._judge(call, rc, out, None) == []
    assert runner._judge(call, rc, out, None) == []
    assert [c for c, _ in runner._judge(call, rc, out + " ", None)] == ["bytes"]


def _closed_form_verdicts(spec, n):
    """Verdict set from f' <= 0 and f'' + (n-1)/(n s) f' >= 0, evaluated
    with mpmath on and beyond the default grid [1e-3, 1e3]."""
    mpmath.mp.dps = 30
    f = SPECS[spec].f

    def holds(s):
        d1 = mpmath.diff(lambda x: f(x, n, mpmath), s, 1)
        d2 = mpmath.diff(lambda x: f(x, n, mpmath), s, 2)
        return d1 <= 0 and d2 + (n - 1) / (n * s) * d1 >= 0

    on_grid = [mpmath.mpf(10) ** (k / 10) for k in range(-30, 31)]
    beyond = [mpmath.mpf(10) ** k for k in (-12, -8, -6, -4, 4, 5, 6, 8, 12)]
    if not all(holds(s) for s in on_grid):
        return {REFUTED}
    return {CERTIFIED} if all(holds(s) for s in beyond) else {CERTIFIED, REFUTED}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_hand_derived_verdicts_match_the_closed_form(spec):
    for n in (3, 5):
        assert SPECS[spec].accepted == _closed_form_verdicts(spec, n), n


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
