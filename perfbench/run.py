#!/usr/bin/env python3
"""detconvex benchmark: closed-loop workloads with a per-call correctness gate.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 18 --trace 0

One caller in this single-threaded process issues the workload's calls
through ``detconvex.cli.main``, each after the previous one returned.  A run
is a fixed number of whole passes over the workload's calls: ``--seconds``
divided by the workload's nominal pass time, so that every run with the same
``--seconds`` and seed does the same work, whatever the host's speed.  The
package is imported from ``src/`` of the checkout that holds this file.

Every timing is in reference seconds: wall seconds scaled to a fixed host
speed by ``probe.py``, because the CPU speed of a shared host drifts by tens
of percent.  Wall times are kept in the records under ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time to import
  ``detconvex.cli`` and parse the workload's function specs;
- ``pass_s``: median over passes of the pass's summed call times;
- ``call_p50_s`` and ``call_tail_s``: median and 85th percentile of the
  call times;
- ``peak_rss_mb``: peak resident memory of this process, which runs the
  package.

``--trace 1`` alternates untraced and traced passes and reports per-layer
calls and self seconds per traced pass, in wall seconds that include the
speed probe's samples (about 3%); ``trace.overhead_frac`` is
the median traced pass over the median untraced pass, minus one.

``failed`` counts calls that fail the gate in ``gate.py``; ``correct`` is
false when a failure is not one of the known defects listed in
``workloads.py``.  Both modes write the run metadata, every call and, when
traced, every span under ``perfbench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Self-tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import probe
import spans
from workloads import KNOWN_DEFECTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
# A fixed percentile, so that commits of different speed report the same
# statistic.  p85 lies inside one call kind of every workload's mix; a run
# of 18 s has 11 calls beyond it on certify_grid, 12 on oracle_n10 and 2 on
# certify_sweep, whose calls take seconds.
TAIL_PERCENTILE = 85

# Runs in a fresh interpreter: the set-up a command-line user pays on
# every invocation.  argv: src dir, workload kind, JSON list of (spec, n),
# benchmark dir.  After the timed part it prints the host's speed as this
# process sees it, because the two CPUs of a shared host can differ.
_SETUP_SCRIPT = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from detconvex import cli, detcalculus
for spec, n in json.loads(sys.argv[3]):
    cli.parse_function_spec(spec, n)
if sys.argv[2] == "oracle":
    detcalculus.builtin_corpus(10)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[4])
import probe
print(repr(t1 - t0), repr(probe.reference_seconds()))
"""


def _import_package():
    """Import detconvex from this checkout's src/, never from elsewhere."""
    if not (SRC / "detconvex" / "__init__.py").is_file():
        raise SystemExit(f"error: no detconvex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import detconvex
    from detconvex import certifier, cli, detcalculus, errors, linalg, scalarfun

    if Path(detconvex.__file__).resolve().parent != (SRC / "detconvex").resolve():
        raise SystemExit(f"error: imported detconvex from {detconvex.__file__}, not {SRC}")
    return cli, scalarfun, certifier, detcalculus, linalg, errors


def measure_setup(workload, repeats: int) -> tuple:
    """(reference seconds, wall seconds) of ``repeats`` set-ups."""
    items = json.dumps(workload.setup_items())
    here = str(Path(__file__).resolve().parent)
    scaled, wall = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_SCRIPT, str(SRC), workload.kind, items, here],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, ref = map(float, proc.stdout.split())
        wall.append(seconds)
        scaled.append(seconds * probe.REF_NOMINAL_S / ref)
    return scaled, wall


def tail(durations: list):
    """(value, calls beyond it) for the TAIL_PERCENTILE call time, by
    nearest rank."""
    ordered = sorted(durations)
    k = math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1
    return ordered[k], len(ordered) - k - 1


def _read_git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = None
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "detconvex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_sha": _read_git_sha(),
        "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Closed-loop caller for one workload, with the per-call gate."""

    def __init__(self, workload, seed: int, tiny: bool = False):
        self.pkg = _import_package()
        self.cli = self.pkg[0]
        self.workload = workload
        self.pass_calls = workload.calls(seed, tiny)
        self.records = []
        # argv -> (exit code, sha256 of stdout, failure reasons)
        self._seen = {}

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception:
                rc, exc = None, traceback.format_exc()
            t1 = time.perf_counter()
        return rc, out.getvalue(), (t0, t1), exc

    def _judge(self, call, rc, stdout, exc) -> list:
        """Failure reasons of one call.  A call identical to an earlier one
        must reproduce its exit code and output bytes, and then inherits
        the earlier verdict of the gate."""
        if exc is not None:
            return [("exception", exc.strip().splitlines()[-1])]
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        seen = self._seen.get(call.argv)
        if seen is not None and seen[:2] == (rc, digest):
            return list(seen[2])
        if call.kind == "oracle":
            reasons = gate.check_oracle(rc, stdout)
        else:
            reasons = gate.check_certify(call.spec, call.n, rc, stdout)
        if seen is None:
            self._seen[call.argv] = (rc, digest, reasons)
            return reasons
        return reasons + [("bytes", "exit code or output differs from an identical earlier call")]

    def call(self, call, tracer=None) -> dict:
        if tracer is not None:
            tracer.call_id = len(self.records)
        # garbage left by the previous call and by the gate is collected
        # here, not inside the next timed call
        gc.collect()
        rc, stdout, span, exc = self._invoke(call.argv)
        reasons = self._judge(call, rc, stdout, exc)
        verdict = gate.observed_verdict(stdout) if call.kind == "certify" else None
        rec = {
            "i": len(self.records),
            "spec": call.spec,
            "n": call.n,
            "seed": call.seed,
            "argv": list(call.argv),
            "exit_code": rc,
            "span": span,
            "traced": tracer is not None,
            "verdict": verdict,
            "reasons": [list(r) for r in reasons],
            "known_defect": bool(reasons) and all(
                (call.spec, code, verdict) in KNOWN_DEFECTS for code, _ in reasons
            ),
        }
        self.records.append(rec)
        return rec

    def loop(self, passes: int, tracer=None) -> list:
        """Run ``passes`` whole passes under the speed probe; returns each
        pass's summed call times in reference seconds.

        Sets ``seconds`` (wall, without the probe), ``ref_s`` (mean probe
        sample) and ``scaled_s`` (reference seconds) of every call record."""
        first = len(self.records)
        speed = probe.SpeedProbe()
        with speed.running():
            for _ in range(passes):
                for call in self.pass_calls:
                    self.call(call, tracer)
        records = self.records[first:]
        for rec in records:
            rec["seconds"], rec["ref_s"], rec["scaled_s"] = speed.scale(*rec.pop("span"))
        k = len(self.pass_calls)
        return [sum(r["scaled_s"] for r in records[i:i + k]) for i in range(0, len(records), k)]

    def warm_up(self):
        """One call outside the timed region, so lazy imports inside numpy
        and the package are done before timing."""
        self._invoke(self.workload.calls(0, tiny=True)[0].argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, passes, setup_times, setup_wall) -> tuple:
    durations = [r["scaled_s"] for r in runner.records]
    value, beyond = tail(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "pass_s": _metric(statistics.median(passes), "s"),
        "call_p50_s": _metric(statistics.median(durations), "s"),
        "call_tail_s": _metric(value, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {"tail_percentile": TAIL_PERCENTILE, "tail_calls_beyond": beyond,
              "calls": len(durations),
              "passes": passes, "setup_times": setup_times, "setup_wall_s": setup_wall,
              "wall_pass_s": statistics.median(
                  sum(r["seconds"] for r in runner.records[i:i + len(runner.pass_calls)])
                  for i in range(0, len(runner.records), len(runner.pass_calls))),
              "ref_s": statistics.median(r["ref_s"] for r in runner.records)}
    return metrics, detail


def per_layer(tracer, passes, untraced_passes) -> tuple:
    summary = tracer.summary()
    k = len(passes)
    c = tracer.counters
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(summary[name]["calls"] / k, "count")
        metrics[f"{name}.self_s"] = _metric(summary[name]["self_s"] / k, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["scalarfun.eval_jet.domain_errors"] = _metric(
        c["scalarfun.eval_jet.domain_errors"] / k, "count")
    metrics["certifier.witness.confirmed_frac"] = _metric(
        ratio(c["certifier.witness.confirmed"], summary["certifier.witness"]["calls"]), "ratio")
    metrics["certifier.sample_convexity.skipped_frac"] = _metric(
        ratio(c["certifier.sample_convexity.skipped"], c["certifier.sample_convexity.samples"]),
        "ratio")
    metrics["detcalculus.oracle_sweep.skipped_frac"] = _metric(
        ratio(c["detcalculus.oracle_sweep.skipped"], c["detcalculus.oracle_sweep.samples"]),
        "ratio")
    metrics["detcalculus.fd.halving_ratio"] = _metric(
        ratio(summary["linalg.cholesky_posdef"]["calls"], 2 * summary["detcalculus.fd"]["calls"]),
        "ratio")
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(passes) / statistics.median(untraced_passes) - 1.0, "ratio")
    detail = {"spans": summary, "counters": dict(c), "traced_passes": passes,
              "untraced_passes": untraced_passes, "span_count": len(tracer.end)}
    return metrics, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path | None = OUT,
        tiny: bool = False) -> dict:
    """Run one workload and return the result line; ``tiny`` shrinks every
    call (self-tests only) and ``out_dir=None`` writes nothing."""
    workload = WORKLOADS[workload_name]
    runner = Runner(workload, seed, tiny)
    runner.warm_up()
    tracer = None
    if trace:
        # untraced and traced passes alternate, so that each pair meets the
        # same machine load and their ratio gives the tracing overhead
        tracer = spans.Tracer()
        untraced, traced = [], []
        for _ in range(workload.passes(seconds / 2)):
            untraced += runner.loop(1)
            with tracer.installed(runner.pkg):
                traced += runner.loop(1, tracer=tracer)
        metrics, detail = per_layer(tracer, traced, untraced)
    else:
        setup_times, setup_wall = measure_setup(workload, 1 if tiny else SETUP_REPEATS)
        passes = runner.loop(workload.passes(seconds))
        metrics, detail = end_to_end(runner, passes, setup_times, setup_wall)

    failed = [r for r in runner.records if r["reasons"]]
    line = {
        "correct": all(r["known_defect"] for r in failed),
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": metrics,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
        doc = {"metadata": metadata(workload_name, seed, seconds, trace),
               "result": line, "detail": detail,
               "failed_frac": line["failed"] / line["attempted"],
               "calls": runner.records}
        (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
        if tracer is not None:
            tracer.save(out_dir / f"{stem}.spans.npz")
    _summarize(workload_name, line, detail, failed)
    return line


def _summarize(name, line, detail, failed):
    err = sys.stderr
    print(f"{name}: {line['attempted']} calls, {line['failed']} failed "
          f"(failed_frac {line['failed'] / line['attempted']:.4f})", file=err)
    if "tail_percentile" in detail:
        print(f"  call_tail_s is p{detail['tail_percentile']} of {detail['calls']} calls "
              f"({detail['tail_calls_beyond']} beyond it)", file=err)
    seen = set()
    for r in failed:
        key = (r["spec"], r["n"], tuple(m for _, m in r["reasons"]))
        if key not in seen:
            seen.add(key)
            tag = " [known defect]" if r["known_defect"] else ""
            print(f"  FAIL {r['spec'] or 'oracle'} n={r['n']}{tag}: "
                  + "; ".join(m for _, m in r["reasons"]), file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
