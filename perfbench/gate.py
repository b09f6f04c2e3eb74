"""Correctness gate applied to every benchmark call.

A check returns a list of ``(code, message)`` failure reasons; an empty
list means the call passed.  Codes: ``exit_code``, ``verdict``,
``witness``, ``report``, ``oracle``, ``oracle_tolerance``, ``bytes`` and
``exception``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from workloads import REFUTED, SPECS, VERDICT_EXIT

# The benchmark's own central difference must agree with the report's
# analytic value to this relative tolerance.
WITNESS_REL_TOL = 1e-3
WITNESS_STEP = 1e-4
DET_REL_TOL = 1e-9


def _own_second_difference(f, n, c, h):
    """(g(t) - 2 g(0) + g(-t)) / t^2 for g(t) = f(det(C + tH)), with t
    halved until C +/- tH is positive definite."""
    t = WITNESS_STEP * np.linalg.norm(c) / np.linalg.norm(h)
    for _ in range(40):
        if min(np.linalg.eigvalsh(c + t * h)[0], np.linalg.eigvalsh(c - t * h)[0]) > 0:
            break
        t *= 0.5
    else:
        return None
    g = [f(float(np.linalg.det(c + k * t * h)), n, math) for k in (1, 0, -1)]
    return (g[0] - 2.0 * g[1] + g[2]) / (t * t)


def check_witness(spec: str, n: int, w: dict) -> list:
    """Re-check one reported witness against the closed form of ``spec``."""
    c = np.asarray(w["C"], dtype=float)
    h = np.asarray(w["H"], dtype=float)
    analytic = w["analytic"]
    where = f"{w['kind']} witness at s={w['s']!r}"
    if c.shape != (n, n) or h.shape != (n, n):
        return [("witness", f"{where}: C{c.shape}/H{h.shape} are not {n}x{n}")]
    if not (np.array_equal(c, c.T) and np.array_equal(h, h.T)) or not np.any(h):
        return [("witness", f"{where}: C or H is not symmetric, or H is zero")]
    if np.linalg.eigvalsh(c)[0] <= 0:
        return [("witness", f"{where}: C is not positive definite")]
    det = float(np.linalg.det(c))
    if abs(det - w["s"]) > DET_REL_TOL * w["s"]:
        return [("witness", f"{where}: det C = {det!r} differs from s")]
    fd = _own_second_difference(SPECS[spec].f, n, c, h)
    if fd is None or not math.isfinite(fd):
        return [("witness", f"{where}: no admissible difference step")]
    if not (fd < 0 and analytic < 0):
        return [("witness", f"{where}: fd={fd!r}, analytic={analytic!r} is not a negative pair")]
    if abs(fd - analytic) > WITNESS_REL_TOL * abs(analytic):
        return [("witness", f"{where}: own fd {fd!r} disagrees with analytic {analytic!r}")]
    return []


def check_certify(spec: str, n: int, exit_code, stdout: str) -> list:
    """Exit code against verdict, verdict against its accepted set, and a
    re-check of every witness of a Refuted report."""
    try:
        doc = json.loads(stdout)
        verdict = doc["verdict"]
        witnesses = doc["witnesses"]
    except (ValueError, KeyError, TypeError) as e:
        return [("report", f"unreadable report: {e}")]
    reasons = []
    if VERDICT_EXIT.get(verdict) != exit_code:
        reasons.append(("exit_code", f"exit code {exit_code} does not match verdict {verdict}"))
    accepted = SPECS[spec].accepted
    if verdict not in accepted:
        reasons.append(("verdict", f"verdict {verdict} not in accepted {sorted(accepted)}"))
    if verdict == REFUTED:
        if not witnesses:
            reasons.append(("witness", "Refuted without a witness"))
        for w in witnesses:
            try:
                reasons.extend(check_witness(spec, n, w))
            except (KeyError, TypeError, ValueError) as e:
                reasons.append(("witness", f"malformed witness: {e!r}"))
    return reasons


_SKIPPED = re.compile(r"^skipped: (\d+)$", re.MULTILINE)
_DISCREPANCY = re.compile(r"^(hess|grad) discrepancy: min=\S+ max=(\S+) tol=(\S+)$", re.MULTILINE)

# An oracle disagreement up to this multiple of its tolerance is reported
# as ``oracle_tolerance`` (fd truncation at n=10, a known defect); a larger
# one as ``oracle``.
MARGINAL_FACTOR = 10.0


def check_oracle(exit_code, stdout: str) -> list:
    """``oracle`` must exit 0 and skip no sample."""
    reasons = []
    if exit_code != 0:
        worst = {k: float(v) / float(t) for k, v, t in _DISCREPANCY.findall(stdout)}
        marginal = len(worst) == 2 and max(worst.values()) <= MARGINAL_FACTOR
        reasons.append(("oracle_tolerance" if marginal else "oracle",
                        f"oracle exit code {exit_code}; max discrepancy / tol: {worst}"))
    m = _SKIPPED.search(stdout)
    if m is None or int(m.group(1)) != 0:
        skipped = m.group(1) if m else "an unknown number of"
        reasons.append(("oracle", f"oracle skipped {skipped} samples"))
    return reasons


def observed_verdict(stdout: str):
    """Verdict string of a certify report, or None."""
    m = re.search(r'"verdict": "(\w+)"', stdout)
    return m.group(1) if m else None
