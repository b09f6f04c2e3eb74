"""In-memory spans around the package's layer functions.

``Tracer.installed`` replaces the module and class attributes that the
package's callers look up at call time with wrappers that record one span
per call: name, start, end, parent span and the id of the top-level call.
Nothing in the package is edited; leaving the block restores the originals.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Layer spans, named after the package modules.  ``odelimit`` and
# ``selftest`` are not traced: no workload runs them.
SPAN_NAMES = (
    "cli.main",
    "scalarfun.parse",
    "scalarfun.eval_jet",
    "certifier.certify",
    "certifier.witness",
    "certifier.sample_convexity",
    "detcalculus.g_hess_form",
    "detcalculus.g_grad_form",
    "detcalculus.fd",
    "detcalculus.oracle_sweep",
    "linalg.jacobi_eigen",
    "linalg.random_draw",
    "linalg.from_sym",
    "linalg.det",
    "linalg.cholesky_posdef",
)


def _targets(pkg):
    """(owner, attribute, span name, observer) for every wrapped function.

    Observers see ``(counters, args, result, exc)`` after each call.
    """
    cli, scalarfun, certifier, detcalculus, linalg, errors = pkg

    def domain_errors(counters, args, result, exc):
        if isinstance(exc, (errors.DomainError, errors.NonFiniteError)):
            counters["scalarfun.eval_jet.domain_errors"] += 1

    def confirmed(counters, args, result, exc):
        if exc is None and result is not None:
            counters["certifier.witness.confirmed"] += 1

    def sweep_skips(counters, args, result, exc):
        if exc is None:
            counters["certifier.sample_convexity.skipped"] += result.samples_skipped
            counters["certifier.sample_convexity.samples"] += (
                result.samples_run + result.samples_skipped
            )

    def oracle_skips(counters, args, result, exc):
        if exc is None:
            counters["detcalculus.oracle_sweep.skipped"] += result.skipped
            counters["detcalculus.oracle_sweep.samples"] += len(result.samples) + result.skipped

    return (
        (cli, "main", "cli.main", None),
        (scalarfun, "parse", "scalarfun.parse", None),
        (scalarfun, "eval_jet", "scalarfun.eval_jet", domain_errors),
        (certifier, "certify", "certifier.certify", None),
        # witness_* plus the fd confirmation, as called from certify
        (certifier, "_confirmed_witness", "certifier.witness", confirmed),
        (certifier, "sample_convexity", "certifier.sample_convexity", sweep_skips),
        (detcalculus, "g_hess_form", "detcalculus.g_hess_form", None),
        (detcalculus, "g_grad_form", "detcalculus.g_grad_form", None),
        # fd_second_directional is a thin shell around the _with_step form
        (detcalculus, "fd_second_directional_with_step", "detcalculus.fd", None),
        (detcalculus, "fd_first_directional", "detcalculus.fd", None),
        (detcalculus, "oracle_sweep", "detcalculus.oracle_sweep", oracle_skips),
        (linalg, "jacobi_eigen", "linalg.jacobi_eigen", None),
        (linalg, "random_posdef_array", "linalg.random_draw", None),
        (linalg, "random_sym", "linalg.random_draw", None),
        (linalg.PosDefMatrix, "from_sym", "linalg.from_sym", None),
        (linalg, "det", "linalg.det", None),
        (linalg, "cholesky_posdef", "linalg.cholesky_posdef", None),
    )


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("b")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.call_id = -1
        self._stack = []

    def _wrap(self, name, fn, observe):
        nid = self.names.index(name)
        names, parents, calls = self.name, self.parent, self.call
        starts, ends = self.start, self.end
        stack, counters, perf = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                if observe is not None:
                    observe(counters, args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, pkg):
        """Patch the layer functions of ``pkg`` (the modules cli,
        scalarfun, certifier, detcalculus, linalg, errors) for the block."""
        saved = []
        try:
            for owner, attr, name, observe in _targets(pkg):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(name, original.__func__, observe)))
                else:
                    setattr(owner, attr, self._wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds, where self
        time is the duration minus the time covered by child spans."""
        count = len(self.end)
        names = np.asarray(self.name, dtype=np.intp)
        parents = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=count)
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_t, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write every span as columns of an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            call=np.asarray(self.call),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
