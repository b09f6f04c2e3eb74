"""The certify report's ``grid_failures`` summary against the grid columns.

``cli._grid_failures`` writes each condition's failing points as maximal
runs of consecutive column indices and its worst point.  Every test here
requires, per condition, that the runs rebuild ``np.flatnonzero(~ok)``
exactly, that the counts match, and that the worst point is the first
extreme over the finite failing values, null when none is finite.

``TestColumns`` holds ``certify``'s columns, which the summary reads, to
the plain expressions of the grid pass over ``eval_jet``'s columns, bit
for bit, through the domain cut and the n = 1 branch.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detconvex import certifier, cli
from detconvex.certifier import GridSpec
from detconvex.cli import main
from detconvex.scalarfun import eval_jet

GRID_SPECS = (
    "-ln(s)",
    "family:fa:a=0.5",
    "family:neohooke:mu=2",
    "family:power:p=0.5",
    "s",
    "-ln(s)+1e-7*s^2",
    "exp(s)",
    "-sqrt(s)",
    "1/s",
    "s^(1/3)",
    "-s*ln(s)+s^2/(1+s)",
)


def check_condition(got, s, values, ok, larger_is_worse):
    """One condition of ``grid_failures`` against its columns."""
    idx = np.flatnonzero(~ok)
    assert got["points"] == len(idx)
    runs = got["runs"]
    rebuilt = [i for r in runs for i in range(r["from"], r["to"] + 1)]
    assert rebuilt == idx.tolist()
    for r in runs:
        assert r["from"] <= r["to"]
        assert (r["s_from"], r["s_to"]) == (s[r["from"]], s[r["to"]])
    # maximal: a passing point separates consecutive runs
    for a, b in zip(runs, runs[1:]):
        assert b["from"] > a["to"] + 1
    # the loop reference: the first finite extreme, ties to the first index
    best = None
    for i in idx:
        v = values[i]
        if math.isfinite(v) and (
            best is None or (v > values[best] if larger_is_worse else v < values[best])
        ):
            best = i
    want = None if best is None else {"s": s[best], "value": values[best]}
    assert got["worst"] == want
    return rebuilt


def check_report(got, report):
    """The whole summary; the union of the runs is ``failing_points``."""
    fprime = check_condition(got["fprime"], report.s, report.fprime, report.fprime_ok, True)
    lhs = check_condition(got["lhs"], report.s, report.lhs, report.lhs_ok, False)
    assert sorted(set(fprime) | set(lhs)) == report.failing_points.tolist()
    assert got["points"] == len(report.failing_points)


def _report(fprime_ok, lhs_ok, fprime, lhs, cut=0):
    """A report over the first len(fprime_ok) points of a grid with
    ``cut`` more, as a domain failure leaves it."""
    size = len(fprime_ok)
    grid = GridSpec(1e-3, 1e3, max(2, size + cut))
    return certifier.CertificationReport(
        verdict=certifier.INCONCLUSIVE,
        n=3,
        grid=grid,
        s=grid.points()[:size],
        fprime=np.array(fprime, dtype=float),
        lhs=np.array(lhs, dtype=float),
        band=np.zeros(size),
        fprime_ok=np.array(fprime_ok, dtype=bool),
        lhs_ok=np.array(lhs_ok, dtype=bool),
        witnesses=(),
        tol=1e-9,
        analytic_convex=None,
        annotations=(),
    )


# few distinct values, so that ties are common
values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0, 5e-324, 1e308]),
    st.floats(),
)


def masks(size):
    index = np.arange(size)
    return st.one_of(
        st.just(np.ones(size, dtype=bool)),
        st.just(np.zeros(size, dtype=bool)),
        st.booleans().map(lambda odd: index % 2 == odd),
        # a single failing point, or a single passing one, at either end
        st.tuples(st.sampled_from([0, size - 1]), st.booleans()).map(
            lambda e: (index == e[0]) ^ e[1]
        ),
        st.lists(st.booleans(), min_size=size, max_size=size).map(np.array),
    )


@st.composite
def reports(draw):
    size = draw(st.integers(1, 40))
    column = st.lists(values, min_size=size, max_size=size)
    return _report(
        draw(masks(size)), draw(masks(size)), draw(column), draw(column), draw(st.integers(0, 3))
    )


class TestMasks:
    @given(reports())
    @settings(max_examples=300, deadline=None)
    @example(_report([True] * 5, [True] * 5, [1.0] * 5, [1.0] * 5))
    @example(_report([False] * 5, [False] * 5, [2, 3, 3, 1, 3], [-1, -4, 0, -4, 2]))
    @example(_report([False, True] * 3, [True, False] * 3, [1.0] * 6, [-1.0] * 6, cut=4))
    @example(_report([False, True, True], [True, True, False], [math.inf] * 3, [math.nan] * 3))
    @example(_report([False], [False], [math.nan], [-math.inf], cut=7))
    def test_runs_counts_and_worst_points(self, report):
        check_report(cli._grid_failures(report), report)

    def test_non_finite_failing_values_have_no_worst_point(self):
        report = _report([False] * 3, [False] * 3, [math.nan, math.inf, math.inf],
                         [-math.inf, math.nan, -math.inf])
        got = cli._grid_failures(report)
        assert got["fprime"]["worst"] is None and got["lhs"]["worst"] is None
        assert got["fprime"]["runs"] == got["lhs"]["runs"] == [
            {"from": 0, "to": 2, "s_from": 1e-3, "s_to": report.s[2]}
        ]

    def test_worst_point_skips_non_finite_values_and_keeps_the_first_tie(self):
        report = _report([False, True, False, False, False], [False] * 5,
                         [math.inf, 0.0, 2.0, math.nan, 2.0], [-1.0, -math.inf, -3.0, -3.0, 0.0])
        got = cli._grid_failures(report)
        assert got["fprime"]["runs"] == [
            {"from": 0, "to": 0, "s_from": 1e-3, "s_to": 1e-3},
            {"from": 2, "to": 4, "s_from": report.s[2], "s_to": report.s[4]},
        ]
        assert got["fprime"]["worst"] == {"s": report.s[2], "value": 2.0}
        assert got["lhs"]["worst"] == {"s": report.s[2], "value": -3.0}

    def test_alternating_mask_writes_one_run_per_failing_point(self):
        size = 9
        report = _report(np.arange(size) % 2 == 1, [True] * size, np.arange(size), [0.0] * size)
        runs = cli._grid_failures(report)["fprime"]["runs"]
        assert [(r["from"], r["to"]) for r in runs] == [(i, i) for i in range(0, size, 2)]


class TestCertifyReports:
    @pytest.mark.parametrize("spec", GRID_SPECS)
    def test_grid_workload_specs(self, capsys, spec):
        argv = ("certify", "-f", spec, "--dim", "3", "--grid-count", "20000", "--samples", "0",
                "--no-timestamp")
        main(list(argv))
        out = capsys.readouterr().out
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
        report = certifier.certify(cli.parse_function_spec(spec, 3), 3, GridSpec(1e-3, 1e3, 20000))
        check_report(doc["grid_failures"], report)
        # exp(s) overflows near s = 709.8, which cuts its columns there
        assert report.domain_failure == (spec == "exp(s)")

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        argv = ("certify", "-f", "-sqrt(s)", "--samples", "0", "--grid-count", "500",
                "--no-timestamp")
        assert main(list(argv)) == 1
        out = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert main([*argv, "-o", str(path)]) == 1
        assert path.read_text() == out
        failures = json.loads(out)["grid_failures"]
        assert failures["points"] == 500
        assert failures["lhs"]["runs"] == [{"from": 0, "to": 499, "s_from": 1e-3, "s_to": 1e3}]


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestColumns:
    GRID = GridSpec(1e-3, 1e3, 20000)

    # ln(s-1) fails at the first point and exp(exp(s)) near s = 6.56
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("spec", [*GRID_SPECS, "ln(s-1)", "exp(exp(s))"])
    def test_columns_match_the_plain_expressions(self, spec, n):
        f = cli.parse_function_spec(spec, n)
        tol = certifier.DEFAULT_TOL_BASE
        report = certifier.certify(f, n, self.GRID, tol)
        points = self.GRID.points()
        jet = eval_jet(f, points)
        failed = np.isnan(jet.v)
        cut = int(np.argmax(failed)) if failed.any() else len(points)
        s, d1, d2 = points[:cut], jet.d1[:cut], jet.d2[:cut]
        with np.errstate(all="ignore"):
            lhs = d2 + ((n - 1) / (n * s)) * d1
            band = tol + tol * np.abs(d1) + tol * np.abs(d2)
        fprime_ok = (d1 <= band) | (n == 1)
        lhs_ok = lhs >= -band
        for got, want in (
            (report.s, s),
            (report.fprime, d1),
            (report.lhs, lhs),
            (report.band, band),
            (report.fprime_ok, fprime_ok),
            (report.lhs_ok, lhs_ok),
        ):
            assert np.array_equal(got, want) and same_bits(got, want)
        assert report.domain_failure == failed.any()
