"""The certify report writer against the json.dumps(indent=2) reference.

``cli._report_text`` writes the failing points from three float columns
instead of letting the pure-Python indenting encoder walk one dict per
point.  Every test here requires its text to equal, byte for byte, what
``json.dumps(doc, indent=2)`` gives for the same document with the points
written out as {"s", "fprime", "lhs"} objects.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detconvex import cli
from detconvex.cli import main

SWEEP_SPECS = (
    "-ln(s)",
    "family:fa:a=0.5",
    "family:neohooke:mu=2",
    "family:power:p=0.5",
    "s",
    "-ln(s)+1e-7*s^2",
    "exp(s)",
)
GRID_SPECS = SWEEP_SPECS + ("-sqrt(s)", "1/s", "s^(1/3)", "-s*ln(s)+s^2/(1+s)")

AWKWARD_TEXT = ('"', "\\", "\n", "é ∂ 😀  ", '"failing_points": []', '{"failing_points": []}')


def reference(doc: dict, columns) -> str:
    rows = zip(*(c.tolist() for c in columns))
    points = [{"s": s, "fprime": fprime, "lhs": lhs} for s, fprime, lhs in rows]
    return json.dumps({**doc, "failing_points": points}, indent=2)


def _columns(rows) -> tuple:
    """The three columns of a list of (s, fprime, lhs) rows."""
    return tuple(np.array(c, dtype=float) for c in zip(*rows)) or (np.empty(0),) * 3


floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308]),
)
texts = st.one_of(
    st.text(),
    st.sampled_from(AWKWARD_TEXT),
    st.lists(st.sampled_from(AWKWARD_TEXT)).map("".join),
)
rows = st.tuples(floats, floats, floats)
failing_columns = st.one_of(
    st.just([]),
    st.lists(rows, min_size=1, max_size=1),
    st.lists(rows, min_size=2, max_size=40),
).map(_columns)
matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(floats, min_size=n, max_size=n), min_size=n, max_size=n)
)
witnesses = st.fixed_dictionaries(
    {"kind": texts, "s": floats, "C": matrices, "H": matrices, "analytic": floats, "fd": floats}
)


@st.composite
def report_docs(draw):
    doc = {
        "version": draw(texts),
        "function_source": draw(st.one_of(st.none(), texts)),
        "n": draw(st.integers(1, 64)),
        "grid": {
            "s_min": draw(floats),
            "s_max": draw(floats),
            "count": draw(st.integers(2, 10**6)),
        },
        "tol": draw(floats),
        "verdict": draw(texts),
        "failing_points": [],
        "witnesses": draw(st.lists(witnesses, max_size=2)),
        "diagnostics": {
            "samples_run": draw(st.integers(0, 10**6)),
            "samples_skipped": draw(st.integers(0, 10**6)),
            "min_hess_form": draw(st.one_of(st.none(), floats)),
        },
        "analytic_convex": draw(st.sampled_from([None, True, False])),
        "annotations": draw(st.lists(texts, max_size=3)),
        "seed": draw(st.integers(-(2**63), 2**63)),
        "rng": draw(texts),
    }
    if draw(st.booleans()):
        doc["timestamp"] = draw(texts)
    return doc, draw(failing_columns)


def _doc(rows, source="s", annotations=()):
    """(document, columns) with the failing points ``rows``."""
    doc = {
        "version": "0",
        "function_source": source,
        "n": 3,
        "failing_points": [],
        "annotations": list(annotations),
        "seed": 1,
    }
    return doc, _columns(rows)


class TestAgainstReference:
    @given(report_docs())
    @settings(max_examples=150, deadline=None)
    @example(_doc(()))
    @example(_doc([(math.nan, math.inf, -math.inf)]))
    @example(_doc([(-0.0, 5e-324, 1e308)] * 3))
    def test_generated_documents(self, doc_columns):
        assert cli._report_text(*doc_columns) == reference(*doc_columns)

    @pytest.mark.parametrize("text", AWKWARD_TEXT)
    def test_awkward_source_and_annotations(self, text):
        points = [(1.0, 2.5, -3.0), (0.1, math.nan, -0.0)]
        for doc_columns in (
            _doc(points, source=text, annotations=[text, "x" + text]),
            _doc((), source=text, annotations=[text]),
        ):
            assert cli._report_text(*doc_columns) == reference(*doc_columns)

    def test_non_finite_in_one_column_only(self):
        doc_columns = _doc([(1.0, math.inf, 2.0), (3.0, 4.0, 5.0)])
        text = cli._report_text(*doc_columns)
        assert text == reference(*doc_columns)
        assert '"fprime": Infinity' in text and '"lhs": 5.0' in text


def _captured_reports(monkeypatch, capsys, argvs):
    """(doc, columns, stdout) for each certify command line, with the
    document and columns the command handed to the writer."""
    docs = []
    writer = cli._report_text

    def spy(doc, columns):
        docs.append((doc, columns))
        return writer(doc, columns)

    monkeypatch.setattr(cli, "_report_text", spy)
    out = []
    for argv in argvs:
        main(list(argv))
        out.append((*docs[-1], capsys.readouterr().out))
    return out


class TestRealReports:
    def test_grid_workload_reports(self, monkeypatch, capsys):
        argvs = [
            ("certify", "-f", spec, "--dim", "3", "--grid-count", "20000", "--samples", "0",
             "--no-timestamp")
            for spec in GRID_SPECS
        ]
        sizes = []
        for doc, columns, out in _captured_reports(monkeypatch, capsys, argvs):
            assert out == reference(doc, columns) + "\n"
            sizes.append(len(columns[0]))
        # refuted specs list thousands of points, certified ones none
        assert max(sizes) == 20000 and min(sizes) == 0

    def test_sweep_workload_reports(self, monkeypatch, capsys):
        argvs = [
            ("certify", "-f", spec, "--dim", "5", "--samples", "50", "--seed", str(i))
            for i, spec in enumerate(SWEEP_SPECS)
        ]
        for doc, columns, out in _captured_reports(monkeypatch, capsys, argvs):
            assert "timestamp" in doc
            assert out == reference(doc, columns) + "\n"

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        argv = ("certify", "-f", "-sqrt(s)", "--samples", "0", "--grid-count", "500",
                "--no-timestamp")
        assert main(list(argv)) == 1
        out = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert main([*argv, "-o", str(path)]) == 1
        assert path.read_text() == out
        assert len(json.loads(out)["failing_points"]) == 500
