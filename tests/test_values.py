"""Value semantics of the package's records.

Expression nodes, the trees of family members among them, and
``GridSpec`` are immutable values: equal when they have the same class
and equal fields, hashable, with a ``Name(field=value, ...)`` repr,
positional ``match`` patterns, and pickle and deepcopy round trips.  The result records are
pinned by their constructor's field names and order, and refuse
assignment.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from detconvex import certifier, detcalculus, linalg, selftest
from detconvex.certifier import GridSpec
from detconvex.errors import ParameterError
from detconvex.scalarfun import (
    Add,
    Constant,
    Div,
    Exp,
    Ln,
    Mul,
    Negate,
    Pow,
    Sqrt,
    Sub,
    Variable,
    eval_jet,
    family,
    parse,
)

X, Y = Variable(), Constant(2.0)

NODES = (
    Constant(1.5),
    Variable(),
    Negate(X),
    Add(X, Y),
    Sub(X, Y),
    Mul(X, Y),
    Div(X, Y),
    Pow(X, Y),
    Ln(X),
    Exp(X),
    Sqrt(X),
    parse("-ln(s)+2*s^0.5/(1-exp(s))"),
)
FAMILIES = (
    family("power", c=1.0, p=2.0),
    family("log", c=-2.0, d=0.5),
    family("fa", a=0.5, c=-1.0),
    family("fa", 3, a=1.0 / 3.0, c=-1.0, d=2.0),
    family("neohooke", mu=2.0),
)
SPECS = (GridSpec(), GridSpec(0.05, 8.0, 200))
VALUES = NODES + FAMILIES + SPECS


class TestEquality:
    def test_same_fields_different_class_differ(self):
        assert Add(X, Y) != Sub(X, Y)
        assert Mul(X, Y) != Div(X, Y)
        assert Ln(X) != Exp(X) and Exp(X) != Sqrt(X) and Sqrt(X) != Negate(X)

    def test_parsed_trees_equal_with_equal_hashes(self):
        a, b = parse("s+1"), parse("s+1")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert parse("s+1") != parse("1+s")
        assert parse("s+1") != parse("s+2")

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_rebuilt_value_is_equal_and_hashes_equal(self, value):
        twin = type(value)(*(getattr(value, k) for k in value.__match_args__))
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert {value: 1}[twin] == 1
        named = type(value)(**{k: getattr(value, k) for k in value.__match_args__})
        assert named == value

    def test_equality_is_by_fields(self):
        assert GridSpec() == GridSpec(1e-3, 1e3, 1000) != GridSpec(count=999)
        assert Constant(1.5) != 1.5 and Variable() != ()
        assert GridSpec() != (1e-3, 1e3, 1000)


class TestRepr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (GridSpec(), "GridSpec(s_min=0.001, s_max=1000.0, count=1000)"),
            (Variable(), "Variable()"),
            (Sqrt(X), "Sqrt(arg=Variable())"),
            (
                parse("-ln(s)+2*s^0.5/(1-exp(s))"),
                "Add(left=Negate(arg=Ln(arg=Variable())), right=Div(left=Mul(left="
                "Constant(value=2.0), right=Pow(base=Variable(), exponent=Constant("
                "value=0.5))), right=Sub(left=Constant(value=1.0), right=Exp(arg="
                "Variable()))))",
            ),
        ],
    )
    def test_dataclass_style_repr(self, value, text):
        assert repr(value) == text

    def test_compiled_program_stays_out_of_the_repr(self):
        f = family("fa", a=0.5, c=-1.0)
        eval_jet(f, 1.0)
        assert repr(f) == (
            "Add(left=Constant(value=0.0), right=Mul(left=Constant(value=1.0), right="
            "Pow(base=Variable(), exponent=Constant(value=-0.16666666666666669))))"
        )


class TestImmutable:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_assignment_and_deletion_raise(self, value):
        for name in value.__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1.0

    def test_compiled_program_cannot_be_assigned(self):
        f = family("power", c=1.0, p=2.0)
        with pytest.raises(AttributeError):
            f._program = ()
        assert f == Add(Constant(0.0), Mul(Constant(1.0), Pow(Variable(), Constant(2.0))))


class TestMatch:
    @pytest.mark.parametrize(
        "cls, fields",
        [
            (Constant, ("value",)),
            (Variable, ()),
            (Negate, ("arg",)),
            (Add, ("left", "right")),
            (Sub, ("left", "right")),
            (Mul, ("left", "right")),
            (Div, ("left", "right")),
            (Pow, ("base", "exponent")),
            (Ln, ("arg",)),
            (Exp, ("arg",)),
            (Sqrt, ("arg",)),
            (GridSpec, ("s_min", "s_max", "count")),
        ],
    )
    def test_match_args(self, cls, fields):
        assert cls.__match_args__ == fields

    def test_positional_and_keyword_patterns(self):
        match parse("2*ln(s)"):
            case Mul(Constant(c), Ln(arg=Variable())):
                assert c == 2.0
            case _:
                pytest.fail("no pattern matched")
        match GridSpec(0.5, 2.0, 3):
            case GridSpec(lo, hi, count=k):
                assert (lo, hi, k) == (0.5, 2.0, 3)


class TestRoundTrips:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_pickle_and_deepcopy(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value)

    @pytest.mark.parametrize("member", FAMILIES, ids=repr)
    def test_family_with_compiled_program(self, member):
        jet = eval_jet(member, 2.0)
        for twin in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member)):
            assert twin == member and eval_jet(twin, 2.0) == jet


# A valid value of every parameter of the families.
FINITE_FIELDS = {
    "power": {"c": -1.0, "p": 0.5, "d": 0.0},
    "log": {"c": -1.0, "d": 0.0},
    "fa": {"a": 0.5, "c": -1.0, "d": 0.0},
    "neohooke": {"mu": 1.0},
}


class TestValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: family("fa", a=-1, c=-1), "family parameter a=-1 must be >= 0"),
            (lambda: family("fa", a=1, c=1), "family parameter c=1 must be <= 0"),
            (lambda: family("fa", 0, a=1, c=-1), "dimension n=0 must be >= 1"),
            (lambda: family("neohooke", mu=0), "shear modulus mu=0 must be > 0"),
            (lambda: GridSpec(s_min=0), "s_min=0 must be positive"),
            (
                lambda: GridSpec(s_max=float("inf")),
                "s_max=inf must be finite and exceed s_min=0.001",
            ),
            (lambda: GridSpec(count=1), "grid count=1 must be >= 2"),
        ],
    )
    def test_error_class_and_message(self, build, message):
        with pytest.raises(ParameterError) as info:
            build()
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    @pytest.mark.parametrize(
        "name, field", [(name, field) for name, fields in FINITE_FIELDS.items() for field in fields]
    )
    def test_non_finite_field_is_refused(self, name, field, bad):
        # a NaN passed every comparison, and each of these built
        # (neohooke with mu=nan certified as Inconclusive)
        fields = dict(FINITE_FIELDS[name], **{field: bad})
        with pytest.raises(ParameterError) as info:
            family(name, **fields)
        assert str(info.value) == f"family {name!r} parameter {field}={bad} must be finite"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_non_finite_dimension_is_refused(self, bad):
        # n = nan passed the n >= 1 check and built a NaN exponent
        with pytest.raises(ParameterError) as info:
            family("fa", bad, a=0.5, c=-1.0)
        assert str(info.value) == f"dimension n={bad!r} must be an integer"


def _records():
    report = certifier.certify(parse("s"), 3, GridSpec(0.5, 2.0, 5))
    return {
        "Witness": report.witnesses[0],
        "CertificationReport": report,
        "ConvexitySampleDiagnostics": certifier.sample_convexity(parse("-ln(s)"), 3, 5, 1),
        "BeyondGrid": certifier.beyond_grid(parse("s"), 3, GridSpec(0.5, 2.0, 5), 1e-9),
        "OracleSweepResult": detcalculus.oracle_sweep(3, 7, 1),
        "CheckResult": selftest.CheckResult("c00", "name", True, "detail"),
        "PosDefMatrix": linalg.PosDefMatrix.from_sym(np.diag([1.0, 2.0])),
    }


RECORD_FIELDS = {
    "Witness": (
        "kind", "s_star", "c", "h", "det_c", "analytic_value", "tau", "gap", "gap_bound",
        "confirmed_by",
    ),
    "CertificationReport": (
        "verdict", "n", "grid", "s", "fprime", "lhs", "band", "fprime_ok", "lhs_ok",
        "witnesses", "tol", "analytic_convex", "annotations", "diagnostics", "beyond_grid",
    ),
    "ConvexitySampleDiagnostics": (
        "samples_run", "samples_skipped", "min_midpoint_residual",
        "max_midpoint_residual", "midpoint_failures", "max_midpoint_sample",
    ),
    "BeyondGrid": ("grid", "s", "fprime", "lhs", "fprime_bad", "lhs_bad", "skipped"),
    "OracleSweepResult": ("samples", "hess_disc", "grad_disc", "richardson", "skipped"),
    "CheckResult": ("cid", "name", "passed", "detail"),
    "PosDefMatrix": ("a", "det"),
}


class TestRecords:
    @pytest.fixture(scope="class")
    def records(self):
        return _records()

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_field_names_and_order(self, records, name):
        record = records[name]
        assert type(record).__name__ == name
        fields = RECORD_FIELDS[name]
        assert tuple(inspect.signature(type(record)).parameters) == fields
        rebuilt = type(record)(*(getattr(record, k) for k in fields))
        assert all(getattr(rebuilt, k) is getattr(record, k) for k in fields)

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_assignment_raises(self, records, name):
        record = records[name]
        with pytest.raises(AttributeError):
            setattr(record, RECORD_FIELDS[name][0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_properties_carry_over(self, records):
        report = records["CertificationReport"]
        assert np.array_equal(report.failing_points, np.arange(5))
        assert report.domain_failure is False
        oracle = records["OracleSweepResult"]
        assert oracle.max_hess_disc == float(oracle.hess_disc.max())
        assert oracle.all_agree is True
