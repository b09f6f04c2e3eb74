"""Value semantics of the package's records.

Expression nodes, the built-in families, ``GridSpec`` and ``IvpSpec`` are
immutable values: equal when they have the same class and equal fields,
hashable, with a ``Name(field=value, ...)`` repr, positional ``match``
patterns, and pickle and deepcopy round trips.  The result records are
pinned by their constructor's field names and order, and refuse
assignment.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from detconvex import certifier, detcalculus, linalg, odelimit, selftest
from detconvex.certifier import GridSpec
from detconvex.errors import ParameterError
from detconvex.odelimit import IvpSpec
from detconvex.scalarfun import (
    Add,
    Constant,
    Div,
    Exp,
    FamilyA,
    Ln,
    LogFamily,
    Mul,
    Negate,
    NeoHookeVolumetric,
    Pow,
    PowerLaw,
    Sqrt,
    Sub,
    Variable,
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
    PowerLaw(c=1.0, p=2.0),
    LogFamily(c=-2.0, d=0.5),
    FamilyA(a=0.5, c=-1.0),
    FamilyA(a=1.0 / 3.0, c=-1.0, d=2.0, n=3),
    NeoHookeVolumetric(mu=2.0),
)
SPECS = (GridSpec(), GridSpec(0.05, 8.0, 200), IvpSpec(1.0, -1.0), IvpSpec(xi=2.0, eta=0.0, n=5))
VALUES = NODES + FAMILIES + SPECS


class TestEquality:
    def test_same_fields_different_class_differ(self):
        assert Add(X, Y) != Sub(X, Y)
        assert Mul(X, Y) != Div(X, Y)
        assert Ln(X) != Exp(X) and Exp(X) != Sqrt(X) and Sqrt(X) != Negate(X)
        assert PowerLaw(c=-1.0, p=2.0) != LogFamily(c=-1.0, d=2.0)

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
        assert PowerLaw(1.0, 2.0) == PowerLaw(c=1.0, p=2.0, d=0.0)
        assert PowerLaw(1.0, 2.0) != PowerLaw(1.0, 2.0, 1.0)
        assert FamilyA(a=0.5, c=-1.0) != FamilyA(a=0.5, c=-1.0, n=4)
        assert GridSpec() == GridSpec(1e-3, 1e3, 1000) != GridSpec(count=999)
        assert IvpSpec(1.0, -1.0) == IvpSpec(xi=1.0, eta=-1.0, n=3)
        assert Constant(1.5) != 1.5 and Variable() != ()
        assert GridSpec() != (1e-3, 1e3, 1000)

    def test_curve_table_compares_by_identity(self):
        table = odelimit.solve_livp_numeric(IvpSpec(1.0, -1.0), 2.0, 20)
        assert table == table
        assert table != copy.deepcopy(table)
        assert hash(table) == hash(table)


class TestRepr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (PowerLaw(c=1.0, p=2.0), "PowerLaw(c=1.0, p=2.0, d=0.0)"),
            (LogFamily(c=-2.0, d=0.5), "LogFamily(c=-2.0, d=0.5)"),
            (FamilyA(a=0.5, c=-1.0), "FamilyA(a=0.5, c=-1.0, d=0.0, n=3)"),
            (NeoHookeVolumetric(mu=2), "NeoHookeVolumetric(mu=2)"),
            (GridSpec(), "GridSpec(s_min=0.001, s_max=1000.0, count=1000)"),
            (IvpSpec(1.0, -1.0), "IvpSpec(xi=1.0, eta=-1.0, n=3)"),
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

    def test_cached_expr_stays_out_of_the_repr(self):
        f = FamilyA(a=0.5, c=-1.0)
        f.expr
        assert repr(f) == "FamilyA(a=0.5, c=-1.0, d=0.0, n=3)"


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

    def test_cached_expr_cannot_be_assigned(self):
        f = PowerLaw(c=1.0, p=2.0)
        with pytest.raises(AttributeError):
            f.expr = Variable()
        assert f.expr == Add(Constant(0.0), Mul(Constant(1.0), Pow(Variable(), Constant(2.0))))


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
            (PowerLaw, ("c", "p", "d")),
            (LogFamily, ("c", "d")),
            (FamilyA, ("a", "c", "d", "n")),
            (NeoHookeVolumetric, ("mu",)),
            (GridSpec, ("s_min", "s_max", "count")),
            (IvpSpec, ("xi", "eta", "n")),
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

    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_family_with_cached_expr(self, family):
        expr = family.expr
        for twin in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family)):
            assert twin == family and twin.expr == expr


# A valid value of every field of the families and of IvpSpec.
FINITE_FIELDS = {
    PowerLaw: {"c": -1.0, "p": 0.5, "d": 0.0},
    LogFamily: {"c": -1.0, "d": 0.0},
    FamilyA: {"a": 0.5, "c": -1.0, "d": 0.0, "n": 3},
    NeoHookeVolumetric: {"mu": 1.0},
    IvpSpec: {"xi": 1.0, "eta": -1.0, "n": 3},
}


class TestValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FamilyA(a=-1, c=-1), "family parameter a=-1 must be >= 0"),
            (lambda: FamilyA(a=1, c=1), "family parameter c=1 must be <= 0"),
            (lambda: FamilyA(a=1, c=-1, n=0), "dimension n=0 must be >= 1"),
            (lambda: NeoHookeVolumetric(mu=0), "shear modulus mu=0 must be > 0"),
            (lambda: GridSpec(s_min=0), "s_min=0 must be positive"),
            (
                lambda: GridSpec(s_max=float("inf")),
                "s_max=inf must be finite and exceed s_min=0.001",
            ),
            (lambda: GridSpec(count=1), "grid count=1 must be >= 2"),
            (lambda: IvpSpec(xi=0, eta=0), "xi=0 must be positive"),
            (lambda: IvpSpec(xi=1, eta=1), "eta=1 must be <= 0 (slopes stay non-positive)"),
            (lambda: IvpSpec(xi=1, eta=0, n=0), "dimension n=0 must be >= 1"),
        ],
    )
    def test_error_class_and_message(self, build, message):
        with pytest.raises(ParameterError) as info:
            build()
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    @pytest.mark.parametrize(
        "cls, field",
        [(cls, field) for cls, fields in FINITE_FIELDS.items() for field in fields],
        ids=lambda x: x if isinstance(x, str) else x.__name__,
    )
    def test_non_finite_field_is_refused(self, cls, field, bad):
        # a NaN passed every comparison, and each of these built
        # (NeoHookeVolumetric(mu=nan) certified as Inconclusive)
        fields = dict(FINITE_FIELDS[cls], **{field: bad})
        with pytest.raises(ParameterError) as info:
            cls(**fields)
        assert str(info.value).endswith(f"{field}={bad} must be finite")


class TestFamilyExpr:
    @pytest.mark.parametrize("family", FAMILIES, ids=repr)
    def test_expr_is_built_once(self, family):
        assert family.expr is family.expr


def _records():
    report = certifier.certify(parse("s"), 3, GridSpec(0.5, 2.0, 5))
    curve = odelimit.solve_livp_numeric(IvpSpec(1.0, -1.0), 2.0, 20)
    return {
        "Witness": report.witnesses[0],
        "CertificationReport": report,
        "ConvexitySampleDiagnostics": certifier.sample_convexity(parse("-ln(s)"), 3, 5, 1),
        "OracleSweepResult": detcalculus.oracle_sweep(3, 7, 1),
        "ComparisonReport": odelimit.comparison_check(curve, IvpSpec(1.0, -1.0)),
        "CheckResult": selftest.CheckResult("c00", "name", True, "detail"),
        "PosDefMatrix": linalg.PosDefMatrix.from_diag([1.0, 2.0]),
    }


RECORD_FIELDS = {
    "Witness": (
        "kind", "s_star", "c", "h", "analytic_value", "fd_value", "step", "confirmed",
    ),
    "CertificationReport": (
        "verdict", "n", "grid", "s", "fprime", "lhs", "band", "fprime_ok", "lhs_ok",
        "witnesses", "tol", "analytic_convex", "annotations",
    ),
    "ConvexitySampleDiagnostics": (
        "samples_run", "samples_skipped", "min_hess_form", "min_midpoint_residual",
        "max_midpoint_residual", "hess_failures", "midpoint_failures",
    ),
    "OracleSweepResult": ("samples", "hess_disc", "grad_disc", "richardson", "skipped"),
    "ComparisonReport": (
        "classification", "is_weak_subsolution", "is_strict_subsolution",
        "is_weak_supersolution", "is_strict_supersolution", "initial_value_ok",
        "ordering_checked", "ordering_violations", "residuals", "y_limit_values",
    ),
    "CheckResult": ("cid", "name", "passed", "detail"),
    "PosDefMatrix": ("a", "det", "inverse", "eigenvalues", "q"),
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
        assert records["PosDefMatrix"].n == 2
        oracle = records["OracleSweepResult"]
        assert oracle.max_hess_disc == float(oracle.hess_disc.max())
        assert oracle.all_agree is True
