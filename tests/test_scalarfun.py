import gc
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detconvex.certifier import CERTIFIED, GridSpec, certify
from detconvex.errors import DomainError, NonFiniteError, ParameterError, ParseError
from detconvex.scalarfun import (
    MAX_DEPTH,
    Add,
    Constant,
    CurveTable,
    Div,
    Exp,
    FamilyA,
    LogFamily,
    Ln,
    Mul,
    Negate,
    NeoHookeVolumetric,
    Pow,
    PowerLaw,
    Sqrt,
    Sub,
    Variable,
    eval_jet,
    export_family_curves,
    failure_at,
    figure_families,
    parse,
)


class TestParser:
    def test_negated_log_shape(self):
        assert parse("-ln(s)") == Negate(Ln(Variable()))

    def test_power_right_associative(self):
        assert eval_jet(parse("2^3^2"), 1.5).v == 512.0

    def test_additive_left_associative(self):
        for s in (0.5, 2.0, 4.0):
            assert eval_jet(parse("1 - s + s"), s).v == 1.0

    def test_unary_minus_binds_looser_than_power(self):
        assert eval_jet(parse("-s^2"), 3.0).v == -9.0

    def test_unary_minus_in_products_and_exponents(self):
        assert eval_jet(parse("2*-s"), 3.0).v == -6.0
        assert eval_jet(parse("2^-1"), 1.0).v == 0.5

    def test_whitespace_insignificant(self):
        assert parse(" 1 -  s + s ") == parse("1-s+s")

    def test_parentheses(self):
        assert eval_jet(parse("(1+s)*(1-s)"), 0.5).v == 0.75

    @pytest.mark.parametrize(
        "text,offset",
        [("", 0), ("1 +", 3), ("(1+s", 4), ("1 @ 2", 2), ("ln s", 3), ("1..2", 2)],
    )
    def test_syntax_errors_carry_offset(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset

    # each of these overflowed the interpreter's recursion limit, in the
    # parser or in the evaluator; the offset is the operator or parenthesis
    # that opens level MAX_DEPTH + 1
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(" * 3000 + "s" + ")" * 3000, MAX_DEPTH),
            ("-" * 3000 + "s", MAX_DEPTH),
            ("+".join(["s"] * 3000), 2 * MAX_DEPTH + 1),
            ("^".join(["s"] * 3000), 2 * MAX_DEPTH + 1),
        ],
        ids=["parentheses", "unary-minus", "sum-chain", "power-chain"],
    )
    def test_deep_nesting_rejected_with_offset(self, text, offset):
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_depth_limit_itself_parses_and_evaluates(self):
        for text, value in (
            ("(" * MAX_DEPTH + "s" + ")" * MAX_DEPTH, 1.0),
            ("-" * MAX_DEPTH + "s", 1.0),
            ("+".join(["s"] * (MAX_DEPTH + 1)), MAX_DEPTH + 1.0),
            ("^".join(["s"] * (MAX_DEPTH + 1)), 1.0),
        ):
            assert eval_jet(parse(text), 1.0).v == value

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse("s + t")
        assert exc.value.offset == 4

    def test_overflowing_literal_rejected_at_its_offset(self):
        # 1e999 parsed to inf and ran as a constant
        for text, offset in (("1e999*s", 0), ("s + 2e400", 4), ("s^(1/.2e309)", 5)):
            with pytest.raises(ParseError, match="not a finite float") as exc:
                parse(text)
            assert exc.value.offset == offset
        # underflow to zero stays allowed
        assert parse("s + 1e-999") == parse("s + 0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")


# The parser's contract, pinned: each line of the file is a JSON pair of an
# input and what parse returns for it, the AST's repr or the ParseError's
# message with its offset.  ``python tests/test_scalarfun.py`` rewrites the
# file from parse_case_texts(), which a change to the parser's results
# needs to do on purpose.
PARSE_CASES = Path(__file__).parent / "golden" / "parse_cases.txt"

_TOKENS = (
    "s", "s", "1", "2.5", ".5", "3.", "1e3", "1E+2", "2e-3", "1e999", "1e-999", "ln", "exp",
    "sqrt", "ln(", "x", "e", "1.2.3", "+", "-", "*", "/", "^", "(", ")", " ", "@", "#", ",",
    "!", "\u00e9", "\t",
)
_ATOMS = ("s", "s", "2", "0.5", "1e3", "3.")


def _grammar_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_ATOMS)
    k = rng.randrange(5)
    if k == 0:
        return rng.choice(("ln", "exp", "sqrt")) + "(" + _grammar_text(rng, depth - 1) + ")"
    if k == 1:
        return "-" + _grammar_text(rng, depth - 1)
    if k == 2:
        return "(" + _grammar_text(rng, depth - 1) + ")"
    op = rng.choice("+-*/^")
    return _grammar_text(rng, depth - 1) + op + _grammar_text(rng, depth - 1)


def _nested_text(construct: str, depth: int) -> str:
    """``depth`` levels of one construct around s."""
    if construct in "+*^":
        return construct.join(["s"] * (depth + 1))
    return construct * depth + "s" + ")" * construct.count("(") * depth


def parse_case_texts(seed: int = 0) -> list:
    """Random token strings, grammar strings with and without one inserted
    fault, and nesting on either side of MAX_DEPTH."""
    rng = random.Random(seed)
    texts = ["", "   ", "ln(", "1e999", "s", "-", "()"]
    texts += ["".join(rng.choice(_TOKENS) for _ in range(rng.randrange(1, 9))) for _ in range(1000)]
    for i in range(1000):
        text = _grammar_text(rng, rng.randrange(1, 5))
        if i % 4:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("+-*/^()s1. @") + text[at:]
        texts.append(text)
    for construct in ("(", "-", "+", "^", "*", "sqrt(", "-(", "(-"):
        texts += [_nested_text(construct, d) for d in (98, 99, 100, 101, 102, 3000)]
    return texts


def parse_outcome(text: str) -> str:
    try:
        return repr(parse(text))
    except ParseError as e:
        return f"ParseError: {e}"


def test_parse_matches_the_pinned_cases():
    lines = PARSE_CASES.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2000
    for line in lines:
        text, want = json.loads(line)
        assert parse_outcome(text) == want, text


# Binding power of each node class by the README's grammar table: + - at 1,
# * / at 2, unary minus at 3 and ^ at 4; operands (a number, s, a call) bind
# tighter than all of them.
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Div: 2, Negate: 3, Pow: 4}
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}
_CALLS = {Ln: "ln", Exp: "exp", Sqrt: "sqrt"}


def show(e, least: int = 0) -> str:
    """e as text with the fewest parentheses the README's table allows;
    ``least`` is the lowest level that may stand unparenthesized here."""
    kind = type(e)
    if kind is Constant:
        return repr(e.value)
    if kind is Variable:
        return "s"
    if kind in _CALLS:
        return f"{_CALLS[kind]}({show(e.arg)})"
    level = _LEVEL[kind]
    if kind is Negate:
        # the operand of a unary minus is unary
        text = "-" + show(e.arg, 3)
    elif kind is Pow:
        # right associative: an atom below, a unary operand above
        text = show(e.base, 5) + "^" + show(e.exponent, 3)
    else:
        # left associative
        text = show(e.left, level) + _INFIX[kind] + show(e.right, level + 1)
    return text if level >= least else f"({text})"


_leaves = st.one_of(
    st.builds(Variable),
    st.builds(Constant, st.floats(0.0, allow_infinity=False, allow_nan=False).map(abs)),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda cls, a: cls(a), st.sampled_from([Negate, Ln, Exp, Sqrt]), children),
        st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([Add, Sub, Mul, Div, Pow]), children, children),
    )


def _depth(e) -> int:
    parts = [getattr(e, name) for name in e.__match_args__]
    return 1 + max((_depth(p) for p in parts if not isinstance(p, float)), default=0)


@given(st.recursive(_leaves, _extend, max_leaves=40).filter(lambda e: _depth(e) <= 8))
@settings(max_examples=500, deadline=None)
def test_printed_trees_parse_back(tree):
    assert parse(show(tree)) == tree


class TestEvalJet:
    def test_negated_log_jet(self):
        jet = eval_jet(parse("-ln(s)"), 2.0)
        assert jet.v == -math.log(2.0)
        assert jet.d1 == -0.5
        assert jet.d2 == 0.25

    def test_linear_power_law(self):
        jet = eval_jet(PowerLaw(c=1.0, p=1.0, d=0.0), 5.0)
        assert (jet.v, jet.d1, jet.d2) == (5.0, 1.0, 0.0)

    def test_family_limiting_branch_jet(self):
        jet = eval_jet(FamilyA(a=0.0, c=-3.0, d=3.0, n=3), 1.0)
        assert jet.v == 0.0
        assert jet.d1 == -1.0
        assert abs(jet.d2 - 2.0 / 3.0) <= 1e-15
        # cross-check the second derivative against central differences
        h = 1e-5
        fd2 = (
            eval_jet(FamilyA(a=0.0, c=-3.0, d=3.0, n=3), 1.0 + h).v
            - 2.0 * jet.v
            + eval_jet(FamilyA(a=0.0, c=-3.0, d=3.0, n=3), 1.0 - h).v
        ) / (h * h)
        assert abs(jet.d2 - fd2) <= 1e-4

    def test_an_array_is_walked_without_a_copy(self):
        s = np.geomspace(0.5, 2.0, 5)
        before = s.copy()
        assert eval_jet(parse("s"), s).v is s
        jet = eval_jet(parse("s^2 - ln(s)"), s)
        assert np.array_equal(s, before)
        assert not any(np.shares_memory(x, s) for x in jet)
        # another dtype is converted
        ints = np.arange(1, 4)
        assert eval_jet(parse("s"), ints).v.dtype == np.float64

    def test_a_failed_point_of_f_equal_s_leaves_the_callers_array(self):
        s = np.array([1.0, -1.0, 2.0])
        jet = eval_jet(parse("s"), s)
        assert s.tolist() == [1.0, -1.0, 2.0]
        assert np.isnan(jet.v).tolist() == [False, True, False]

    @pytest.mark.parametrize("s", [1e-2, 0.7, 1.0, 13.0, 1e2])
    def test_pos_part_domain_only(self, s):
        assert eval_jet(parse("sqrt(s)"), s).v == math.sqrt(s)

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_non_positive_point_rejected(self, s):
        with pytest.raises(DomainError):
            eval_jet(parse("s"), s)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            eval_jet(parse("ln(s-2)"), 1.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            eval_jet(parse("sqrt(s-2)"), 1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_jet(parse("1/(s-1)"), 1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            eval_jet(parse("(s-s)^-1"), 1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            eval_jet(parse("(0-s)^(1/2)"), 1.0)

    def test_negative_base_integer_power_ok(self):
        jet = eval_jet(parse("(s-2)^2"), 1.0)
        assert jet.v == 1.0 and jet.d1 == -2.0 and jet.d2 == 2.0

    def test_overflow_reported(self):
        with pytest.raises(NonFiniteError):
            eval_jet(parse("exp(exp(s))"), 100.0)

    @pytest.mark.parametrize(
        "as_input", [float, np.float64, np.array], ids=["float", "float64", "0-d"]
    )
    @pytest.mark.parametrize(
        "text, s, error, message",
        [
            ("s", 0.0, DomainError, "scalar functions are defined for s > 0, got s=0.0"),
            ("s", -1.0, DomainError, "scalar functions are defined for s > 0, got s=-1.0"),
            ("s", math.nan, DomainError, "scalar functions are defined for s > 0, got s=nan"),
            ("s", math.inf, DomainError, "scalar functions are defined for s > 0, got s=inf"),
            ("ln(s-2)", 1.0, DomainError, "ln of non-positive value -1.0"),
            ("sqrt(s-2)", 1.0, DomainError, "sqrt of non-positive value -1.0"),
            ("1/(s-1)", 1.0, DomainError, "division by zero"),
            ("(s-s)^-1", 1.0, DomainError, "0 raised to a negative power"),
            ("(0-s)^0.5", 2.0, DomainError, "-2.0 raised to non-integer power 0.5"),
            ("exp(s)", 800.0, NonFiniteError, "exp overflow at 800.0"),
            ("s^400", 1e3, NonFiniteError, "overflow in 1000.0 ** 400.0"),
            (
                "1e300*s^2",
                1e10,
                NonFiniteError,
                "non-finite jet Jet2(v=inf, d1=inf, d2=2e+300) at s=10000000000.0",
            ),
            # both terms fail; the first node in walk order is named
            ("ln(s-2)+sqrt(s-3)", 1.0, DomainError, "ln of non-positive value -1.0"),
            ("sqrt(s-3)+ln(s-2)", 1.0, DomainError, "sqrt of non-positive value -2.0"),
        ],
    )
    def test_failure_messages(self, text, s, error, message, as_input):
        with pytest.raises(error) as info:
            eval_jet(parse(text), as_input(s))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_a_failed_float_leaves_no_cyclic_garbage(self):
        # an exception kept by the walk would hold its own traceback's frames
        f = parse("exp(s)")
        gc.collect()
        gc.disable()
        try:
            failure_at(f, 800.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_jet_linearity_exact(self):
        for text in ("s^2 - 3*s + 1", "-ln(s)", "sqrt(s^2+1)"):
            e = parse(text)
            doubled = Add(e, e)
            for s in (0.3, 1.0, 7.5):
                one = eval_jet(e, s)
                two = eval_jet(doubled, s)
                assert (two.v, two.d1, two.d2) == (2 * one.v, 2 * one.d1, 2 * one.d2)

    def test_log_exp_identity(self):
        e = parse("ln(exp(s))")
        for s in np.geomspace(1e-2, 1e2, 20):
            jet = eval_jet(e, float(s))
            assert abs(jet.v - s) <= 1e-12 * (1.0 + s)
            assert abs(jet.d1 - 1.0) <= 1e-12
            assert abs(jet.d2) <= 1e-12

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(0.05, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_law_jets_match_central_differences(self, c, p, s):
        f = PowerLaw(c=c, p=p, d=0.5)
        jet = eval_jet(f, s)
        h = 1e-5 * max(1.0, s)
        vp, vm = eval_jet(f, s + h).v, eval_jet(f, s - h).v
        fd1 = (vp - vm) / (2 * h)
        fd2 = (vp - 2 * jet.v + vm) / (h * h)
        assert abs(jet.d1 - fd1) <= 1e-6 * max(1.0, abs(jet.d1))
        assert abs(jet.d2 - fd2) <= 1e-4 * max(1.0, abs(jet.d2))


class TestFamilies:
    @pytest.mark.parametrize(
        "f",
        [
            PowerLaw(c=-1.0, p=0.5, d=0.0),
            PowerLaw(c=2.0, p=-0.5, d=1.0),
            LogFamily(c=-2.0, d=0.5),
            NeoHookeVolumetric(mu=1.5),
            FamilyA(a=0.0, c=-1.0, d=0.0, n=3),
            FamilyA(a=1.0 / 3.0, c=-1.0, d=0.0, n=3),
            FamilyA(a=1.0, c=-2.0, d=1.0, n=3),
        ],
        ids=lambda f: type(f).__name__ + getattr(f, "branch", ""),
    )
    def test_family_jets_match_central_differences(self, f):
        for s in np.geomspace(1e-2, 1e2, 50):
            s = float(s)
            h = 1e-5 * max(1.0, s)
            jet = eval_jet(f, s)
            vp, vm = eval_jet(f, s + h).v, eval_jet(f, s - h).v
            fd1 = (vp - vm) / (2 * h)
            fd2 = (vp - 2 * jet.v + vm) / (h * h)
            assert abs(jet.d1 - fd1) <= 1e-6 * max(1.0, abs(jet.d1))
            assert abs(jet.d2 - fd2) <= 1e-4 * max(1.0, abs(jet.d2))

    def test_log_branch_reproduces_neg_ln(self):
        fam = FamilyA(a=1.0 / 3.0, c=-1.0, d=0.0, n=3)
        assert fam.branch == "log"
        for s in (0.2, 1.0, 9.0):
            assert abs(eval_jet(fam, s).v - (-math.log(s))) <= 1e-15

    def test_power_branch_values(self):
        fam = FamilyA(a=0.0, c=-3.0, d=3.0, n=3)
        assert eval_jet(fam, 1.0).v == 0.0
        assert eval_jet(fam, 8.0).v == -3.0

    def test_inverted_branch_values(self):
        fam = FamilyA(a=2.0 / 3.0, c=-3.0, d=-3.0, n=3)
        assert fam.branch == "inverted-power"
        assert abs(eval_jet(fam, 8.0).v - (-1.5)) <= 1e-14

    def test_branch_point_tolerance(self):
        assert FamilyA(a=1.0 / 3.0 + 5e-13, c=-1.0, d=0.0, n=3).branch == "log"
        assert FamilyA(a=1.0 / 3.0 + 1e-6, c=-1.0, d=0.0, n=3).branch == "inverted-power"

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            FamilyA(a=-0.1, c=-1.0, d=0.0, n=3)
        with pytest.raises(ParameterError):
            FamilyA(a=0.5, c=0.1, d=0.0, n=3)
        with pytest.raises(ParameterError):
            NeoHookeVolumetric(mu=0.0)

    def test_neo_hooke_is_scaled_neg_ln(self):
        f = NeoHookeVolumetric(mu=2.5)
        jet = eval_jet(f, 3.0)
        assert jet.v == -2.5 * math.log(3.0)
        assert jet.d1 == -2.5 / 3.0
        assert jet.d2 == 2.5 / 9.0

    def test_log_family(self):
        jet = eval_jet(LogFamily(c=-2.0, d=1.0), 2.0)
        assert jet.v == 1.0 - 2.0 * math.log(2.0)
        assert jet.d1 == -1.0


def boundary(c, d, n=3):
    """The boundary antiderivative c s^(1/n) + d, the family member a = 0."""
    return FamilyA(a=0.0, c=c, d=d, n=n)


class TestFLimit:
    def test_passes_through_origin_point(self):
        assert eval_jet(boundary(-3.0, 3.0), 1.0).v == 0.0

    def test_cube_root_decay(self):
        assert eval_jet(boundary(-3.0, 3.0), 8.0).v == -3.0

    def test_constant_solution(self):
        assert eval_jet(boundary(0.0, 5.0), 17.3).v == 5.0

    def test_positive_c_rejected(self):
        with pytest.raises(ParameterError):
            boundary(0.1, 0.0)

    def test_annihilates_differential_operator(self):
        fam = FamilyA(a=0.0, c=-2.0, d=0.7, n=3)
        for s in np.geomspace(1e-2, 1e2, 30):
            jet = eval_jet(fam, float(s))
            assert abs(jet.d2 + 2.0 / (3.0 * s) * jet.d1) <= 1e-12 * (1.0 + abs(jet.d1))

    def test_every_member_certifies(self):
        # the whole boundary family composes convexly with det
        for c, d in ((-3.0, 3.0), (-1.0, 0.0), (0.0, 2.0)):
            rep = certify(FamilyA(a=0.0, c=c, d=d, n=3), 3, GridSpec(1e-3, 1e3, 200))
            assert rep.verdict == CERTIFIED


class TestCurveTable:
    def test_csv_shape(self):
        t = CurveTable("demo", {"a": 0.5}, np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        lines = t.to_csv().splitlines()
        assert lines[0].startswith("# demo")
        assert "a=0.5" in lines[0]
        assert lines[1] == "x,y"
        assert lines[2] == "1.0,0.5"
        assert len(lines) == 4


class TestFigureCurves:
    def test_standard_members_hit_unit_point_with_unit_slope(self):
        for label, fam in figure_families():
            jet = eval_jet(fam, 1.0)
            assert jet.v == 0.0, label
            assert jet.d1 == -1.0, label

    def test_export_includes_extras(self):
        extra = FamilyA(a=0.9, c=-1.0, d=0.0, n=3)
        curves = export_family_curves([extra], GridSpec(0.05, 8.0, 50))
        assert len(curves) == 5
        assert curves[-1].params["a"] == 0.9

    def test_export_is_deterministic(self):
        a = [c.to_csv() for c in export_family_curves([], GridSpec(0.05, 8.0, 100))]
        b = [c.to_csv() for c in export_family_curves([], GridSpec(0.05, 8.0, 100))]
        assert a == b

    def test_inverse_branch_value(self):
        # the inverted-power curve at s=8: 3*8^(-1/3) - 3 = -1.5
        curves = export_family_curves([], GridSpec(1.0, 8.0, 4))
        inv = curves[3]
        assert abs(inv.ys[-1] - (-1.5)) <= 1e-12

    def test_csv_matches_a_per_point_reference(self):
        # one array evaluation per curve writes the bytes of one float
        # evaluation per point
        extra = FamilyA(a=0.9, c=-1.0, d=0.0, n=3)
        curves = export_family_curves([extra], GridSpec(0.05, 8.0, 2000))
        members = [fam for _, fam in figure_families()] + [extra]
        assert len(curves) == len(members)
        for curve, fam in zip(curves, members):
            header, rest = curve.to_csv().split("\n", 1)
            rows = [f"{float(s)!r},{eval_jet(fam, float(s)).v!r}" for s in curve.xs]
            assert rest == "x,y\n" + "\n".join(rows) + "\n"
            assert curve.xs.tolist() == np.geomspace(0.05, 8.0, 2000).tolist()

    def test_failing_point_raises_its_own_error(self):
        # s^(1/3 - 200) overflows at the small end of the range
        with pytest.raises(NonFiniteError, match="overflow"):
            export_family_curves([FamilyA(a=200.0, c=-1.0, d=0.0, n=3)], GridSpec(1e-3, 8.0, 10))

    def test_rejects_bad_range_and_extras(self):
        # the grid checks the range and count
        with pytest.raises(ParameterError):
            export_family_curves([], GridSpec(0.0, 8.0, 10))
        with pytest.raises(ParameterError):
            export_family_curves(["not a family"], GridSpec(0.05, 8.0, 10))


if __name__ == "__main__":
    with open(PARSE_CASES, "w", encoding="utf-8") as out:
        for text in parse_case_texts():
            out.write(json.dumps([text, parse_outcome(text)]) + "\n")
