import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import exprlang, jets
from curvlab.errors import (
    EvaluationDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    VariableRangeError,
)
from helpers import expr_callable, random_expr


def ev(source, point, dim=None):
    dim = dim if dim is not None else len(point)
    expr = exprlang.parse(source, dim)
    return exprlang.evaluate(expr, jets.seed(point, 2)).value


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3", [0.0]) == 7.0
    assert ev("2*x1^2", [3.0]) == 18.0  # ^ binds over *
    assert ev("-x1^2", [3.0]) == -9.0  # ^ binds over unary minus
    assert ev("(  2 - 3 ) - 4", [0.0]) == -5.0
    assert ev("2 - 3 - 4", [0.0]) == -5.0  # left associative
    assert ev("12 / 3 / 2", [0.0]) == 2.0
    assert ev("2*x1 + 3*x2", [1.0, 10.0]) == 32.0


def test_number_formats():
    assert ev("1.5e2", [0.0]) == 150.0
    assert ev(".25", [0.0]) == 0.25
    assert ev("2E-2", [0.0]) == 0.02


def test_functions_match_math():
    for fn, ref in [
        ("sin", math.sin),
        ("cos", math.cos),
        ("exp", math.exp),
    ]:
        assert ev(f"{fn}(x1)", [0.37]) == pytest.approx(ref(0.37), abs=1e-15)
    assert ev("log(x1)", [2.5]) == pytest.approx(math.log(2.5), abs=1e-15)
    assert ev("sqrt(x1)", [2.5]) == pytest.approx(math.sqrt(2.5), abs=1e-15)


def test_half_integer_exponent():
    assert ev("x1^1.5", [4.0]) == pytest.approx(8.0)
    assert ev("x1^(-0.5)", [4.0]) == pytest.approx(0.5)
    with pytest.raises(ExprSyntaxError):
        exprlang.parse("x1^0.3", 1)
    with pytest.raises(ExprSyntaxError):
        exprlang.parse("x1^x1", 1)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        exprlang.parse("1 + cos(", 2)
    assert exc.value.offset == 8
    with pytest.raises(ExprSyntaxError) as exc:
        exprlang.parse("1 ? 2", 2)
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError) as exc:
        exprlang.parse("(1 + 2", 2)
    assert exc.value.offset == 6
    with pytest.raises(ExprSyntaxError):
        exprlang.parse("", 2)
    with pytest.raises(ExprSyntaxError):
        exprlang.parse("1 2", 2)  # no implicit multiplication


def test_identifier_errors():
    with pytest.raises(UnknownIdentifierError) as exc:
        exprlang.parse("tan(x1)", 2)
    assert exc.value.offset == 0
    with pytest.raises(UnknownIdentifierError):
        exprlang.parse("x1 + foo", 2)
    with pytest.raises(VariableRangeError) as exc:
        exprlang.parse("x5", 2)
    assert exc.value.offset == 0
    with pytest.raises(VariableRangeError):
        exprlang.parse("x0", 2)


def test_domain_error_carries_source_offset():
    expr = exprlang.parse("1 + log(x1 - 10)", 1)
    with pytest.raises(EvaluationDomainError) as exc:
        exprlang.evaluate(expr, jets.seed([0.0], 2))
    assert exc.value.offset == 4
    with pytest.raises(EvaluationDomainError):
        exprlang.evaluate_values(expr, [0.0])


@pytest.mark.parametrize(
    "source, evaluator",
    [
        ("1 + exp(1000*x1)", "jets"),
        ("1 + exp(1000*x1)", "values"),
        ("1 + log(1e-200*x1)", "jets"),  # only its derivatives leave the range
        ("1 + (1e200*x1)^2", "values"),
    ],
)
def test_float_range_errors_carry_source_offset(source, evaluator):
    expr = exprlang.parse(source, 1)
    with pytest.raises(EvaluationDomainError) as exc:
        if evaluator == "jets":
            exprlang.evaluate(expr, jets.seed([1.0], 2))
        else:
            exprlang.evaluate_values(expr, [1.0])
    assert exc.value.offset is not None


@pytest.mark.parametrize("func", ["sin", "cos"])
@pytest.mark.parametrize("evaluator", ["jets", "values"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the jet product overflows first
def test_trigonometry_of_infinity_is_a_domain_error(func, evaluator):
    expr = exprlang.parse(f"2 + {func}(1e200*x1*1e200)", 1)
    with pytest.raises(EvaluationDomainError) as exc:
        if evaluator == "jets":
            exprlang.evaluate(expr, jets.seed([1.0], 2))
        else:
            exprlang.evaluate_values(expr, [1.0])
    assert exc.value.offset == 4
    assert str(exc.value).endswith("(at offset 4)")


def test_evaluate_values_agrees_with_jet_evaluator(rng):
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        src = random_expr(rng, dim)
        expr = exprlang.parse(src, dim)
        pt = rng.uniform(-0.7, 0.7, size=dim)
        a = exprlang.evaluate(expr, jets.seed(pt, 0)).value
        b = exprlang.evaluate_values(expr, pt)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_to_source_round_trip_structural(rng):
    # parse(to_source(e)) must reproduce the tree exactly (positions are
    # excluded from AST equality)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        src = random_expr(rng, dim, depth=4)
        tree = exprlang.parse(src, dim)
        assert exprlang.parse(exprlang.to_source(tree), dim) == tree


def test_to_source_respects_precedence():
    tree = exprlang.parse("(x1 + x2) * x1", 2)
    again = exprlang.to_source(tree)
    assert exprlang.parse(again, 2) == tree
    pt = [0.7, -0.3]
    assert ev(again, pt) == pytest.approx(ev("(x1 + x2) * x1", pt))
    # left-nested subtraction must not flatten associativity
    tree = exprlang.parse("x1 - (x1 - x2)", 2)
    assert ev(exprlang.to_source(tree), pt) == pytest.approx(pt[1])


def test_variables_used():
    assert exprlang.variables_used(exprlang.parse("x1 + cos(x3)*2", 4)) == {1, 3}
    assert exprlang.variables_used(exprlang.parse("1.5", 4)) == set()


def test_whitespace_insensitive():
    a = exprlang.parse("x1+2 * x2", 2)
    b = exprlang.parse("  x1 + 2*x2  ", 2)
    assert a == b


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_polynomial_evaluation_exact(a, b):
    expr = exprlang.parse("x1^2 - 2*x1*x2 + x2^2", 2)
    got = exprlang.evaluate_values(expr, [a, b])
    assert got == pytest.approx((a - b) ** 2, rel=1e-12, abs=1e-12)


def test_jet_derivatives_through_parser():
    expr = exprlang.parse("x1^2 * x2 + sin(x2)", 2)
    out = exprlang.evaluate(expr, jets.seed([2.0, 0.0], 3))
    assert out.derivative((1, 1)) == pytest.approx(4.0)  # d2/dx1dx2 = 2 x1
    assert out.derivative((0, 1)) == pytest.approx(5.0)  # x1^2 + cos(0)
    assert out.derivative((0, 3)) == pytest.approx(-1.0)  # -cos(0)
