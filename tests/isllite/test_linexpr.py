"""Unit tests for affine expressions."""

import pytest
from fractions import Fraction

from repro.isllite import LinExpr


def test_var_and_cst():
    expr = LinExpr.var("i") + LinExpr.cst(3)
    assert expr.coeff("i") == 1
    assert expr.const == 3
    assert expr.names() == frozenset({"i"})


def test_zero_coefficients_dropped():
    expr = LinExpr({"i": 0, "j": 2})
    assert expr.names() == frozenset({"j"})


def test_addition_merges_coefficients():
    a = LinExpr({"i": 2, "j": 1}, 4)
    b = LinExpr({"i": -2, "k": 5}, 1)
    total = a + b
    assert total.coeff("i") == 0
    assert total.coeff("j") == 1
    assert total.coeff("k") == 5
    assert total.const == 5


def test_scalar_multiplication():
    expr = LinExpr({"i": 3}, 2) * -2
    assert expr.coeff("i") == -6
    assert expr.const == -4


def test_subtraction_and_negation():
    a = LinExpr.var("i")
    b = LinExpr.var("j")
    assert (a - b).coeff("j") == -1
    assert (-(a - b)).coeff("i") == -1


def test_rsub_with_int():
    expr = 5 - LinExpr.var("i")
    assert expr.const == 5
    assert expr.coeff("i") == -1


def test_evaluate():
    expr = LinExpr({"i": 2, "j": -1}, 7)
    assert expr.evaluate({"i": 3, "j": 4}) == 9
    assert expr.evaluate_int({"i": 3, "j": 4}) == 9


def test_evaluate_fraction_env():
    expr = LinExpr({"i": 2}, 1)
    assert expr.evaluate({"i": Fraction(1, 2)}) == 2


def test_partial_substitution():
    expr = LinExpr({"i": 2, "j": 3}, 1)
    part = expr.partial({"i": 5})
    assert part.coeff("i") == 0
    assert part.coeff("j") == 3
    assert part.const == 11


def test_substitute_with_expression():
    expr = LinExpr({"i": 2, "j": 1})
    result = expr.substitute("i", LinExpr.var("k") + 1)
    assert result.coeff("k") == 2
    assert result.coeff("j") == 1
    assert result.const == 2


def test_substitute_absent_name_is_identity():
    expr = LinExpr({"i": 1})
    assert expr.substitute("z", LinExpr.cst(5)) is expr


def test_rename():
    expr = LinExpr({"i": 2, "j": 3}, 1)
    renamed = expr.rename({"i": "x"})
    assert renamed.coeff("x") == 2
    assert renamed.coeff("j") == 3


def test_immutable():
    expr = LinExpr.var("i")
    with pytest.raises(AttributeError):
        expr.const = 5


def test_equality_and_hash():
    a = LinExpr({"i": 1}, 2)
    b = LinExpr.var("i") + 2
    assert a == b
    assert hash(a) == hash(b)
    assert a != LinExpr.var("i")


def test_rejects_non_integral_coefficients():
    with pytest.raises(TypeError):
        LinExpr({"i": Fraction(1, 2)})
    with pytest.raises(TypeError):
        LinExpr({"i": 1.5})
    with pytest.raises(TypeError):
        LinExpr.cst(True)


def test_float_integral_coefficient_accepted():
    assert LinExpr.cst(2.0).const == 2


def test_coerce():
    assert LinExpr.coerce(4) == LinExpr.cst(4)
    expr = LinExpr.var("i")
    assert LinExpr.coerce(expr) is expr


def test_repr_is_readable():
    expr = LinExpr({"i": 2, "j": -1}, -3)
    text = repr(expr)
    assert "2*i" in text
    assert "j" in text
