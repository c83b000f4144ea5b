"""Unit tests for affine constraints and their normalization."""

import pytest

from repro.isllite import Constraint, LinExpr, eq, ge, le


def v(name):
    return LinExpr.var(name)


def test_ge_constructor():
    con = ge(v("i"), 3)
    assert not con.is_eq
    assert con.satisfied({"i": 3})
    assert not con.satisfied({"i": 2})


def test_le_constructor():
    con = le(v("i"), 3)
    assert con.satisfied({"i": 3})
    assert not con.satisfied({"i": 4})


def test_eq_constructor():
    con = eq(v("i") + v("j"), 5)
    assert con.is_eq
    assert con.satisfied({"i": 2, "j": 3})
    assert not con.satisfied({"i": 2, "j": 4})


def test_gcd_normalization_inequality_tightens():
    # 2i - 3 >= 0 over the integers means i >= 2, i.e. i - 2 >= 0.
    con = Constraint(LinExpr({"i": 2}, -3))
    assert con.expr.coeff("i") == 1
    assert con.expr.const == -2


def test_gcd_normalization_equality():
    con = Constraint(LinExpr({"i": 2, "j": 4}, 6), is_eq=True)
    assert con.expr.coeff("i") == 1
    assert con.expr.coeff("j") == 2
    assert con.expr.const == 3


def test_unsatisfiable_equality_not_divided():
    # 2i + 1 == 0 has no integer solution; normalization must not corrupt it.
    con = Constraint(LinExpr({"i": 2}, 1), is_eq=True)
    assert not con.satisfied({"i": 0})
    assert not con.satisfied({"i": -1})


def test_trivially_true_false():
    assert ge(LinExpr.cst(0), 0).is_trivially_true()
    assert ge(LinExpr.cst(-1), 0).is_trivially_false()
    assert eq(LinExpr.cst(0), 0).is_trivially_true()
    assert eq(LinExpr.cst(2), 0).is_trivially_false()
    assert not ge(v("i"), 0).is_trivially_true()


def test_negate_inequality():
    con = ge(v("i"), 3)  # i >= 3
    neg = con.negate()  # i <= 2
    assert neg.satisfied({"i": 2})
    assert not neg.satisfied({"i": 3})


def test_negate_equality_raises():
    with pytest.raises(ValueError):
        eq(v("i"), 0).negate()


def test_equality_as_inequalities():
    pair = eq(v("i"), 4).as_inequalities()
    assert len(pair) == 2
    assert all(p.satisfied({"i": 4}) for p in pair)
    assert not all(p.satisfied({"i": 5}) for p in pair)


def test_inequality_as_inequalities_identity():
    con = ge(v("i"), 0)
    assert con.as_inequalities() == (con,)


def test_partial_and_rename():
    con = ge(v("i") + v("j"), 4)
    assert con.partial({"j": 4}).satisfied({"i": 0})
    renamed = con.rename({"i": "x"})
    assert renamed.satisfied({"x": 4, "j": 0})


def test_constraint_equality_and_hash():
    a = ge(v("i"), 3)
    b = ge(v("i") + 0, 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != eq(v("i"), 3)


def test_immutability():
    con = ge(v("i"), 0)
    with pytest.raises(AttributeError):
        con.is_eq = True
