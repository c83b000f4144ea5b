"""Affine constraints: ``expr >= 0`` (inequality) or ``expr == 0`` (equality).

Constraints are normalized: coefficients are divided by their gcd (for
inequalities the constant is floored after division, which tightens the
constraint to its integer hull along that facet -- the same normalization isl
applies).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.isllite.linexpr import LinExpr, Number


class Constraint:
    """``expr >= 0`` when ``is_eq`` is False, ``expr == 0`` otherwise."""

    __slots__ = ("expr", "is_eq")

    def __init__(self, expr: LinExpr, is_eq: bool = False):
        object.__setattr__(self, "expr", _normalize(expr, is_eq))
        object.__setattr__(self, "is_eq", bool(is_eq))

    def __setattr__(self, name, value):
        raise AttributeError("Constraint is immutable")

    # -- inspection --------------------------------------------------------

    def names(self) -> frozenset:
        return self.expr.names()

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        return self.expr.const == 0 if self.is_eq else self.expr.const >= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        return self.expr.const != 0 if self.is_eq else self.expr.const < 0

    def satisfied(self, env: Mapping[str, Number]) -> bool:
        value = self.expr.evaluate(env)
        return value == 0 if self.is_eq else value >= 0

    # -- transformation ----------------------------------------------------

    def partial(self, env: Mapping[str, Number]) -> "Constraint":
        return Constraint(self.expr.partial(env), self.is_eq)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.is_eq)

    def substitute(self, name: str, replacement: LinExpr) -> "Constraint":
        return Constraint(self.expr.substitute(name, replacement), self.is_eq)

    def negate(self) -> "Constraint":
        """Integer negation of an inequality: ``not (e >= 0)`` is ``-e - 1 >= 0``.

        Equalities cannot be negated into a single constraint; callers split
        them into two inequalities first.
        """
        if self.is_eq:
            raise ValueError("cannot negate an equality into one constraint")
        return Constraint(-self.expr - 1, is_eq=False)

    def as_inequalities(self):
        """An equality as the pair (e >= 0, -e >= 0); an inequality as itself."""
        if self.is_eq:
            return (Constraint(self.expr), Constraint(-self.expr))
        return (self,)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.is_eq == other.is_eq and self.expr == other.expr

    def __hash__(self) -> int:
        return hash((self.expr, self.is_eq))

    def __repr__(self) -> str:
        op = "=" if self.is_eq else ">="
        return f"{self.expr!r} {op} 0"


def _normalize(expr: LinExpr, is_eq: bool) -> LinExpr:
    coeffs = expr.coeffs
    if not coeffs:
        return expr
    g = 0
    for coeff in coeffs.values():
        g = math.gcd(g, abs(coeff))
    if g <= 1:
        return expr
    if is_eq:
        if expr.const % g != 0:
            # ``g | const`` fails: the equality has no integer solutions.
            # Keep it un-normalized; emptiness checks will catch it.  We
            # cannot represent "false" as a single normalized equality.
            return expr
        return LinExpr({n: c // g for n, c in coeffs.items()}, expr.const // g)
    return LinExpr(
        {n: c // g for n, c in coeffs.items()}, math.floor(expr.const / g)
    )


def _pair(lhs, rhs):
    return LinExpr.coerce(lhs), LinExpr.coerce(rhs)


def eq(lhs, rhs=0) -> Constraint:
    """``lhs == rhs``."""
    left, right = _pair(lhs, rhs)
    return Constraint(left - right, is_eq=True)


def ge(lhs, rhs=0) -> Constraint:
    """``lhs >= rhs``."""
    left, right = _pair(lhs, rhs)
    return Constraint(left - right)


def le(lhs, rhs=0) -> Constraint:
    """``lhs <= rhs``."""
    left, right = _pair(lhs, rhs)
    return Constraint(right - left)
