"""Integer affine expressions over named variables.

A :class:`LinExpr` is ``sum_i c_i * x_i + const`` with integer coefficients
``c_i`` over named variables ``x_i`` (loop iterators, parameters, map input
and output dimensions are all just names).  Expressions are immutable and
hashable; arithmetic returns new expressions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Union

Number = Union[int, Fraction]


def _as_int(value: Number) -> int:
    """Coerce ``value`` to int, rejecting non-integral fractions."""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise TypeError(f"non-integral coefficient {value!r}")
        return int(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError(f"non-integral coefficient {value!r}")
        return int(value)
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


class LinExpr:
    """An immutable integer affine expression."""

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] = None, const: Number = 0):
        clean: Dict[str, int] = {}
        if coeffs:
            for name, coeff in coeffs.items():
                c = _as_int(coeff)
                if c != 0:
                    clean[name] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", _as_int(const))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def var(name: str, coeff: Number = 1) -> "LinExpr":
        """The expression ``coeff * name``."""
        return LinExpr({name: coeff})

    @staticmethod
    def cst(value: Number) -> "LinExpr":
        """The constant expression ``value``."""
        return LinExpr({}, value)

    @staticmethod
    def coerce(value: "LinExpr | Number") -> "LinExpr":
        """Turn an int/Fraction into a constant expression, pass LinExpr through."""
        if isinstance(value, LinExpr):
            return value
        return LinExpr.cst(value)

    # -- inspection --------------------------------------------------------

    def names(self) -> frozenset:
        """Variables with non-zero coefficients."""
        return frozenset(self.coeffs)

    def coeff(self, name: str) -> int:
        return self.coeffs.get(name, 0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, env: Mapping[str, Number]) -> Fraction:
        """Evaluate under a (possibly rational) assignment of all variables."""
        total = Fraction(self.const)
        for name, coeff in self.coeffs.items():
            total += coeff * Fraction(env[name])
        return total

    def evaluate_int(self, env: Mapping[str, int]) -> int:
        """Evaluate under an integer assignment (fast path, no Fractions)."""
        total = self.const
        for name, coeff in self.coeffs.items():
            total += coeff * env[name]
        return total

    def partial(self, env: Mapping[str, Number]) -> "LinExpr":
        """Substitute the variables present in ``env`` with constants."""
        coeffs = {n: c for n, c in self.coeffs.items() if n not in env}
        const = self.const
        for name, coeff in self.coeffs.items():
            if name in env:
                const += coeff * _as_int(env[name])
        return LinExpr(coeffs, const)

    def substitute(self, name: str, replacement: "LinExpr") -> "LinExpr":
        """Substitute ``name`` with another affine expression."""
        coeff = self.coeffs.get(name, 0)
        if coeff == 0:
            return self
        coeffs = dict(self.coeffs)
        del coeffs[name]
        result = LinExpr(coeffs, self.const)
        return result + replacement * coeff

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; identity for names not in ``mapping``."""
        return LinExpr(
            {mapping.get(n, n): c for n, c in self.coeffs.items()}, self.const
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.coerce(other)
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({n: -c for n, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def __mul__(self, scalar: Number) -> "LinExpr":
        s = _as_int(scalar)
        return LinExpr({n: c * s for n, c in self.coeffs.items()}, self.const * s)

    __rmul__ = __mul__

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((frozenset(self.coeffs.items()), self.const))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            coeff = self.coeffs[name]
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts).replace("+ -", "- ")
        return text
