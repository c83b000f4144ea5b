"""Parametric (symbolic) point counting: the Ehrhart-lite layer.

barvinok computes piecewise quasi-polynomial counts of *parametric*
polytopes.  PolyUFC's evaluation fixes its problem sizes, so the numeric
engine in :mod:`repro.isllite.count` carries the pipeline -- but symbolic
counts are what make compile-time reasoning about problem-size scaling
possible, so this module provides them for the classes the paper's IR
actually produces (DESIGN.md: "constant-size tiling, parametric tiling
restricted to hyper-rectangular regions"):

* **products of independent parametric intervals** (hyper-rectangles whose
  bounds are affine in the parameters), counted as a product of span
  polynomials, and
* **ordered simplices** ``lo <= x1 <= x2 <= ... <= xk < hi`` (triangular
  loop nests), counted with binomial-coefficient polynomials.

Counts are returned as :class:`ParametricCount` -- a polynomial over the
parameters with rational coefficients -- and every returned object is
validated against numeric enumeration in the test suite.  Sets outside the
supported classes raise :class:`UnsupportedParametricSet`; callers fall
back to numeric counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isllite.errors import IslError
from repro.isllite.linexpr import LinExpr
from repro.isllite.sets import BasicSet


class UnsupportedParametricSet(IslError):
    """The set is outside the symbolically-countable class."""


#: A monomial over parameter names: ((name, power), ...) sorted by name.
Monomial = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class ParametricCount:
    """A polynomial in the parameters with Fraction coefficients.

    ``terms`` maps monomials to coefficients.  The zero polynomial is the
    empty mapping.  Evaluation requires every parameter to be bound.
    Negative evaluations are clamped to zero by :meth:`evaluate` -- a span
    polynomial like ``n - 3`` counts nothing for ``n < 3``.
    """

    terms: Tuple[Tuple[Monomial, Fraction], ...]

    @staticmethod
    def constant(value) -> "ParametricCount":
        value = Fraction(value)
        if value == 0:
            return ParametricCount(())
        return ParametricCount((((), value),))

    @staticmethod
    def from_linexpr(expr: LinExpr) -> "ParametricCount":
        terms: Dict[Monomial, Fraction] = {}
        if expr.const:
            terms[()] = Fraction(expr.const)
        for name, coeff in expr.coeffs.items():
            terms[((name, 1),)] = Fraction(coeff)
        return ParametricCount(tuple(sorted(terms.items())))

    # -- algebra -----------------------------------------------------------

    def _as_dict(self) -> Dict[Monomial, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "ParametricCount") -> "ParametricCount":
        terms = self._as_dict()
        for monomial, coeff in other.terms:
            total = terms.get(monomial, Fraction(0)) + coeff
            if total:
                terms[monomial] = total
            else:
                terms.pop(monomial, None)
        return ParametricCount(tuple(sorted(terms.items())))

    def __mul__(self, other: "ParametricCount") -> "ParametricCount":
        terms: Dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                powers: Dict[str, int] = {}
                for name, power in mono_a + mono_b:
                    powers[name] = powers.get(name, 0) + power
                monomial = tuple(sorted(powers.items()))
                total = terms.get(monomial, Fraction(0)) + coeff_a * coeff_b
                if total:
                    terms[monomial] = total
                else:
                    terms.pop(monomial, None)
        return ParametricCount(tuple(sorted(terms.items())))

    def scale(self, value) -> "ParametricCount":
        return self * ParametricCount.constant(value)

    # -- inspection ----------------------------------------------------------

    def degree(self) -> int:
        best = 0
        for monomial, _coeff in self.terms:
            best = max(best, sum(power for _n, power in monomial))
        return best

    def parameters(self) -> frozenset:
        names = set()
        for monomial, _ in self.terms:
            for name, _power in monomial:
                names.add(name)
        return frozenset(names)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = Fraction(0)
        for monomial, coeff in self.terms:
            value = coeff
            for name, power in monomial:
                value *= Fraction(env[name]) ** power
            total += value
        if total.denominator != 1:
            raise IslError(f"non-integral parametric count {total}")
        return max(0, int(total))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self.terms:
            factors = [str(coeff)] if coeff != 1 or not monomial else []
            for name, power in monomial:
                factors.append(name if power == 1 else f"{name}^{power}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


def _span(lower: LinExpr, upper: LinExpr) -> ParametricCount:
    """Points in ``lower <= x <= upper``: the polynomial ``upper-lower+1``."""
    return ParametricCount.from_linexpr(upper - lower + 1)


@dataclass(frozen=True)
class ProductCount:
    """A rectangle count: a product of per-dimension span polynomials.

    Evaluation clamps each span at zero *before* multiplying, which keeps
    the count correct outside the validity chamber where the plain
    polynomial product of mixed-sign spans would go positive.
    ``polynomial()`` returns the chamber-valid single polynomial (barvinok's
    per-chamber quasi-polynomial).
    """

    spans: Tuple[ParametricCount, ...]

    def polynomial(self) -> ParametricCount:
        result = ParametricCount.constant(1)
        for span in self.spans:
            result = result * span
        return result

    def degree(self) -> int:
        return self.polynomial().degree()

    def parameters(self) -> frozenset:
        names = frozenset()
        for span in self.spans:
            names |= span.parameters()
        return names

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = 1
        for span in self.spans:
            value = span.evaluate(env)  # clamped at zero per span
            if value == 0:
                return 0
            total *= value
        return total


@dataclass(frozen=True)
class SimplexCount:
    """An ordered-simplex count: ``C(span + k - 1, k)`` with span clamping."""

    span: ParametricCount
    k: int

    def polynomial(self) -> ParametricCount:
        result = ParametricCount.constant(Fraction(1, math.factorial(self.k)))
        base = self.span + ParametricCount.constant(self.k - 1)
        for offset in range(self.k):
            result = result * (base + ParametricCount.constant(-offset))
        return result

    def degree(self) -> int:
        return self.k

    def parameters(self) -> frozenset:
        return self.span.parameters()

    def evaluate(self, env: Mapping[str, int]) -> int:
        span_value = self.span.evaluate(env)
        if span_value <= 0:
            return 0
        return math.comb(span_value + self.k - 1, self.k)


def _interval_bounds(
    bset: BasicSet, dim: str
) -> Tuple[Optional[LinExpr], Optional[LinExpr]]:
    """The dim's (lower, upper) when all its constraints are parametric
    intervals with unit coefficient; None entries when absent."""
    lower: Optional[LinExpr] = None
    upper: Optional[LinExpr] = None
    dims = set(bset.space.dims)
    for con in bset.constraints:
        coeff = con.expr.coeff(dim)
        if coeff == 0:
            continue
        other_dims = (con.expr.names() - {dim}) & dims
        if other_dims or con.is_eq or abs(coeff) != 1:
            raise UnsupportedParametricSet(
                f"constraint {con!r} is not a parametric interval on {dim}"
            )
        rest = con.expr + LinExpr.var(dim, -coeff)
        if coeff > 0:  # x + rest >= 0  ->  x >= -rest
            bound = -rest
            if lower is not None:
                raise UnsupportedParametricSet(
                    f"multiple lower bounds on {dim}"
                )
            lower = bound
        else:  # -x + rest >= 0  ->  x <= rest
            bound = rest
            if upper is not None:
                raise UnsupportedParametricSet(
                    f"multiple upper bounds on {dim}"
                )
            upper = bound
    return lower, upper


def count_rectangle(bset: BasicSet) -> ProductCount:
    """Symbolic count of a parametric hyper-rectangle.

    Every constraint must bound a single dimension with an expression over
    parameters only; the count is the product of per-dimension span
    polynomials (clamped per span at evaluation, see :class:`ProductCount`).
    """
    spans: List[ParametricCount] = []
    for dim in bset.space.dims:
        lower, upper = _interval_bounds(bset, dim)
        if lower is None or upper is None:
            raise UnsupportedParametricSet(f"dimension {dim} is unbounded")
        spans.append(_span(lower, upper))
    return ProductCount(tuple(spans))


def count_ordered_simplex(bset: BasicSet) -> SimplexCount:
    """Symbolic count of ``lo <= x1 <= x2 <= ... <= xk <= hi``.

    The number of non-decreasing k-tuples from a span of size ``s`` is the
    multiset coefficient ``C(s + k - 1, k)``.
    """
    dims = bset.space.dims
    k = len(dims)
    if k == 0:
        raise UnsupportedParametricSet("no dimensions")
    lower: Optional[LinExpr] = None
    upper: Optional[LinExpr] = None
    chain_pairs = {
        (dims[index], dims[index + 1]) for index in range(k - 1)
    }
    seen_chain = set()
    for con in bset.constraints:
        if con.is_eq:
            raise UnsupportedParametricSet("equalities unsupported")
        involved = tuple(
            sorted(con.expr.names() & set(dims), key=dims.index)
        )
        if len(involved) == 2:
            first, second = involved
            if (
                (first, second) in chain_pairs
                and con.expr.coeff(second) == 1
                and con.expr.coeff(first) == -1
                and con.expr.const == 0
                and not (con.expr.names() - set(dims))
            ):
                seen_chain.add((first, second))
                continue
            raise UnsupportedParametricSet(f"non-chain constraint {con!r}")
        if len(involved) == 1:
            dim = involved[0]
            coeff = con.expr.coeff(dim)
            rest = con.expr + LinExpr.var(dim, -coeff)
            if coeff == 1 and dim == dims[0]:
                if lower is not None:
                    raise UnsupportedParametricSet("multiple lower bounds")
                lower = -rest
            elif coeff == -1 and dim == dims[-1]:
                if upper is not None:
                    raise UnsupportedParametricSet("multiple upper bounds")
                upper = rest
            else:
                raise UnsupportedParametricSet(
                    f"bound {con!r} not on the chain extremes"
                )
            continue
        raise UnsupportedParametricSet(f"unsupported constraint {con!r}")
    if seen_chain != chain_pairs:
        raise UnsupportedParametricSet("incomplete ordering chain")
    if lower is None or upper is None:
        raise UnsupportedParametricSet("chain is unbounded")
    return SimplexCount(ParametricCount.from_linexpr(upper - lower + 1), k)


def parametric_count(bset: BasicSet):
    """Symbolic count: rectangle first, ordered simplex as fallback."""
    try:
        return count_rectangle(bset)
    except UnsupportedParametricSet:
        return count_ordered_simplex(bset)
