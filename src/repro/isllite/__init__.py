"""A small integer set library (isl/barvinok substitute).

This package implements the subset of isl [Verdoolaege 2010] and barvinok
[Verdoolaege et al. 2007] that PolyUFC needs:

* affine expressions and constraints over named dimensions and parameters
  (:mod:`repro.isllite.linexpr`),
* basic sets / unions of basic sets with intersection, union, subtraction,
  projection (Fourier-Motzkin) and coalescing
  (:mod:`repro.isllite.sets`, :mod:`repro.isllite.fm`),
* basic maps / unions of basic maps with composition, inversion,
  domain/range operations and deltas (:mod:`repro.isllite.maps`),
* integer point counting -- the barvinok substitute -- with closed forms for
  rectangular boxes, exact recursive/vectorized enumeration for coupled
  dimensions, and a budgeted Monte-Carlo fallback
  (:mod:`repro.isllite.count`),
* lexicographic optimization over fixed parameters
  (:mod:`repro.isllite.lexmin`).

Rational (Fourier-Motzkin) projection is used where isl would compute exact
integer projections; this is a documented approximation (see DESIGN.md) that
is exact on the quasi-affine access/iteration sets produced by the PolyUFC
front end.
"""

from repro.isllite.errors import IslError, SpaceMismatchError
from repro.isllite.linexpr import LinExpr
from repro.isllite.constraint import Constraint, eq, ge, le
from repro.isllite.space import Space, MapSpace
from repro.isllite.sets import BasicSet, Set
from repro.isllite.maps import BasicMap, Map
from repro.isllite.count import count_points, CountOptions
from repro.isllite.lexmin import lexmin, lexmax
from repro.isllite.parametric import (
    ParametricCount,
    ProductCount,
    SimplexCount,
    UnsupportedParametricSet,
    count_ordered_simplex,
    count_rectangle,
    parametric_count,
)

__all__ = [
    "IslError",
    "SpaceMismatchError",
    "LinExpr",
    "Constraint",
    "eq",
    "ge",
    "le",
    "Space",
    "MapSpace",
    "BasicSet",
    "Set",
    "BasicMap",
    "Map",
    "count_points",
    "CountOptions",
    "lexmin",
    "lexmax",
    "ParametricCount",
    "ProductCount",
    "SimplexCount",
    "UnsupportedParametricSet",
    "count_ordered_simplex",
    "count_rectangle",
    "parametric_count",
]
