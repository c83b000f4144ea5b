"""Pluto-lite: legality-checked rectangular tiling + outer parallelization.

``tile_and_parallelize`` reproduces the paper's compiler baseline ("parallel
tiled kernels optimized with Pluto, default tile size 32"):

* per top-level nest, the maximal outermost fully-permutable band (from the
  dependence direction vectors) is strip-mine-and-interchange tiled,
* tile loops are emitted as *tile-index* loops with unit step, and point
  loops get ``max``/``min`` composite bounds, so the result stays inside the
  affine/SCoP-extractable class,
* the outermost parallelizable loop of each nest is marked ``parallel``
  (the affine-parallelize / scf-to-openmp step of the paper's flow).

Inner loop bodies are *shared* with the input module (they are not mutated);
only the loop skeleton is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.core import IRError, Module
from repro.ir.dialects.affine import AffineForOp, perfectly_nested_band
from repro.isllite import LinExpr
from repro.poly.dependences import (
    Dependence,
    is_parallel_dim,
    nest_dependences,
    permutable_prefix_depth,
)
from repro.poly.scop import extract_scop

DEFAULT_TILE_SIZE = 32
#: A nest whose tilable band is shallower than this is left untiled.
MIN_TILE_DEPTH = 2


@dataclass
class TileInfo:
    """What happened to one top-level nest."""

    root_index: int
    band_depth: int
    tiled_depth: int
    tile_size: int
    parallel_dim: Optional[int]
    dependences: List[Dependence] = field(default_factory=list)


def tile_and_parallelize(
    module: Module,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> Tuple[Module, List[TileInfo]]:
    """Tile and parallelize every top-level affine nest of ``module``.

    Returns the transformed module (buffers shared, loop bodies shared) and
    per-nest :class:`TileInfo` records.  Nests whose permutable band is
    shallower than ``MIN_TILE_DEPTH`` are left untiled but still
    parallelized when legal.
    """
    if tile_size < 2:
        raise IRError(f"tile size must be >= 2, got {tile_size}")
    scop = extract_scop(module)
    result = module.clone_structure(f"{module.name}.pluto")
    infos: List[TileInfo] = []
    for index, op in enumerate(module.ops):
        if not isinstance(op, AffineForOp):
            result.append(op)
            continue
        deps = nest_dependences(scop, op)
        band = perfectly_nested_band(op)
        tilable = permutable_prefix_depth(deps, len(band))
        tilable = _restrict_to_rectangular(band, tilable, module.params)
        tilable = _restrict_to_profitable(
            band, tilable, module.params, tile_size
        )
        parallel_dim = None
        for dim in range(len(band)):
            if is_parallel_dim(deps, dim):
                parallel_dim = dim
                break
        if tilable >= MIN_TILE_DEPTH:
            new_root = _tile_band(
                band, tilable, tile_size, module.params, parallel_dim
            )
            infos.append(
                TileInfo(index, len(band), tilable, tile_size, parallel_dim, deps)
            )
        else:
            new_root = _mark_parallel(band, parallel_dim)
            infos.append(
                TileInfo(index, len(band), 0, tile_size, parallel_dim, deps)
            )
        new_root.attrs.update(
            {
                key: op.attrs[key]
                for key in (
                    "source_op",
                    "source_index",
                    "torch_source_op",
                    "torch_source_index",
                )
                if key in op.attrs
            }
        )
        result.append(new_root)
    return result, infos


def _restrict_to_rectangular(
    band: List[AffineForOp], depth: int, params: Dict[str, int]
) -> int:
    """Shrink the tilable depth so every band loop has constant bounds not
    depending on other band induction variables (hyper-rectangular band)."""
    band_names = {loop.iv_name for loop in band}
    usable = 0
    for loop in band[:depth]:
        bound_names = set()
        for expr in loop.lowers + loop.uppers:
            bound_names |= expr.names()
        if bound_names & band_names:
            break
        if bound_names - set(params):
            break
        usable += 1
    return usable


def _restrict_to_profitable(
    band: List[AffineForOp],
    depth: int,
    params: Dict[str, int],
    tile_size: int,
) -> int:
    """Do not tile dims whose trip count is smaller than the tile size
    (Pluto skips tiny loops too)."""
    usable = 0
    for loop in band[:depth]:
        if loop.trip_count(dict(params)) < tile_size:
            break
        usable += 1
    return usable


def _constant_bounds(
    loop: AffineForOp, params: Dict[str, int]
) -> Tuple[int, int]:
    env = dict(params)
    return loop.eval_bounds(env)


def _rebuild_loop(template: AffineForOp, parallel: bool = False) -> AffineForOp:
    """A fresh loop with the template's name/bounds sharing its body ops."""
    fresh = AffineForOp(
        template.iv_name,
        list(template.lowers),
        list(template.uppers),
        template.step,
        parallel or template.parallel,
    )
    fresh.body.ops = template.body.ops
    return fresh


def _mark_parallel(
    band: List[AffineForOp], parallel_dim: Optional[int]
) -> AffineForOp:
    """Rebuild the band skeleton, marking one dimension parallel."""
    innermost_body = band[-1].body.ops
    current_ops = innermost_body
    root = None
    for dim in range(len(band) - 1, -1, -1):
        loop = AffineForOp(
            band[dim].iv_name,
            list(band[dim].lowers),
            list(band[dim].uppers),
            band[dim].step,
            parallel=(dim == parallel_dim) or band[dim].parallel,
        )
        loop.body.ops = current_ops
        current_ops = [loop]
        root = loop
    assert root is not None
    return root


def _tile_band(
    band: List[AffineForOp],
    depth: int,
    tile_size: int,
    params: Dict[str, int],
    parallel_dim: Optional[int],
) -> AffineForOp:
    """Strip-mine-and-interchange the first ``depth`` band loops."""
    tile_loops: List[AffineForOp] = []
    point_specs: List[Tuple[str, int, int, str]] = []
    for dim in range(depth):
        loop = band[dim]
        lower, upper = _constant_bounds(loop, params)
        tile_iv = f"{loop.iv_name}_t"
        first_tile = lower // tile_size
        last_tile = (upper + tile_size - 1) // tile_size  # exclusive
        tile_loops.append(
            AffineForOp(
                tile_iv,
                first_tile,
                last_tile,
                parallel=(dim == parallel_dim),
            )
        )
        point_specs.append((loop.iv_name, lower, upper, tile_iv))

    point_loops: List[AffineForOp] = []
    for iv_name, lower, upper, tile_iv in point_specs:
        tile_var = LinExpr.var(tile_iv)
        point_loops.append(
            AffineForOp(
                iv_name,
                [LinExpr.cst(lower), tile_var * tile_size],
                [LinExpr.cst(upper), tile_var * tile_size + tile_size],
            )
        )

    # Remaining (untiled) band loops keep their structure below the points.
    inner: List[AffineForOp] = [
        _rebuild_loop(band[dim]) for dim in range(depth, len(band))
    ]

    chain = tile_loops + point_loops + inner
    innermost_body = band[-1].body.ops
    for outer_loop, inner_loop in zip(chain, chain[1:]):
        outer_loop.body.ops = [inner_loop]
    chain[-1].body.ops = innermost_body
    return chain[0]
