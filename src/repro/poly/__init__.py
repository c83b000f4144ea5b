"""Polyhedral middle end: SCoP model, dependences, and Pluto-lite transforms.

This package is the Pluto/PET/OpenScop substitute: it extracts a static
control program (SCoP) description from affine-dialect IR
(:mod:`repro.poly.scop`), computes dependence direction vectors
(:mod:`repro.poly.dependences`), and applies legality-checked rectangular
tiling plus outer-loop parallelization (:mod:`repro.poly.transforms`) --
the "Pluto tiled-parallel" baseline configuration of the paper.
"""

from repro.poly.scop import AccessRef, SCoP, Statement, extract_scop
from repro.poly.dependences import (
    Dependence,
    is_parallel_dim,
    nest_dependences,
    permutable_prefix_depth,
)
from repro.poly.transforms import TileInfo, tile_and_parallelize
from repro.poly.fusion import fuse_pointwise_nests

__all__ = [
    "AccessRef",
    "SCoP",
    "Statement",
    "extract_scop",
    "Dependence",
    "nest_dependences",
    "is_parallel_dim",
    "permutable_prefix_depth",
    "TileInfo",
    "tile_and_parallelize",
    "fuse_pointwise_nests",
]
