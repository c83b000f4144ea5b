"""POLYUFC-SEARCH: uncore frequency cap selection (paper Sec. VI-C)."""

from repro.search.polyufc_search import (
    SearchConfig,
    SearchResult,
    SearchStep,
    polyufc_search,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchStep",
    "polyufc_search",
]
