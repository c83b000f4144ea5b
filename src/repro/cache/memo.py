"""Memoized trace generation and PolyUFC-CM evaluation.

Benchmark sweeps and the Fig. 6/7/8 experiment harnesses characterize the
same units over and over (same ops, same problem sizes, same hierarchy).
This module gives those call sites content-addressed reuse:

* :func:`unit_fingerprint` -- a stable digest of everything the trace+CM
  result depends on: the printed IR of the traced ops (which covers buffer
  shapes, dtypes and module params), the cache hierarchy geometry, the
  thread count, the parallel flag, the engine, and the trace budget.
* :func:`memoized_trace` -- in-process LRU over :func:`generate_trace`;
  :func:`lookup_trace` reads that LRU without generating or inserting.
* :func:`memoized_cm_with_note` -- in-process LRU over the full trace+CM
  evaluation.  A result whose evaluation also ran the hardware
  simulator's tail (:class:`~repro.cache.static_model.SimulatorTail`)
  keeps that small simulation, so a later hit hands it out too.

Both LRUs hold :data:`MEMO_CAPACITY` entries and live only as long as the
process: results that must outlive it belong in the service's
``ResultStore``.  Set ``REPRO_CM_MEMO=0`` to disable all reuse (every
call recomputes).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

from repro.cache.config import CacheHierarchy
from repro.cache.static_model import (
    CacheModelResult,
    SimulatorTail,
    polyufc_cm,
    resolve_engine,
)
from repro.cache.trace import AccessTrace, generate_trace
from repro.ir.core import Module, Op
from repro.ir.printer import print_module
from repro.runtime import Deadline

log = logging.getLogger("repro.runtime")

#: Bump to invalidate every fingerprint (and every service digest, which
#: folds it in) after model changes.
#: v2: disk entries moved to the checksummed ``repro-envelope`` format.
#: v3: the ``symbolic`` engine joined the dispatch and entries may carry
#: a structured fallback note.
#: v4: the symbolic extractor unrolls triangular/trapezoidal nests
#: (different counters for units that previously fell back to ``fast``)
#: and the ``parametric`` engine joined the dispatch.
MEMO_VERSION = 4

_MEMO_ENV = "REPRO_CM_MEMO"

#: Entries per in-process LRU (traces and CM results each).
MEMO_CAPACITY = 64


def memo_enabled() -> bool:
    return os.environ.get(_MEMO_ENV, "") != "0"


class _LRU:
    """A small thread-safe LRU map of :data:`MEMO_CAPACITY` entries."""

    def __init__(self):
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > MEMO_CAPACITY:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


_trace_lru = _LRU()
_cm_lru = _LRU()


def clear_memo() -> None:
    """Drop every in-process memoized trace and CM result."""
    _trace_lru.clear()
    _cm_lru.clear()


def _ops_blob(module: Module, ops: Optional[Sequence[Op]]) -> str:
    """The content the trace depends on: printed IR + traced op indices.

    The printed module covers buffer shapes/dtypes, module params, loop
    bounds, subscripts and write flags; the op indices pin *which*
    top-level nests are traced.
    """
    text = print_module(module)
    if ops is None:
        indices = "all"
    else:
        position = {id(op): i for i, op in enumerate(module.ops)}
        indices = ",".join(str(position.get(id(op), -1)) for op in ops)
    return f"{text}\n#ops={indices}"


def _hierarchy_key(hierarchy: CacheHierarchy) -> Tuple:
    return tuple(
        (lvl.name, lvl.size_bytes, lvl.line_bytes, lvl.associativity)
        for lvl in hierarchy.levels
    )


def trace_fingerprint(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
) -> str:
    blob = json.dumps(
        [MEMO_VERSION, _ops_blob(module, ops), max_accesses], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def unit_fingerprint(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    max_accesses: int = 60_000_000,
) -> str:
    """Content digest of a full (ops, params, hierarchy, threads, parallel)
    characterization request."""
    engine_name = resolve_engine(engine)
    if engine_name == "parametric":
        # Same evaluation, same numbers: share the symbolic memo slot.
        engine_name = "symbolic"
    blob = json.dumps(
        [
            MEMO_VERSION,
            _ops_blob(module, ops),
            _hierarchy_key(hierarchy),
            threads,
            parallel,
            engine_name,
            max_accesses,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def memoized_trace(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
    deadline: Optional[Deadline] = None,
) -> AccessTrace:
    """``generate_trace`` behind the in-process LRU.

    A ``deadline`` is only consulted by the generation itself -- an
    interrupted generation raises before anything is cached, so the memo
    never stores partial traces.
    """
    if not memo_enabled():
        return generate_trace(
            module, ops, max_accesses=max_accesses, deadline=deadline
        )
    key = trace_fingerprint(module, ops, max_accesses)
    cached = _trace_lru.get(key)
    if cached is not None:
        return cached
    trace = generate_trace(
        module, ops, max_accesses=max_accesses, deadline=deadline
    )
    _trace_lru.put(key, trace)
    return trace


def lookup_trace(
    module: Module, ops: Optional[Sequence[Op]] = None
) -> Optional[AccessTrace]:
    """The full-budget trace :func:`memoized_trace` holds, or None.

    A pure lookup: it never generates a trace and never inserts one, so
    a caller that only wants to reuse a trace somebody else built (the
    hardware side after the CM stage) cannot pin traces in the LRU.
    """
    if not memo_enabled():
        return None
    return _trace_lru.get(trace_fingerprint(module, ops))


def _compute_cm(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int,
    parallel: bool,
    engine_name: str,
    max_accesses: int,
    deadline: Optional[Deadline],
    hardware: Optional[SimulatorTail],
) -> Tuple[CacheModelResult, Optional[str]]:
    """The uncached evaluation: symbolic first when asked, trace otherwise.

    Returns ``(cm, note)``: ``note`` is ``None`` except when the symbolic
    engine declared the unit outside its quasi-affine class and the
    evaluation fell back to the trace-based ``fast`` engine.
    """
    note: Optional[str] = None
    if engine_name == "parametric":
        # At the cache layer ``parametric`` is the symbolic evaluation
        # (identical numbers by construction); the family-artifact reuse
        # it enables lives in the service layer.
        engine_name = "symbolic"
    if engine_name == "symbolic":
        # Imported lazily: symbolic_model depends on this module's
        # siblings and the isllite counting stack.
        from repro.cache.symbolic_model import (
            SymbolicUnsupported,
            symbolic_cm,
        )

        try:
            return (
                symbolic_cm(
                    module, ops, hierarchy, threads=threads,
                    parallel=parallel, deadline=deadline,
                ),
                None,
            )
        except SymbolicUnsupported as exc:
            note = f"symbolic engine fell back to fast: {exc}"
            log.info(
                "symbolic CM of %s unsupported (%s); using the fast "
                "trace engine", module.name, exc,
            )
            engine_name = "fast"
    trace = memoized_trace(
        module, ops, max_accesses=max_accesses, deadline=deadline
    )
    cm = polyufc_cm(
        trace, hierarchy, threads=threads, parallel=parallel,
        engine=engine_name, deadline=deadline, hardware=hardware,
    )
    return cm, note


def memoized_cm_with_note(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    max_accesses: int = 60_000_000,
    deadline: Optional[Deadline] = None,
    hardware: Optional[SimulatorTail] = None,
) -> Tuple[CacheModelResult, Optional[str]]:
    """The trace+CM evaluation of one unit, memoized, with its note.

    Layering: in-process LRU, then the real computation -- whose trace
    goes through :func:`memoized_trace` so an immediately following
    different-hierarchy request reuses it.  A ``deadline`` interrupts
    the computation at chunk boundaries and nothing partial is ever
    cached.

    The second element is the structured symbolic-fallback note
    (``None`` unless ``engine="symbolic"`` had to fall back), cached
    with the counters.  ``hardware`` reaches the trace evaluation
    (:func:`~repro.cache.static_model.polyufc_cm`) only: a hit returns
    the cached result with whatever simulation it holds, or none.
    """
    engine_name = resolve_engine(engine)
    if not memo_enabled():
        return _compute_cm(
            module, ops, hierarchy, threads, parallel, engine_name,
            max_accesses, deadline, hardware,
        )
    key = unit_fingerprint(
        module, ops, hierarchy, threads, parallel, engine, max_accesses
    )
    cached = _cm_lru.get(key)
    if cached is not None:
        return cached
    entry = _compute_cm(
        module, ops, hierarchy, threads, parallel, engine_name,
        max_accesses, deadline, hardware,
    )
    _cm_lru.put(key, entry)
    return entry
