"""Memoized line streams and PolyUFC-CM evaluation.

Benchmark sweeps, the Fig. 6/7/8 experiment harnesses and the service
characterize the same units over and over: every objective/epsilon
variant of a job repeats its CM, and the rpl and bdw jobs of one kernel
read the same trace (both use 64-byte lines).  This module gives those
call sites content-addressed reuse through two in-process LRUs:

* :func:`trace_fingerprint` / :func:`unit_fingerprint` -- stable digests
  of what a trace, and a trace+CM result, depend on: the printed IR of
  the traced ops (which covers buffer shapes, dtypes and module params)
  and the trace budget; for a unit also the cache hierarchy geometry,
  the thread count, the parallel flag and the engine.  They match across
  jobs only because every lowering pass names what it generates
  deterministically.
* :func:`memoized_stream` -- the LRU of
  :class:`~repro.cache.trace.LineStream` s, the int32 line ids and write
  flags the engines read (5 bytes per access), keyed on the trace
  fingerprint and the line size and bounded by the bytes it holds
  (:data:`STREAM_BUDGET_BYTES`).  :func:`lookup_stream` reads it without
  generating or inserting.
* :func:`memoized_cm_with_note` -- the LRU of trace+CM results, keyed on
  the unit fingerprint and bounded by :data:`CM_CAPACITY` entries.  A
  result whose evaluation also ran the hardware simulator's tail
  (:class:`~repro.cache.static_model.SimulatorTail`) keeps that small
  simulation, so a later hit hands it out too.

Both live only as long as the process: results that must outlive it
belong in the service's ``ResultStore``.  Every trace the memo generates
is bounded by :data:`~repro.cache.trace.TRACE_BUDGET`, and both
fingerprints fold that budget in, so a key and its generation agree.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple

from repro.cache.config import CacheHierarchy
from repro.cache.static_model import (
    CacheModelResult,
    SimulatorTail,
    polyufc_cm,
    resolve_engine,
)
from repro.cache.trace import (
    TRACE_BUDGET,
    LineStream,
    generate_trace,
    line_stream,
)
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

#: Entries of the CM LRU: every unit of the benchmark registry on both
#: platforms, set- and fully-associative (81 x 2 x 2), at about 0.5 KB each.
CM_CAPACITY = 324

#: Bytes of line streams the stream LRU holds.  The distinct streams of
#: perfbench's service_mixed (33 streams, 95 MiB) and cold_registry (26,
#: 72 MiB) fit whole.
STREAM_BUDGET_BYTES = 256 << 20


class _LRU:
    """A thread-safe LRU map bounded by the summed weight of its values.

    ``limit`` is called for the bound at every insertion; ``weigh`` gives
    a value's weight once, when it is inserted.
    """

    def __init__(
        self, limit: Callable[[], int], weigh: Callable[[object], int]
    ):
        self._limit = limit
        self._weigh = weigh
        self._data: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.weight = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, value) -> None:
        """Keep ``value`` as the newest entry and evict the oldest ones
        until the weight fits the bound.  A value heavier than the bound
        is not kept; one that replaces an entry takes its weight's place.
        """
        weight = self._weigh(value)
        limit = self._limit()
        if weight > limit:
            return
        with self._lock:
            replaced = self._data.pop(key, None)
            if replaced is not None:
                self.weight -= replaced[1]
            self._data[key] = (value, weight)
            self.weight += weight
            while self.weight > limit:
                _key, (_value, evicted) = self._data.popitem(last=False)
                self.weight -= evicted

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.weight = 0
            self.hits = 0
            self.misses = 0


_stream_lru = _LRU(lambda: STREAM_BUDGET_BYTES, lambda stream: stream.nbytes)
_cm_lru = _LRU(lambda: CM_CAPACITY, lambda entry: 1)


def clear_memo() -> None:
    """Drop every in-process memoized line stream and CM result."""
    _stream_lru.clear()
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
    max_accesses: int = TRACE_BUDGET,
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
            TRACE_BUDGET,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _stream_key(
    module: Module, ops: Optional[Sequence[Op]], line_bytes: int
) -> str:
    return f"{trace_fingerprint(module, ops, TRACE_BUDGET)}/{line_bytes}"


def memoized_stream(
    module: Module,
    ops: Optional[Sequence[Op]],
    line_bytes: int,
    deadline: Optional[Deadline] = None,
) -> LineStream:
    """The ops' line stream for ``line_bytes``-byte lines, behind the LRU.

    A miss generates the trace, derives the stream and lets the trace go.
    A ``deadline`` is only consulted by the generation -- an interrupted
    generation raises before anything is cached, so the memo never holds
    a partial stream.
    """
    key = _stream_key(module, ops, line_bytes)
    cached = _stream_lru.get(key)
    if cached is not None:
        return cached
    stream = line_stream(
        generate_trace(
            module, ops, max_accesses=TRACE_BUDGET, deadline=deadline
        ),
        line_bytes,
    )
    _stream_lru.put(key, stream)
    return stream


def lookup_stream(
    module: Module, ops: Optional[Sequence[Op]], line_bytes: int
) -> Optional[LineStream]:
    """The full-budget stream :func:`memoized_stream` holds, or None.

    A pure lookup: it never generates a trace and never inserts, so a
    caller that only wants to reuse a stream somebody else built (the
    hardware side after the CM stage) cannot pin streams in the LRU.
    """
    return _stream_lru.get(_stream_key(module, ops, line_bytes))


def _compute_cm(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int,
    parallel: bool,
    engine_name: str,
    deadline: Optional[Deadline],
    hardware: Optional[SimulatorTail],
) -> Tuple[CacheModelResult, Optional[str]]:
    """The uncached evaluation: symbolic first when asked, trace otherwise.

    Returns ``(cm, note)``: ``note`` is ``None`` except when the symbolic
    engine declared the unit outside its quasi-affine class and the
    evaluation fell back to the trace-based ``fast`` engine.
    """
    note: Optional[str] = None
    # At the cache layer ``parametric`` is the symbolic evaluation
    # (identical numbers by construction); the family-artifact reuse it
    # enables lives in the service layer.
    if engine_name in ("symbolic", "parametric"):
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
    stream = memoized_stream(
        module, ops, hierarchy.line_bytes, deadline=deadline
    )
    cm = polyufc_cm(
        stream, hierarchy, threads=threads, parallel=parallel,
        deadline=deadline, hardware=hardware,
    )
    return cm, note


def memoized_cm_with_note(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    deadline: Optional[Deadline] = None,
    hardware: Optional[SimulatorTail] = None,
) -> Tuple[CacheModelResult, Optional[str]]:
    """The trace+CM evaluation of one unit, memoized, with its note.

    Layering: in-process LRU, then the real computation -- whose line
    stream goes through :func:`memoized_stream`, so a later request for
    another hierarchy with the same line size (the other platform, the
    fully-associative variant) reuses it.  A ``deadline`` interrupts the
    computation at chunk boundaries and nothing partial is ever cached.

    The second element is the structured symbolic-fallback note
    (``None`` unless ``engine="symbolic"`` had to fall back), cached
    with the counters.  ``hardware`` reaches the trace evaluation
    (:func:`~repro.cache.static_model.polyufc_cm`) only: a hit returns
    the cached result with whatever simulation it holds, or none.
    """
    engine_name = resolve_engine(engine)
    key = unit_fingerprint(module, ops, hierarchy, threads, parallel, engine)
    cached = _cm_lru.get(key)
    if cached is not None:
        return cached
    entry = _compute_cm(
        module, ops, hierarchy, threads, parallel, engine_name,
        deadline, hardware,
    )
    _cm_lru.put(key, entry)
    return entry
