"""Span recorder that measures the pipeline's layers from outside.

Tracing never edits the program: :func:`installed` rebinds the public
functions *where their callers look them up* (``repro.pipeline`` binds
the lowering, tiling and capping entry points, ``repro.cache.memo``
binds the model-side ``generate_trace`` and ``polyufc_cm``,
``repro.service.executor`` binds the hardware-side ``generate_trace``
and ``simulate_hierarchy``, ...) to thin wrappers that record a span,
and restores the originals on exit.

A span carries a layer name, start and end (``perf_counter``), its
parent span and the id of the job it ran for.  Spans live in memory and
are summarised (or written out) after the timed phase.  Job ids come
from the scheduler's own lifecycle events: the ``started`` event is
emitted on the worker thread right before the job executes, so the
:class:`JobTaggingSink` pins the id in a thread-local that every span
recorded on that thread picks up.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    job: Optional[str] = None
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Children of one span run on its thread, one after another, so
        # the part of the interval they cover is the sum of their times.
        return self.duration_s - self.child_s


class Tracer:
    """Thread-aware in-memory span store."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Model-side trace fingerprints per job (duplicate detection).
        self.model_traces: Dict[Optional[str], set] = defaultdict(set)

    # -- per-thread state ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job_id: Optional[str]) -> None:
        self._local.job = job_id

    def current_job(self) -> Optional[str]:
        return getattr(self._local, "job", None)

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` behind a span; ``after(span, args, kwargs, result)``
        runs once the span is closed, so its bookkeeping is not billed to
        the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name, time.perf_counter(),
                parent=stack[-1] if stack else None,
                job=self.current_job(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration_s
                with self._lock:
                    self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def by_name(self) -> Dict[str, List[Span]]:
        table: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            table[span.name].append(span)
        return table

    def to_json(self) -> List[dict]:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(span)],
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": (
                    ids.get(id(span.parent)) if span.parent is not None
                    else None
                ),
                "job": span.job,
                **span.info,
            }
            for span in self.spans
        ]


class JobTaggingSink:
    """Event sink that forwards to ``inner`` and tags worker threads.

    ``started`` and ``cache_hit`` are emitted on the thread that serves
    the job, before it does the job's work; terminal events clear the
    tag again so spans between jobs stay unattributed.
    """

    def __init__(self, inner, tracer: Optional[Tracer]):
        self.inner = inner
        self.tracer = tracer

    def emit(self, event) -> None:
        if self.tracer is not None:
            if event.kind in ("started", "cache_hit"):
                self.tracer.set_job(event.job_id)
            elif event.kind in ("completed", "failed", "shed"):
                if self.tracer.current_job() == event.job_id:
                    self.tracer.set_job(None)
        self.inner.emit(event)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


def _targets(tracer: Tracer):
    """(owner, attribute, layer name, after-hook) for every boundary."""
    import repro.cache.memo as memo
    import repro.cache.symbolic_model as symbolic_model
    import repro.mlpolyufc.characterization as characterization
    import repro.pipeline as pipeline
    import repro.service.executor as executor
    from repro.cache.parametric_model import ParametricCharacterization
    from repro.service.store import ResultStore

    def count_trace(span, args, kwargs, trace):
        span.info["accesses"] = len(trace)
        module = args[0]
        ops = args[1] if len(args) > 1 else kwargs.get("ops")
        max_accesses = kwargs.get("max_accesses", 60_000_000)
        span.info["fingerprint"] = memo.trace_fingerprint(
            module, ops, max_accesses
        )
        if span.name == "cache.trace":
            tracer.model_traces[span.job].add(span.info["fingerprint"])

    def count_cm(span, args, kwargs, cm):
        span.info["accesses"] = int(cm.total_accesses)

    def count_sim(span, args, kwargs, sim):
        span.info["accesses"] = len(args[0])

    def count_search(span, args, kwargs, decisions):
        span.info["iterations"] = sum(
            int(decision.search.iterations) for decision in decisions
        )

    def store_get(kind):
        def after(span, args, kwargs, value):
            span.info["kind"] = kind
            span.info["hit"] = value is not None
        return after

    targets = [
        (pipeline, "lower_torch_to_linalg", "ir.lowering", None),
        (pipeline, "lower_linalg_to_affine", "ir.lowering", None),
        (pipeline, "tile_and_parallelize", "poly.tiling", None),
        (pipeline, "select_caps", "search.capping", count_search),
        (pipeline, "aggregate_caps_for_overhead", "search.capping", None),
        (pipeline, "apply_caps", "search.capping", None),
        (pipeline, "remove_redundant_caps", "search.capping", None),
        (characterization, "memoized_cm_with_note", "cache.memo", None),
        (memo, "generate_trace", "cache.trace", count_trace),
        (memo, "polyufc_cm", "cache.cm", count_cm),
        (symbolic_model, "symbolic_cm", "cache.symbolic", None),
        (executor, "generate_trace", "hw.trace", count_trace),
        (executor, "simulate_hierarchy", "cache.simulator", count_sim),
        (executor, "execute_report", "service.executor", None),
        (ParametricCharacterization, "evaluate", "cache.parametric", None),
        (ParametricCharacterization, "add_sample", "cache.parametric", None),
        (ParametricCharacterization, "try_fit", "cache.parametric", None),
    ]
    for kind in ("report", "workload", "family"):
        targets.append((
            ResultStore, f"get_{kind}", "service.store.get", store_get(kind)
        ))
    for method in ("put_report", "put_workload", "put_family"):
        targets.append((ResultStore, method, "service.store.put", None))
    return targets


@contextmanager
def installed(tracer: Optional[Tracer]):
    """Wrap every layer boundary for the duration of the block.

    ``None`` installs nothing, so an untraced run executes the program
    exactly as shipped.
    """
    if tracer is None:
        yield None
        return
    saved = []
    try:
        for owner, attr, name, after in _targets(tracer):
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original, after)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
