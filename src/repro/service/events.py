"""Structured per-job lifecycle events and pluggable sinks.

Every job the scheduler touches emits a small, flat event stream:

``submitted``
    the job entered the system (every well-formed submission gets one);
``queued``
    the job will run at full fidelity, below the scheduler's
    ``max_pending`` bound (``detail`` records ``depth=<n>``);
``coalesced``
    the submission was deduplicated onto an identical in-flight job
    (``detail`` names the primary job id);
``cache_hit``
    the result was served from the content-addressed store;
``started``
    a worker began an actual pipeline execution (exactly one per
    digest among concurrent duplicates -- this is the event the
    dedup guarantee is asserted on);
``degraded``
    the computed report contains non-exact units (``detail`` lists
    ``unit=rung`` pairs);
``completed`` / ``failed`` / ``shed``
    terminal states, with wall-clock ``duration_ms``.  ``shed`` is the
    terminal of a job submitted past the scheduler's ``max_pending``
    bound: it executed on the cheap ``timeout-cap`` rung (``detail`` is
    ``timeout-cap``) and its future carries the degraded,
    never-persisted report.  Every submitted job ends in exactly one of
    the three, so ``submitted == completed + failed + shed`` over any
    quiesced stream;
``family_served``
    a parametric job's CM counters were instantiated from a cached
    kernel-family artifact instead of computed (``detail`` records
    ``source=sample|chart units=<n>``); the job still emits its normal
    ``started``/``completed`` pair -- this event marks the O(1) CM fast
    path inside the execution;
``family_sample``
    a fully-exact parametric result was folded into its family artifact
    as a new per-size sample (``detail`` records the sizes);
``family_fit``
    after a new sample, the family's piecewise ray-chart fit succeeded
    with every holdout sample reproduced bit-for-bit -- subsequent
    lattice sizes can be served without any engine work;
``family_poisoned``
    a sample contradicted the family (nondeterminism or corruption);
    the artifact dropped its chart and stops serving.

Sinks are pluggable and must be thread-safe; the scheduler never lets a
sink error take a job down.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, List, Optional

EVENT_KINDS = (
    "submitted",
    "queued",
    "coalesced",
    "cache_hit",
    "started",
    "degraded",
    "completed",
    "failed",
    "shed",
    "family_served",
    "family_sample",
    "family_fit",
    "family_poisoned",
)


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle event of one job."""

    kind: str
    job_id: str
    digest: str
    benchmark: str
    platform: str
    ts: float
    detail: str = ""
    duration_ms: Optional[float] = None

    def to_json(self) -> dict:
        return asdict(self)


def make_event(
    kind: str,
    job_id: str,
    digest: str,
    benchmark: str,
    platform: str,
    detail: str = "",
    duration_ms: Optional[float] = None,
) -> JobEvent:
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    return JobEvent(
        kind=kind,
        job_id=job_id,
        digest=digest,
        benchmark=benchmark,
        platform=platform,
        ts=time.time(),
        detail=detail,
        duration_ms=duration_ms,
    )


class EventSink:
    """Sink interface: override :meth:`emit` (and optionally `close`)."""

    def emit(self, event: JobEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class ListSink(EventSink):
    """Bounded in-memory ring of recent events (thread-safe)."""

    def __init__(self, maxlen: int = 10_000):
        self._events: deque = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def emit(self, event: JobEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self, kind: Optional[str] = None) -> List[JobEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [event for event in snapshot if event.kind == kind]

    def counts(self) -> Counter:
        with self._lock:
            return Counter(event.kind for event in self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class JsonlSink(EventSink):
    """Appends one JSON line per event to ``path`` (thread-safe).

    The CI soak job uploads this file as an artifact on failure, so each
    line is flushed eagerly -- a crashed run still leaves a complete
    prefix of the stream on disk.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = self.path.open("a")

    def emit(self, event: JobEvent) -> None:
        line = json.dumps(event.to_json(), sort_keys=True)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class TeeSink(EventSink):
    """Fans every event out to several sinks."""

    def __init__(self, *sinks: EventSink):
        self.sinks = tuple(sinks)

    def emit(self, event: JobEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
