"""Async job scheduler: dedup, load shedding, events.

The scheduler accepts single and batch submissions and content-addresses
each by its :meth:`JobSpec.digest`.  At most one pipeline execution per
digest is in flight: concurrent identical submissions **coalesce** onto
the primary job and share its future (event ``coalesced``; the primary
is the only one that ever emits ``started``).  Completed digests are
served from the result store (event ``cache_hit``) without occupying
pipeline time at all.

Execution runs on a pluggable backend (``repro.service.pool``): the
``thread`` backend (the default) runs jobs inline on the dispatcher
threads, the ``process`` backend ships them to a process pool as
serialized spec / report JSON.  The ``executor`` argument selects.

One overload rule bounds the queue of primary jobs: at ``max_pending``
pending primaries, new primary jobs are **shed** -- they still run, but
pinned to the cheap ``timeout-cap`` degradation rung (deadline 0), so
overload degrades fidelity instead of queueing unboundedly.  Their
futures carry the degraded (never-persisted) report and their terminal
event is ``shed``.  A store hit beats shedding: a shed job whose report
is already stored is served from it at full fidelity.  No well-formed
submission is refused.

Per-job deadlines ride the existing cooperative machinery: the spec's
``cm_timeout_s`` becomes a :class:`repro.runtime.Deadline` inside the
pipeline, and a unit that exceeds it walks the exact -> approx ->
timeout-cap ladder instead of blocking the pool; such reports complete
normally but are never persisted.

Every completion carries a ``served_by`` attribution (``cache`` for a
store hit, ``local`` for a pipeline run on the backend, ``family`` when
parametric-family artifacts served its CM counters) and the global
invariant stays ``submitted == completed + failed + shed``.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.mlpolyufc.reports import KernelReport
from repro.service.events import EventSink, ListSink, make_event
from repro.service.pool import make_backend
from repro.service.spec import JobSpec
from repro.service.store import ResultStore

log = logging.getLogger("repro.runtime")

JOB_STATES = ("queued", "running", "completed", "failed")


@dataclass
class Job:
    """One submission (possibly coalesced onto an identical one)."""

    job_id: str
    spec: JobSpec
    digest: str
    submitted_at: float
    state: str = "queued"
    source: Optional[str] = None  # "computed" | "store" | "coalesced"
    shed: bool = False
    #: Completion attribution: "cache" | "local" | "family" (None until
    #: the job reaches its serving path).
    served_by: Optional[str] = None
    error: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    degraded_units: List[str] = field(default_factory=list)
    primary_id: Optional[str] = None
    future: Optional[Future] = None
    #: Coalesced jobs riding this primary (empty on followers).  They
    #: are finished *before* the shared future resolves, so a caller
    #: woken by ``result()`` never observes a follower without its
    #: terminal event.
    followers: List["Job"] = field(default_factory=list)

    def result(self, timeout: Optional[float] = None) -> KernelReport:
        """Block until the report is available (raises on failure)."""
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future is not None and self.future.done()


class Scheduler:
    """See module docstring."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        sink: Optional[EventSink] = None,
        executor: Optional[str] = None,
        max_pending: Optional[int] = None,
    ):
        self.store = store
        self.sink = sink if sink is not None else ListSink()
        #: Jobs run at once -- the only parallelism in the pipeline.
        self.width = max(1, workers or 1)
        self.max_pending = max_pending
        store_root = getattr(store, "root", None)
        self._backend = make_backend(
            executor,
            self.width,
            store_root=None if store_root is None else str(store_root),
        )
        self.executor = self._backend.kind
        self._pool = ThreadPoolExecutor(
            max_workers=self.width, thread_name_prefix="repro-service",
        )
        #: EWMA of completed-job wall time (``avg_job_s`` on healthz).
        self._avg_duration_s = 1.0
        self._lock = threading.Lock()
        #: digest -> the primary job computing it.
        self._inflight: Dict[str, Job] = {}
        #: Primary jobs submitted and not yet terminal.
        self._pending = 0
        self._jobs: Dict[str, Job] = {}
        self._counter = itertools.count(1)
        self._closed = False

    # -- events --------------------------------------------------------

    def _emit(self, kind: str, job: Job, detail: str = "",
              duration_ms: Optional[float] = None) -> None:
        try:
            self.sink.emit(make_event(
                kind, job.job_id, job.digest,
                job.spec.benchmark, job.spec.platform,
                detail=detail, duration_ms=duration_ms,
            ))
        except Exception:  # a sink error must never take a job down
            log.exception("event sink failed on %s/%s", kind, job.job_id)

    # -- submission ----------------------------------------------------

    def submit(self, spec: Union[JobSpec, dict]) -> Job:
        """Enqueue one job; returns immediately with a tracking handle."""
        if isinstance(spec, dict):
            spec = JobSpec.from_json(spec)
        else:
            spec.validate()
        digest = spec.digest()
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            job_id = f"j{next(self._counter):08d}"
            job = Job(
                job_id=job_id, spec=spec, digest=digest,
                submitted_at=time.time(),
            )
            self._jobs[job_id] = job
            primary = self._inflight.get(digest)
            depth = self._pending
            if primary is not None:
                job.primary_id = primary.job_id
                job.source = "coalesced"
                job.future = primary.future
                primary.followers.append(job)
            else:
                job.shed = (
                    self.max_pending is not None
                    and depth >= self.max_pending
                )
                job.future = Future()
                self._inflight[digest] = job
                self._pending = depth = depth + 1
        self._emit("submitted", job, detail=spec.label())
        if job.primary_id is not None:
            self._emit("coalesced", job, detail=job.primary_id)
        else:
            if not job.shed:
                self._emit("queued", job, detail=f"depth={depth}")
            self._pool.submit(self._run, job)
        return job

    def _release(self, job: Job) -> None:
        """A primary's terminal bookkeeping: queue depth, dedup entry."""
        with self._lock:
            self._pending -= 1
            self._inflight.pop(job.digest, None)

    def _finish_followers(
        self, primary: Job, exc: Optional[BaseException]
    ) -> None:
        """Give every coalesced follower its terminal event.

        Called from the primary's terminal path *before* the shared
        future resolves: the primary left the in-flight table when its
        slot was released, so the follower list is final -- and a
        waiter woken by ``result()`` observes a fully-balanced event
        stream (every job has its terminal event), not a transiently
        missing one.
        """
        with self._lock:
            followers = list(primary.followers)
            primary.followers.clear()
        for job in followers:
            with self._lock:
                job.finished_at = time.time()
                if exc is not None:
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                else:
                    job.state = "completed"
            duration_ms = (job.finished_at - job.submitted_at) * 1e3
            if exc is not None:
                self._emit("failed", job, detail=job.error,
                           duration_ms=duration_ms)
            else:
                self._emit("completed", job, detail="coalesced",
                           duration_ms=duration_ms)

    def submit_batch(
        self, specs: Sequence[Union[JobSpec, dict]]
    ) -> List[Job]:
        """Submit many jobs; duplicates inside the batch coalesce too."""
        return [self.submit(spec) for spec in specs]

    # -- execution -----------------------------------------------------

    def _job_timeout(self, job: Job) -> Optional[float]:
        """The job's CM deadline (0 for shed jobs: timeout-cap rung)."""
        if job.shed:
            # Deadline 0: every unit takes the timeout-cap rung
            # immediately, so the job costs compile time only.
            return 0.0
        return job.spec.cm_timeout_s

    def _fail_job(self, job: Job, exc: BaseException) -> None:
        """Terminal failure: event, release, followers, future."""
        with self._lock:
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_at = time.time()
        self._release(job)
        self._emit(
            "failed", job, detail=job.error,
            duration_ms=(job.finished_at - job.submitted_at) * 1e3,
        )
        self._finish_followers(job, exc)
        job.future.set_exception(exc)

    def _complete_job(self, job: Job, report: KernelReport) -> None:
        """Terminal success: event, release, followers, future."""
        with self._lock:
            job.state = "completed"
            job.finished_at = time.time()
        self._release(job)
        duration_ms = (job.finished_at - job.submitted_at) * 1e3
        self._note_duration(duration_ms / 1e3)
        if job.shed:
            self._emit(
                "shed", job, detail="timeout-cap", duration_ms=duration_ms
            )
        else:
            detail = job.source or ""
            if job.served_by is not None:
                detail = f"{detail}:{job.served_by}" if detail else job.served_by
            self._emit(
                "completed", job, detail=detail,
                duration_ms=duration_ms,
            )
        self._finish_followers(job, None)
        job.future.set_result(report)

    def _postprocess_and_complete(
        self, job: Job, report: KernelReport
    ) -> None:
        """Degraded accounting + store persistence, then completion."""
        try:
            if not report.fully_exact:
                job.degraded_units = report.degraded_units
                self._emit(
                    "degraded", job,
                    detail=",".join(
                        f"{unit.name}={unit.degraded}"
                        for unit in report.units
                        if unit.degraded != "exact"
                    ),
                )
            if self.store is not None and not job.shed:
                # No-op for degraded reports (store policy).
                self.store.put_report(job.spec, report)
        except BaseException as exc:
            self._fail_job(job, exc)
            return
        self._complete_job(job, report)

    def _run(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.started_at = time.time()
        try:
            report = None
            if self.store is not None:
                report = self.store.get_report(job.digest)
            if report is not None:
                # A stored exact report beats shedding: serve it.
                job.source = "store"
                job.served_by = "cache"
                job.shed = False
                self._emit("cache_hit", job)
            else:
                job.source = "computed"
                job.served_by = "local"
                self._emit("started", job, detail=job.spec.label())
                family_info: dict = {}
                report = self._backend.run(
                    job.spec, self.store, self._job_timeout(job),
                    family_info,
                )
                self._emit_family(job, family_info)
        except BaseException as exc:
            self._fail_job(job, exc)
            return
        if report is not None and job.source == "computed":
            self._postprocess_and_complete(job, report)
        else:
            self._complete_job(job, report)

    def _emit_family(self, job: Job, info: dict) -> None:
        """Emit parametric-family lifecycle events from executor info.

        ``family_served`` marks the O(1)-CM fast path (the job's counters
        were instantiated from the cached artifact); ``family_sample`` /
        ``family_fit`` track the artifact growing toward a chart;
        ``family_poisoned`` records a contradicting sample.
        """
        if not info.get("eligible"):
            return
        sizes = " ".join(
            f"{name}={value}"
            for name, value in sorted((info.get("sizes") or {}).items())
        )
        if info.get("served_units"):
            job.served_by = "family"
            self._emit(
                "family_served", job,
                detail=(
                    f"source={info.get('source')} "
                    f"units={info['served_units']} {sizes}"
                ),
            )
        if info.get("sampled"):
            self._emit("family_sample", job, detail=sizes)
        if info.get("fitted"):
            self._emit("family_fit", job, detail=sizes)
        if info.get("poisoned"):
            self._emit("family_poisoned", job, detail=info["poisoned"])

    def _note_duration(self, duration_s: float) -> None:
        with self._lock:
            self._avg_duration_s = (
                0.8 * self._avg_duration_s + 0.2 * duration_s
            )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """A JSON-shaped operational snapshot (the ``/v1/healthz``
        ``scheduler`` section): queue depth, shed bound and backend
        capacity."""
        with self._lock:
            depth = self._pending
            jobs = len(self._jobs)
            avg = self._avg_duration_s
        return {
            "executor": self.executor,
            "backend": self._backend.describe(),
            "width": self.width,
            "queue_depth": depth,
            "max_pending": self.max_pending,
            "jobs": jobs,
            "avg_job_s": round(avg, 3),
        }

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[dict]:
        """A JSON-shaped view of one job (coalesced jobs mirror their
        primary's progress through the shared future)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            primary = (
                self._jobs.get(job.primary_id)
                if job.primary_id is not None else None
            )
        state, error = job.state, job.error
        degraded = list(job.degraded_units)
        served_by = job.served_by
        if primary is not None:
            state, error = primary.state, primary.error
            degraded = list(primary.degraded_units)
            served_by = primary.served_by
        duration_ms = None
        finished = (primary or job).finished_at
        if finished is not None:
            duration_ms = (finished - job.submitted_at) * 1e3
        return {
            "job_id": job.job_id,
            "state": state,
            "digest": job.digest,
            "benchmark": job.spec.benchmark,
            "platform": job.spec.platform,
            "objective": job.spec.objective,
            "source": job.source,
            "served_by": served_by,
            "shed": (primary or job).shed,
            "error": error,
            "degraded_units": degraded,
            "coalesced_into": job.primary_id,
            "submitted_at": job.submitted_at,
            "duration_ms": duration_ms,
        }

    def jobs(self) -> List[dict]:
        with self._lock:
            ids = list(self._jobs)
        return [self.status(job_id) for job_id in ids]

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> KernelReport:
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job.result(timeout)

    def wait_all(
        self, jobs: Sequence[Job], timeout: Optional[float] = None
    ) -> List[KernelReport]:
        """Results of ``jobs`` in order (shared deadline across them)."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        reports = []
        for job in jobs:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            reports.append(job.result(remaining))
        return reports

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._backend.close()
