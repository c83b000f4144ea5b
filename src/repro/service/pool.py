"""Execution backends for the scheduler: in-thread or process pool.

Characterization is CPU-bound Python/NumPy: concurrent jobs on threads
overlap only where NumPy releases the GIL, on processes they overlap
fully (a 10-kernel cold batch on a 2-vCPU host: 5.57 s on one worker,
4.07 s on two threads, 3.02 s on two processes).  This module gives the
scheduler a pluggable execution core:

``thread``
    the job runs inline on the scheduler's dispatcher thread (zero
    marshalling overhead).
``process``
    the job is shipped to a ``ProcessPoolExecutor`` worker as its
    serialized :class:`~repro.service.spec.JobSpec` JSON and comes back
    as serialized :class:`~repro.mlpolyufc.reports.KernelReport` JSON
    (the versioned report schema is the wire format, so there is no
    second serialization contract to maintain).  Worker-side lifecycle
    information (degradation details, error classification) rides the
    same payload and is re-emitted by the parent's event sinks -- worker
    processes never touch a sink.

Backend selection: the explicit argument, else ``thread``.  The default
never depends on the host: at the default width of one worker a process
pool runs the same serial work and only adds fork + JSON marshalling.

Worker death is a first-class failure: a worker that disappears
mid-job (OOM kill, segfault, the armed ``service.worker:die`` fault)
breaks the whole ``ProcessPoolExecutor``, so the backend rebuilds the
pool, retries the job once on a fresh worker, and -- if the retry dies
too -- surfaces a structured :class:`~repro.runtime.EngineFailure`
instead of hanging the batch.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.mlpolyufc.reports import KernelReport
from repro.runtime import EngineFailure, faults
from repro.service.spec import JobSpec

log = logging.getLogger("repro.runtime")

EXECUTOR_KINDS = ("thread", "process")


def resolve_executor(kind: Optional[str] = None) -> str:
    """Backend choice: explicit arg, else ``thread``."""
    if kind is None:
        kind = "thread"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown service executor {kind!r}; "
            f"expected one of {EXECUTOR_KINDS}"
        )
    return kind


def _worker_main(payload: dict) -> dict:
    """Run one job inside a pool worker; everything crosses as JSON.

    Exceptions are classified and returned in-band (never re-raised):
    custom exception types do not reliably survive the futures pickle
    channel, and a structured payload lets the parent keep its event
    detail format (``TypeName: message``) byte-identical to thread mode.
    """
    faults.fire("service.worker")
    try:
        from repro.service.client import resolve_store
        from repro.service.executor import execute_report

        spec = JobSpec.from_json(payload["spec"])
        store = None
        if payload["store_root"] is not None:
            store = resolve_store(payload["store_root"])
        family_info: dict = {}
        report = execute_report(
            spec,
            store=store,
            cm_timeout_s=payload["cm_timeout_s"],
            family_info=family_info,
        )
    except BaseException as exc:  # classified in-band, see docstring
        return {
            "ok": False,
            "error_type": type(exc).__name__,
            "error": str(exc),
        }
    return {"ok": True, "report": report.to_json(), "family": family_info}


class WorkerError(EngineFailure):
    """A job failed inside a pool worker (classification preserved).

    ``error_type`` names the original exception class; ``str()`` keeps
    the parent-side event detail identical to what thread mode logs.
    """

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}", site="service.worker")
        self.error_type = error_type


class ThreadBackend:
    """Run jobs inline on the calling (dispatcher) thread."""

    kind = "thread"

    def __init__(self, width: int):
        self.width = width

    def run(self, spec: JobSpec, store, cm_timeout_s,
            family_info: Optional[dict] = None):
        from repro.service.executor import execute_report

        return execute_report(
            spec, store=store, cm_timeout_s=cm_timeout_s,
            family_info=family_info,
        )

    def describe(self) -> dict:
        """Healthz row: the backend's kind and width."""
        return {"kind": self.kind, "width": self.width}

    def close(self) -> None:
        pass


class ProcessBackend:
    """Ship jobs to a ``ProcessPoolExecutor``, surviving worker death."""

    kind = "process"

    def __init__(self, width: int, store_root: Optional[str] = None):
        self.width = width
        self.store_root = store_root
        # fork keeps worker start cheap (the repro modules are already
        # imported); fall back to the platform default where fork is
        # unavailable.
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._pool = self._make_pool()

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.width, mp_context=self._ctx
        )

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace the broken pool exactly once per breakage."""
        with self._lock:
            if self._pool is broken:
                broken.shutdown(wait=False)
                self._pool = self._make_pool()

    def run(self, spec: JobSpec, store, cm_timeout_s,
            family_info: Optional[dict] = None):
        # ``store`` is ignored: workers open their own handle from
        # store_root -- a live store object does not cross the process
        # boundary.  Atomic object writes make the concurrent access
        # safe.
        payload = {
            "spec": spec.to_json(),
            "store_root": self.store_root,
            "cm_timeout_s": cm_timeout_s,
        }
        attempts = 2
        for attempt in range(1, attempts + 1):
            with self._lock:
                pool = self._pool
            try:
                out = pool.submit(_worker_main, payload).result()
                break
            except BrokenProcessPool:
                self._rebuild(pool)
                if attempt == attempts:
                    raise EngineFailure(
                        f"worker process died running {spec.label()} "
                        f"({attempts} attempts); pool rebuilt",
                        site="service.worker",
                    ) from None
                log.warning(
                    "service pool worker died running %s; "
                    "retrying on a fresh pool (attempt %d/%d)",
                    spec.label(), attempt + 1, attempts,
                )
            except RuntimeError:
                # submit() after shutdown during a racing close.
                raise EngineFailure(
                    "service pool is shut down", site="service.worker"
                ) from None
        if not out["ok"]:
            raise WorkerError(out["error_type"], out["error"])
        if family_info is not None:
            family_info.clear()
            family_info.update(out.get("family") or {})
        return KernelReport.from_json(out["report"])

    def describe(self) -> dict:
        """Healthz row: the backend's kind and width."""
        return {"kind": self.kind, "width": self.width}

    def close(self) -> None:
        with self._lock:
            self._pool.shutdown(wait=False)


def make_backend(
    kind: Optional[str], width: int, store_root: Optional[str] = None
):
    """Construct the resolved execution backend."""
    if resolve_executor(kind) == "thread":
        return ThreadBackend(width)
    return ProcessBackend(width, store_root=store_root)
