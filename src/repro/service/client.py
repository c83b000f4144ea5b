"""In-process client facade: store + scheduler behind one object.

:class:`ServiceClient` is what the experiment runner, the benchmarks and
the CLI's local mode use; the HTTP front (``repro.service.http``) wraps
the same object, so in-process and over-the-wire callers see identical
semantics.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.mlpolyufc.reports import KernelReport
from repro.service.events import EventSink, ListSink
from repro.service.scheduler import Job, Scheduler
from repro.service.spec import JobSpec
from repro.service.store import ResultStore

#: Pass as ``store=`` to disable persistence outright.
NO_STORE = False


def resolve_store(
    store: Union[None, bool, str, Path, ResultStore] = None,
) -> Optional[ResultStore]:
    """Store resolution: explicit object/path > env policy.

    ``None`` (default) honours ``REPRO_NO_CACHE=1``; ``False`` disables
    the store; a path or store object pins it.
    """
    if store is False:
        return None
    if isinstance(store, ResultStore):
        return store
    if os.environ.get("REPRO_NO_CACHE", "") == "1" and not isinstance(
        store, (str, Path)
    ):
        return None
    return ResultStore(
        Path(store) if isinstance(store, (str, Path)) else None
    )


class ServiceClient:
    """One characterization service endpoint, in process."""

    def __init__(
        self,
        store: Union[None, bool, str, Path, ResultStore] = None,
        workers: Optional[int] = None,
        sink: Optional[EventSink] = None,
        executor: Optional[str] = None,
        max_pending: Optional[int] = None,
    ):
        self.store = resolve_store(store)
        self.sink = sink if sink is not None else ListSink()
        self.scheduler = Scheduler(
            store=self.store,
            workers=workers,
            sink=self.sink,
            executor=executor,
            max_pending=max_pending,
        )

    # -- job API -------------------------------------------------------

    def submit(self, spec: Union[JobSpec, dict], **kwargs) -> Job:
        """Submit one job; ``kwargs`` override/extend a dict spec."""
        if isinstance(spec, dict):
            spec = JobSpec.from_json({**spec, **kwargs})
        return self.scheduler.submit(spec)

    def submit_batch(
        self, specs: Sequence[Union[JobSpec, dict]]
    ) -> List[Job]:
        return self.scheduler.submit_batch(specs)

    def status(self, job_id: str) -> Optional[dict]:
        return self.scheduler.status(job_id)

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> KernelReport:
        return self.scheduler.result(job_id, timeout)

    def wait_all(
        self, jobs: Sequence[Job], timeout: Optional[float] = None
    ) -> List[KernelReport]:
        return self.scheduler.wait_all(jobs, timeout)

    # -- synchronous conveniences --------------------------------------

    def characterize(
        self,
        benchmark: str,
        platform: str = "rpl",
        timeout: Optional[float] = None,
        **spec_kwargs,
    ) -> KernelReport:
        """Submit one spec and block for its report."""
        spec = JobSpec(
            benchmark=benchmark, platform=platform, **spec_kwargs
        )
        return self.submit(spec).result(timeout)

    def characterize_batch(
        self,
        specs: Sequence[Union[JobSpec, dict]],
        timeout: Optional[float] = None,
    ) -> List[KernelReport]:
        return self.wait_all(self.submit_batch(specs), timeout)

    # -- store passthrough ---------------------------------------------

    def query(self, **filters) -> List[dict]:
        if self.store is None:
            return []
        return self.store.query(**filters)

    def health(self) -> dict:
        """The enriched ``/v1/healthz`` payload: store stats, scheduler
        queue depth and shed bound, and the model versions."""
        from repro.service.spec import model_versions

        return {
            "ok": True,
            "store": self.store_stats(),
            "scheduler": self.scheduler.stats(),
            "versions": model_versions(),
        }

    def store_stats(self) -> dict:
        """:meth:`ResultStore.stats`, with the same keys when there is
        no store."""
        if self.store is None:
            return {"root": None, "reports": 0, "workloads": 0,
                    "families": 0, "indexed": 0}
        return self.store.stats()

    def events(self, kind: Optional[str] = None):
        if isinstance(self.sink, ListSink):
            return self.sink.events(kind)
        return []

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.scheduler.shutdown(wait=True)
        self.sink.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
