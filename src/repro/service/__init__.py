"""``repro.service`` -- the batched, content-addressed characterization
service.

Turns the one-shot PolyUFC pipeline into a long-lived layer every
entrypoint shares (see ``docs/SERVICE.md``):

* :mod:`repro.service.spec` -- :class:`JobSpec` and the canonical
  content digests (kernel, platform, objective, epsilon, engine, model
  versions) that key the store.
* :mod:`repro.service.store` -- the hardened, content-addressed
  :class:`ResultStore` (reports + shared hardware workloads + queryable
  index).
* :mod:`repro.service.executor` -- the single compute path from a spec
  to a :class:`~repro.mlpolyufc.reports.KernelReport`.
* :mod:`repro.service.pool` -- the pluggable execution backends: the
  inline ``thread`` path (the default) and the ``process`` pool
  (spec/report JSON is the wire format); ``REPRO_SERVICE_EXECUTOR``
  selects.
* :mod:`repro.service.scheduler` -- async batch :class:`Scheduler` with
  in-flight dedup, admission control (a bounded queue, load shedding,
  per-client quotas), per-job deadlines and the structured lifecycle
  event stream.
* :mod:`repro.service.client` -- the in-process :class:`ServiceClient`
  facade used by ``repro.experiments`` and the benchmarks, including
  the streaming batch API (:meth:`ServiceClient.stream_batch`).
* :mod:`repro.service.http` -- the stdlib-only HTTP/JSON front behind
  ``repro.cli serve``.
"""

from repro.service.client import ServiceClient, resolve_store
from repro.service.events import (
    EVENT_KINDS,
    EventSink,
    JobEvent,
    JsonlSink,
    ListSink,
    NullSink,
    TeeSink,
)
from repro.service.executor import execute_report
from repro.service.http import make_server, request_json, serve
from repro.service.pool import EXECUTOR_KINDS, resolve_executor
from repro.service.scheduler import (
    AdmissionError,
    Job,
    QuotaExceeded,
    Scheduler,
)
from repro.service.spec import (
    OBJECTIVES,
    PLATFORM_NAMES,
    SPEC_VERSION,
    JobSpec,
    model_versions,
)
from repro.service.store import ResultStore, store_root

__all__ = [
    "ServiceClient",
    "resolve_store",
    "EVENT_KINDS",
    "EventSink",
    "JobEvent",
    "JsonlSink",
    "ListSink",
    "NullSink",
    "TeeSink",
    "execute_report",
    "make_server",
    "request_json",
    "serve",
    "EXECUTOR_KINDS",
    "resolve_executor",
    "AdmissionError",
    "Job",
    "QuotaExceeded",
    "Scheduler",
    "OBJECTIVES",
    "PLATFORM_NAMES",
    "SPEC_VERSION",
    "JobSpec",
    "model_versions",
    "ResultStore",
    "store_root",
]
