"""Process-pool backend: JSON round-trip, worker death, recovery."""

import collections

import pytest

from repro.service import JobSpec, ServiceClient, resolve_executor
from repro.service.events import ListSink
from repro.service.executor import execute_report

KERNEL = "trisolv"  # smallest compile in the suite


def strip_timings(report_json: dict) -> dict:
    """Report JSON minus wall-clock timings (never deterministic)."""
    return {k: v for k, v in report_json.items() if k != "timings_ms"}


def test_resolve_executor_precedence(monkeypatch):
    assert resolve_executor("process") == "process"
    # The default does not follow the host: thread even on many cores.
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert resolve_executor(None) == "thread"
    with pytest.raises(ValueError, match="unknown service executor"):
        resolve_executor("fibers")


def test_process_pool_reports_match_in_process_execution(tmp_path):
    spec = JobSpec(benchmark=KERNEL)
    direct = execute_report(spec)
    sink = ListSink()
    with ServiceClient(
        store=str(tmp_path / "store"), executor="process",
        workers=1, sink=sink,
    ) as client:
        assert client.scheduler.executor == "process"
        via_pool = client.submit(spec).result(300)

    # The spec/report JSON round-trip through the worker process is
    # numerically lossless (wall-clock timings aside).
    assert strip_timings(via_pool.to_json()) == strip_timings(
        direct.to_json()
    )
    kinds = [event.kind for event in sink.events()]
    assert kinds.count("started") == 1
    assert kinds.count("completed") == 1


def test_worker_death_fails_structurally_and_batch_never_hangs(
    tmp_path, monkeypatch
):
    # Every forked worker dies on its first job: the first attempt
    # breaks the pool, the retry on a fresh pool dies too, and the job
    # must fail with a structured EngineFailure -- not hang.
    monkeypatch.setenv("REPRO_FAULTS", "service.worker:die")
    sink = ListSink()
    with ServiceClient(
        store=str(tmp_path / "store"), executor="process",
        workers=1, sink=sink,
    ) as client:
        jobs = client.submit_batch([
            JobSpec(benchmark=KERNEL),
            JobSpec(benchmark="atax"),
        ])
        for job in jobs:
            with pytest.raises(Exception, match="worker process died"):
                job.result(300)

        counts = collections.Counter(
            event.kind for event in sink.events()
        )
        assert counts["failed"] == 2
        failures = [e for e in sink.events() if e.kind == "failed"]
        assert all("EngineFailure" in e.detail for e in failures)
        assert all(
            "worker process died" in e.detail for e in failures
        )

        # The pool was rebuilt each time: clearing the fault makes the
        # same client healthy again without a restart.
        monkeypatch.delenv("REPRO_FAULTS")
        report = client.submit(JobSpec(benchmark=KERNEL)).result(300)
        assert report.fully_exact

    counts = collections.Counter(event.kind for event in sink.events())
    assert counts["submitted"] == (
        counts["completed"] + counts["failed"] + counts["shed"]
    )


def test_worker_exceptions_come_back_classified(monkeypatch):
    # A worker-side *exception* (not death) crosses the process
    # boundary in-band: the parent re-raises a structured failure that
    # names the original exception class.  Fork-start workers inherit
    # the patched module, so the crash is deterministic.
    from repro.runtime import EngineFailure

    def boom(*args, **kwargs):
        raise ValueError("synthetic worker crash")

    monkeypatch.setattr("repro.service.executor.execute_report", boom)
    sink = ListSink()
    with ServiceClient(
        store=False, executor="process", workers=1, sink=sink,
    ) as client:
        job = client.submit(JobSpec(benchmark=KERNEL))
        with pytest.raises(EngineFailure, match="ValueError") as excinfo:
            job.result(300)
        assert "synthetic worker crash" in str(excinfo.value)
        status = client.status(job.job_id)
        assert status["state"] == "failed"
        assert "ValueError: synthetic worker crash" in status["error"]
