"""Scheduler: coalescing, cache hits, degradation policy, failures,
width."""

import threading

import pytest

from repro.runtime.faults import inject
from repro.service import scheduler as scheduler_module
from repro.service.events import ListSink
from repro.service.scheduler import Scheduler
from repro.service.spec import JobSpec
from repro.service.store import ResultStore

KERNEL = "trisolv"  # smallest compile in the suite


@pytest.fixture()
def sink():
    return ListSink()


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def make_scheduler(store, sink, **kwargs):
    return Scheduler(store=store, sink=sink, **kwargs)


def event_kinds(sink):
    return [event.kind for event in sink.events()]


def test_identical_concurrent_submissions_run_the_pipeline_once(
    store, sink, no_memo
):
    sched = make_scheduler(store, sink)
    spec = JobSpec(benchmark=KERNEL)
    try:
        # Slow down every CM chunk so the primary is still in flight
        # while the duplicates arrive.
        with inject("cm.chunk", "slow", arg=0.05):
            jobs = [sched.submit(spec) for _ in range(5)]
            reports = sched.wait_all(jobs, timeout=300)
    finally:
        sched.shutdown()

    assert len(reports) == 5
    blobs = {id(r): r.to_json() for r in reports}
    first = reports[0].to_json()
    assert all(blob == first for blob in blobs.values())

    counts = sink.counts()
    # THE acceptance criterion: one pipeline execution, ever.
    assert counts.get("started", 0) == 1
    assert counts.get("coalesced", 0) == 4
    assert counts.get("completed", 0) == 5
    assert counts.get("failed", 0) == 0
    # Exactly one object was persisted for the five submissions.
    assert len(list(store.reports_dir.glob("*.json"))) == 1

    # Coalesced jobs mirror the primary's terminal state and attribution.
    primary_id = jobs[0].job_id
    assert sched.status(primary_id)["served_by"] == "local"
    for job in jobs[1:]:
        status = sched.status(job.job_id)
        assert status["coalesced_into"] == primary_id
        assert status["state"] == "completed"
        assert status["served_by"] == "local"


def test_completed_digest_is_served_from_the_store(store, sink):
    spec = JobSpec(benchmark=KERNEL)
    sched = make_scheduler(store, sink)
    try:
        first = sched.submit(spec)
        first.result(300)
        second = sched.submit(spec)
        second.result(300)
    finally:
        sched.shutdown()
    kinds = event_kinds(sink)
    assert kinds.count("started") == 1
    assert kinds.count("cache_hit") == 1
    assert sched.status(first.job_id)["served_by"] == "local"
    assert sched.status(second.job_id)["source"] == "store"
    assert sched.status(second.job_id)["served_by"] == "cache"


def test_client_without_a_store_serves_every_job_locally():
    from repro.service import ServiceClient

    # No store to hit and nowhere else to send it: the job runs the
    # pipeline on this process's scheduler.
    with ServiceClient(store=False) as client:
        client.characterize(KERNEL, timeout=300)
        (job,) = client.scheduler.jobs()
        assert job["state"] == "completed"
        assert job["served_by"] == "local"


def test_degraded_reports_complete_but_never_persist(
    store, sink, no_memo
):
    spec = JobSpec(benchmark=KERNEL)
    sched = make_scheduler(store, sink)
    try:
        with inject("cm.engine", "fail"):
            report = sched.submit(spec).result(300)
    finally:
        sched.shutdown()
    assert not report.fully_exact
    assert report.degraded_units
    counts = sink.counts()
    assert counts.get("degraded", 0) == 1
    assert counts.get("completed", 0) == 1
    assert store.get_report(spec.digest()) is None
    assert not list(store.reports_dir.glob("*.json"))


def test_failed_jobs_surface_the_error_and_release_the_slot(
    store, sink, monkeypatch
):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic executor crash")

    # The thread backend resolves execute_report at call time, so
    # patching the executor module reaches it.
    monkeypatch.setattr("repro.service.executor.execute_report", boom)
    spec = JobSpec(benchmark=KERNEL)
    sched = make_scheduler(store, sink)
    try:
        job = sched.submit(spec)
        with pytest.raises(RuntimeError, match="synthetic"):
            job.result(60)
        status = sched.status(job.job_id)
        assert status["state"] == "failed"
        assert "synthetic executor crash" in status["error"]
        assert sink.counts().get("failed", 0) == 1
        # The in-flight slot was released: a new submission gets a fresh
        # primary (and fails again), it does not coalesce onto a corpse.
        retry = sched.submit(spec)
        with pytest.raises(RuntimeError):
            retry.result(60)
        assert sched.status(retry.job_id)["coalesced_into"] is None
    finally:
        sched.shutdown()


@pytest.mark.parametrize("workers,concurrent", [(2, True), (1, False)])
def test_width_runs_that_many_jobs_at_once(monkeypatch, workers, concurrent):
    from repro.mlpolyufc.reports import KernelReport
    from repro.service import ServiceClient

    barrier = threading.Barrier(2, timeout=2.0)

    def rendezvous(spec, **kwargs):
        barrier.wait()  # passes only while both jobs run at once
        return KernelReport(
            benchmark=spec.benchmark, platform=spec.platform,
            granularity=spec.granularity, objective=spec.objective,
            set_associative=spec.set_associative,
        )

    monkeypatch.setattr(
        "repro.service.executor.execute_report", rendezvous
    )
    specs = [
        JobSpec(benchmark=KERNEL, objective=objective)
        for objective in ("edp", "energy")
    ]
    with ServiceClient(
        store=False, executor="thread", workers=workers
    ) as client:
        jobs = client.submit_batch(specs)
        if concurrent:
            reports = client.wait_all(jobs, timeout=60)
            assert [r.objective for r in reports] == ["edp", "energy"]
        else:
            for job in jobs:
                with pytest.raises(threading.BrokenBarrierError):
                    job.result(60)


def test_width_is_clamped_to_one():
    sched = Scheduler(store=None, workers=0)
    try:
        assert sched.width == 1
    finally:
        sched.shutdown()


def test_submit_validates_specs(store, sink):
    sched = make_scheduler(store, sink)
    try:
        with pytest.raises(ValueError):
            sched.submit({"benchmark": "nope"})
        with pytest.raises(ValueError):
            sched.submit({"benchmark": KERNEL, "bogus": True})
    finally:
        sched.shutdown()


def test_shutdown_rejects_new_work(store, sink):
    sched = make_scheduler(store, sink)
    sched.shutdown()
    with pytest.raises(RuntimeError):
        sched.submit(JobSpec(benchmark=KERNEL))


def test_batch_submission_coalesces_intra_batch_duplicates(
    store, sink, no_memo
):
    sched = make_scheduler(store, sink)
    specs = [
        {"benchmark": KERNEL, "objective": "edp"},
        {"benchmark": KERNEL, "objective": "edp"},
        {"benchmark": KERNEL, "objective": "energy"},
    ]
    try:
        with inject("cm.chunk", "slow", arg=0.05):
            jobs = sched.submit_batch(specs)
            reports = sched.wait_all(jobs, timeout=300)
    finally:
        sched.shutdown()
    assert [report.objective for report in reports] == [
        "edp", "edp", "energy",
    ]
    assert sink.counts().get("started", 0) == 2  # edp once, energy once
