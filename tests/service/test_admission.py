"""The service's one overload rule: past ``max_pending`` pending primary
jobs, new jobs are shed to the ``timeout-cap`` rung; nothing is refused,
and a store hit beats shedding."""

import collections

import pytest

from repro.runtime.faults import inject
from repro.service import JobSpec
from repro.service.events import ListSink
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore

KERNEL = "trisolv"  # smallest compile in the suite


@pytest.fixture()
def sink():
    return ListSink()


def event_kinds(sink):
    return [event.kind for event in sink.events()]


def per_job(sink):
    kinds = collections.defaultdict(list)
    for event in sink.events():
        kinds[event.job_id].append(event.kind)
    return kinds


def assert_terminal_invariant(sink):
    """submitted == completed + failed + shed over the quiesced stream."""
    counts = collections.Counter(event_kinds(sink))
    assert counts["submitted"] == (
        counts["completed"] + counts["failed"] + counts["shed"]
    )


def test_overload_sheds_to_timeout_cap_and_never_persists(
    tmp_path, sink, no_memo
):
    store = ResultStore(tmp_path / "store")
    # max_pending=0: every primary job sheds -- deterministic overload.
    sched = Scheduler(store=store, sink=sink, max_pending=0)
    try:
        job = sched.submit(JobSpec(benchmark=KERNEL))
        report = job.result(300)
    finally:
        sched.shutdown()

    assert job.shed
    assert not report.fully_exact
    assert {unit.degraded for unit in report.units} == {"timeout-cap"}
    # Degraded results are never persisted: the store stays empty.
    assert store.stats()["reports"] == 0
    kinds = per_job(sink)[job.job_id]
    assert kinds == ["submitted", "started", "degraded", "shed"]
    assert_terminal_invariant(sink)


def test_store_hit_beats_shedding(tmp_path, sink):
    store = ResultStore(tmp_path / "store")
    spec = JobSpec(benchmark=KERNEL)
    warm = Scheduler(store=store)
    try:
        assert warm.submit(spec).result(300).fully_exact
    finally:
        warm.shutdown()

    # max_pending=0 sheds every primary, but the stored exact report
    # serves this one at full fidelity.
    sched = Scheduler(store=store, sink=sink, max_pending=0)
    try:
        job = sched.submit(spec)
        report = job.result(300)
    finally:
        sched.shutdown()

    assert report.fully_exact
    assert job.served_by == "cache"
    assert not job.shed
    assert per_job(sink)[job.job_id] == [
        "submitted", "cache_hit", "completed",
    ]
    assert_terminal_invariant(sink)


def test_every_job_past_the_bound_is_shed_none_refused(sink, no_memo):
    # No memo hit may finish the first job before the last submission.
    sched = Scheduler(store=None, sink=sink, max_pending=1)
    try:
        with inject("cm.chunk", "slow", arg=0.05):
            jobs = [
                sched.submit(JobSpec(benchmark=name))
                for name in (KERNEL, "atax", "mvt", "bicg")
            ]
            sched.wait_all(jobs, timeout=300)
    finally:
        sched.shutdown()

    assert [job.shed for job in jobs] == [False, True, True, True]
    assert {sched.status(job.job_id)["state"] for job in jobs} == {
        "completed"
    }
    assert_terminal_invariant(sink)
