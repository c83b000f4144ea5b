"""Admission control: the bounded queue, shedding, quotas, retry-after
hints."""

import collections

import pytest

from repro.runtime.faults import inject
from repro.service import (
    AdmissionError,
    JobSpec,
    QuotaExceeded,
    ServiceClient,
)
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


def test_bounded_queue_rejects_at_the_hard_cap(sink):
    sched = Scheduler(
        store=None, sink=sink, max_pending=1, reject_pending=2,
    )
    try:
        with inject("cm.chunk", "slow", arg=0.05):
            first = sched.submit(JobSpec(benchmark=KERNEL))
            second = sched.submit(JobSpec(benchmark="atax"))
            with pytest.raises(AdmissionError, match="hard queue bound"):
                sched.submit(JobSpec(benchmark="mvt"))
            sched.wait_all([first, second], timeout=300)
    finally:
        sched.shutdown()

    rejected = [e for e in sink.events() if e.kind == "shed"
                and e.detail.startswith("rejected")]
    assert len(rejected) == 1
    status = sched.status(rejected[0].job_id)
    assert status["state"] == "rejected"
    assert "hard queue bound" in status["error"]
    assert_terminal_invariant(sink)


def test_overload_sheds_to_timeout_cap_and_never_persists(
    tmp_path, sink, monkeypatch
):
    from repro.cache.memo import clear_memo

    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    clear_memo()
    store = ResultStore(tmp_path / "store")
    # max_pending=0: every primary job sheds -- deterministic overload.
    sched = Scheduler(
        store=store, sink=sink, max_pending=0, reject_pending=10,
    )
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


def test_client_quota_rejects_before_admission(sink):
    sched = Scheduler(store=None, sink=sink, client_quota=1)
    try:
        with inject("cm.chunk", "slow", arg=0.05):
            first = sched.submit(
                JobSpec(benchmark=KERNEL), client_id="alice"
            )
            with pytest.raises(QuotaExceeded, match="alice"):
                sched.submit(JobSpec(benchmark="atax"), client_id="alice")
            # A different client still gets in.
            other = sched.submit(
                JobSpec(benchmark="atax"), client_id="bob"
            )
            sched.wait_all([first, other], timeout=300)
        # Terminal frees the slot: alice can submit again.
        again = sched.submit(JobSpec(benchmark=KERNEL), client_id="alice")
        again.result(300)
    finally:
        sched.shutdown()

    counts = collections.Counter(event_kinds(sink))
    assert counts["quota_exceeded"] == 1
    # The quota-rejected request never entered the system.
    quota_job = next(
        e.job_id for e in sink.events() if e.kind == "quota_exceeded"
    )
    assert per_job(sink)[quota_job] == ["quota_exceeded"]
    assert_terminal_invariant(sink)


def test_scheduler_retry_after_hint_is_clamped():
    sched = Scheduler(store=None)
    try:
        assert 0.5 <= sched.retry_after_hint() <= 60.0
    finally:
        sched.shutdown()


def test_refusals_carry_retry_after(tmp_path):
    import json
    import urllib.error
    import urllib.request

    from repro.service.http import serve_in_thread

    server, url, _thread = serve_in_thread(
        store=str(tmp_path / "store"), client_quota=1,
    )
    try:
        with inject("cm.chunk", "slow", arg=0.2):
            payload = json.dumps({
                "specs": [
                    {"benchmark": KERNEL},
                    {"benchmark": KERNEL, "objective": "energy"},
                ],
                "wait": False,
            }).encode()
            request = urllib.request.Request(
                url + "/v1/jobs", data=payload,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=30)
            code, headers = refused.value.code, refused.value.headers
            body = json.loads(refused.value.read())
        assert code == 429
        assert body["retry_after_s"] >= 0.5
        assert int(headers["Retry-After"]) >= 1
        # The job admitted before the refusal is preserved.
        assert len(body["jobs"]) == 1
    finally:
        server.close()


def test_http_surfaces_quota_and_streaming(tmp_path):
    from repro.service.http import request_json, serve_in_thread

    server, url, _thread = serve_in_thread(
        store=str(tmp_path / "store"), client_quota=2,
    )
    try:
        import json
        import urllib.request

        # Stream endpoint: one NDJSON row per job, as it completes.
        payload = json.dumps({
            "specs": [
                {"benchmark": KERNEL},
                {"benchmark": KERNEL, "objective": "energy"},
            ],
            "timeout_s": 300,
        }).encode()
        request = urllib.request.Request(
            url + "/v1/jobs/stream", data=payload,
            headers={
                "Content-Type": "application/json",
                "X-Repro-Client": "streamer",
            },
        )
        rows = []
        with urllib.request.urlopen(request, timeout=300) as resp:
            assert resp.status == 200
            for line in resp:
                rows.append(json.loads(line))
        assert len(rows) == 2
        assert all("report" in row for row in rows)

        # Quota: the same client saturates; events show quota_exceeded.
        with inject("cm.chunk", "slow", arg=0.05):
            code, body = request_json(
                url + "/v1/jobs",
                {"specs": [
                    {"benchmark": "atax"},
                    {"benchmark": "mvt"},
                    {"benchmark": "bicg"},
                ]},
            )
        assert code == 429
        assert "quota" in body["error"]
        assert len(body["jobs"]) == 2  # the admitted prefix
    finally:
        server.close()
