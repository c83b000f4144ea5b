"""The stdlib HTTP/JSON front (loopback only, in-process server)."""

import pytest

from repro.service.http import make_server, request_json

KERNEL = "trisolv"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    import threading

    store = tmp_path_factory.mktemp("http_store") / "store"
    server = make_server("127.0.0.1", 0, store=str(store))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield server, base
    server.shutdown()
    server.close()
    thread.join(timeout=10)


def test_healthz(server):
    _, base = server
    code, body = request_json(base + "/v1/healthz")
    assert code == 200
    assert body["ok"] is True
    assert body["store"]["root"]


def test_healthz_is_enriched(server):
    _, base = server
    code, body = request_json(base + "/v1/healthz")
    assert code == 200
    assert body["store"]["root"]
    scheduler = body["scheduler"]
    assert scheduler["queue_depth"] >= 0
    assert "max_pending" in scheduler
    assert "avg_job_s" in scheduler
    assert body["versions"]


def test_submit_wait_returns_the_report(server):
    _, base = server
    code, body = request_json(
        base + "/v1/jobs",
        {"spec": {"benchmark": KERNEL}, "wait": True, "timeout_s": 300},
        timeout_s=330,
    )
    assert code == 200
    (row,) = body["jobs"]
    assert row["state"] == "completed"
    assert row["benchmark"] == KERNEL
    report = row["report"]
    assert report["benchmark"] == KERNEL
    assert all(unit["cap_ghz"] > 0 for unit in report["units"])

    # The job is observable afterwards...
    code, status = request_json(base + f"/v1/jobs/{row['job_id']}")
    assert code == 200
    assert status["state"] == "completed"
    # ...and its result is re-fetchable.
    code, result = request_json(
        base + f"/v1/jobs/{row['job_id']}/result?timeout_s=60"
    )
    assert code == 200
    assert result["report"]["benchmark"] == KERNEL

    # A repeat submission is served from the store.
    code, body = request_json(
        base + "/v1/jobs",
        {"spec": {"benchmark": KERNEL}, "wait": True, "timeout_s": 300},
        timeout_s=330,
    )
    assert code == 200
    assert body["jobs"][0]["source"] == "store"

    # And the index sees the entry.
    code, body = request_json(base + f"/v1/query?benchmark={KERNEL}")
    assert code == 200
    assert len(body["rows"]) == 1
    assert body["rows"][0]["benchmark"] == KERNEL

    # The lifecycle is visible on the events route.
    code, body = request_json(base + "/v1/events?kind=completed")
    assert code == 200
    assert len(body["events"]) >= 1


@pytest.mark.parametrize(
    "payload",
    [
        {},  # no spec at all
        {"spec": {"platform": "rpl"}},  # benchmark missing
        {"spec": {"benchmark": "nope"}},  # unknown benchmark
        {"spec": {"benchmark": KERNEL, "bogus": 1}},  # unknown field
        {"specs": []},  # empty batch
        {"spec": {"benchmark": KERNEL, "objective": "speed"}},
    ],
)
def test_malformed_submissions_get_400(server, payload):
    _, base = server
    code, body = request_json(base + "/v1/jobs", payload)
    assert code == 400
    assert "error" in body


def test_unknown_routes_and_jobs_get_404(server):
    _, base = server
    code, _ = request_json(base + "/v1/nope")
    assert code == 404
    code, body = request_json(base + "/v1/jobs/j99999999")
    assert code == 404
    assert "unknown job" in body["error"]
    code, _ = request_json(base + "/v1/jobs/j99999999/result")
    assert code == 404


def test_unfinished_result_is_202_not_a_failure(monkeypatch):
    from repro.cache.memo import clear_memo
    from repro.runtime.faults import inject
    from repro.service.http import serve_in_thread

    # No store and no CM memo: the job really runs its CM chunks.
    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    clear_memo()
    server, base, _thread = serve_in_thread(store=False, executor="thread")
    try:
        with inject("cm.chunk", "slow", arg=0.2):
            code, body = request_json(
                base + "/v1/jobs", {"spec": {"benchmark": KERNEL}}
            )
            assert code == 200
            job_id = body["jobs"][0]["job_id"]
            code, body = request_json(
                base + f"/v1/jobs/{job_id}/result?timeout_s=0.05"
            )
        assert code == 202
        assert body["status"]["state"] in ("queued", "running")
        assert "report" not in body
        code, body = request_json(
            base + f"/v1/jobs/{job_id}/result?timeout_s=300",
            timeout_s=330,
        )
        assert code == 200
        assert body["report"]["benchmark"] == KERNEL
    finally:
        server.close()


def test_events_limit_zero_returns_no_events(server):
    _, base = server
    code, _ = request_json(
        base + "/v1/jobs",
        {"spec": {"benchmark": KERNEL}, "wait": True, "timeout_s": 300},
        timeout_s=330,
    )
    assert code == 200
    code, body = request_json(base + "/v1/events?limit=2")
    assert len(body["events"]) == 2
    for limit in (0, -1):
        code, body = request_json(base + f"/v1/events?limit={limit}")
        assert code == 200
        assert body["events"] == []
    # The same as /v1/query, whose limit=0 answers no rows.
    code, body = request_json(base + "/v1/query?limit=0")
    assert code == 200
    assert body["rows"] == []


def test_bad_query_filter_gets_400(server):
    _, base = server
    code, body = request_json(base + "/v1/query?boundedness=XX")
    assert code == 400
    code, body = request_json(base + "/v1/query?frobnicate=1")
    assert code == 400
