"""Stdlib-only HTTP/JSON front for the characterization service.

Exposes the :class:`~repro.service.client.ServiceClient` API over
loopback (or any interface) with zero new dependencies -- plain
``http.server`` threads over the same scheduler the in-process client
uses, so batching, dedup and the event stream behave identically.

Routes (all JSON)::

    GET  /v1/healthz                 liveness + store stats +
                                     scheduler queue depth/admission
                                     bounds + model versions
    POST /v1/jobs                    {"spec": {...}} or {"specs": [...]}
                                     (+ "wait": true, "timeout_s": t)
    POST /v1/jobs/stream             {"specs": [...], "timeout_s": t} ->
                                     chunked NDJSON, one line per job as
                                     it completes (no batch barrier)
    GET  /v1/jobs                    all job statuses
    GET  /v1/jobs/<id>               one job status
    GET  /v1/jobs/<id>/result        block (up to ?timeout_s=) for report;
                                     202 + status if still unfinished
    GET  /v1/query?benchmark=&platform=&boundedness=&cap_below=...
    GET  /v1/events?kind=&limit=     the last ``limit`` lifecycle events

Malformed requests get ``400`` with ``{"error": ...}``; unknown jobs and
routes get ``404``; a job whose pipeline failed gets ``500`` on its
result route.  Admission control surfaces as ``429`` (the caller
is at its per-client quota -- callers are identified by the
``X-Repro-Client`` header, falling back to the peer address) and ``503``
(the scheduler is at its hard queue bound); both carry the jobs that
were admitted before the refusal, plus a ``Retry-After`` header and a
``retry_after_s`` body field estimating the queue-drain time.  This
front is a trusted-network tool (benchmarking, fleet amortization); it
binds loopback by default and has no auth.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.service.client import ServiceClient
from repro.service.scheduler import AdmissionError, QuotaExceeded

log = logging.getLogger("repro.runtime")

#: Header naming the submitting client for per-client quotas.
CLIENT_HEADER = "X-Repro-Client"

DEFAULT_PORT = 8177
#: Cap on how long a single HTTP request may block on a result.
MAX_WAIT_S = 600.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server owning (or borrowing) a :class:`ServiceClient`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, client: ServiceClient,
                 owns_client: bool = False):
        self.client = client
        self.owns_client = owns_client
        super().__init__(address, _Handler)

    def close(self) -> None:
        self.server_close()
        if self.owns_client:
            self.client.close()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default
        log.debug("service.http %s -- %s", self.address_string(),
                  fmt % args)

    def _send(
        self, code: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes --------------------------------------------------------

    def _client_id(self) -> str:
        return (
            self.headers.get(CLIENT_HEADER)
            or f"http:{self.client_address[0]}"
        )

    def _submit_specs(self, raw_specs):
        """Submit one by one: admission refusals keep the admitted jobs.

        Returns ``(jobs, refusal)`` where ``refusal`` is ``None`` or an
        ``(http_code, message, retry_after_s)`` triple from the
        admission controller (``retry_after_s`` is ``None`` for plain
        malformed-spec 400s).
        """
        client_id = self._client_id()
        jobs = []
        for raw in raw_specs:
            try:
                jobs.append(
                    self.server.client.submit(raw, client_id=client_id)
                )
            except QuotaExceeded as exc:
                return jobs, (
                    429, str(exc), getattr(exc, "retry_after_s", None)
                )
            except AdmissionError as exc:
                return jobs, (
                    503, str(exc), getattr(exc, "retry_after_s", None)
                )
            except (ValueError, TypeError) as exc:  # malformed spec
                return jobs, (400, str(exc), None)
        return jobs, None

    @staticmethod
    def _retry_headers(retry_after_s) -> Optional[dict]:
        if retry_after_s is None:
            return None
        # Retry-After is integer seconds; round up so "0.5" != "now".
        return {"Retry-After": str(max(1, int(retry_after_s + 0.999)))}

    @staticmethod
    def _parse_specs(body: dict):
        if "specs" in body:
            raw_specs = body["specs"]
            if not isinstance(raw_specs, list) or not raw_specs:
                raise ValueError("'specs' must be a non-empty list")
        elif "spec" in body:
            raw_specs = [body["spec"]]
        else:
            raise ValueError("body needs 'spec' or 'specs'")
        return raw_specs

    def do_POST(self):  # noqa: N802 (stdlib casing)
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/v1/jobs/stream":
            return self._post_stream()
        if parsed.path != "/v1/jobs":
            return self._error(404, f"no such route {parsed.path}")
        try:
            body = self._read_body()
            raw_specs = self._parse_specs(body)
            wait = bool(body.get("wait", False))
            timeout_s = min(
                float(body.get("timeout_s", MAX_WAIT_S)), MAX_WAIT_S
            )
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            return self._error(400, str(exc))
        jobs, refusal = self._submit_specs(raw_specs)
        if refusal is not None and refusal[0] == 400:
            return self._error(400, refusal[1])
        rows = []
        for job in jobs:
            row = self.server.client.status(job.job_id)
            if wait:
                try:
                    report = job.result(timeout_s)
                    row = self.server.client.status(job.job_id)
                    row["report"] = report.to_json()
                except Exception as exc:  # surfaced per job, not per batch
                    row = self.server.client.status(job.job_id)
                    row["error"] = row.get("error") or str(exc)
            rows.append(row)
        if refusal is not None:
            code, message, retry_after_s = refusal
            payload = {"error": message, "jobs": rows}
            if retry_after_s is not None:
                payload["retry_after_s"] = retry_after_s
            return self._send(
                code, payload, headers=self._retry_headers(retry_after_s)
            )
        self._send(200, {"jobs": rows})

    def _post_stream(self) -> None:
        """Chunked NDJSON: one line per job, written as it completes."""
        try:
            body = self._read_body()
            raw_specs = self._parse_specs(body)
            timeout_s = min(
                float(body.get("timeout_s", MAX_WAIT_S)), MAX_WAIT_S
            )
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            return self._error(400, str(exc))
        jobs, refusal = self._submit_specs(raw_specs)
        if refusal is not None:
            # Refused before any bytes went out: plain status response
            # (already-admitted jobs keep running; the store keeps
            # their results).
            code, message, retry_after_s = refusal
            payload = {"error": message}
            if retry_after_s is not None:
                payload["retry_after_s"] = retry_after_s
            return self._send(
                code, payload, headers=self._retry_headers(retry_after_s)
            )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(payload: dict) -> None:
            line = json.dumps(payload).encode() + b"\n"
            self.wfile.write(f"{len(line):X}\r\n".encode())
            self.wfile.write(line + b"\r\n")
            self.wfile.flush()

        try:
            stream = self.server.client.stream(jobs, timeout=timeout_s)
            for job, report, error in stream:
                row = self.server.client.status(job.job_id)
                if report is not None:
                    row["report"] = report.to_json()
                if error is not None:
                    row["error"] = row.get("error") or error
                chunk(row)
        except TimeoutError as exc:
            chunk({"error": str(exc), "timeout": True})
        except BrokenPipeError:  # client went away mid-stream
            return
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self):  # noqa: N802 (stdlib casing)
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        try:
            if path == "/v1/healthz":
                return self._send(200, self.server.client.health())
            if path == "/v1/jobs":
                return self._send(
                    200, {"jobs": self.server.client.scheduler.jobs()}
                )
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/result"):
                    job_id = rest[: -len("/result")]
                    return self._get_result(job_id, query)
                return self._get_status(rest)
            if path == "/v1/query":
                return self._get_query(query)
            if path == "/v1/events":
                limit = int(query.get("limit", 200))
                events = self.server.client.events(query.get("kind"))
                # events[-0:] is the whole list: limit <= 0 means none.
                events = events[-limit:] if limit > 0 else []
                return self._send(200, {
                    "events": [event.to_json() for event in events]
                })
            return self._error(404, f"no such route {path}")
        except (ValueError, TypeError) as exc:
            return self._error(400, str(exc))

    _QUERY_STRING_KEYS = (
        "benchmark", "platform", "granularity", "objective",
        "engine", "boundedness",
    )

    def _get_query(self, query: dict) -> None:
        filters = {}
        for key in self._QUERY_STRING_KEYS:
            if key in query:
                filters[key] = query[key]
        for key in ("cap_below", "cap_above"):
            if key in query:
                filters[key] = float(query[key])
        if "limit" in query:
            filters["limit"] = int(query["limit"])
        unknown = set(query) - set(filters)
        if unknown:
            raise ValueError(f"unknown query filters: {sorted(unknown)}")
        self._send(200, {"rows": self.server.client.query(**filters)})

    def _get_status(self, job_id: str) -> None:
        status = self.server.client.status(job_id)
        if status is None:
            return self._error(404, f"unknown job {job_id!r}")
        self._send(200, status)

    def _get_result(self, job_id: str, query: dict) -> None:
        status = self.server.client.status(job_id)
        if status is None:
            return self._error(404, f"unknown job {job_id!r}")
        timeout_s = min(
            float(query.get("timeout_s", MAX_WAIT_S)), MAX_WAIT_S
        )
        try:
            report = self.server.client.result(job_id, timeout_s)
        except FutureTimeoutError:
            # Still queued or running when the wait ran out: the caller
            # polls again, nothing failed.
            return self._send(202, {
                "status": self.server.client.status(job_id),
            })
        except Exception as exc:
            return self._send(500, {
                "error": f"job {job_id} failed: {exc}",
                "status": self.server.client.status(job_id),
            })
        self._send(200, {
            "status": self.server.client.status(job_id),
            "report": report.to_json(),
        })


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    client: Optional[ServiceClient] = None,
    **client_kwargs,
) -> ServiceHTTPServer:
    """Bind a service server (``port=0`` picks a free port)."""
    owns = client is None
    if client is None:
        client = ServiceClient(**client_kwargs)
    return ServiceHTTPServer((host, port), client, owns_client=owns)


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    once: bool = False,
    port_file: Optional[str] = None,
    log_fn=print,
    **client_kwargs,
) -> int:
    """Run the HTTP front (the ``repro.cli serve`` entrypoint).

    ``once`` handles exactly one request then exits (smoke tests, CI);
    ``port_file`` writes the bound port for scripted callers racing the
    bind (e.g. when asking for ``port=0``).
    """
    server = make_server(host, port, **client_kwargs)
    bound = server.server_address[1]
    if port_file:
        from pathlib import Path

        Path(port_file).write_text(f"{bound}\n")
    log_fn(f"repro.service listening on http://{host}:{bound}")
    try:
        if once:
            server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.close()
    return 0


def serve_in_thread(
    host: str = "127.0.0.1", port: int = 0, **client_kwargs
):
    """(server, base_url, thread) for tests and scripts."""
    server = make_server(host, port, **client_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://{host}:{server.server_address[1]}"
    return server, url, thread


def request_json(
    url: str,
    payload: Optional[dict] = None,
    timeout_s: float = MAX_WAIT_S,
):
    """Tiny JSON-over-HTTP helper: ``(status_code, payload_dict)``.

    POSTs when ``payload`` is given, GETs otherwise; HTTP errors with a
    JSON body are returned, transport errors raise ``URLError``.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read() or b"{}")
        except ValueError:
            body = {"error": str(exc)}
        return exc.code, body
