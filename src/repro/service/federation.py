"""Cross-host shard federation: remote shards, breakers, failover.

A **shard map** assigns each shard slot either to the local pool or to
a remote ``repro.cli serve`` endpoint; jobs pick a slot by consistent
hashing on ``workload_digest``, and a hardened
:class:`RemoteShardClient` forwards each job over the existing
``/v1/jobs`` API.  Content addressing is what makes this safe: a
resubmitted job is idempotent by construction (the far side's in-flight
dedup and result store coalesce duplicates), so the client may retry
transport failures freely -- and *only* retries operations marked
idempotent.

The failure ladder, outermost first:

1. **Per-attempt timeouts** bound every socket operation.
2. **Bounded exponential backoff with full jitter** spaces retries; a
   ``Retry-After``/``retry_after_s`` hint on 429/503 responses is
   honoured instead of blind backoff.
3. **Retry budget exhaustion** surfaces as
   :class:`~repro.runtime.TransientIOError` (the same class the
   hardened disk layers use for "a bounded retry loop gave up").
4. A **circuit breaker** per remote shard turns repeated structured
   failures into fast local failover: ``closed`` -> ``open`` after N
   consecutive failures -> ``half-open`` after a cooldown, where exactly
   one probe request is let through (success closes, failure reopens).
5. An async **health checker** polls each remote's ``/v1/healthz``:
   successes shortcut an open breaker straight to half-open, failures
   count toward opening it, and a model-version skew (digest recipes
   disagree) marks the shard unhealthy outright.

What failover *means* is the scheduler's business
(``repro.service.scheduler``): the job is recomputed locally on the
existing executor ladder, a ``failover`` lifecycle event is emitted and
the result is attributed ``served_by=local_failover`` -- so the global
invariant stays ``submitted == completed + failed + shed``.

Every network failure mode is deterministically injectable without real
sockets via the ``service.remote`` fault site
(``service.remote:refuse|timeout|droppedconn|garbage|slow[:arg]``),
which fires inside :meth:`RemoteShardClient._attempt` -- the exact seam
a real socket error would surface through.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.runtime import faults
from repro.runtime.errors import (
    CircuitOpenError,
    RemoteShardError,
    TransientIOError,
)
from repro.service.spec import versions_compatible

log = logging.getLogger("repro.runtime")

SHARD_MAP_ENV = "REPRO_SHARD_MAP"
FAULT_SITE = "service.remote"

#: Client identity the federation front forwards under, so a remote
#: shard's per-client quota sees one steady consumer per front.
CLIENT_PREFIX = "fed"


# ---------------------------------------------------------------------------
# shard-map config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederationPolicy:
    """Retry / breaker / health tunables shared by every remote slot."""

    attempts: int = 3
    base_backoff_s: float = 0.1
    max_backoff_s: float = 2.0
    retry_after_cap_s: float = 5.0
    request_timeout_s: float = 120.0
    health_timeout_s: float = 5.0
    failure_threshold: int = 3
    cooldown_s: float = 5.0
    #: <= 0 disables the background health checker (tests poll manually).
    health_interval_s: float = 2.0

    def __post_init__(self):
        # The shard map is outside input: a wrong type must fail here,
        # not later in breaker arithmetic.  bool is an int subclass, but
        # ``"attempts": true`` is a typo, not a count.
        for spec in fields(self):
            value = getattr(self, spec.name)
            kinds = int if spec.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(
                    f"federation policy field {spec.name!r} must be "
                    f"{'an integer' if kinds is int else 'a number'}, "
                    f"got {value!r}"
                )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}"
            )

    @classmethod
    def from_json(cls, data: dict) -> "FederationPolicy":
        if not isinstance(data, dict):
            raise ValueError(
                f"federation policy must be an object, "
                f"got {type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown federation policy fields {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class ShardSlot:
    """One shard-map entry: a local pool slot or a remote endpoint."""

    index: int
    url: Optional[str] = None  # None => local

    @property
    def is_remote(self) -> bool:
        return self.url is not None

    def label(self) -> str:
        return self.url if self.url is not None else "local"

    def to_json(self) -> Union[str, dict]:
        return "local" if self.url is None else {"url": self.url}


class ShardMap:
    """An ordered assignment of shard slots to local/remote backends.

    JSON shape (``"shards"`` may also be the top-level value)::

        {
          "shards": ["local", "http://10.0.0.2:8177",
                     {"url": "http://10.0.0.3:8177"}],
          "policy": {"attempts": 3, "cooldown_s": 5.0, ...}
        }

    The slot *order is identity*: ``shard_for(workload_digest) % len``
    picks the slot, so every front using the same map (and model
    versions) routes every digest identically.
    """

    def __init__(
        self,
        slots: Sequence[ShardSlot],
        policy: Optional[FederationPolicy] = None,
    ):
        if not slots:
            raise ValueError("shard map needs at least one slot")
        self.slots: List[ShardSlot] = list(slots)
        self.policy = policy if policy is not None else FederationPolicy()

    def __len__(self) -> int:
        return len(self.slots)

    def remote_slots(self) -> List[ShardSlot]:
        return [slot for slot in self.slots if slot.is_remote]

    def to_json(self) -> dict:
        return {"shards": [slot.to_json() for slot in self.slots]}

    @classmethod
    def from_json(cls, data) -> "ShardMap":
        policy = None
        if isinstance(data, dict):
            unknown = sorted(set(data) - {"shards", "policy"})
            if unknown:
                raise ValueError(f"unknown shard map fields {unknown}")
            if "policy" in data:
                policy = FederationPolicy.from_json(data["policy"])
            data = data.get("shards")
        if not isinstance(data, list) or not data:
            raise ValueError(
                "shard map needs a non-empty 'shards' list"
            )
        slots = []
        for index, entry in enumerate(data):
            if isinstance(entry, dict):
                entry_unknown = sorted(set(entry) - {"url"})
                if entry_unknown:
                    raise ValueError(
                        f"unknown shard slot fields {entry_unknown} "
                        f"(slot {index})"
                    )
                entry = entry.get("url")
                if entry is None:
                    raise ValueError(f"shard slot {index} is missing 'url'")
            if not isinstance(entry, str):
                raise ValueError(
                    f"shard slot {index} must be 'local', a URL string "
                    f"or {{'url': ...}}, got {type(entry).__name__}"
                )
            if entry == "local":
                slots.append(ShardSlot(index))
            elif entry.startswith(("http://", "https://")):
                slots.append(ShardSlot(index, url=entry.rstrip("/")))
            else:
                raise ValueError(
                    f"shard slot {index}: expected 'local' or an "
                    f"http(s) URL, got {entry!r}"
                )
        return cls(slots, policy=policy)

    @classmethod
    def load(cls, source: Union[str, Path]) -> "ShardMap":
        """Parse a shard map from a JSON file path or inline JSON text."""
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            raw = text
        else:
            path = Path(source)
            if not path.is_file():
                raise ValueError(f"shard map file not found: {path}")
            raw = path.read_text()
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ValueError(f"malformed shard map JSON: {exc}") from None
        return cls.from_json(data)


def resolve_shard_map(
    shard_map: Union[None, str, Path, ShardMap] = None,
) -> Optional[ShardMap]:
    """Shard-map resolution: explicit arg > ``$REPRO_SHARD_MAP`` > none.

    A string/path argument (or env value) may be a JSON file path or the
    inline JSON itself; ``None`` with no env means no federation -- the
    scheduler keeps its all-local sharding.
    """
    if isinstance(shard_map, ShardMap):
        return shard_map
    if shard_map is None:
        shard_map = os.environ.get(SHARD_MAP_ENV) or None
    if shard_map is None:
        return None
    return ShardMap.load(shard_map)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Classic three-state breaker (thread-safe, injectable clock).

    * ``closed``: requests flow; ``failure_threshold`` *consecutive*
      failures open it.
    * ``open``: requests are refused without touching the network until
      ``cooldown_s`` has elapsed (or an out-of-band health probe
      succeeds, see :meth:`note_health_ok`).
    * ``half-open``: exactly one probe request is let through; its
      success closes the breaker, its failure reopens it (and restarts
      the cooldown).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    def _tick(self) -> None:
        # Lock held.  Open -> half-open purely by cooldown expiry.
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = "half-open"
            self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """May a request proceed?  Half-open grants exactly one probe."""
        with self._lock:
            self._tick()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            self._failures += 1
            if (
                self._state == "half-open"
                or self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False

    def note_health_ok(self) -> None:
        """An out-of-band health probe succeeded: skip the cooldown.

        Only promotes ``open`` -> ``half-open``; the next real request
        is still the probe that must succeed to close the breaker.
        """
        with self._lock:
            if self._state == "open":
                self._state = "half-open"
                self._probing = False

    def snapshot(self) -> dict:
        with self._lock:
            self._tick()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
            }


# ---------------------------------------------------------------------------
# remote shard client
# ---------------------------------------------------------------------------


class RemoteShardClient:
    """HTTP client for one remote shard, hardened per the module docs.

    Raises :class:`RemoteShardError` for a single failed attempt and
    :class:`TransientIOError` once the retry budget is exhausted;
    non-idempotent operations never retry.  All fault kinds armed at
    ``service.remote`` fire inside :meth:`_attempt`, before any real
    socket work.
    """

    def __init__(
        self,
        url: str,
        policy: Optional[FederationPolicy] = None,
        sleep=time.sleep,
    ):
        self.url = url.rstrip("/")
        self.policy = policy if policy is not None else FederationPolicy()
        self._sleep = sleep
        seed = os.environ.get(faults.SEED_ENV, "0")
        self._rng = random.Random(f"{seed}:{self.url}")
        self._rng_lock = threading.Lock()

    # -- transport ------------------------------------------------------

    def _attempt(
        self,
        path: str,
        payload: Optional[dict],
        timeout_s: float,
        client_id: Optional[str] = None,
    ):
        """One HTTP exchange -> ``(status_code, parsed_json)``.

        This is the injection seam: ``service.remote`` faults fire here,
        exactly where a real network failure would surface.
        """
        target = f"{self.url}{path}"
        try:
            faults.fire(FAULT_SITE)
            garbage = faults.network_garbage(FAULT_SITE)
            if garbage is not None:
                raw, code = garbage, 200
            else:
                request = self._build_request(target, payload, client_id)
                with urllib.request.urlopen(
                    request, timeout=timeout_s
                ) as resp:
                    code = resp.status
                    raw = resp.read().decode("utf-8", "replace")
        except urllib.error.HTTPError as exc:
            # An HTTP-level refusal still *answered*; keep its JSON body
            # (429/503 carry retry hints, 4xx carry the actual error).
            code = exc.code
            raw = exc.read().decode("utf-8", "replace")
        except OSError as exc:
            # ConnectionRefused/Reset, socket timeouts and URLError all
            # land here -- one transport-failure class for the breaker.
            raise RemoteShardError(
                f"{target}: {type(exc).__name__}: {exc}", url=self.url
            ) from exc
        try:
            body = json.loads(raw or "{}")
        except ValueError:
            raise RemoteShardError(
                f"{target}: undecodable response "
                f"(HTTP {code}, {len(raw)} bytes)",
                url=self.url,
            ) from None
        if not isinstance(body, dict):
            raise RemoteShardError(
                f"{target}: expected a JSON object, "
                f"got {type(body).__name__}",
                url=self.url,
            )
        return code, body

    @staticmethod
    def _build_request(target, payload, client_id):
        headers = {"Accept": "application/json"}
        data = None
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        if client_id is not None:
            from repro.service.http import CLIENT_HEADER

            headers[CLIENT_HEADER] = client_id
        return urllib.request.Request(target, data=data, headers=headers)

    def _backoff(self, attempt: int) -> float:
        base = min(
            self.policy.base_backoff_s * (2 ** (attempt - 1)),
            self.policy.max_backoff_s,
        )
        with self._rng_lock:
            jitter = self._rng.random()
        return base * (0.5 + jitter)  # full jitter in [0.5, 1.5) * base

    def request(
        self,
        path: str,
        payload: Optional[dict] = None,
        *,
        idempotent: bool,
        timeout_s: Optional[float] = None,
        client_id: Optional[str] = None,
    ):
        """``(code, body)`` with the retry ladder applied.

        Only idempotent operations retry -- content-addressed
        submissions and GETs are; anything else gets exactly one
        attempt.  429/503 responses are retried after their
        ``retry_after_s`` hint (capped) instead of blind backoff.
        """
        timeout_s = (
            self.policy.request_timeout_s if timeout_s is None else timeout_s
        )
        attempts = self.policy.attempts if idempotent else 1
        last_error: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            try:
                code, body = self._attempt(
                    path, payload, timeout_s, client_id
                )
            except RemoteShardError as exc:
                last_error = exc
                if attempt == attempts:
                    break
                delay = self._backoff(attempt)
                log.warning(
                    "remote shard attempt %d/%d failed (%s); "
                    "retrying in %.2fs", attempt, attempts, exc, delay,
                )
                self._sleep(delay)
                continue
            if code in (429, 503) and attempt < attempts:
                # Admission pushback: honour the server's hint.
                hint = body.get("retry_after_s")
                try:
                    delay = min(
                        float(hint), self.policy.retry_after_cap_s
                    ) if hint is not None else self._backoff(attempt)
                except (TypeError, ValueError):
                    delay = self._backoff(attempt)
                last_error = RemoteShardError(
                    f"{self.url}{path}: HTTP {code} "
                    f"({body.get('error', 'overloaded')})",
                    url=self.url,
                )
                log.warning(
                    "remote shard pushed back (HTTP %d); "
                    "retrying in %.2fs", code, delay,
                )
                self._sleep(delay)
                continue
            return code, body
        if not idempotent:
            raise last_error
        raise TransientIOError(
            f"remote shard {self.url} failed after {attempts} "
            f"attempt(s): {last_error}"
        ) from last_error

    # -- operations -----------------------------------------------------

    def submit_wait(
        self,
        spec: dict,
        *,
        timeout_s: Optional[float] = None,
        client_id: Optional[str] = None,
    ) -> dict:
        """Forward one spec, block for its row (idempotent: digests
        coalesce on the far side, so resubmission is safe)."""
        wait_s = (
            self.policy.request_timeout_s if timeout_s is None else timeout_s
        )
        code, body = self.request(
            "/v1/jobs",
            {"spec": spec, "wait": True, "timeout_s": wait_s},
            idempotent=True,
            # Socket timeout must outlive the server-side wait.
            timeout_s=wait_s + 30.0,
            client_id=client_id,
        )
        if code != 200:
            raise RemoteShardError(
                f"{self.url}/v1/jobs: HTTP {code}: "
                f"{body.get('error', body)}",
                url=self.url,
            )
        jobs = body.get("jobs")
        if not isinstance(jobs, list) or len(jobs) != 1:
            raise RemoteShardError(
                f"{self.url}/v1/jobs: expected exactly one job row, "
                f"got {jobs!r}",
                url=self.url,
            )
        return jobs[0]

    def healthz(self) -> dict:
        """One un-retried health probe (failures *are* the signal)."""
        code, body = self._attempt(
            "/v1/healthz", None, self.policy.health_timeout_s
        )
        if code != 200:
            raise RemoteShardError(
                f"{self.url}/v1/healthz: HTTP {code}", url=self.url
            )
        return body

    def query(self, filters: Optional[dict] = None) -> dict:
        """Fan-in leg of a federated ``query`` (idempotent, retried)."""
        path = "/v1/query"
        if filters:
            path += "?" + urllib.parse.urlencode(filters)
        code, body = self.request(path, idempotent=True)
        if code != 200:
            raise RemoteShardError(
                f"{self.url}{path}: HTTP {code}: "
                f"{body.get('error', body)}",
                url=self.url,
            )
        return body


# ---------------------------------------------------------------------------
# runtime state per remote slot + health checking
# ---------------------------------------------------------------------------


class RemoteShard:
    """One remote slot's runtime bundle: client + breaker + health."""

    def __init__(
        self,
        index: int,
        url: str,
        policy: Optional[FederationPolicy] = None,
        client: Optional[RemoteShardClient] = None,
        clock=time.monotonic,
    ):
        policy = policy if policy is not None else FederationPolicy()
        self.index = index
        self.url = url.rstrip("/")
        self.policy = policy
        self.client = (
            client if client is not None
            else RemoteShardClient(self.url, policy=policy)
        )
        self.breaker = CircuitBreaker(
            failure_threshold=policy.failure_threshold,
            cooldown_s=policy.cooldown_s,
            clock=clock,
        )
        self.healthy: Optional[bool] = None  # None until first probe
        self.version_skew = False
        self.last_error: Optional[str] = None
        self.last_health: Optional[dict] = None

    def check_health(self) -> bool:
        """One health probe; drives the breaker from the answer."""
        try:
            body = self.client.healthz()
        except (RemoteShardError, TransientIOError) as exc:
            self.healthy = False
            self.last_error = str(exc)
            self.breaker.record_failure()
            return False
        versions = body.get("versions")
        if versions is not None and not versions_compatible(versions):
            # Digest recipes disagree -- forwarding would break content
            # addressing.  Unhealthy, not fatal: jobs fail over locally.
            self.version_skew = True
            self.healthy = False
            self.last_error = (
                f"model-version skew (remote {versions!r})"
            )
            self.breaker.record_failure()
            return False
        self.version_skew = False
        self.healthy = True
        self.last_error = None
        self.last_health = body
        self.breaker.note_health_ok()
        return True

    def snapshot(self) -> dict:
        """The per-slot row ``/v1/healthz`` federation reporting shows."""
        row = {
            "slot": self.index,
            "kind": "remote",
            "url": self.url,
            "breaker": self.breaker.snapshot(),
            "healthy": self.healthy,
            "version_skew": self.version_skew,
        }
        if self.last_error is not None:
            row["last_error"] = self.last_error
        if self.last_health is not None:
            remote_sched = self.last_health.get("scheduler") or {}
            row["remote_queue_depth"] = remote_sched.get("queue_depth")
        return row


class HealthChecker:
    """Daemon thread polling every remote shard's ``/v1/healthz``."""

    def __init__(
        self, remotes: Sequence[RemoteShard], interval_s: float = 2.0
    ):
        self.remotes = list(remotes)
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-federation-health", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def poll_now(self) -> None:
        """Synchronous sweep (tests and startup warm-up)."""
        for remote in self.remotes:
            try:
                remote.check_health()
            except Exception:  # pragma: no cover - belt and braces
                log.exception("health check of %s blew up", remote.url)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.poll_now()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)
