"""Short service soak: sustained mixed load, invariants checked at exit.

Drives a live ``ServiceClient`` with a randomized mixed batch (repeats,
objective variants, both platforms' cheap kernels) for a bounded wall
time, optionally with faults armed via ``REPRO_FAULTS`` (the CI service
job arms ``report.write:io:2``; the multi-core job additionally soaks
the process pool under a live admission bound).  The full lifecycle
event stream is written to a JSONL file (uploaded as a CI artifact on
failure), and the run fails if any invariant breaks:

* every admitted job reaches a terminal state before the deadline;
* every computed report is exact or visibly degraded (never silently
  wrong);
* the store contains only fully-exact reports;
* the event stream is consistent: each executed job has exactly one of
  started / cache_hit / coalesced and exactly one terminal event,
  admission-rejected jobs show exactly ``submitted`` + ``shed``,
  quota-rejected requests show only ``quota_exceeded``, and globally
  ``submitted == completed + failed + shed``;
* every completed job names what served it: ``served_by`` is one of
  ``cache``, ``local`` or ``family``.

Usage::

    PYTHONPATH=src python scripts/service_soak.py \
        --requests 50 --timeout-s 30 --events service-events.jsonl \
        --executor process --workers 2 --max-pending 16
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.service import (
    AdmissionError,
    JobSpec,
    QuotaExceeded,
    ServiceClient,
)
from repro.service.client import resolve_store
from repro.service.events import JsonlSink, ListSink, TeeSink

#: What may serve a completed job (``Job.served_by``).
SERVED_BY = ("cache", "local", "family")

KERNELS = ["atax", "bicg", "gesummv", "mvt", "trisolv", "sdpa_gemma2"]
OBJECTIVES = ["edp", "energy", "performance"]


def build_specs(requests, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(requests):
        specs.append(
            JobSpec(
                benchmark=rng.choice(KERNELS),
                platform=rng.choice(["rpl", "rpl", "bdw"]),
                objective=rng.choice(OBJECTIVES),
            )
        )
    return specs


def check_events(events, admitted, rejected):
    """Event-stream consistency; returns a list of violations."""
    per_job = defaultdict(list)
    for event in events:
        per_job[event.job_id].append(event.kind)
    problems = []
    if len(per_job) != admitted + rejected:
        problems.append(
            f"{len(per_job)} jobs in the event stream, expected "
            f"{admitted} admitted + {rejected} rejected"
        )
    for job_id, kinds in sorted(per_job.items()):
        if kinds == ["quota_exceeded"]:
            continue  # quota refusals never enter the system
        if kinds.count("submitted") != 1:
            problems.append(f"{job_id}: {kinds.count('submitted')} submits")
        sources = sum(
            kinds.count(kind)
            for kind in ("started", "cache_hit", "coalesced")
        )
        terminal = sum(
            kinds.count(kind) for kind in ("completed", "failed", "shed")
        )
        if sources == 0:
            # Admission rejection: submitted then shed("rejected ..."),
            # nothing else.
            if sorted(kinds) != ["shed", "submitted"]:
                problems.append(
                    f"{job_id}: no source event but not a clean "
                    f"rejection, got {kinds}"
                )
            continue
        if sources != 1:
            problems.append(
                f"{job_id}: expected exactly one source event, got {kinds}"
            )
        if terminal != 1:
            problems.append(
                f"{job_id}: expected exactly one terminal event, "
                f"got {kinds}"
            )
    counts = Counter(kind for kinds in per_job.values() for kind in kinds)
    submitted = counts["submitted"]
    terminal = counts["completed"] + counts["failed"] + counts["shed"]
    if submitted != terminal:
        problems.append(
            f"global imbalance: {submitted} submitted vs "
            f"{terminal} completed+failed+shed"
        )
    return problems


def check_attribution(statuses):
    """Every completed job names what served it; returns violations."""
    return [
        f"{st['job_id']}: completed with served_by={st['served_by']!r}"
        for st in statuses
        if st["state"] == "completed" and st["served_by"] not in SERVED_BY
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--timeout-s", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--events", default="service-events.jsonl",
        help="JSONL event log path (CI uploads this on failure)",
    )
    parser.add_argument(
        "--store", default=None,
        help="store root (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--executor", choices=("thread", "process"), default=None,
        help="execution backend (default: REPRO_SERVICE_EXECUTOR, "
        "else thread)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--max-pending", type=int, default=None,
        help="soft queue bound; beyond it new jobs shed",
    )
    parser.add_argument("--client-quota", type=int, default=None)
    args = parser.parse_args(argv)

    specs = build_specs(args.requests, args.seed)
    memory = ListSink(maxlen=100_000)
    sink = TeeSink(memory, JsonlSink(args.events))

    tmp = None
    store_dir = args.store
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="polyufc-soak-store-")
        store_dir = str(Path(tmp.name) / "store")

    deadline = time.monotonic() + args.timeout_s
    failures = []
    rejected = 0
    started = time.perf_counter()
    try:
        with ServiceClient(
            store=store_dir, sink=sink,
            executor=args.executor, workers=args.workers,
            max_pending=args.max_pending,
            client_quota=args.client_quota,
        ) as client:
            jobs = []
            for spec in specs:
                try:
                    jobs.append(client.submit(spec))
                except (AdmissionError, QuotaExceeded):
                    rejected += 1
            for job in jobs:
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    report = job.result(remaining)
                except Exception as exc:  # noqa: BLE001 - recorded below
                    failures.append(f"{job.job_id}: {exc}")
                    continue
                for unit in report.units:
                    if unit.degraded not in (
                        "exact", "approx", "timeout-cap"
                    ):
                        failures.append(
                            f"{job.job_id}: bad degradation rung "
                            f"{unit.degraded!r}"
                        )
            elapsed = time.perf_counter() - started
            counts = dict(memory.counts())

            store = resolve_store(store_dir)
            for row in store.query():
                report = store.get_report(row["digest"])
                if report is not None and not report.fully_exact:
                    failures.append(
                        f"store serves degraded report {row['digest']}"
                    )

            failures.extend(
                check_events(memory.events(), len(jobs), rejected)
            )
            failures.extend(check_attribution(
                [client.status(job.job_id) for job in jobs]
            ))
    finally:
        if tmp is not None:
            tmp.cleanup()

    print(
        f"soak: {args.requests} requests ({rejected} rejected at "
        f"admission) in {elapsed:.1f}s (deadline {args.timeout_s:.0f}s), "
        f"executor={client.scheduler.executor}, events={counts}"
    )
    if failures:
        print(f"{len(failures)} invariant violation(s):")
        for failure in failures:
            print(f"  {failure}")
        print(f"event log: {args.events}")
        return 1
    print("all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
