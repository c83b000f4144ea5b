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
  ``submitted == completed + failed + shed`` (``failover`` events are
  informational and ride inside a normal lifecycle).

``--federation N`` additionally spawns N remote shard servers as
``repro.cli serve`` subprocesses and drives the batch through a
federated front whose shard map routes every slot to one of them;
``--kill-shard K`` then SIGKILLs slot K's server shortly after the
batch is submitted, and the run asserts the federated invariants on
top: every job on the killed shard still terminates, anything that
completed after the kill was served by local failover (or the front's
store), and at least one job carries ``served_by=local_failover`` --
zero hangs, zero lost jobs.

Usage::

    PYTHONPATH=src python scripts/service_soak.py \
        --requests 50 --timeout-s 30 --events service-events.jsonl \
        --executor process --workers 2 --max-pending 16

    REPRO_FAULTS="service.remote:droppedconn:0.15" \
    PYTHONPATH=src python scripts/service_soak.py \
        --requests 40 --timeout-s 120 --federation 2 --kill-shard 1 \
        --events service-federated-events.jsonl
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
import threading
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
    ShardMap,
)
from repro.service.client import resolve_store
from repro.service.events import JsonlSink, ListSink, TeeSink

#: Federation tunables sized for a soak: fast retries, a breaker that
#: trips after two failed forwards, sub-second health polling.
FED_POLICY = {
    "attempts": 2,
    "base_backoff_s": 0.05,
    "max_backoff_s": 0.5,
    "request_timeout_s": 120.0,
    "health_timeout_s": 2.0,
    "failure_threshold": 2,
    "cooldown_s": 1.0,
    "health_interval_s": 0.5,
}

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


def spawn_shards(count, workdir):
    """Launch ``count`` shard servers; returns ``(procs, urls)``.

    Each shard is a plain ``repro.cli serve`` subprocess with its own
    store, bound to a free loopback port (``--port 0 --port-file``).
    Armed ``service.remote`` faults and any inherited shard map are
    stripped from the children's environment: faults belong to the
    *front's* transport seam, and the shards themselves must stay
    non-federated leaf servers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SHARD_MAP", None)
    env.pop("REPRO_FAULTS", None)
    procs = []
    for index in range(count):
        port_file = workdir / f"shard-{index}.port"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--store", str(workdir / f"shard-{index}-store"),
                "--executor", "thread",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        procs.append((proc, port_file))
    urls = []
    deadline = time.monotonic() + 30.0
    for proc, port_file in procs:
        while not port_file.exists():
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard server exited rc={proc.returncode} "
                    f"before binding"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("timed out waiting for shard ports")
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        urls.append(f"http://127.0.0.1:{port}")
    return [proc for proc, _ in procs], urls


def check_federation(statuses, kill_shard, kill_wall_ts):
    """Federated invariants; returns a list of violations.

    Zero hangs and zero lost jobs: every job reaches a terminal state
    with a known ``served_by`` attribution.  When a shard was killed,
    every job routed to it that finished *after* the kill must have
    been served by local failover (or the front's own store), and at
    least one ``local_failover`` must exist overall -- otherwise the
    kill landed after the batch drained and proved nothing.
    """
    problems = []
    for st in statuses:
        if st is None:
            problems.append("job vanished from the scheduler (lost)")
            continue
        if st["state"] not in ("completed", "failed"):
            problems.append(
                f"{st['job_id']}: non-terminal state {st['state']!r} "
                f"after the batch drained (hang)"
            )
        elif st["state"] == "completed" and st["served_by"] not in (
            "remote", "local_failover", "cache", "local"
        ):
            problems.append(
                f"{st['job_id']}: completed without attribution, "
                f"served_by={st['served_by']!r}"
            )
    if kill_shard is None or kill_wall_ts is None:
        return problems
    killed = [
        st for st in statuses
        if st is not None and st["shard"] == kill_shard
    ]
    if not killed:
        problems.append(
            f"no jobs routed to killed shard {kill_shard}; "
            f"raise --requests"
        )
        return problems
    after_kill = 0
    for st in killed:
        if st["state"] != "completed" or st["duration_ms"] is None:
            continue
        finished = st["submitted_at"] + st["duration_ms"] / 1e3
        # Allow a grace window for a remote response already on the
        # wire when the SIGKILL landed.
        if finished <= kill_wall_ts + 0.25:
            continue
        after_kill += 1
        if st["served_by"] not in ("local_failover", "cache"):
            problems.append(
                f"{st['job_id']}: finished {finished - kill_wall_ts:.2f}s "
                f"after shard {kill_shard} was killed but "
                f"served_by={st['served_by']!r}"
            )
    failovers = sum(
        1 for st in killed if st["served_by"] == "local_failover"
    )
    if failovers == 0:
        problems.append(
            f"shard {kill_shard} was killed ({after_kill} of its jobs "
            f"finished afterwards) but no job carries "
            f"served_by=local_failover -- kill landed too late to "
            f"exercise failover; lower --kill-delay-s"
        )
    return problems


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
    parser.add_argument(
        "--federation", type=int, default=None, metavar="N",
        help="spawn N remote shard servers and route every slot to them",
    )
    parser.add_argument(
        "--kill-shard", type=int, default=None, metavar="K",
        help="SIGKILL federated shard K's server mid-batch "
        "(requires --federation)",
    )
    parser.add_argument(
        "--kill-delay-s", type=float, default=0.5,
        help="delay after submission before the --kill-shard SIGKILL",
    )
    args = parser.parse_args(argv)
    if args.kill_shard is not None and (
        args.federation is None
        or not 0 <= args.kill_shard < args.federation
    ):
        parser.error("--kill-shard needs --federation N with K < N")

    specs = build_specs(args.requests, args.seed)
    memory = ListSink(maxlen=100_000)
    sink = TeeSink(memory, JsonlSink(args.events))

    tmp = None
    store_dir = args.store
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="polyufc-soak-store-")
        store_dir = str(Path(tmp.name) / "store")

    fed_tmp = None
    shard_procs = []
    shard_map = None
    kill_wall_ts = None
    if args.federation:
        fed_tmp = tempfile.TemporaryDirectory(prefix="polyufc-soak-fed-")
        shard_procs, urls = spawn_shards(
            args.federation, Path(fed_tmp.name)
        )
        shard_map = ShardMap.from_json(
            {"shards": urls, "policy": FED_POLICY}
        )
        print(
            f"federation: {len(urls)} remote shard(s): {', '.join(urls)}"
        )

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
            shard_map=shard_map,
        ) as client:
            jobs = []
            for spec in specs:
                try:
                    jobs.append(client.submit(spec))
                except (AdmissionError, QuotaExceeded):
                    rejected += 1
            killer = None
            if args.kill_shard is not None:

                def _kill():
                    nonlocal kill_wall_ts
                    time.sleep(args.kill_delay_s)
                    kill_wall_ts = time.time()
                    shard_procs[args.kill_shard].kill()
                    print(
                        f"federation: killed shard {args.kill_shard} "
                        f"{args.kill_delay_s:.1f}s after submission"
                    )

                killer = threading.Thread(target=_kill, daemon=True)
                killer.start()
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

            if args.federation:
                if killer is not None:
                    killer.join(timeout=args.kill_delay_s + 5.0)
                statuses = [client.status(job.job_id) for job in jobs]
                served = Counter(
                    st["served_by"] for st in statuses if st is not None
                )
                print(f"federation: served_by={dict(served)}")
                failures.extend(
                    check_federation(
                        statuses, args.kill_shard, kill_wall_ts
                    )
                )
    finally:
        for proc in shard_procs:
            proc.kill()
        for proc in shard_procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        if fed_tmp is not None:
            fed_tmp.cleanup()
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
