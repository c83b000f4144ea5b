"""Service throughput benchmark: batching wins and multi-core scaling.

Replays a 200-request mixed PolyBench+ML batch (60% repeated specs --
the fleet-characterization shape from docs/SERVICE.md) two ways:

* **baseline** -- today's one-shot entrypoint behaviour: every request
  runs the pipeline sequentially with cold caches (no store, CM memo
  cleared per request);
* **service** -- one ``ServiceClient`` over a fresh result store:
  in-flight dedup collapses repeats, the content-addressed store serves
  revisits, and jobs differing only in objective/epsilon share the
  hardware-side workload objects.

``--full`` additionally sweeps process-pool worker counts over the same
batch (fresh store per point, so the cold non-coalesced portion is what
scales) and records the scaling curve.  The sweep is refused on
single-CPU hosts -- a 1-CPU "curve" only measures fork overhead -- and
every result records ``parallelism_limited`` so readers can tell a
1-CPU number from a real multi-core one.

Results land in ``BENCH_service.json`` at the repo root (referenced from
docs/PERFORMANCE.md)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py          # batching
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --full   # + scaling
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cache.memo import clear_memo
from repro.mlpolyufc.characterization import FAMILY_SERVED_NOTE
from repro.service import JobSpec, ServiceClient
from repro.service.events import ListSink
from repro.service.executor import execute_report

#: The kernel pool: PolyBench cores plus the cheap ML kernels (the
#: expensive ML matmuls would dominate wall-clock without changing the
#: dedup/sharing story this benchmark measures).
FULL_KERNELS = [
    "atax", "bicg", "gemm", "gemver", "gesummv", "mvt", "trisolv",
    "doitgen", "2mm", "3mm",
    "sdpa_gemma2", "conv2d_convnext",
]
SMOKE_KERNELS = ["atax", "trisolv", "sdpa_gemma2"]

OBJECTIVES = ["edp", "energy", "performance"]
EPSILONS = [1e-4, 1e-3, 1e-2]

#: The size-sweep family (docs/PERFORMANCE.md "Parametric families"):
#: one gemm structure swept over ``ni`` with nj/nk fixed.  The cold
#: sizes are submitted first and include the largest point, so the fit
#: hull covers the warm sizes (the artifact never extrapolates); the
#: warm sizes are interior lattice points the chart must then serve
#: with O(1) CM work.
FAMILY_FULL = {
    "fixed": {"nj": 32, "nk": 32},
    "cold_ni": [64 + 32 * k for k in (0, 1, 2, 3, 7)],
    "warm_ni": [64 + 32 * k for k in (4, 5, 6)],
}
FAMILY_SMOKE = {
    "fixed": {"nj": 16, "nk": 16},
    "cold_ni": [16, 24, 32, 56],
    "warm_ni": [40, 48],
}


def build_requests(kernels, total, repeat_fraction, seed):
    """A shuffled request list with ``repeat_fraction`` exact repeats.

    Uniques are sampled from the finite kernel x objective x epsilon
    pool (the target is clamped to the pool size -- objective/epsilon
    variants share a workload digest, so this is also what exercises
    the two-level store).
    """
    rng = random.Random(seed)
    unique_target = max(1, int(round(total * (1.0 - repeat_fraction))))
    pool = [
        JobSpec(
            benchmark=kernel, platform="rpl",
            objective=objective, epsilon=epsilon,
        )
        for kernel in kernels
        for objective in OBJECTIVES
        for epsilon in EPSILONS
    ]
    unique = rng.sample(pool, min(unique_target, len(pool)))
    requests = list(unique)
    while len(requests) < total:
        requests.append(rng.choice(unique))
    rng.shuffle(requests)
    return requests, len(unique)


def check_event_invariants(counts: dict) -> None:
    """The quiesced stream must balance (see docs/SERVICE.md).

    Only the lifecycle kinds participate: informational events
    (``queued``, ``degraded``, the ``family_*`` kinds) ride inside a
    normal lifecycle and never unbalance the ledger.
    """
    submitted = counts.get("submitted", 0)
    terminal = (
        counts.get("completed", 0)
        + counts.get("failed", 0)
        + counts.get("shed", 0)
    )
    assert submitted == terminal, (
        f"event imbalance: {submitted} submitted vs {terminal} terminal "
        f"({counts})"
    )


def run_baseline(requests):
    """Sequential cold pipeline calls (today's one-shot entrypoints)."""
    started = time.perf_counter()
    for index, spec in enumerate(requests):
        clear_memo()
        execute_report(spec, store=None)
        done = index + 1
        if done % 20 == 0:
            print(f"  baseline {done}/{len(requests)}", flush=True)
    return time.perf_counter() - started


def run_service(requests, store_dir, **client_kwargs):
    sink = ListSink(maxlen=100_000)
    started = time.perf_counter()
    with ServiceClient(
        store=store_dir, sink=sink, **client_kwargs
    ) as client:
        jobs = client.submit_batch(requests)
        reports = client.wait_all(jobs)
        served_by = Counter(
            row["served_by"] for row in client.scheduler.jobs()
        )
    elapsed = time.perf_counter() - started
    assert len(reports) == len(requests)
    assert all(report.fully_exact for report in reports)
    counts = dict(sink.counts())
    check_event_invariants(counts)
    return elapsed, counts, dict(served_by)


def run_family_sweep(smoke):
    """The parametric size-sweep row: one artifact serves every size.

    Submits the family's cold sizes with ``engine="parametric"`` (each
    computes concretely and folds into the family artifact), then the
    warm sizes (served from the fitted chart, O(1) CM work).  Every
    warm report is cross-checked against a fresh run of the same size
    on the default ``fast`` engine -- the served counters must match
    bit-for-bit -- and the recorded ``cm_speedup`` compares the CM wall
    clock of those default-engine runs with what serving cost.  The
    CM is only part of a job (the hardware side is untouched), so the
    row also records the mean end-to-end seconds per cold and per warm
    job.
    """
    family = FAMILY_SMOKE if smoke else FAMILY_FULL
    fixed = family["fixed"]
    spec_for = lambda ni: JobSpec(
        benchmark="gemm", engine="parametric", sizes={"ni": ni, **fixed}
    )
    sink = ListSink(maxlen=10_000)
    with tempfile.TemporaryDirectory(prefix="polyufc-bench-family-") as tmp:
        clear_memo()
        with ServiceClient(store=Path(tmp) / "store", sink=sink) as client:
            started = time.perf_counter()
            cold = client.wait_all(client.submit_batch(
                [spec_for(ni) for ni in family["cold_ni"]]
            ))
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = client.wait_all(client.submit_batch(
                [spec_for(ni) for ni in family["warm_ni"]]
            ))
            warm_s = time.perf_counter() - started
    counts = dict(sink.counts())
    assert counts.get("family_sample", 0) == len(family["cold_ni"]), counts
    assert counts.get("family_fit", 0) >= 1, counts
    assert counts.get("family_served", 0) == len(family["warm_ni"]), counts

    # bit-for-bit cross-check + the CM wall clock the chart replaced
    concrete_cm_ms = 0.0
    for ni, report in zip(family["warm_ni"], warm):
        clear_memo()
        control = execute_report(
            JobSpec(benchmark="gemm", engine="fast",
                    sizes={"ni": ni, **fixed}),
            store=None,
        )
        concrete_cm_ms += control.timings_ms["polyufc_cm"]
        for mine, theirs in zip(report.units, control.units):
            assert mine.cm_note == FAMILY_SERVED_NOTE
            assert mine.omega == theirs.omega
            assert mine.q_dram_model == theirs.q_dram_model
            assert mine.model_level_bytes == theirs.model_level_bytes
            assert mine.model_dram_lines == theirs.model_dram_lines
            assert mine.oi_fpb == theirs.oi_fpb
            assert mine.cap_ghz == theirs.cap_ghz
    served_cm_ms = sum(r.timings_ms["polyufc_cm"] for r in warm)
    cm_speedup = concrete_cm_ms / max(served_cm_ms, 1e-3)
    row = {
        "sizes": len(family["cold_ni"]) + len(family["warm_ni"]),
        "fixed": fixed,
        "cold_ni": family["cold_ni"],
        "warm_ni": family["warm_ni"],
        "cold_s": round(cold_s, 2),
        "warm_s": round(warm_s, 2),
        "cold_job_s": round(cold_s / len(cold), 3),
        "warm_job_s": round(warm_s / len(warm), 3),
        "concrete_cm_ms": round(concrete_cm_ms, 1),
        "served_cm_ms": round(served_cm_ms, 1),
        "cm_speedup": round(cm_speedup, 1),
        "events": counts,
    }
    print(
        f"  {row['sizes']}-size gemm family: cold {cold_s:.1f}s "
        f"({row['cold_job_s']:.2f}s/job), warm {warm_s:.1f}s "
        f"({row['warm_job_s']:.2f}s/job); fast CM "
        f"{concrete_cm_ms:.0f}ms -> served {served_cm_ms:.0f}ms "
        f"({cm_speedup:.0f}x), served counters bit-for-bit",
        flush=True,
    )
    return row


def sweep_workers(cpus, smoke):
    """Worker counts for the scaling curve: powers of two up to cpus."""
    points = [1]
    while points[-1] * 2 <= cpus:
        points.append(points[-1] * 2)
    if cpus not in points:
        points.append(cpus)
    if smoke:
        points = points[:2]  # 1 and 2: enough to smoke the machinery
    return points


def run_scaling_curve(requests, points):
    """Process-pool sweep: same batch, fresh store per worker count.

    A fresh store per point means only in-batch dedup collapses repeats
    -- the cold, non-coalesced portion is what the pool parallelizes,
    which is the quantity the curve tracks.
    """
    rows = []
    for workers in points:
        with tempfile.TemporaryDirectory(
            prefix="polyufc-bench-store-"
        ) as tmp:
            clear_memo()
            elapsed, events, served_by = run_service(
                requests, Path(tmp) / "store",
                executor="process", workers=workers,
            )
        base = rows[0]["elapsed_s"] if rows else elapsed
        rows.append({
            "workers": workers,
            "elapsed_s": round(elapsed, 2),
            "speedup_vs_1": round(base / elapsed, 2),
            "events": events,
            "served_by": served_by,
        })
        print(
            f"  workers={workers}: {elapsed:.1f}s "
            f"({rows[-1]['speedup_vs_1']:.2f}x vs 1 worker)",
            flush=True,
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (20 requests, no JSON update)")
    parser.add_argument(
        "--full", action="store_true",
        help="also sweep process-pool worker counts (needs >= 2 CPUs)",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", default=None,
        help="result JSON path (default: BENCH_service.json at repo "
        "root; smoke runs print only)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if args.full and cpus < 2:
        print(
            "error: --full sweeps process-pool worker counts, which is "
            f"meaningless on this {cpus}-CPU host -- the curve would "
            "only measure fork overhead. Run it on a multi-core machine "
            "(the single-run mode still works here and annotates its "
            "result with parallelism_limited=true).",
            file=sys.stderr,
        )
        return 2

    total = args.requests or (20 if args.smoke else 200)
    kernels = SMOKE_KERNELS if args.smoke else FULL_KERNELS
    requests, unique = build_requests(
        kernels, total, repeat_fraction=0.6, seed=args.seed
    )
    print(
        f"{total} requests over {len(kernels)} kernels, "
        f"{unique} unique specs ({100 * (1 - unique / total):.0f}% repeats)"
    )

    print("service pass (batched, dedup + store + workload sharing):")
    with tempfile.TemporaryDirectory(prefix="polyufc-bench-store-") as tmp:
        clear_memo()
        service_s, events, served_by = run_service(
            requests, Path(tmp) / "store"
        )
    print(f"  {service_s:.1f}s  events={events}  served_by={served_by}")

    print("baseline pass (sequential cold pipeline calls):")
    clear_memo()
    baseline_s = run_baseline(requests)
    print(f"  {baseline_s:.1f}s")

    speedup = baseline_s / service_s
    print(f"speedup: {speedup:.1f}x (target >= 5x)")

    print("parametric size-sweep (one family artifact, every size):")
    family_sweep = run_family_sweep(args.smoke)

    scaling = None
    if args.full:
        points = sweep_workers(cpus, args.smoke)
        print(f"scaling curve (process pool, workers in {points}):")
        scaling = run_scaling_curve(requests, points)

    payload = {
        "host": {
            "machine": platform_mod.machine(),
            "python": platform_mod.python_version(),
            "cpus": cpus,
        },
        "smoke": args.smoke,
        # A 1-CPU run measures dedup + caching only; job-level
        # parallelism cannot contribute, so its speedup must not be
        # read as a scaling result.
        "parallelism_limited": cpus < 2,
        "requests": total,
        "unique_specs": unique,
        "repeat_fraction": round(1 - unique / total, 3),
        "kernels": kernels,
        "seed": args.seed,
        "baseline_s": round(baseline_s, 2),
        "service_s": round(service_s, 2),
        "speedup": round(speedup, 2),
        "events": events,
        "served_by": served_by,
        "family_sweep": family_sweep,
        "scaling": scaling,
    }
    if args.output or not args.smoke:
        out = Path(
            args.output
            or Path(__file__).resolve().parents[1] / "BENCH_service.json"
        )
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    if args.smoke:
        return 0
    if speedup < 5.0:
        return 1
    if family_sweep["cm_speedup"] < 5.0:
        print(
            f"family CM speedup below target: "
            f"{family_sweep['cm_speedup']:.1f}x (>= 5x expected)",
            file=sys.stderr,
        )
        return 1
    if scaling is not None:
        at4 = next(
            (row for row in scaling if row["workers"] == 4), None
        )
        if at4 is not None and cpus >= 4 and at4["speedup_vs_1"] < 3.0:
            print(
                f"scaling below target: {at4['speedup_vs_1']:.2f}x at "
                "4 workers (>= 3x expected)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
