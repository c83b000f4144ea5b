"""The repository benchmark: three workloads through the service.

Run from the repository root::

    python3 perfbench/run.py --workload cold_registry --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service_mixed --seed 1 --smoke
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-expected      # regenerate expected.json

Workloads (see ``workloads.py``): ``cold_registry``, ``service_mixed``
and ``family_sweep``.  A run is a sequence of *rounds*, each in a fresh
process on a fresh temporary store: the round process sets up (imports,
``get_constants`` for both platforms, opening the store), sends the
workload's seeded request list in a closed loop, checks every report and
hands a summary back.  Rounds repeat until another one would overrun
``--seconds`` (always at least one).  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The host the benchmark shares speeds up and slows down by up to 2x
within seconds, so every reported time is in *reference seconds*
(``calibrate.py``): the measured time scaled by how fast the host ran a
fixed reference task right next to it.  A change to the program moves
the measured time and leaves the reference task alone, so it shows in
full; the measured seconds are printed and kept with the details.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced round and one traced round and reports
the per-layer metrics of the traced one; comparing the two rounds'
throughput gives the tracing overhead.  Details (host and configuration,
per-kernel CM seconds, family figures, spans) go to
``perfbench/results/``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform as platform_mod
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

#: Knobs that change what the program does; a run never inherits them.
_ENV_KNOBS = (
    "REPRO_CM_ENGINE", "REPRO_CM_WORKERS", "REPRO_CM_MEMO",
    "REPRO_CM_MEMO_DIR", "REPRO_CM_MEMO_SIZE", "REPRO_CM_TIMEOUT_S",
    "REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_NO_CACHE",
    "REPRO_SERVICE_EXECUTOR", "REPRO_SERVICE_SHARDS", "REPRO_STORE_SHARDS",
    "REPRO_SHARD_MAP", "REPRO_STORE_DIR",
)
#: Set-up is timed in every round process; probes top the samples up.
SETUP_SAMPLES = 5
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _prepare_environment() -> None:
    """Pin the knobs and keep every file the program writes in the tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for knob in _ENV_KNOBS:
        os.environ.pop(knob, None)
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "repro-cache")
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)
    sys.path.insert(0, str(SRC))


# -- the warm-store fixture ---------------------------------------------------


def _fixture_digest(smoke: bool) -> str:
    """Keys the fixture on the program sources and on what it holds."""
    from workloads import fixture_specs

    digest = hashlib.sha256()
    for spec in fixture_specs(smoke):
        digest.update(spec.label().encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_fixture(smoke: bool) -> Path:
    """The warm store of ``service_mixed``, built once per source tree.

    Built in a child process, so its time and memory stay off every
    measured process; later runs of the same sources reuse it.
    """
    name = f"fixture-{'smoke-' if smoke else ''}{_fixture_digest(smoke)}"
    path = CACHE / name
    if not path.is_dir():
        CACHE.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(Path(__file__)), "--build-fixture",
                   str(path)]
        if smoke:
            command.append("--smoke")
        subprocess.run(command, check=True, stdout=sys.stderr)
    return path


def build_fixture(path: Path, smoke: bool) -> None:
    from repro.service import ServiceClient
    from workloads import fixture_specs

    staging = Path(tempfile.mkdtemp(prefix="fixture-", dir=WORK))
    try:
        store = staging / "store"
        with ServiceClient(store=store, executor="thread",
                           workers=2) as client:
            reports = client.characterize_batch(fixture_specs(smoke))
        if not all(report.fully_exact for report in reports):
            raise SystemExit("fixture build produced degraded reports")
        os.replace(store, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# -- one round, in its own process --------------------------------------------


def distinct_reports(outcomes):
    from checks import spec_key

    reports = {}
    for outcome in outcomes:
        if outcome.report is not None:
            reports.setdefault(spec_key(outcome.request.spec), outcome.report)
    return reports


def family_figures(outcomes, smoke):
    """Chart-served vs concrete ``fast`` CM and warm vs cold latency.

    Every chart-served report is checked bit-for-bit against a concrete
    ``fast`` run of the same size (fresh memo, no store).  Returns the
    figures, the problems and the number of jobs that failed the check.
    """
    from repro.cache.memo import clear_memo
    from repro.mlpolyufc.characterization import FAMILY_SERVED_NOTE
    from repro.service.executor import execute_report
    from checks import served_matches_concrete
    from workloads import family_spec, family_table

    problems, rows, failed = [], [], 0
    for kernel, param, fixed, cold, warm in family_table(smoke):
        mine = [
            o for o in outcomes
            if o.report is not None and o.request.spec.benchmark == kernel
        ]
        for value in warm:
            served = [
                o for o in mine
                if dict(o.request.spec.sizes)[param] == value
                and o.report.units[0].cm_note == FAMILY_SERVED_NOTE
            ]
            if not served:
                continue
            clear_memo()
            control = execute_report(
                family_spec(kernel, param, fixed, value, engine="fast"),
                store=None,
            )
            for outcome in served:
                mismatch = served_matches_concrete(outcome.report, control)
                failed += bool(mismatch)
                problems.extend(
                    f"{kernel} {param}={value}: {problem}"
                    for problem in mismatch
                )
            rows.append({
                "kernel": kernel, param: value,
                "served_cm_s": served[0].report.timings_ms["polyufc_cm"] / 1e3,
                "fast_cm_s": control.timings_ms["polyufc_cm"] / 1e3,
            })
        latency = {
            phase: statistics.mean(
                o.latency_s for o in mine if o.request.phase == phase
            )
            for phase in ("cold", "warm")
        }
        rows.append({
            "kernel": kernel,
            "cold_job_mean_s": latency["cold"],
            "warm_job_mean_s": latency["warm"],
        })
    return rows, problems, failed


def round_main(args) -> int:
    """Set up, print ``ready``, run one round, check it, write a summary.

    Only the ``ready`` line goes to stdout: the parent times set-up from
    spawning this process to reading it.  The reference task is timed
    right after, for the set-up time in reference seconds.
    """
    from repro.hw import get_platform
    from repro.pipeline import get_constants
    from repro.service.events import ListSink

    from calibrate import job_factors, sample
    from checks import check_outcomes, load_expected, paper22_split
    from layers import per_layer
    from tracer import JobTaggingSink, Tracer, installed
    from workloads import build_requests, edp_ratios, open_client, run_round

    requests = build_requests(args.workload, args.seed, args.smoke)
    fixture = Path(args.fixture) if args.fixture else None
    for name in ("rpl", "bdw"):
        get_constants(get_platform(name))
    scratch = Path(tempfile.mkdtemp(prefix="round-", dir=WORK))
    tracer = Tracer() if args.traced else None
    events = ListSink(maxlen=1_000_000)
    sink = JobTaggingSink(events, tracer) if tracer is not None else events
    client = open_client(scratch / "store", fixture, sink)
    print("ready", flush=True)
    setup_calibration = [sample(), sample()]
    if args.setup_only:
        client.close()
        shutil.rmtree(scratch, ignore_errors=True)
        Path(args.summary).write_text(json.dumps({
            "setup_calibration_s": setup_calibration,
        }))
        return 0
    try:
        with installed(tracer):
            result = run_round(requests, client, events)
    finally:
        client.close()
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = check_outcomes(requests, result.outcomes, load_expected())
    problems = [
        f"{request.spec.label()}: {'; '.join(verdict)}"
        for request, verdict in zip(requests, verdicts) if verdict
    ]
    counts = {}
    for event in result.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    terminal = sum(counts.get(k, 0) for k in ("completed", "failed", "shed"))
    if counts.get("submitted", 0) != terminal:
        problems.append(f"event imbalance {counts}")
    latencies = [o.latency_s for o in result.outcomes]
    factors = job_factors(result.calibration, [
        (o.started_s, o.started_s + o.latency_s) for o in result.outcomes
    ])
    latencies_ref = [f * latency for f, latency in zip(factors, latencies)]
    summary = {
        "wall_s": result.wall_s,
        "latencies_s": latencies,
        # Reference seconds (see calibrate.py); the round's wall clock is
        # scaled by its jobs' time-weighted factor.
        "wall_ref_s": result.wall_s * sum(latencies_ref) / sum(latencies),
        "latencies_ref_s": latencies_ref,
        "calibration_s": [seconds for _, seconds in result.calibration],
        "setup_calibration_s": setup_calibration,
        "completed": sum(1 for o in result.outcomes if o.report is not None),
        "attempted": len(verdicts),
        "failed": sum(1 for verdict in verdicts if verdict),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "events": counts,
        "extra": {},
    }
    if args.post:
        # Deterministic outputs, identical in every round: one is enough.
        extra = summary["extra"]
        reports = distinct_reports(result.outcomes)
        extra["edp_ratios"] = edp_ratios(reports)
        if args.workload == "cold_registry":
            extra["paper22_split"] = paper22_split(reports.values())
            extra["cm_s_by_kernel"] = {
                o.request.spec.benchmark:
                    o.report.timings_ms["polyufc_cm"] / 1e3
                for o in result.outcomes if o.report is not None
            }
        if args.workload == "family_sweep":
            extra["family"], family_problems, failed = family_figures(
                result.outcomes, args.smoke
            )
            problems.extend(family_problems)
            summary["failed"] += failed
    if tracer is not None:
        summary["layers"] = per_layer(result, tracer)
        summary["spans"] = tracer.to_json()
    Path(args.summary).write_text(json.dumps(summary, default=str))
    return 0


# -- the run: rounds in child processes ---------------------------------------


def spawn_round(args, fixture, traced=False, post=False, setup_only=False):
    """(set-up seconds, set-up reference seconds, summary or None) of one
    round process."""
    from calibrate import REFERENCE_S

    handle, summary_path = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(handle)
    command = [
        sys.executable, str(Path(__file__)), "--round",
        "--workload", args.workload, "--seed", str(args.seed),
        "--summary", summary_path,
    ]
    for flag, on in (("--smoke", args.smoke), ("--traced", traced),
                     ("--post", post), ("--setup-only", setup_only)):
        if on:
            command.append(flag)
    if fixture is not None:
        command += ["--fixture", str(fixture)]
    try:
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - started
            child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(
                f"round process failed with exit code {child.returncode}"
            )
        summary = json.loads(Path(summary_path).read_text())
        setup_ref_s = setup_s * REFERENCE_S / statistics.mean(
            summary["setup_calibration_s"]
        )
        return setup_s, setup_ref_s, None if setup_only else summary
    finally:
        os.unlink(summary_path)


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 jobs beyond.

    With fewer than 21 jobs that percentile would fall below the median;
    the tail is then the median itself (the percentile says so).
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11
    if index < (len(ordered) - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(rounds, setup_samples):
    """The ``BENCHMARK.json`` end-to-end metrics over untraced rounds.

    Times are in reference seconds (see ``calibrate.py``); the measured
    seconds go to the details.  Latency statistics are taken per round
    (the sample the tail rule is defined on), then the median over
    rounds; so is peak memory.
    """
    tails = [tail(r["latencies_ref_s"]) for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    error_ratio = sum(r["failed"] for r in rounds) / attempted
    ratios = rounds[0]["extra"]["edp_ratios"].values()
    edp_gain_pct = (1.0 - statistics.geometric_mean(ratios)) * 100.0
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "jobs_per_s": (
            sum(r["completed"] for r in rounds)
            / sum(r["wall_ref_s"] for r in rounds), "1/s",
        ),
        "job_p50_s": (statistics.median(
            statistics.median(r["latencies_ref_s"]) for r in rounds
        ), "s"),
        "job_tail_s": (statistics.median(t for t, _ in tails), "s"),
        "ok_ratio": (1.0 - error_ratio, "ratio"),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_mb"] for r in rounds
        ), "MB"),
        "edp_gain_pct": (edp_gain_pct, "%"),
    }
    detail = {
        "measured_setup_s": statistics.median(s for s, _ in setup_samples),
        "measured_jobs_per_s": sum(r["completed"] for r in rounds)
        / sum(r["wall_s"] for r in rounds),
        "measured_job_p50_s": statistics.median(
            statistics.median(r["latencies_s"]) for r in rounds
        ),
        "measured_job_tail_s": statistics.median(
            tail(r["latencies_s"])[0] for r in rounds
        ),
        "error_ratio": error_ratio,
        "job_tail_percentile": tails[0][1],
        "jobs_per_round": len(rounds[0]["latencies_s"]),
    }
    return metrics, detail


def run(args) -> int:
    import numpy

    from workloads import WORKERS

    fixture = (
        ensure_fixture(args.smoke) if args.workload == "service_mixed"
        else None
    )
    rounds, setup_samples = [], []
    while True:
        traced = bool(args.trace) and len(rounds) == 1
        *setup, summary = spawn_round(
            args, fixture, traced=traced, post=not rounds
        )
        rounds.append(summary)
        setup_samples.append(setup)
        if args.trace:
            if len(rounds) == 2:
                break
            continue
        spent = sum(r["wall_s"] for r in rounds)
        if spent + spent / len(rounds) > args.seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(spawn_round(args, fixture, setup_only=True)[:2])

    problems = [p for r in rounds for p in r["problems"]]
    extra = dict(rounds[0]["extra"])
    extra["round_walls_s"] = [r["wall_s"] for r in rounds]
    extra["round_walls_ref_s"] = [r["wall_ref_s"] for r in rounds]
    extra["calibration_mean_s"] = [
        statistics.mean(r["calibration_s"]) for r in rounds
    ]
    extra["round_peak_rss_mb"] = [r["peak_rss_mb"] for r in rounds]
    extra["job_latencies_s"] = [r["latencies_s"] for r in rounds]
    extra["job_latencies_ref_s"] = [r["latencies_ref_s"] for r in rounds]
    extra["setup_samples_s"] = [s for s, _ in setup_samples]
    extra["setup_samples_ref_s"] = [s for _, s in setup_samples]
    if args.trace:
        untraced, traced = rounds
        metrics = {
            name: tuple(value) for name, value in traced["layers"].items()
        }
        metrics["trace.overhead_ratio"] = (
            (untraced["completed"] / untraced["wall_ref_s"])
            / (traced["completed"] / traced["wall_ref_s"]), "ratio",
        )
    else:
        metrics, detail = end_to_end(rounds, setup_samples)
        extra.update(detail)
    for name in metrics:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
        "machine": platform_mod.machine(),
        "executor": "thread",
        "workers": WORKERS,
        "rounds": len(rounds),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / (
        f"{args.workload}{'-smoke' if args.smoke else ''}"
        f"-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps({
        "config": config,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "extra": extra,
        "problems": problems,
        "spans": rounds[-1].get("spans", []),
    }, indent=1) + "\n")

    print("config " + json.dumps(config, sort_keys=True))
    for key, value in extra.items():
        if key not in ("edp_ratios", "job_latencies_s",
                       "job_latencies_ref_s"):
            print(f"{key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "cold_registry", "service_mixed", "family_sweep",
    ))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes: every workload in seconds")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    # Internal: the child processes the run spawns.
    parser.add_argument("--build-fixture", metavar="DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--round", action="store_true",
                        help=argparse.SUPPRESS)
    for flag in ("--traced", "--post", "--setup-only"):
        parser.add_argument(flag, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--fixture", help=argparse.SUPPRESS)
    parser.add_argument("--summary", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _prepare_environment()
    if args.build_fixture:
        build_fixture(Path(args.build_fixture), args.smoke)
        return 0
    if args.self_test:
        import selftest

        return selftest.main()
    if args.write_expected:
        import expected

        return expected.write()
    if args.workload is None:
        parser.error("--workload is required")
    if args.round:
        return round_main(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
