"""The three workloads: what each sends, and the closed loop that sends it.

Every workload is a closed loop: one caller submits one job and waits
for its report before sending the next.  A workload is run in *rounds*;
a round starts from a cold process state (CM memo cleared, fresh
temporary store, fixture copied where the workload has one), sends its
whole request list and returns every job's outcome.  Rounds repeat the
same request list, so their outcomes must agree and their throughput
can be pooled.

* ``cold_registry`` -- a fixed slice of the registry on ``rpl`` (tile
  32, default engine, set-associative, ``edp``), one caller, one worker,
  empty store.  The memo is never cleared inside a round.
* ``service_mixed`` -- 648 requests: every kernel x platform x
  objective x epsilon spec (216) three times, once computed and twice
  served from the store; one caller over a warm store fixture holding
  every kernel's default spec on both platforms; the memo starts cold.
* ``family_sweep`` -- ``engine="parametric"`` size sweeps: gemm (fits a
  chart, serves the warm sizes) and trisolv (never fits), one caller.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cache.memo import clear_memo
from repro.service import JobSpec, ServiceClient
from repro.service.events import ListSink

from calibrate import sample as calibrate_sample

#: The registry slice a cold round characterizes.  Chosen to keep the
#: registry's layer mix (simulator > CM > traces, lowering and search
#: tiny), to hold both classes of the PAPER22 split and two
#: torch-lowered ML kernels, and to fit two rounds in a 30 s run.
COLD_KERNELS = (
    "gemm", "syrk", "durbin", "jacobi-1d",          # PAPER22 CB
    "atax", "gesummv", "trisolv", "deriche",        # PAPER22 BB
    "conv2d_convnext", "sdpa_gemma2",               # torch-lowered ML
)

MIXED_KERNELS = (
    "atax", "bicg", "gemver", "gesummv", "mvt", "trisolv", "jacobi-1d",
    "durbin", "deriche", "gemm", "sdpa_gemma2", "conv2d_convnext",
)
PLATFORMS = ("rpl", "bdw")
OBJECTIVES = ("edp", "energy", "performance")
EPSILONS = (1e-4, 1e-3, 1e-2)
#: Every pool spec is sent this many times: once computed, then served.
MIXED_COPIES = 3

#: Parametric families: (kernel, swept parameter, fixed sizes, cold
#: sizes, warm sizes).  Cold sizes include the largest point, so the
#: fit hull covers every warm size (charts never extrapolate).  Sized
#: so two rounds fit in a 30 s run: gemm is served from its chart on a
#: 16-step lattice, trisolv never fits and runs concrete ``symbolic``
#: for every size.
FAMILIES = (
    ("gemm", "ni", {"nj": 32, "nk": 32}, (64, 80, 96, 160), (112, 128, 144)),
    ("trisolv", "n", {}, (8, 12, 16, 24), (20,)),
)

#: The reduced-size mode: every workload end to end in seconds.
SMOKE = {
    "cold_kernels": ("jacobi-1d", "trisolv", "sdpa_gemma2"),
    "mixed_kernels": ("trisolv", "sdpa_gemma2"),
    "mixed_copies": 2,
    "families": (
        ("gemm", "ni", {"nj": 16, "nk": 16}, (32, 40, 48, 72), (56, 64)),
        ("trisolv", "n", {}, (8, 12, 16), (10,)),
    ),
}

WORKLOADS = ("cold_registry", "service_mixed", "family_sweep")


@dataclass
class Request:
    spec: JobSpec
    phase: str = "cold"  # family_sweep: "cold" (samples) / "warm"


@dataclass
class JobOutcome:
    request: Request
    latency_s: float
    started_s: float = 0.0  # on the clock of ``RoundResult.calibration``
    report: object = None
    error: Optional[str] = None
    shed: bool = False


@dataclass
class RoundResult:
    wall_s: float
    outcomes: List[JobOutcome]
    events: list = field(default_factory=list)
    calibration: list = field(default_factory=list)


def default_spec(kernel: str, platform: str) -> JobSpec:
    return JobSpec(benchmark=kernel, platform=platform)


def build_requests(workload: str, seed: int, smoke: bool = False
                   ) -> List[Request]:
    """The workload's request list; a pure function of the seed.

    Only ``service_mixed`` varies with the seed: the registry slice and
    the family sweeps are fixed inputs, sent in a fixed order.
    """
    if workload == "cold_registry":
        # The registry is the input, in its fixed order: the order only
        # decides which memoized traces are alive next to the largest
        # transient one, and moved peak memory by 30 % across seeds.
        kernels = SMOKE["cold_kernels"] if smoke else COLD_KERNELS
        return [Request(default_spec(kernel, "rpl")) for kernel in kernels]
    if workload == "service_mixed":
        # Every spec of the pool in one fixed shuffled order, each
        # repeat placed at a seeded point after the spec's first
        # occurrence.  The computed work, the memo's eviction pattern
        # and the mix of store hits are then the same for every seed
        # (peak memory repeats to 0.1 %); seeds vary where repeats land.
        # Uniformly drawn repeats moved the median job, a store hit whose
        # cost grows with the report, by 26 % across seeds.
        rng = random.Random(f"service_mixed:{seed}")
        pool = mixed_pool(smoke)
        random.Random("service_mixed:pool").shuffle(pool)
        copies = SMOKE["mixed_copies"] if smoke else MIXED_COPIES
        after = [[] for _ in pool]  # repeats following pool[i]
        for first, spec in enumerate(pool):
            for _ in range(copies - 1):
                after[rng.randrange(first, len(pool))].append(spec)
        return [
            Request(spec)
            for index, head in enumerate(pool)
            for spec in [head] + after[index]
        ]
    if workload == "family_sweep":
        # Fixed ascending order.  Shuffled cold sizes let a chart fitted
        # early serve a later cold size (less work on some seeds);
        # shuffled warm sizes moved peak memory by 6 %.
        requests = []
        for kernel, param, fixed, cold, warm in family_table(smoke):
            for phase, sizes in (("cold", cold), ("warm", warm)):
                requests.extend(
                    Request(family_spec(kernel, param, fixed, value), phase)
                    for value in sizes
                )
        return requests
    raise ValueError(f"unknown workload {workload!r}")


def mixed_pool(smoke: bool = False) -> List[JobSpec]:
    kernels = SMOKE["mixed_kernels"] if smoke else MIXED_KERNELS
    return [
        JobSpec(benchmark=kernel, platform=platform, objective=objective,
                epsilon=epsilon)
        for kernel in kernels
        for platform in PLATFORMS
        for objective in OBJECTIVES
        for epsilon in EPSILONS
    ]


def family_table(smoke: bool):
    return SMOKE["families"] if smoke else FAMILIES


def family_spec(kernel, param, fixed, value, engine="parametric"):
    return JobSpec(
        benchmark=kernel, engine=engine, sizes={param: value, **fixed}
    )


def fixture_specs(smoke: bool = False) -> List[JobSpec]:
    """The warm store of ``service_mixed``: default specs, both platforms."""
    kernels = SMOKE["mixed_kernels"] if smoke else MIXED_KERNELS
    return [
        default_spec(kernel, platform)
        for kernel in kernels
        for platform in PLATFORMS
    ]


#: Service workers of every workload, which has one caller.  With two
#: workers, which of two concurrent jobs filled the memo first varied
#: from round to round, and so did a round's time (17-23 s on one seed of
#: ``service_mixed``).  With two callers sharing one worker, the median
#: job was a repeat waiting out the other caller's computation, and its
#: latency spread 24 % of its median over ten seeds.
WORKERS = 1

#: Longest stretch of jobs between two samples of the reference task.
CALIBRATE_EVERY_S = 0.25


def open_client(store_dir: Path, fixture: Optional[Path],
                sink) -> ServiceClient:
    """Cold round state: empty memo, fresh store (fixture copy if any)."""
    clear_memo()
    if fixture is not None:
        shutil.copytree(fixture, store_dir)
    return ServiceClient(
        store=store_dir, executor="thread",
        workers=WORKERS, sink=sink,
    )


def run_round(requests: List[Request], client: ServiceClient,
              events: ListSink) -> RoundResult:
    """One closed-loop pass over ``requests`` by one caller through an
    open ``client`` (see :func:`open_client`) whose sink feeds ``events``.

    The caller times the reference task (``calibrate.sample``) before
    the first job, after the last and at least every
    ``CALIBRATE_EVERY_S`` in between, while no job is in flight; that
    time is kept out of ``wall_s``.
    """
    outcomes: List[JobOutcome] = []
    calibration = []  # (taken_at, seconds) of each reference task sample

    def calibrate():
        seconds = calibrate_sample()
        calibration.append((time.perf_counter(), seconds))
        return calibration[-1][0]

    origin = last = calibrate()
    calibrating = 0.0
    for request in requests:
        started = time.perf_counter()
        outcome = JobOutcome(request, 0.0, started_s=started)
        try:
            job = client.submit(request.spec)
            outcome.report = job.result()
            outcome.shed = job.shed
        except Exception as exc:  # one failed job, not a failed run
            outcome.error = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        outcome.latency_s = ended - started
        outcomes.append(outcome)
        if ended - last >= CALIBRATE_EVERY_S:
            calibrating += calibrate() - ended
            last = ended
    if last < ended:
        calibrating += calibrate() - ended
    return RoundResult(
        wall_s=time.perf_counter() - origin - calibrating,
        outcomes=outcomes,
        events=events.events(),
        calibration=calibration,
    )


def edp_ratios(reports: Dict[str, object]) -> Dict[str, float]:
    """EDP_capped / EDP_reactive per distinct report.

    Reps are sized as ``repro.experiments.runner.baseline_comparison``
    sizes them (the reactive baseline lasts about 5 ms); the capped run
    replays the report's own caps with ``run_capped_sequence`` and the
    reactive run uses the default ``GovernorConfig``.
    """
    from repro.hw import execute_fixed, get_platform
    from repro.hw.governor import (
        GovernorConfig,
        run_capped_sequence,
        run_governed_sequence,
    )

    # Objective/epsilon variants share workloads (and often caps), so
    # both replays are cached on exactly what they depend on.
    reactive_edp: Dict[tuple, tuple] = {}
    capped_edp: Dict[tuple, float] = {}
    ratios = {}
    for key, report in sorted(reports.items()):
        plat = get_platform(report.platform)
        workloads = tuple(unit.workload(plat.threads) for unit in report.units)
        wkey = (plat.name, workloads)
        if wkey not in reactive_edp:
            once = sum(
                execute_fixed(
                    plat, wl, plat.uncore.f_max_ghz, noisy=False
                ).time_s
                for wl in workloads
            )
            reps = max(1, min(5000, int(round(5e-3 / max(once, 1e-9)))))
            reactive = run_governed_sequence(
                plat, list(workloads) * reps, GovernorConfig()
            )
            reactive_edp[wkey] = (reps, reactive.edp)
        reps, reactive = reactive_edp[wkey]
        caps = tuple(unit.cap_ghz for unit in report.units)
        if (wkey, caps) not in capped_edp:
            capped_edp[wkey, caps] = run_capped_sequence(
                plat, list(zip(workloads, caps)) * reps
            ).edp
        ratios[key] = capped_edp[wkey, caps] / reactive
    return ratios
