"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands:

* ``list`` -- registered benchmarks (and their classes once cached)
* ``platforms`` -- the simulated machines
* ``constants --platform rpl`` -- fitted Tab. I roofline constants
* ``characterize <kernel> --platform rpl`` -- per-unit OI / CB-BB / caps
* ``compile <kernel>`` -- print the capped module IR
* ``compare <kernel>`` -- PolyUFC caps vs the UFS-driver baseline
* ``sweep <kernel>`` -- time/energy/EDP across the uncore range
* ``roofline <kernels...>`` -- ASCII roofline plot with kernels placed on it
* ``fuzz`` -- generative differential verification of the CM engines
* ``serve`` -- run the characterization service over HTTP (docs/SERVICE.md)
* ``submit <kernels...>`` -- batch-characterize via the service (local or --url)
* ``status <job-id> --url`` -- poll one job on a running server
* ``query`` -- range queries over the content-addressed result store
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cache.static_model import CM_ENGINES


def _add_platform(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform", "-p", default="rpl", choices=["rpl", "bdw"],
        help="simulated platform (default: rpl)",
    )


def _seconds(text: str) -> float:
    """An argparse type: a number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _add_cm_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cm-engine", default=None, choices=list(CM_ENGINES),
        help="PolyUFC-CM evaluator (default: fast)",
    )
    parser.add_argument(
        "--cm-timeout", type=_seconds, default=None, metavar="SECONDS",
        help="PolyUFC-CM deadline; units exceeding it degrade per the "
        "ladder and fall back to the f_max cap (default: unlimited)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyufc", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered benchmarks")
    commands.add_parser("platforms", help="describe the simulated machines")

    constants = commands.add_parser(
        "constants", help="fitted roofline constants"
    )
    _add_platform(constants)

    characterize = commands.add_parser(
        "characterize", help="characterize one benchmark"
    )
    characterize.add_argument("kernel")
    _add_platform(characterize)
    characterize.add_argument(
        "--granularity", default="linalg",
        choices=["torch", "linalg", "affine"],
    )
    _add_cm_knobs(characterize)

    compile_cmd = commands.add_parser(
        "compile", help="print the capped module IR"
    )
    compile_cmd.add_argument("kernel")
    _add_platform(compile_cmd)
    compile_cmd.add_argument(
        "--objective", default="edp",
        choices=["edp", "energy", "performance"],
    )
    _add_cm_knobs(compile_cmd)

    compare = commands.add_parser(
        "compare", help="PolyUFC caps vs the UFS-driver baseline"
    )
    compare.add_argument("kernel")
    _add_platform(compare)

    sweep = commands.add_parser(
        "sweep", help="time/energy/EDP across the uncore frequency range"
    )
    sweep.add_argument("kernel")
    _add_platform(sweep)

    roofline = commands.add_parser(
        "roofline", help="ASCII roofline plot with kernels placed on it"
    )
    roofline.add_argument("kernels", nargs="+")
    _add_platform(roofline)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzz of the CM engines (see docs/TESTING.md)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; the case sequence is a pure function of it "
        "(default: 0)",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=60.0, metavar="SECONDS",
        help="wall-clock budget for the campaign (default: 60)",
    )
    fuzz.add_argument(
        "--max-cases", type=int, default=None, metavar="N",
        help="stop after N cases even with budget left",
    )
    fuzz.add_argument(
        "--corpus", type=str, default=None, metavar="DIR",
        help="replay every *.json spec in DIR before (or instead of) "
        "fuzzing; exits nonzero on any replay disagreement",
    )
    fuzz.add_argument(
        "--replay-only", action="store_true",
        help="with --corpus: replay the corpus and skip random generation",
    )
    fuzz.add_argument(
        "--artifacts", type=str, default="fuzz-artifacts", metavar="DIR",
        help="where shrunk JSON + pytest repros of failures land "
        "(default: ./fuzz-artifacts)",
    )
    fuzz.add_argument(
        "--parametric", action="store_true",
        help="fuzz kernel *families*: build a parametric artifact from "
        "sampled sizes and diff what it serves against the engines "
        "(--corpus replays both concrete and parametric specs)",
    )

    serve = commands.add_parser(
        "serve", help="run the characterization service over HTTP"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1; loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port (default: 8177; 0 picks a free port)",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store root (default: $REPRO_CACHE_DIR/store; "
        "honours REPRO_NO_CACHE=1)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="jobs the scheduler runs at once (default: 1)",
    )
    serve.add_argument(
        "--executor", default=None, choices=["thread", "process"],
        help="execution backend (default: thread)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="queue depth beyond which new jobs are shed to the "
        "timeout-cap rung (default: unbounded)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="handle exactly one request then exit (smoke tests)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here (for scripts using --port 0)",
    )

    submit = commands.add_parser(
        "submit", help="batch-characterize kernels through the service"
    )
    submit.add_argument("kernels", nargs="+")
    _add_platform(submit)
    submit.add_argument(
        "--granularity", default="linalg",
        choices=["torch", "linalg", "affine"],
    )
    submit.add_argument(
        "--objective", action="append", default=None,
        choices=["edp", "energy", "performance"],
        help="objective(s); repeatable, default edp",
    )
    submit.add_argument(
        "--url", default=None, metavar="URL",
        help="POST to a running server instead of running in process",
    )
    submit.add_argument(
        "--store", default=None, metavar="DIR",
        help="(local mode) result-store root override",
    )
    submit.add_argument(
        "--sizes", action="append", default=None, metavar="N=V[,N=V...]",
        help="problem sizes, e.g. --sizes ni=64,nj=96; repeatable -- "
        "each occurrence submits every kernel/objective at those sizes "
        "(unnamed dimensions keep the benchmark defaults; parametric-"
        "engine jobs at swept sizes share one family artifact)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="(with --url) enqueue and print job ids without blocking",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="max seconds to wait for the batch (default: 300)",
    )
    submit.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="(local mode) jobs the scheduler runs at once (default: 1)",
    )
    _add_cm_knobs(submit)

    status = commands.add_parser(
        "status", help="show one job's state on a running server"
    )
    status.add_argument("job_id")
    status.add_argument(
        "--url", required=True, metavar="URL",
        help="base URL of a running `repro.cli serve`",
    )

    query = commands.add_parser(
        "query", help="range-query the content-addressed result store"
    )
    query.add_argument("--benchmark", default=None)
    query.add_argument(
        "--platform", "-p", default=None, choices=["rpl", "bdw"]
    )
    query.add_argument(
        "--objective", default=None,
        choices=["edp", "energy", "performance"],
    )
    query.add_argument(
        "--boundedness", default=None, choices=["CB", "BB"]
    )
    query.add_argument(
        "--engine", default=None, choices=list(CM_ENGINES)
    )
    query.add_argument(
        "--cap-below", type=float, default=None, metavar="GHZ",
        help="only entries whose lowest unit cap is below GHZ",
    )
    query.add_argument(
        "--cap-above", type=float, default=None, metavar="GHZ",
        help="only entries whose highest unit cap is above GHZ",
    )
    query.add_argument("--limit", type=int, default=None, metavar="N")
    query.add_argument(
        "--url", default=None, metavar="URL",
        help="query a running server instead of the local store",
    )
    query.add_argument(
        "--store", default=None, metavar="DIR",
        help="(local mode) result-store root override",
    )
    return parser


def _cmd_list() -> int:
    from repro.benchsuite import REGISTRY

    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        print(f"{name:<20} {spec.category:<10} {spec.source}")
    return 0


def _cmd_platforms() -> int:
    from repro.hw import get_platform

    for name in ("bdw", "rpl"):
        platform = get_platform(name)
        print(
            f"{platform.name}: {platform.cores}C/{platform.threads}T, "
            f"core {platform.core_base_ghz}-{platform.core_max_ghz} GHz, "
            f"uncore {platform.uncore.f_min_ghz}-"
            f"{platform.uncore.f_max_ghz} GHz, "
            f"LLC {platform.hierarchy.llc.size_bytes // 1024} KiB, "
            f"cap overhead {platform.cap_overhead_s * 1e6:.0f} us"
        )
    return 0


def _cmd_constants(platform_name: str) -> int:
    from repro.hw import get_platform
    from repro.pipeline import get_constants

    platform = get_platform(platform_name)
    constants = get_constants(platform)
    print(f"fitted roofline constants for {platform.name}:")
    print(f"  peak compute    {1 / constants.t_fpu / 1e9:10.1f} Gflop/s")
    print(f"  peak bandwidth  {constants.peak_bandwidth / 1e9:10.1f} GB/s")
    print(f"  B^t_DRAM        {constants.b_t_dram:10.2f} FpB")
    print(f"  f_sat           {constants.saturation_freq():10.2f} GHz")
    print(f"  p_con           {constants.p_con:10.1f} W")
    print(f"  p^_FPU          {constants.p_hat_fpu:10.1f} W")
    print(f"  e_FPU           {constants.e_fpu:10.3e} J/flop")
    print(f"  overlap rho     {constants.overlap_rho:10.2f}")
    return 0


def _cmd_characterize(
    kernel: str,
    platform_name: str,
    granularity: str,
    cm_engine: Optional[str] = None,
    cm_timeout: Optional[float] = None,
) -> int:
    from repro.experiments import kernel_report

    report = kernel_report(
        kernel, platform_name, granularity=granularity,
        cm_engine=cm_engine, cm_timeout_s=cm_timeout,
    )
    print(
        f"{kernel} on {report.platform} ({granularity} granularity): "
        f"OI {report.oi_model:.2f} FpB, {report.boundedness}"
    )
    for unit in report.units:
        marker = "" if unit.degraded == "exact" else f"  [{unit.degraded}]"
        print(
            f"  {unit.name:<28} OI {unit.oi_fpb:8.2f}  {unit.boundedness}  "
            f"cap {unit.cap_ghz:.1f} GHz{marker}"
        )
    return 0


def _cmd_compile(
    kernel: str,
    platform_name: str,
    objective: str,
    cm_engine: Optional[str] = None,
    cm_timeout: Optional[float] = None,
) -> int:
    import sys as _sys

    from repro.benchsuite import get_benchmark
    from repro.hw import get_platform
    from repro.ir import print_module
    from repro.pipeline import polyufc_compile

    platform = get_platform(platform_name)
    result = polyufc_compile(
        get_benchmark(kernel).module(), platform, objective=objective,
        cm_engine=cm_engine, cm_timeout_s=cm_timeout,
    )
    print(print_module(result.capped_module))
    for unit in result.units:
        if unit.degraded != "exact":
            print(
                f"// {unit.name}: degraded to {unit.degraded}"
                + (f" ({unit.warning})" if unit.warning else ""),
                file=_sys.stderr,
            )
    return 0


def _cmd_compare(kernel: str, platform_name: str) -> int:
    from repro.experiments import baseline_comparison

    comparison = baseline_comparison(kernel, platform_name)

    def improvement(gain: float) -> str:
        return f"{(1 - 1 / gain) * 100:+.1f}%"

    print(f"{kernel} on {comparison.platform} (PolyUFC vs UFS baseline):")
    print(f"  time   {improvement(comparison.speedup)}")
    print(f"  energy {improvement(comparison.energy_gain)}")
    print(f"  EDP    {improvement(comparison.edp_gain)}")
    return 0


def _cmd_sweep(kernel: str, platform_name: str) -> int:
    from repro.experiments import frequency_sweep

    rows = frequency_sweep(kernel, platform_name)
    best = min(rows, key=lambda r: r[3])
    print(f"{'f_c':>5} {'time(us)':>10} {'energy(mJ)':>11} {'EDP(nJ.s)':>11}")
    for f, time_s, energy, edp in rows:
        marker = "  <- min EDP" if f == best[0] else ""
        print(
            f"{f:>5.1f} {time_s * 1e6:>10.1f} {energy * 1e3:>11.3f} "
            f"{edp * 1e9:>11.3f}{marker}"
        )
    return 0


def _cmd_roofline(kernels: List[str], platform_name: str) -> int:
    from repro.experiments import kernel_report
    from repro.hw import get_platform
    from repro.pipeline import get_constants
    from repro.roofline.plot import RooflinePoint, render_roofline

    platform = get_platform(platform_name)
    constants = get_constants(platform)
    points = []
    for kernel in kernels:
        report = kernel_report(kernel, platform_name)
        points.append(RooflinePoint(kernel, report.oi_model, 0.0))
    print(render_roofline(constants, points))
    return 0


def _cmd_fuzz(
    seed: int,
    time_budget: float,
    max_cases: Optional[int],
    corpus: Optional[str],
    replay_only: bool,
    artifacts: str,
    parametric: bool = False,
) -> int:
    from pathlib import Path

    from repro.verify import (
        fuzz,
        fuzz_parametric,
        replay_corpus,
        replay_parametric_corpus,
    )

    exit_code = 0
    if corpus is not None:
        replayed = replay_corpus(Path(corpus))
        preplayed = replay_parametric_corpus(Path(corpus))
        bad = [
            (path, r)
            for path, r in list(replayed) + list(preplayed)
            if not r.ok
        ]
        print(
            f"corpus replay: {len(replayed)} concrete + "
            f"{len(preplayed)} parametric spec(s), "
            f"{len(bad)} disagreement(s)"
        )
        for path, result in bad:
            print(f"  {path.name}:")
            for disagreement in result.disagreements:
                print(f"    {disagreement}")
        if bad:
            exit_code = 1
        if replay_only:
            return exit_code

    if parametric:
        pstats = fuzz_parametric(
            seed=seed,
            time_budget_s=time_budget,
            max_cases=max_cases,
            artifacts_dir=Path(artifacts),
            log=print,
        )
        print(
            f"parametric fuzz seed={seed}: {pstats.cases_run} "
            f"family(ies) in {pstats.elapsed_s:.1f}s, "
            f"{pstats.charts_fitted} chart(s) fitted, "
            f"{pstats.probes_served} probe(s) served, "
            f"{len(pstats.failures)} failure(s)"
        )
        for pfailure in pstats.failures:
            print(f"  family {pfailure.index}: {pfailure.reason()}")
            if pfailure.json_path is not None:
                print(
                    f"    repro: {pfailure.json_path} / "
                    f"{pfailure.pytest_path}"
                )
        return 1 if pstats.failures else exit_code

    stats = fuzz(
        seed=seed,
        time_budget_s=time_budget,
        max_cases=max_cases,
        artifacts_dir=Path(artifacts),
        log=print,
    )
    print(
        f"fuzz seed={seed}: {stats.cases_run} case(s) in "
        f"{stats.elapsed_s:.1f}s, {stats.symbolic_supported} "
        f"symbolic-supported, {len(stats.failures)} failure(s)"
    )
    for failure in stats.failures:
        print(f"  case {failure.index}: {failure.reason()}")
        if failure.json_path is not None:
            print(f"    repro: {failure.json_path} / {failure.pytest_path}")
    return 1 if stats.failures else exit_code


def _cmd_serve(args) -> int:
    from repro.service import serve
    from repro.service.http import DEFAULT_PORT

    return serve(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        once=args.once,
        port_file=args.port_file,
        store=args.store,
        workers=args.workers,
        executor=args.executor,
        max_pending=args.max_pending,
    )


def _parse_sizes(text: str) -> dict:
    """``"ni=64,nj=96"`` -> ``{"ni": 64, "nj": 96}``."""
    sizes = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad --sizes entry {part!r}; expected name=integer"
            )
        try:
            sizes[name] = int(value.strip())
        except ValueError:
            raise ValueError(
                f"bad --sizes value for {name!r}: {value.strip()!r} "
                f"is not an integer"
            ) from None
    return sizes


def _cmd_submit(args) -> int:
    try:
        size_sets = [_parse_sizes(text) for text in (args.sizes or [])]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = [
        {
            "benchmark": kernel,
            "platform": args.platform,
            "granularity": args.granularity,
            "objective": objective,
            "engine": args.cm_engine,
            "cm_timeout_s": args.cm_timeout,
            **({"sizes": sizes} if sizes else {}),
        }
        for kernel in args.kernels
        for objective in (args.objective or ["edp"])
        for sizes in (size_sets or [{}])
    ]

    if args.url is not None:
        from repro.service import request_json

        code, body = request_json(
            args.url.rstrip("/") + "/v1/jobs",
            {
                "specs": specs,
                "wait": not args.no_wait,
                "timeout_s": args.timeout,
            },
            timeout_s=args.timeout + 30.0,
        )
        if code != 200:
            print(f"error: {body.get('error', body)}", file=sys.stderr)
            return 2 if code == 400 else 1
        failed = 0
        for row in body["jobs"]:
            caps = ""
            report = row.get("report")
            if report is not None:
                caps = " caps=" + ",".join(
                    f"{unit['cap_ghz']:.1f}" for unit in report["units"]
                )
            if row.get("error"):
                failed += 1
                caps = f" error={row['error']}"
            print(
                f"{row['job_id']} {row['benchmark']}/{row['objective']} "
                f"{row['state']} source={row.get('source')}{caps}"
            )
        return 1 if failed else 0

    from repro.service import ServiceClient

    try:
        with ServiceClient(
            store=args.store if args.store is not None else None,
            workers=args.workers,
        ) as client:
            jobs = client.submit_batch(specs)
            failed = 0
            for job in jobs:
                try:
                    report = job.result(args.timeout)
                    caps = ",".join(f"{cap:.1f}" for cap in report.caps())
                    suffix = f"caps={caps}"
                    if not report.fully_exact:
                        suffix += (
                            " degraded="
                            + ",".join(report.degraded_units)
                        )
                except Exception as exc:
                    failed += 1
                    suffix = f"error={exc}"
                row = client.status(job.job_id)
                print(
                    f"{job.job_id} {job.spec.benchmark}/"
                    f"{job.spec.objective} {row['state']} "
                    f"source={row['source']} {suffix}"
                )
        return 1 if failed else 0
    except ValueError as exc:  # malformed spec (unknown kernel, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_status(job_id: str, url: str) -> int:
    import json

    from repro.service import request_json

    code, body = request_json(url.rstrip("/") + f"/v1/jobs/{job_id}")
    if code == 404:
        print(f"error: {body.get('error', 'unknown job')}", file=sys.stderr)
        return 1
    if code != 200:
        print(f"error: {body.get('error', body)}", file=sys.stderr)
        return 1
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def _cmd_query(args) -> int:
    filters = {
        "benchmark": args.benchmark,
        "platform": args.platform,
        "objective": args.objective,
        "boundedness": args.boundedness,
        "engine": args.engine,
        "cap_below": args.cap_below,
        "cap_above": args.cap_above,
        "limit": args.limit,
    }
    filters = {key: val for key, val in filters.items() if val is not None}

    if args.url is not None:
        from repro.service import request_json

        query_string = "&".join(f"{k}={v}" for k, v in filters.items())
        code, body = request_json(
            args.url.rstrip("/") + "/v1/query"
            + (f"?{query_string}" if query_string else "")
        )
        if code != 200:
            print(f"error: {body.get('error', body)}", file=sys.stderr)
            return 2 if code == 400 else 1
        rows = body["rows"]
    else:
        from repro.service.store import ResultStore

        store = ResultStore(args.store) if args.store else ResultStore()
        try:
            rows = store.query(**filters)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    print(
        f"{'benchmark':<20}{'platform':>10}{'objective':>12}{'class':>6}"
        f"{'units':>6}{'min-cap':>8}{'engine':>10}"
    )
    for row in rows:
        min_cap = (
            f"{row['min_cap_ghz']:.1f}"
            if row["min_cap_ghz"] is not None else "-"
        )
        print(
            f"{row['benchmark']:<20}{row['platform']:>10}"
            f"{row['objective']:>12}{row['boundedness']:>6}"
            f"{row['units']:>6}{min_cap:>8}{row['engine']:>10}"
        )
    print(f"{len(rows)} result(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "platforms":
        return _cmd_platforms()
    if args.command == "constants":
        return _cmd_constants(args.platform)
    if args.command == "characterize":
        return _cmd_characterize(
            args.kernel, args.platform, args.granularity,
            args.cm_engine, args.cm_timeout,
        )
    if args.command == "compile":
        return _cmd_compile(
            args.kernel, args.platform, args.objective,
            args.cm_engine, args.cm_timeout,
        )
    if args.command == "compare":
        return _cmd_compare(args.kernel, args.platform)
    if args.command == "sweep":
        return _cmd_sweep(args.kernel, args.platform)
    if args.command == "roofline":
        return _cmd_roofline(args.kernels, args.platform)
    if args.command == "fuzz":
        return _cmd_fuzz(
            args.seed, args.time_budget, args.max_cases,
            args.corpus, args.replay_only, args.artifacts,
            args.parametric,
        )
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args.job_id, args.url)
    if args.command == "query":
        return _cmd_query(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
