"""Self-tests of the benchmark itself.

    python3 perfbench/run.py --self-test

* the same seed gives the same request list and the same expected
  outputs, and every request any seed can send has an expected output;
* the checker flags a report with one cap changed, a degraded report,
  and a missing job (and passes the untouched ones);
* a job's reference-seconds factor comes from the reference task samples
  taken next to it;
* metric names match ``[A-Za-z0-9_.-]+`` and the runs print exactly the
  metrics ``BENCHMARK.json`` declares;
* the reduced-size mode runs every workload end to end, traced and not.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.service.events import ListSink

import calibrate
from checks import check_outcomes, load_expected, spec_key
from workloads import WORKLOADS, build_requests, open_client, run_round

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_seeded_requests(expected):
    for workload in WORKLOADS:
        for smoke in (False, True):
            for seed in range(20):
                first = build_requests(workload, seed, smoke)
                again = build_requests(workload, seed, smoke)
                keys = [spec_key(r.spec) for r in first]
                assert keys == [spec_key(r.spec) for r in again], workload
                assert [r.phase for r in first] == [r.phase for r in again]
                missing = [key for key in keys if key not in expected]
                assert not missing, f"{workload}: no expected {missing[:3]}"
                rows = [expected[key] for key in keys]
                assert rows == [expected[spec_key(r.spec)] for r in again]
    mixed = [spec_key(r.spec) for r in build_requests("service_mixed", 0)]
    other = [spec_key(r.spec) for r in build_requests("service_mixed", 1)]
    assert mixed != other, "the seed must change the service mix"


def test_checker_flags(expected):
    requests = build_requests("cold_registry", 0, smoke=True)
    events = ListSink()
    with tempfile.TemporaryDirectory(prefix="selftest-") as tmp:
        client = open_client(Path(tmp) / "store", None, events)
        with client:
            outcomes = run_round(requests, client, events).outcomes
    assert check_outcomes(requests, outcomes, expected) == [
        [] for _ in requests
    ], "clean round must pass"

    def verdicts_with(index, mutate):
        changed = copy.deepcopy(outcomes)
        # deepcopy made new requests: re-point them at the originals
        for outcome, request in zip(changed, requests):
            outcome.request = request
        mutate(changed, changed[index])
        return check_outcomes(requests, changed, expected)

    def bump_cap(changed, outcome):
        outcome.report.units[0].cap_ghz += 0.1

    def degrade(changed, outcome):
        outcome.report.units[0].degraded = "approx"

    def drop(changed, outcome):
        changed.remove(outcome)

    for mutate, needle in ((bump_cap, "cap_ghz"), (degrade, "degraded"),
                           (drop, "missing job")):
        verdicts = verdicts_with(1, mutate)
        assert any(needle in problem for problem in verdicts[1]), (
            mutate.__name__, verdicts[1]
        )
        assert all(not v for i, v in enumerate(verdicts) if i != 1)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs():
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS), names
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=600,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            result = _last_json(done.stdout)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True, done.stdout[-3000:]
            assert result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], (workload, trace)
            print(f"  smoke {workload} trace={trace}: "
                  f"{result['attempted']} jobs ok", flush=True)


def test_reference_seconds():
    ref = calibrate.REFERENCE_S
    samples = [(0.0, ref), (2.0, 2 * ref), (4.0, ref)]
    factors = calibrate.job_factors(
        samples, [(0.5, 1.5), (2.5, 3.5), (4.5, 5.0)]
    )
    # A job between two samples takes their mean; after the last, the last.
    assert factors == [2 / 3, 2 / 3, 1.0], factors
    assert calibrate.sample() > 0


def test_metric_names():
    from run import METRIC_NAME

    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[group]:
            assert METRIC_NAME.match(entry["name"]), entry["name"]


def main() -> int:
    expected = load_expected()
    for name, test in (
        ("metric names", test_metric_names),
        ("reference seconds", test_reference_seconds),
        ("seeded requests", lambda: test_seeded_requests(expected)),
        ("checker flags", lambda: test_checker_flags(expected)),
        ("smoke runs", test_smoke_runs),
    ):
        test()
        print(f"ok: {name}", flush=True)
    return 0
