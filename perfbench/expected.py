"""Regenerate ``expected.json``: the outputs every workload must return.

    python3 perfbench/run.py --write-expected

Covers every spec any seed of any workload can send (full and reduced
sizes) plus the default spec of every registry kernel on both
platforms.  Parametric family sizes are computed with the concrete
``fast`` engine, so a chart-served report that matches its entry equals
a concrete run bit-for-bit.  Writing refuses a table that breaks one of
the independent rules: every report's static class equals its
hardware-counter class, and PAPER22 splits 13 CB / 9 BB on RPL.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.benchsuite import list_benchmarks, paper22_names
from repro.cache.memo import clear_memo
from repro.service import JobSpec, ServiceClient

from checks import (
    EXPECTED_PATH,
    PAPER22_CLASS,
    hardware_class,
    paper22_split,
    spec_key,
    unit_rows,
)
from workloads import PLATFORMS, family_spec, family_table, mixed_pool


def all_specs():
    """(group, specs) in an order that keeps memo reuse high."""
    registry = [
        JobSpec(benchmark=kernel, platform=platform)
        for kernel in list_benchmarks()
        for platform in PLATFORMS
    ]
    mixed = mixed_pool(False) + mixed_pool(True)
    families = [
        family_spec(kernel, param, fixed, value, engine="fast")
        for smoke in (False, True)
        for kernel, param, fixed, cold, warm in family_table(smoke)
        for value in cold + warm
    ]
    return registry + mixed + families


def write() -> int:
    table, reports = {}, {}
    with tempfile.TemporaryDirectory(prefix="expected-") as tmp:
        with ServiceClient(store=Path(tmp) / "store", executor="thread",
                           workers=1) as client:
            previous = None
            for spec in all_specs():
                key = spec_key(spec)
                if key in table:
                    continue
                if (spec.benchmark, dict(spec.sizes)) != previous:
                    clear_memo()  # bound memory: traces are per module
                    previous = (spec.benchmark, dict(spec.sizes))
                report = client.submit(spec).result()
                if not report.fully_exact:
                    raise SystemExit(f"{spec.label()}: degraded report")
                table[key] = unit_rows(report)
                reports[key] = report
                print(f"{key} {report.boundedness}", flush=True)
    mismatched = [
        key for key, report in reports.items()
        if report.boundedness != hardware_class(report)
    ]
    paper = [
        reports[spec_key(JobSpec(benchmark=kernel, platform="rpl"))]
        for kernel in paper22_names()
    ]
    split = paper22_split(paper)
    wrong = [
        r.benchmark for r in paper if r.boundedness != PAPER22_CLASS[r.benchmark]
    ]
    if mismatched or split != {"CB": 13, "BB": 9} or wrong:
        raise SystemExit(
            f"independent checks failed: class mismatches {mismatched}, "
            f"PAPER22 split {split}, misclassified {wrong}"
        )
    EXPECTED_PATH.write_text(json.dumps({
        "note": "regenerate with: python3 perfbench/run.py --write-expected",
        "paper22_split_rpl": split,
        "class_agreement": f"{len(reports)}/{len(reports)}",
        "specs": table,
    }, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} specs to {EXPECTED_PATH}")
    return 0
