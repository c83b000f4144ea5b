"""Output checks: the expected table plus three independent rules.

``expected.json`` holds, for every distinct spec any workload can send
(every seed, both sizes of run), the per-unit boundedness, cap, and
model- and hardware-side counters.  It is keyed on what a user asks for
(kernel, platform, objective, epsilon, sizes) -- not on the content
digest, which folds in model versions, and not on the engine, because
every engine must give the same numbers.

Independent of the model under test:

1. the static class equals the class measured from hardware counters
   (Fig. 6 rule: measured OI against ``machine_balance_fpb``);
2. the PAPER22 kernels keep the paper's split (13 CB / 9 BB on RPL);
3. every chart-served family report equals a concrete ``fast`` run of
   the same size bit-for-bit (run outside the timed phase).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List

from repro.benchsuite import paper22_names
from repro.hw import get_platform
from repro.mlpolyufc.characterization import FAMILY_SERVED_NOTE

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The unit fields the expected table pins, compared exactly.
UNIT_FIELDS = (
    "boundedness", "cap_ghz", "omega", "q_dram_model",
    "model_level_bytes", "model_dram_lines", "level_accesses_hw",
    "dram_fetch_bytes_hw", "dram_writeback_bytes_hw", "dram_lines_hw",
)

_PAPER22 = paper22_names()
#: PAPER22 lists the 13 compute-bound kernels first, then the 9
#: bandwidth-bound ones (Sec. VII-D).
PAPER22_CLASS = {
    name: ("CB" if index < 13 else "BB")
    for index, name in enumerate(_PAPER22)
}


def spec_key(spec) -> str:
    sizes = ",".join(
        f"{name}={value}" for name, value in sorted(dict(spec.sizes).items())
    )
    return (
        f"{spec.benchmark}/{spec.platform}/{spec.objective}/"
        f"{spec.epsilon!r}/{sizes}"
    )


def unit_rows(report) -> List[dict]:
    rows = []
    for unit in report.units:
        row = {"name": unit.name}
        for name in UNIT_FIELDS:
            value = getattr(unit, name)
            row[name] = list(value) if isinstance(value, tuple) else value
        rows.append(row)
    return rows


def load_expected() -> Dict[str, List[dict]]:
    return json.loads(EXPECTED_PATH.read_text())["specs"]


def hardware_class(report) -> str:
    """Fig. 6 rule: measured OI (flops / DRAM bytes) vs the balance."""
    dram = sum(
        unit.dram_fetch_bytes_hw + unit.dram_writeback_bytes_hw
        for unit in report.units
    )
    oi_hw = report.total_flops / dram if dram else float("inf")
    balance = get_platform(report.platform).machine_balance_fpb()
    return "CB" if oi_hw >= balance else "BB"


def check_report(spec, report, expected: Dict[str, List[dict]]
                 ) -> List[str]:
    """Every problem with one job's report (empty list: correct)."""
    problems = []
    if not report.fully_exact:
        problems.append(f"degraded units {report.degraded_units}")
    want = expected.get(spec_key(spec))
    if want is None:
        problems.append(f"no expected output for {spec_key(spec)}")
    elif unit_rows(report) != want:
        got = unit_rows(report)
        diffs = [
            f"{mine.get('name')}.{name}: {mine.get(name)!r} != "
            f"{theirs.get(name)!r}"
            for mine, theirs in zip(got, want)
            for name in ("name",) + UNIT_FIELDS
            if mine.get(name) != theirs.get(name)
        ]
        if len(got) != len(want):
            diffs.append(f"{len(got)} units != {len(want)}")
        problems.append("output mismatch: " + "; ".join(diffs[:4]))
    static = report.boundedness
    measured = hardware_class(report)
    if static != measured:
        problems.append(f"static class {static} != hardware class {measured}")
    paper = PAPER22_CLASS.get(spec.benchmark)
    if paper is not None and spec.platform == "rpl" and static != paper:
        problems.append(f"PAPER22 class {static} != paper's {paper}")
    return problems


def check_outcomes(requests, outcomes, expected) -> List[List[str]]:
    """Per-request problem lists; a request without an outcome is missing."""
    by_index = {id(outcome.request): outcome for outcome in outcomes}
    verdicts = []
    for request in requests:
        outcome = by_index.get(id(request))
        if outcome is None:
            verdicts.append(["missing job"])
        elif outcome.error is not None:
            verdicts.append([f"failed: {outcome.error}"])
        elif outcome.shed:
            verdicts.append(["shed"])
        else:
            verdicts.append(check_report(request.spec, outcome.report,
                                         expected))
    return verdicts


def paper22_split(reports: Iterable) -> dict:
    """CB/BB counts over the PAPER22 kernels among RPL ``reports``."""
    counts = {"CB": 0, "BB": 0}
    rpl = get_platform("rpl").name
    for report in reports:
        if report.benchmark in PAPER22_CLASS and report.platform == rpl:
            counts[report.boundedness] += 1
    return counts


def served_matches_concrete(report, concrete) -> List[str]:
    """Chart-served family report vs a concrete ``fast`` run, exactly."""
    problems = []
    if len(report.units) != len(concrete.units):
        return [f"{len(report.units)} units != {len(concrete.units)}"]
    for mine, theirs in zip(report.units, concrete.units):
        if mine.cm_note != FAMILY_SERVED_NOTE:
            problems.append(f"{mine.name} not chart-served")
        for name in UNIT_FIELDS + ("oi_fpb",):
            if getattr(mine, name) != getattr(theirs, name):
                problems.append(f"{mine.name}.{name} differs from fast")
    return problems
