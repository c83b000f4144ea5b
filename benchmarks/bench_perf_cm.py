"""CM-engine performance benchmark: fast and symbolic vs the reference oracle.

Times trace generation and PolyUFC-CM evaluation on representative
PolyBench kernels, for both the set-associative (SA) and fully-associative
(FA) RPL hierarchies: the ``fast`` and ``symbolic`` engines and the
per-access ``reference_cm`` oracle.  Every kernel gets an
untiled row and a ``tiled32`` row: the tile-32 module the pipeline
actually characterizes.  The trace-free ``symbolic`` engine is measured
against ``trace_s + fast_s`` (the cost it replaces) on the untiled rows
only -- on tiled modules it runs for minutes (tiled mvt: 445 s); kernels
outside its quasi-affine class record the fallback reason instead of a
time.  Every module's trace is also checked bit for bit against
``reference_generate_trace`` by ``trace_differences``, the fuzzer's
``trace-diff`` check (the ``traces_match`` field).  Results (and the
engine and trace agreement checks, which exit nonzero on a mismatch)
land in ``BENCH_cm.json`` at the repo root so later PRs can track the
perf trajectory::

    PYTHONPATH=src python benchmarks/bench_perf_cm.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_perf_cm.py --smoke    # CI-sized

The ``trisolv@2mm-sized`` row scales trisolv until its trace matches the
2mm trace length (~4.1M accesses) -- the reference loop's per-access cost
explodes with deep LRU stacks, which is exactly the regime the vectorized
engine exists for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    clear_memo,
    generate_trace,
    line_stream,
    memoized_stream,
    polyufc_cm,
    reference_cm,
    reference_generate_trace,
    trace_differences,
)
from repro.cache.symbolic_model import SymbolicUnsupported, symbolic_cm
from repro.hw.platform import PLATFORMS
from repro.pipeline import _lower_to_affine
from repro.poly.transforms import tile_and_parallelize

# (row label, builder kwargs).  trisolv at n=1433 produces a 2mm-sized
# trace (~4.1M accesses) while exercising deep-stack reference behaviour.
FULL_CASES = [
    ("2mm", "2mm", {}),
    ("3mm", "3mm", {}),
    ("gemm", "gemm", {}),
    ("atax", "atax", {}),
    ("mvt", "mvt", {}),
    ("trisolv", "trisolv", {}),
    ("trisolv@2mm-sized", "trisolv", {"n": 1433}),
]
SMOKE_CASES = [
    ("atax", "atax", {}),
    ("trisolv", "trisolv", {}),
]


#: ``polyufc_compile``'s default tile size.
PIPELINE_TILE = 32


def time_call(fn, reps):
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def case_modules(kernel, kwargs):
    """``(variant, module)``: the builder's module and the pipeline's."""
    module = POLYBENCH_BUILDERS[kernel](**kwargs)
    tiled, _ = tile_and_parallelize(
        _lower_to_affine(module), tile_size=PIPELINE_TILE
    )
    return [("untiled", module), (f"tiled{PIPELINE_TILE}", tiled)]


def cm_rows(cases, reps, fast_reps):
    hierarchy = PLATFORMS["rpl"]().hierarchy
    variants = [("SA", hierarchy), ("FA", hierarchy.fully_associative())]
    rows = []
    for label, kernel, kwargs in cases:
        for variant, module in case_modules(kernel, kwargs):
            rows.extend(
                module_rows(
                    label, variant, module, variants, reps, fast_reps,
                    symbolic=variant == "untiled",
                )
            )
    return rows


def module_rows(label, variant, module, variants, reps, fast_reps, symbolic):
    trace_s, trace = time_call(lambda: generate_trace(module), 3)
    differences = trace_differences(trace, reference_generate_trace(module))
    same_trace = not differences
    print(
        f"{label:>20} {variant:>8}  n={len(trace):>9,}  "
        f"trace={trace_s:8.4f}s  "
        f"{'traces OK' if same_trace else 'TRACE MISMATCH'}"
    )
    if not same_trace:
        raise SystemExit(
            f"trace disagreement on {label}/{variant}: generate_trace != "
            f"reference_generate_trace: {'; '.join(differences)}"
        )
    rows = []
    for hier_label, hier in variants:
        fast_s, fast = time_call(
            lambda: polyufc_cm(trace, hier), fast_reps
        )
        ref_s, reference = time_call(
            lambda: reference_cm(trace, hier), reps
        )
        sym_s, sym_match, sym_speedup, sym_note = None, None, None, None
        sym_text = "sym= skipped (tiled)"
        if symbolic:
            try:
                sym_s, symbolic_cm_result = time_call(
                    lambda: symbolic_cm(module, None, hier), fast_reps
                )
                sym_match = symbolic_cm_result == fast
                sym_speedup = (
                    round((trace_s + fast_s) / sym_s, 2) if sym_s else None
                )
                sym_text = (
                    f"sym={sym_s:8.3f}s ({sym_speedup:5.1f}x vs trace+fast)"
                )
            except SymbolicUnsupported as exc:
                sym_note = str(exc)
                sym_text = "sym= fallback"
        row = {
            "kernel": label,
            "variant": variant,
            "hierarchy": hier_label,
            "accesses": len(trace),
            "trace_s": round(trace_s, 4),
            "fast_s": round(fast_s, 4),
            "reference_s": round(ref_s, 4),
            "symbolic_s": round(sym_s, 4) if sym_s is not None else None,
            "symbolic_speedup": sym_speedup,
            "symbolic_note": sym_note,
            "speedup": round(ref_s / fast_s, 2) if fast_s else None,
            "engines_match": fast == reference and sym_match is not False,
            "traces_match": same_trace,
        }
        rows.append(row)
        print(
            f"{label:>20} {variant:>8} {hier_label}  "
            f"fast={fast_s:8.3f}s  ref={ref_s:8.3f}s  {sym_text}  "
            f"{'OK' if row['engines_match'] else 'MISMATCH'}"
        )
        if not row["engines_match"]:
            raise SystemExit(
                f"engine disagreement on {label}/{variant}/{hier_label}"
            )
    return rows


def sa_regression_row():
    """Symbolic-vs-trace+fast cross-check on the SA regression kernel.

    2mm under the set-associative RPL hierarchy is the residue-split
    stress case (the kernel that regressed to 0.4x before the enumeration
    was vectorized per set).  Runs in smoke mode too, so CI notices both
    a correctness break and a silent slide back below the recorded floor.
    """
    hierarchy = PLATFORMS["rpl"]().hierarchy
    module = POLYBENCH_BUILDERS["2mm"]()
    trace_s, trace = time_call(lambda: generate_trace(module), 1)
    fast_s, fast = time_call(lambda: polyufc_cm(trace, hierarchy), 1)
    sym_s, symbolic = time_call(lambda: symbolic_cm(module, None, hierarchy), 1)
    if symbolic != fast:
        raise SystemExit("SA cross-check: symbolic != fast on 2mm/SA")
    speedup = round((trace_s + fast_s) / sym_s, 2) if sym_s else None
    print(
        f"{'sa-crosscheck 2mm':>20} SA  trace+fast={trace_s + fast_s:8.3f}s  "
        f"sym={sym_s:8.3f}s ({speedup:5.1f}x)  OK"
    )
    return {
        "kernel": "2mm",
        "hierarchy": "SA",
        "accesses": len(trace),
        "trace_s": round(trace_s, 4),
        "fast_s": round(fast_s, 4),
        "symbolic_s": round(sym_s, 4),
        "symbolic_speedup": speedup,
        "engines_match": True,
    }


def line_stream_section(reps):
    """The stream memo on 2mm: a cold ``line_stream`` build vs a memo hit.

    A hit re-fingerprints the module (its printed IR), so it is timed
    through ``memoized_stream`` as the CM stage calls it.  Bytes per
    access compare what the memo holds with the trace it replaces.
    """
    module = POLYBENCH_BUILDERS["2mm"]()
    trace = generate_trace(module)
    line_bytes = PLATFORMS["rpl"]().hierarchy.line_bytes
    cold_s, stream = time_call(lambda: line_stream(trace, line_bytes), 1)
    clear_memo()
    memoized_stream(module, None, line_bytes)
    warm_s, hit = time_call(
        lambda: memoized_stream(module, None, line_bytes), max(reps, 3)
    )
    clear_memo()
    if not np.array_equal(hit.lines, stream.lines):
        raise SystemExit("line stream: memo hit != fresh build on 2mm")
    trace_bytes = sum(
        column.nbytes
        for column in (trace.buffer_ids, trace.offsets, trace.is_write)
    )
    print(
        f"{'line_stream 2mm':>20} cold={cold_s:.4f}s  hit={warm_s:.6f}s  "
        f"{stream.nbytes / len(trace):.0f} B/access "
        f"(trace {trace_bytes / len(trace):.0f})"
    )
    return {
        "module": "2mm",
        "accesses": len(trace),
        "cold_s": round(cold_s, 6),
        "hit_s": round(warm_s, 9),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 1e-9 else None,
        "line_dtype": str(stream.lines.dtype),
        "bytes_per_access": stream.nbytes / len(trace),
        "trace_bytes_per_access": trace_bytes / len(trace),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small kernel set + single rep (CI)",
    )
    parser.add_argument(
        "--output", default=None,
        help="output JSON path (default: BENCH_cm.json at the repo root)",
    )
    args = parser.parse_args(argv)

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    reps = 1
    fast_reps = 1 if args.smoke else 2
    rows = cm_rows(cases, reps, fast_reps)
    sa_check = sa_regression_row()
    stream = line_stream_section(reps)

    speedups = [row["speedup"] for row in rows]
    symbolic_speedups = [
        row["symbolic_speedup"]
        for row in rows
        if row["symbolic_speedup"] is not None
    ]
    payload = {
        "host": {
            "machine": platform_mod.machine(),
            "python": platform_mod.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "smoke": args.smoke,
        "rows": rows,
        "sa_crosscheck": sa_check,
        "line_stream": stream,
        "max_speedup": max(speedups),
        "max_symbolic_speedup": (
            max(symbolic_speedups) if symbolic_speedups else None
        ),
        "all_engines_match": all(row["engines_match"] for row in rows),
        "all_traces_match": all(row["traces_match"] for row in rows),
    }
    output = (
        Path(args.output)
        if args.output
        else Path(__file__).resolve().parents[1] / "BENCH_cm.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output} (max speedup {payload['max_speedup']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
