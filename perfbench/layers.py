"""Per-layer metrics of one traced round, from its spans and events.

Self time is a span's duration minus its children's.  Counts come from
the boundary that is timed.  Every ratio, with its base:

* ``cache.memo.hit_ratio`` -- memo calls that computed nothing / memo
  calls;
* ``service.store.{report,workload}_hit_ratio`` -- gets that found an
  entry / gets of that kind;
* ``service.scheduler.dedup_ratio`` -- (``coalesced`` + ``cache_hit``)
  events / ``submitted`` events;
* ``hw.trace.duplicate_ratio`` -- hardware-side traces whose fingerprint
  equals a model-side trace of the same job / hardware-side traces;
* ``trace.attributed_ratio`` -- self time of the named layers (all but
  the executor's remainder) plus queue wait / summed job latency;
* ``trace.overhead_ratio`` (``run.py``) -- untraced round's jobs/s /
  traced round's jobs/s.
"""

from __future__ import annotations

import re
import statistics

from workloads import family_table


def queue_waits(events):
    submitted, waits = {}, []
    for event in events:
        if event.kind == "submitted":
            submitted[event.job_id] = event.ts
        elif event.kind == "started" and event.job_id in submitted:
            waits.append(event.ts - submitted[event.job_id])
    return waits


def unstable_fingerprints():
    """(kernels, units) whose memo fingerprint differs between two
    lowerings of the same kernel in one process."""
    from repro.benchsuite import get_benchmark, list_benchmarks
    from repro.cache.memo import unit_fingerprint
    from repro.hw import get_platform
    from repro.ir.dialects.linalg import LinalgOp
    from repro.ir.dialects.torch_d import TorchOp
    from repro.ir.lowering import lower_linalg_to_affine, lower_torch_to_linalg
    from repro.mlpolyufc.characterization import group_affine_units
    from repro.poly.transforms import tile_and_parallelize

    hierarchy = get_platform("rpl").hierarchy

    def fingerprints(kernel):
        module = get_benchmark(kernel).module({})
        if any(isinstance(op, TorchOp) for op in module.ops):
            module = lower_torch_to_linalg(module)
        if any(isinstance(op, LinalgOp) for op in module.ops):
            module = lower_linalg_to_affine(module)
        tiled, _ = tile_and_parallelize(module, tile_size=32)
        return [
            unit_fingerprint(tiled, ops, hierarchy)
            for _name, ops in group_affine_units(tiled, "linalg")
        ]

    kernels = units = 0
    for kernel in list_benchmarks():
        first, second = fingerprints(kernel), fingerprints(kernel)
        changed = sum(1 for a, b in zip(first, second) if a != b)
        kernels += bool(changed)
        units += changed
    return kernels, units


def per_layer(traced, tracer):
    """Layer metrics of the traced round ``traced``."""
    spans = tracer.by_name()

    def self_s(name):
        return sum(span.self_s for span in spans.get(name, ()))

    def calls(name):
        return len(spans.get(name, ()))

    def info_sum(name, key):
        return sum(span.info.get(key, 0) for span in spans.get(name, ()))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    memo = spans.get("cache.memo", ())
    memo_hits = sum(
        1 for span in memo
        if span.child_s == 0.0 and "error" not in span.info
    )
    gets = spans.get("service.store.get", ())
    store_get = {
        kind: [s for s in gets if s.info.get("kind") == kind]
        for kind in ("report", "workload")
    }
    hw_spans = spans.get("hw.trace", ())
    duplicates = sum(
        1 for span in hw_spans
        if span.info.get("fingerprint") in tracer.model_traces.get(span.job, ())
    )
    counts = {}
    for event in traced.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    waits = queue_waits(traced.events)
    unstable_kernels, unstable_units = unstable_fingerprints()
    job_wall = sum(o.latency_s for o in traced.outcomes)
    layer_names = [
        name for name in spans if name != "service.executor"
    ]
    attributed = sum(self_s(name) for name in layer_names) + sum(waits)

    metrics = {
        "ir.lowering.self_s": (self_s("ir.lowering"), "s"),
        "poly.tiling.self_s": (self_s("poly.tiling"), "s"),
        "cache.trace.self_s": (self_s("cache.trace"), "s"),
        "cache.trace.calls": (calls("cache.trace"), "count"),
        "cache.trace.accesses": (info_sum("cache.trace", "accesses"), "count"),
        "cache.cm.self_s": (self_s("cache.cm"), "s"),
        "cache.cm.calls": (calls("cache.cm"), "count"),
        "cache.cm.accesses": (info_sum("cache.cm", "accesses"), "count"),
        "cache.memo.self_s": (self_s("cache.memo"), "s"),
        "cache.memo.calls": (len(memo), "count"),
        "cache.memo.hit_ratio": (ratio(memo_hits, len(memo)), "ratio"),
        "cache.memo.unstable_fingerprints": (unstable_kernels, "count"),
        "cache.memo.unstable_units": (unstable_units, "count"),
        "cache.symbolic.self_s": (self_s("cache.symbolic"), "s"),
        "cache.symbolic.calls": (calls("cache.symbolic"), "count"),
        "cache.symbolic.fallbacks": (sum(
            1 for span in spans.get("cache.symbolic", ())
            if span.info.get("error") == "SymbolicUnsupported"
        ), "count"),
        "cache.parametric.self_s": (self_s("cache.parametric"), "s"),
    }
    for kernel, *_ in family_table(False):
        served = sum(
            int(re.search(r"units=(\d+)", e.detail).group(1))
            for e in traced.events
            if e.kind == "family_served" and e.benchmark == kernel
        )
        for field, kind in (("samples", "family_sample"),
                            ("fits", "family_fit")):
            metrics[f"cache.parametric.{kernel}.{field}"] = (sum(
                1 for e in traced.events
                if e.kind == kind and e.benchmark == kernel
            ), "count")
        metrics[f"cache.parametric.{kernel}.served_units"] = (served, "count")
    metrics.update({
        "hw.trace.self_s": (self_s("hw.trace"), "s"),
        "hw.trace.calls": (len(hw_spans), "count"),
        "hw.trace.accesses": (info_sum("hw.trace", "accesses"), "count"),
        "hw.trace.duplicate_ratio": (
            ratio(duplicates, len(hw_spans)), "ratio"
        ),
        "cache.simulator.self_s": (self_s("cache.simulator"), "s"),
        "cache.simulator.calls": (calls("cache.simulator"), "count"),
        "cache.simulator.accesses": (
            info_sum("cache.simulator", "accesses"), "count"
        ),
        "search.capping.self_s": (self_s("search.capping"), "s"),
        "search.capping.iterations": (
            info_sum("search.capping", "iterations"), "count"
        ),
        "service.store.get_s": (self_s("service.store.get"), "s"),
        "service.store.put_s": (self_s("service.store.put"), "s"),
        "service.store.report_hit_ratio": (ratio(
            sum(s.info["hit"] for s in store_get["report"]),
            len(store_get["report"]),
        ), "ratio"),
        "service.store.workload_hit_ratio": (ratio(
            sum(s.info["hit"] for s in store_get["workload"]),
            len(store_get["workload"]),
        ), "ratio"),
        "service.scheduler.queue_wait_p50_s": (
            statistics.median(waits) if waits else 0.0, "s"
        ),
        "service.scheduler.dedup_ratio": (ratio(
            counts.get("coalesced", 0) + counts.get("cache_hit", 0),
            counts.get("submitted", 0),
        ), "ratio"),
        "service.executor.self_s": (self_s("service.executor"), "s"),
        "trace.attributed_ratio": (ratio(attributed, job_wall), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics
