"""Host-speed calibration: a fixed reference task timed next to the jobs.

The benchmark shares a few cores of a busy host.  The host runs the same
Python code at speeds up to 2x apart, in spells that last seconds, and
the share of slow spells drifts from minute to minute.  CPU time drifts
with wall time: the host runs slower, it does not deschedule the
process.  Every timing the benchmark reports is therefore given in
*reference seconds*: the measured time times ``REFERENCE_S / c``, where
``c`` is the time the reference task below took right before and right
after the job, in the same thread.

The reference task is fixed code of the benchmark's own, never the
program's, so a change to the program moves the measured time and
leaves the reference alone: a real speed-up or slowdown of the program
shows in full.  The host's slow spells slow some code more than other
code, so the task mixes the kinds the program runs, in about equal
time: a list-based LRU cache walk (as in the cache simulator), NumPy
sorting and arithmetic (trace generation, the CM engines), a JSON
round trip (the store), and plain integer and dict loops (lowering,
search, the scheduler).
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy

#: What one run of the reference task takes on a quiet 2-vCPU host of
#: the kind the benchmark was written on; only a scale factor.
REFERENCE_S = 0.015

_STREAM = [random.Random(11).randrange(4096) for _ in range(14_000)]
_ARRAY = numpy.random.default_rng(11).integers(0, 1 << 20, size=60_000)
_DOCUMENT = json.dumps({
    "units": [
        {"index": i, "counters": [float(j) for j in range(40)], "note": "x"}
        for i in range(240)
    ]
})


def _lru_walk() -> int:
    sets: List[List[int]] = [[] for _ in range(64)]
    hits = 0
    for line in _STREAM:
        ways = sets[line % 64]
        try:
            way = ways.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            hits += 1
            ways.insert(0, ways.pop(way))
        else:
            if len(ways) >= 8:
                ways.pop()
            ways.insert(0, line)
    return hits


def _array_work() -> int:
    keys = numpy.unique(numpy.sort(_ARRAY % 9973))
    return int(keys.sum() + (_ARRAY * 3 + 1).sum())


def _json_round_trip() -> int:
    return len(json.dumps(json.loads(_DOCUMENT), sort_keys=True))


def _arithmetic() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def _counting() -> int:
    counts: Dict[tuple, int] = {}
    for i in range(14_000):
        key = (i % 977, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _task() -> None:
    for part in (_lru_walk, _array_work, _json_round_trip, _arithmetic,
                 _counting):
        part()


def sample() -> float:
    """Seconds one run of the reference task takes here, now.

    One untimed run first, so that what the last job left in the caches
    does not count; then the mean of three timed runs.  The host can
    change speed during a sample, so the mean, not the fastest run, is
    what a job running then sees.
    """
    _task()
    started = time.perf_counter()
    for _ in range(3):
        _task()
    return (time.perf_counter() - started) / 3


def job_factors(samples: Sequence[Tuple[float, float]],
                jobs: Sequence[Tuple[float, float]]) -> List[float]:
    """``REFERENCE_S / c`` for each job.

    ``samples`` are ``(taken_at, seconds)`` in time order and ``jobs``
    ``(started, ended)``, on one clock.  ``c`` is the mean of the sample
    taken last before the job started and the one taken first after it
    ended: the host's slow spells last seconds, so the samples next to a
    job tell the speed it ran at.
    """
    times = [at for at, _ in samples]
    factors = []
    for started, ended in jobs:
        near = (bisect.bisect_right(times, started) - 1,
                bisect.bisect_left(times, ended))
        seconds = [samples[i][1] for i in near if 0 <= i < len(samples)]
        factors.append(REFERENCE_S / statistics.mean(seconds))
    return factors
