"""Vectorized (array-at-a-time) evaluation of the PolyUFC-CM level model.

:func:`repro.cache.static_model.reference_cm` walks the access stream one
element at a time and maintains per-set LRU stacks in Python lists -- an
O(assoc) list walk per access, far too slow for the compile time
attributed to PolyUFC-CM (paper Tab. IV), so it stays the oracle.  This
module computes the *same* cold / capacity-conflict classification for
every access at once with NumPy.

The backward reuse distance of an access ``i`` (number of distinct
same-set lines touched since the previous access ``p`` to its line) obeys
a counting identity over the set's collapsed subsequence::

    distance(i) = #{ j : p < j < i, prev(j) <= p }

an access ``j`` inside the window introduces a *new* distinct line exactly
when its own previous occurrence ``prev(j)`` falls at or before ``p``.
The engine evaluates that identity in bulk through a filtering cascade,
cheapest rule first, so the (dominant) trivially-classified accesses never
reach the expensive counting machinery:

1. **Per-set grouping** -- one packed-key sort (``set << B | time``, int32
   when the ranges fit) groups the stream into contiguous per-set
   subsequences in program order.  NumPy's stable argsort is a mergesort,
   so packing plus a plain value sort is several times faster.
2. **Run collapsing** -- consecutive same-line accesses inside a set have
   distance zero: guaranteed hits, removed before any further analysis
   (windows keep exactly the same distinct-line population).
3. **Conflict-free shortcut** -- when every set's total distinct-line
   population fits its ways, capacity/conflict misses cannot exist and
   the level reduces to cold-miss counting.
4. **Short-window rule** -- ``distance(i) <= i - p - 1``, so a window
   shorter than the associativity is a guaranteed hit.
5. **Cold lower bound** -- first-ever accesses inside the window are
   always "new", so a prefix-sum of cold flags confirms misses whose
   window already contains ``assoc`` cold accesses.
6. **Chunked offline counting** -- remaining hard accesses count
   first-in-window elements over 32-wide chunks: edge chunks are masked
   gathers, interior chunks run in batched gather/compare/sum rounds with
   early termination once a count reaches ``assoc``; queries that survive
   :data:`_ROUND_LIMIT` rounds (huge hit-bound windows) escalate to
   :func:`_prefix_count`, a radix-8 Fenwick-style offline prefix counter
   that is O(log m) per query regardless of window length.  Queries
   gather in batches of :data:`_QUERY_BATCH`, so their count never
   sets the peak memory.

Stages 1-6 are :func:`classify_misses`, which decides every hit and
miss of an LRU level.  Two tails read one classification: the CM's
write-through tail (:func:`model_level`) and the write-back hardware
simulator's (:mod:`repro.cache.simulator`); both accept a classification
the caller already holds, so the CM and the simulator of one trace
classify its first level once.  The write-through next-level stream
(miss fetch, then the forwarded write for stores, in program order) is
built from the accesses that emit, each repeating its line once or
twice, so the whole hierarchy is evaluated without Python-level
per-access work.  Every level keeps the dtype of the line ids it is
given (:func:`level_lines`): the memo's int32 streams stay int32 from
the first level to the last.  The engine is
bit-for-bit equivalent to the reference loop (asserted by the randomized
suite in ``tests/cache/test_fast_model.py`` and by the exact polyhedral
model on small kernels) -- it changes evaluation speed, not the Sec. IV
model semantics.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache.config import CacheLevelConfig
from repro.runtime import Deadline, check as _check_deadline, faults

# Chunk width of the offline counting (stage 6).
_CHUNK = 32

# Block width of the brute-force base case of ``le_rank``.
_BASE_BLOCK = 32

# Interior-chunk rounds before a hard query escalates to prefix counting.
_ROUND_LIMIT = 64

# Queries whose interior exceeds this many chunks skip the rounds loop and
# go straight to prefix counting: a hit-bound query never terminates
# early, so scanning more than this many chunks is guaranteed wasted work
# whenever the query turns out to be a hit.
_PREFIX_DIRECT = 4 * _ROUND_LIMIT

#: Hard queries per gather batch in stage 6.  Every batch gathers
#: ``_QUERY_BATCH x 32`` values, so the batch -- not the number of hard
#: queries -- bounds the transient memory of the counting.
_QUERY_BATCH = 4096

#: Interior-chunk rounds between cooperative checkpoints (stage 6a).
_ROUNDS_PER_CHECK = 8

_INT32_MAX = np.iinfo(np.int32).max


def _no_checkpoint() -> None:
    return None


def le_rank(values: np.ndarray) -> np.ndarray:
    """``r[i] = #{ j < i : values[j] <= values[i] }`` for the whole array.

    Offline dominance counting via a bottom-up merge tree: every ordered
    pair ``(j, i)`` with ``j < i`` lands exactly once in a (left block,
    right block) sibling pair, where the contribution of all left elements
    to each right query is a batched ``searchsorted`` into the sorted left
    block.  Blocks are made globally comparable by offsetting each pair's
    values into disjoint ranges so one flat ``searchsorted`` serves every
    block at a level.  O(n log^2 n) total work, O(log n) NumPy passes.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    pad_value = int(values.max()) + 1
    base = _BASE_BLOCK
    blocks = 1
    while blocks * base < n:
        blocks *= 2
    padded_len = blocks * base
    work = np.full(padded_len, pad_value, dtype=np.int64)
    work[:n] = values
    rank = np.zeros(padded_len, dtype=np.int64)

    # Base case: brute-force pairwise comparison inside each base block.
    rows = work.reshape(-1, base)
    below = np.tril(np.ones((base, base), dtype=bool), -1)
    pairwise = rows[:, None, :] <= rows[:, :, None]  # [p, i, j]: w[j] <= w[i]
    rank += (pairwise & below).sum(axis=2, dtype=np.int64).reshape(-1)

    size = base
    while size < padded_len:
        pairs = work.reshape(-1, 2 * size)
        num_pairs = pairs.shape[0]
        left_sorted = np.sort(pairs[:, :size], axis=1)
        queries = pairs[:, size:]
        offsets = np.arange(num_pairs, dtype=np.int64) * np.int64(pad_value + 1)
        flat_left = (left_sorted + offsets[:, None]).ravel()
        flat_queries = (queries + offsets[:, None]).ravel()
        counts = np.searchsorted(flat_left, flat_queries, side="right")
        counts -= np.repeat(
            np.arange(num_pairs, dtype=np.int64) * size, size
        )
        rank.reshape(-1, 2 * size)[:, size:] += counts.reshape(num_pairs, size)
        size *= 2
    return rank[:n]


def level_lines(lines: np.ndarray) -> np.ndarray:
    """``lines`` as every level reads them: contiguous, int32 ids kept
    as int32 (the memo's streams) and any other integers as int64."""
    lines = np.asarray(lines)
    dtype = np.int32 if lines.dtype == np.int32 else np.int64
    return np.ascontiguousarray(lines, dtype=dtype)


def _index_dtype(n: int):
    """The narrowest index dtype for arrays of ``n`` elements."""
    return np.int32 if n <= _INT32_MAX else np.int64


def _sorted_packed_keys(major: np.ndarray, width: int, bits: int) -> np.ndarray:
    """``major[i] << bits | i`` for every element, value-sorted.

    Packs into int32 when ``width << bits`` plus the position fits, int64
    otherwise.  The low ``bits`` of the sorted keys are the stable sort
    order of ``major`` (ties broken by position, i.e. exactly a stable
    argsort, but on NumPy's fast scalar sort instead of its
    mergesort-based stable argsort); the high bits are the sorted values.
    """
    n = major.size
    dtype = (
        np.int32 if (int(width) << bits) | (n - 1) <= _INT32_MAX
        else np.int64
    )
    key = major.astype(dtype)
    key <<= dtype(bits)
    key |= np.arange(n, dtype=dtype)
    key.sort()
    return key


def _prev_occurrence(kept_lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Previous same-line occurrence index (-1 if none), via one key sort.

    Also returns the sort order itself: every index sorted by
    ``(line, index)``.
    """
    m = kept_lines.size
    index = _index_dtype(m)
    bits = int(m - 1).bit_length() if m > 1 else 1
    key = _sorted_packed_keys(kept_lines, int(kept_lines.max()), bits)
    order = (key & ((1 << bits) - 1)).astype(index, copy=False)
    key >>= bits  # the sorted lines
    prev_idx = np.full(m, -1, dtype=index)
    if m > 1:
        same = key[1:] == key[:-1]
        prev_idx[order[1:][same]] = order[:-1][same]
    return prev_idx, order


_LANES = np.arange(_CHUNK)


def _row_counts(
    work2d: np.ndarray,
    rows: np.ndarray,
    thresholds: np.ndarray,
    lo: Optional[np.ndarray] = None,
    hi: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per query ``q``: lanes of ``work2d[rows[q]]`` holding a value
    ``<= thresholds[q]`` (only lanes strictly between ``lo[q]`` and
    ``hi[q]`` when bounds are given).

    Queries run in batches of :data:`_QUERY_BATCH`, so the gathered
    ``batch x 32`` block -- not the query count -- bounds the memory.
    """
    counts = np.empty(rows.size, dtype=np.int64)
    for start in range(0, rows.size, _QUERY_BATCH):
        part = slice(start, start + _QUERY_BATCH)
        hit = work2d[rows[part]] <= thresholds[part, None]
        if lo is not None:
            hit &= _LANES > lo[part, None]
            hit &= _LANES < hi[part, None]
        counts[part] = np.count_nonzero(hit, axis=1)
    return counts


def _count_hard_queries(
    prev_pos: np.ndarray,
    hard_idx: np.ndarray,
    hard_gp: np.ndarray,
    hard_p: np.ndarray,
    assoc: int,
    checkpoint: Callable[[], None],
) -> Tuple[np.ndarray, np.ndarray]:
    """First-in-window counts for the hard queries (stage 6a).

    For each query ``i`` with previous occurrence at global kept index
    ``gp`` and block-local position ``p``, counts elements ``j`` in
    ``(gp, i)`` with ``prev_pos[j] <= p``.  Edge chunks are counted with
    masked 32-wide gathers; interior chunks in batched rounds (one
    32-lane gather + compare + sum per round over the still-active
    queries -- throughput-bound vector work on three cache lines per
    query, which beats per-chunk binary searches by a wide margin),
    terminating a query early once its count reaches ``assoc`` -- the
    capped-stack rule needs no exact distance beyond that, and on
    miss-dense windows nearly every query dies within a round or two.
    Returns ``(counts, pending)`` where ``pending`` indexes queries still
    unresolved after :data:`_ROUND_LIMIT` rounds (their counts are
    partial); the caller finishes those with the O(log m)-per-query
    prefix counting.
    """
    m = prev_pos.size
    chunk = _CHUNK
    padded = -(-m // chunk) * chunk
    # Keep the working copy (and the query thresholds) in the narrowest
    # dtype that fits: every gather round streams Q x 32 values, so width
    # is bandwidth.  A row-reshaped view turns per-chunk access into one
    # contiguous row gather -- no (Q, 32) index materialization.
    dtype = np.int32 if m + 2 <= _INT32_MAX else np.int64
    work = np.full(padded, dtype(m + 2), dtype=dtype)
    work[:m] = prev_pos
    work2d = work.reshape(-1, chunk)
    hp = hard_p.astype(dtype, copy=False)

    gp_chunk = hard_gp >> 5
    last_chunk = hard_idx >> 5  # chunk containing the query itself
    same_chunk = gp_chunk == last_chunk
    # Edge handling: gp's chunk counts the lanes after gp -- up to i's
    # lane when i shares the chunk; otherwise i's chunk adds the lanes
    # before i, leaving the full chunks in between to the rounds loop.
    counts = _row_counts(
        work2d, gp_chunk, hp, hard_gp & 31,
        np.where(same_chunk, hard_idx & 31, chunk),
    )
    split = np.flatnonzero(~same_chunk)
    if split.size:
        counts[split] += _row_counts(
            work2d, last_chunk[split], hp[split],
            np.full(split.size, -1), hard_idx[split] & 31,
        )

    cursor = gp_chunk + 1  # chunks strictly after gp's chunk
    active = np.flatnonzero((cursor < last_chunk) & (counts < assoc))
    for round_index in range(_ROUND_LIMIT):
        if not active.size:
            break
        if round_index % _ROUNDS_PER_CHECK == 0:
            checkpoint()
        counts[active] += _row_counts(work2d, cursor[active], hp[active])
        cursor[active] += 1
        still = (cursor[active] < last_chunk[active]) & (
            counts[active] < assoc
        )
        active = active[still]
    return counts, active


def _prefix_count(
    w: np.ndarray,
    gi: np.ndarray,
    wq: np.ndarray,
    checkpoint: Callable[[], None],
) -> np.ndarray:
    """``#{ j < gi[q] : w[j] <= wq[q] }`` for every query ``q`` (stage 6b).

    Offline Fenwick-style counting in radix-8: the prefix ``[0, gi)``
    decomposes into the trailing partial 32-chunk (a masked gather) plus
    at most seven aligned segments per level of geometrically growing
    segment size (32 * 8^k).  Each level is one ``np.sort`` over its
    segments and one flat batched ``searchsorted`` over every
    (query, segment) pair, so the work per query is O(log m) regardless
    of the window length -- this is what keeps huge reuse windows (long
    streaming phases, fully-associative levels) from degenerating.
    """
    m = w.size
    sentinel = np.int64(2 * m + 3)
    stride = sentinel + 2
    padded = -(-m // _CHUNK) * _CHUNK
    work = np.full(padded, sentinel, dtype=np.int64)
    work[:m] = w
    counts = _row_counts(
        work.reshape(-1, _CHUNK), gi >> 5, wq, np.full(gi.size, -1), gi & 31
    )

    chunks = gi >> 5  # whole 32-chunks in each query's prefix
    max_chunks = int(chunks.max())
    k = 0
    while (max_chunks >> (3 * k)) > 0:
        checkpoint()
        level_units = chunks >> (3 * k)
        digit = level_units & 7
        seg_len = _CHUNK << (3 * k)
        padded = -(-m // seg_len) * seg_len
        work = np.full(padded, sentinel, dtype=np.int64)
        work[:m] = w
        level_sorted = np.sort(work.reshape(-1, seg_len), axis=1)
        del work
        nseg = level_sorted.shape[0]
        flat = (
            level_sorted
            + (np.arange(nseg, dtype=np.int64) * stride)[:, None]
        ).ravel()
        del level_sorted
        qsel = np.flatnonzero(digit > 0)
        for start in range(0, qsel.size, _QUERY_BATCH):
            q = qsel[start:start + _QUERY_BATCH]
            d = digit[q]
            first_seg = (level_units[q] >> 3) << 3
            ends = np.cumsum(d)
            starts = ends - d
            qq = np.repeat(q, d)
            sidx = first_seg.repeat(d) + (
                np.arange(int(ends[-1]), dtype=np.int64) - starts.repeat(d)
            )
            found = np.searchsorted(flat, sidx * stride + wq[qq], "right")
            found -= sidx * seg_len
            counts[q] += np.add.reduceat(found, starts)
        k += 1
    return counts


class MissClassification(NamedTuple):
    """Which accesses of one LRU level miss, in per-set grouped order.

    Stage 1 groups the stream per cache set (program order inside a
    set); stage 2 collapses each run of the same line inside a set to
    its first access, the *run head* -- every collapsed access hits.
    """

    #: Grouped position -> program position (``None``: one set, identity).
    times: Optional[np.ndarray]
    #: Grouped position of every run head.
    kept_idx: np.ndarray
    #: Line of every run head.
    kept_lines: np.ndarray
    #: Run heads sorted by ``(line, time)``.
    line_order: np.ndarray
    #: Per run head: the access misses.
    missed: np.ndarray
    #: First-ever touches of a line (the cold part of ``missed``).
    cold: int

    @property
    def capacity_conflict(self) -> int:
        """Misses of lines touched before."""
        return int(np.count_nonzero(self.missed)) - self.cold


def classify_misses(
    lines: np.ndarray,
    config: CacheLevelConfig,
    checkpoint: Callable[[], None] = _no_checkpoint,
) -> MissClassification:
    """Stages 1-6 of the cascade over one level stream.

    ``lines`` is a contiguous int32 or int64 array (:func:`level_lines`),
    and ``kept_lines`` keeps its dtype; ``checkpoint`` runs at the
    cascade's cooperative interruption points (stage boundaries and
    every few counting rounds).  Index arrays are int32 whenever the
    stream fits, and every transient is released as soon as the next
    stage has what it needs: this is the peak memory of both the model
    and the simulator.
    """
    n = lines.size
    index = _index_dtype(n)
    if n == 0:
        none = np.empty(0, dtype=index)
        return MissClassification(
            None, none, lines, none, np.empty(0, dtype=bool), 0
        )
    num_sets = config.num_sets
    assoc = config.associativity

    # Stage 1: group the stream per cache set (program order kept).
    new_block = np.zeros(n, dtype=bool)
    new_block[0] = True
    if num_sets > 1:
        bits = int(n - 1).bit_length() if n > 1 else 1
        key = _sorted_packed_keys(lines % num_sets, num_sets - 1, bits)
        times = (key & ((1 << bits) - 1)).astype(index, copy=False)
        key >>= bits  # the set of every grouped access
        np.not_equal(key[1:], key[:-1], out=new_block[1:])
        del key
        grouped = lines[times]
    else:
        times = None
        grouped = lines

    # Stage 2: collapse runs of the same line inside a set (distance 0).
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=keep[1:])
    keep |= new_block
    kept_idx = np.flatnonzero(keep).astype(index, copy=False)
    del keep
    kept_lines = grouped[kept_idx]
    del grouped
    kept_new_block = new_block[kept_idx]
    del new_block
    m = kept_idx.size
    block_start = np.flatnonzero(kept_new_block).astype(index, copy=False)[
        np.cumsum(kept_new_block, dtype=index) - 1
    ]
    del kept_new_block
    pos = np.arange(m, dtype=index) - block_start

    # Stage 3: previous occurrence (a line's set never changes, so the
    # previous occurrence always lies in the same block).
    checkpoint()
    prev_idx, line_order = _prev_occurrence(kept_lines)
    cold_mask = prev_idx < 0
    cold = int(np.count_nonzero(cold_mask))
    prev_pos = np.where(cold_mask, index(-1), pos[prev_idx])

    # Conflict-free shortcut: if every set's distinct-line population fits
    # its ways, no reuse distance can reach the associativity.
    distinct_per_set = np.bincount(
        kept_lines[cold_mask] % num_sets, minlength=1
    )
    if int(distinct_per_set.max()) <= assoc:
        return MissClassification(
            times, kept_idx, kept_lines, line_order, cold_mask, cold
        )

    # Stage 4: short windows are guaranteed hits.
    undecided = np.flatnonzero((~cold_mask) & (pos - prev_pos > assoc))
    del pos

    # Stage 5: enough cold accesses inside the window confirm a miss
    # (every cold access is first-in-window wherever it appears).
    cum_cold = np.cumsum(cold_mask, dtype=index)
    und_gp = prev_idx[undecided]
    confirmed = cum_cold[undecided - 1] - cum_cold[und_gp] >= assoc
    del cum_cold, und_gp
    hard = undecided[~confirmed]

    missed = cold_mask
    missed[undecided[confirmed]] = True
    del undecided, confirmed
    if hard.size:
        # Stage 6: count first-in-window elements of the hard windows.
        checkpoint()
        hard_gp = prev_idx[hard]
        hard_p = prev_pos[hard]
        counts = np.zeros(hard.size, dtype=np.int64)
        # Route very wide windows straight to prefix counting; scan the
        # rest chunk-by-chunk (with early termination), escalating
        # whatever survives the round limit.
        interior = (hard >> 5) - (hard_gp >> 5) - 1
        narrow = np.flatnonzero(interior <= _PREFIX_DIRECT)
        to_prefix = np.flatnonzero(interior > _PREFIX_DIRECT)
        del interior
        if narrow.size:
            narrow_counts, pending = _count_hard_queries(
                prev_pos, hard[narrow], hard_gp[narrow], hard_p[narrow],
                assoc, checkpoint,
            )
            counts[narrow] = narrow_counts
            if pending.size:
                to_prefix = np.concatenate((to_prefix, narrow[pending]))
        if to_prefix.size:
            # Count over the whole prefix instead.  With
            # w(j) = block_start(j) + prev_pos(j) + 1 every in-block
            # element before the window start qualifies trivially and
            # cross-block elements contribute exactly block_start(i),
            # so distance(i) = #{j < i : w(j) <= w(i)} - w(i).
            w = block_start + prev_pos + 1
            wq = block_start[hard[to_prefix]] + hard_p[to_prefix] + 1
            counts[to_prefix] = (
                _prefix_count(w, hard[to_prefix], wq, checkpoint=checkpoint)
                - wq
            )
        missed[hard[counts >= assoc]] = True
    return MissClassification(
        times, kept_idx, kept_lines, line_order, missed, cold
    )


def classify_level(
    lines: np.ndarray,
    config: CacheLevelConfig,
    deadline: Optional[Deadline] = None,
) -> MissClassification:
    """:func:`classify_misses` at the CM's interruption points.

    The cascade checkpoints ``deadline`` (and the ``cm.chunk`` fault
    site) at its stage boundaries and inside the chunked counting
    rounds.
    """

    def checkpoint() -> None:
        faults.fire("cm.chunk")
        _check_deadline(deadline, "cm.chunk")

    return classify_misses(lines, config, checkpoint)


def model_level(
    lines: np.ndarray,
    writes: np.ndarray,
    config: CacheLevelConfig,
    deadline: Optional[Deadline] = None,
    stages: Optional[MissClassification] = None,
) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """One write-through level, vectorized.

    Returns ``(cold, capacity_conflict, next_lines, next_writes)`` with the
    identical counters and identically ordered next-level stream as the
    reference loop in :mod:`repro.cache.static_model`; ``next_lines``
    keeps the dtype :func:`level_lines` gives ``lines``.  ``stages`` is
    the level's classification when the caller already holds it;
    otherwise the level is classified here through :func:`classify_level`.
    """
    lines = level_lines(lines)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n = lines.size
    if n == 0:
        return 0, 0, lines, writes
    if stages is None:
        stages = classify_level(lines, config, deadline)
    cold = stages.cold
    cap_conflict = stages.capacity_conflict

    # Scatter misses back to program order (collapsed accesses never miss).
    missed = np.zeros(n, dtype=bool)
    heads = stages.kept_idx[stages.missed]
    missed[heads if stages.times is None else stages.times[heads]] = True
    del stages, heads

    # Write-through next-level stream, built from the accesses that emit:
    # each repeats its line once or twice, the fetch (a read) of a miss
    # and then the forwarded write of a store, in program order.
    at = np.flatnonzero(missed | writes)
    fetch = missed[at]
    emits = fetch.view(np.int8) + writes[at]
    next_lines = np.repeat(lines[at], emits)
    next_writes = np.ones(next_lines.size, dtype=bool)
    first = np.cumsum(emits, dtype=_index_dtype(next_lines.size))
    first -= emits
    next_writes[first[fetch]] = False
    return cold, cap_conflict, next_lines, next_writes
