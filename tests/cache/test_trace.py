"""Unit tests for trace generation."""

import random
import time
import tracemalloc

import numpy as np
import pytest

from repro.benchsuite.ml_kernels import _conv2d, _lm_head, _sdpa
from repro.benchsuite.registry import get_benchmark, list_benchmarks
from repro.cache import generate_trace, reference_generate_trace
from repro.cache import trace as trace_module
from repro.cache.trace import TRACE_BATCH, TraceBudgetExceeded
from repro.ir import F32, F64, IRError, Module, lower_linalg_to_affine
from repro.ir.builder import AffineBuilder
from repro.ir.dialects.linalg import FillOp, MatmulOp
from repro.isllite import LinExpr
from repro.pipeline import _lower_to_affine
from repro.poly.transforms import tile_and_parallelize
from repro.runtime import Deadline, DeadlineExceeded


def stream_module(n=16):
    module = Module("stream")
    a = module.add_buffer("A", (n,), F32)
    b = module.add_buffer("B", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.store(builder.load(a, ["i"]), b, ["i"])
    return module


def test_stream_trace_order_and_flags():
    trace = generate_trace(stream_module(4))
    assert len(trace) == 8
    names = [trace.buffers[i].name for i in trace.buffer_ids]
    assert names == ["A", "B"] * 4
    assert trace.is_write.tolist() == [False, True] * 4
    assert trace.offsets.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


def test_line_ids_buffer_separation():
    trace = generate_trace(stream_module(16))
    lines = trace.line_ids(64)
    a_lines = {l for l, i in zip(lines, trace.buffer_ids) if i == 0}
    b_lines = {l for l, i in zip(lines, trace.buffer_ids) if i == 1}
    assert a_lines.isdisjoint(b_lines)
    assert len(a_lines) == 1  # 16 f32 = 64 bytes = one line


def test_matmul_trace_length():
    module = Module("mm")
    n = 6
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n, n), F32)
    c = module.add_buffer("C", (n, n), F32)
    module.append(FillOp(c, 0.0))
    module.append(MatmulOp(a, b, c))
    affine = lower_linalg_to_affine(module)
    trace = generate_trace(affine)
    assert len(trace) == n * n + 4 * n**3  # fill stores + 4 accesses/iter


def test_trace_subset_of_ops():
    module = Module("mm")
    n = 6
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n, n), F32)
    c = module.add_buffer("C", (n, n), F32)
    module.append(FillOp(c, 0.0))
    module.append(MatmulOp(a, b, c))
    affine = lower_linalg_to_affine(module)
    trace = generate_trace(affine, ops=[affine.ops[0]])
    assert len(trace) == n * n


def test_imperfect_nest_matches_interpreter_order():
    """A scalar before the inner loop lands ahead of each inner run."""
    module = Module("imperfect")
    x = module.add_buffer("x", (3, 4), F32)
    out = module.add_buffer("out", (3,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 3):
        builder.store(builder.const(0.0), out, ["i"])
        with builder.loop("j", 0, 4):
            val = builder.add(
                builder.load(out, ["i"]), builder.load(x, ["i", "j"])
            )
            builder.store(val, out, ["i"])
    trace = generate_trace(module)
    # per i: out store, then 4x (out load, x load, out store)
    assert len(trace) == 3 * (1 + 4 * 3)
    first_block = [
        (trace.buffers[b].name, bool(w))
        for b, w in zip(trace.buffer_ids[:4], trace.is_write[:4])
    ]
    assert first_block == [
        ("out", True), ("out", False), ("x", False), ("out", True)
    ]


def test_strided_subscripts():
    module = Module("strided")
    a = module.add_buffer("A", (64,), F64)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 8):
        builder.store(
            builder.const(0.0), a, [LinExpr.var("i") * 8 + 3]
        )
    trace = generate_trace(module)
    assert trace.offsets.tolist() == [3, 11, 19, 27, 35, 43, 51, 59]


def test_composite_bounds_traced():
    module = Module("tiles")
    a = module.add_buffer("A", (20,), F32)
    builder = AffineBuilder(module)
    with builder.loop("t", 0, 3):
        with builder.loop(
            "i",
            [LinExpr.var("t") * 8],
            [20, LinExpr.var("t") * 8 + 8],
        ):
            builder.store(builder.const(0.0), a, ["i"])
    trace = generate_trace(module)
    assert trace.offsets.tolist() == list(range(20))


def test_budget_enforced():
    with pytest.raises(TraceBudgetExceeded):
        generate_trace(stream_module(64), max_accesses=10)


def test_budget_spent_only_by_instances_that_enter_a_loop():
    """Only ``i = 0`` enters ``j``: the 99 instances that skip it must not
    spend the budget on ``j``'s 1,000-access body."""
    module = Module("entered")
    a = module.add_buffer("A", (1000,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, 100):
        with builder.loop("j", "i", 1):
            with builder.loop("k", 0, 1000):
                builder.load(a, ["k"])
    full = reference_generate_trace(module)
    assert len(full) == 1000
    assert_same_trace(generate_trace(module, max_accesses=1000), full)
    with pytest.raises(TraceBudgetExceeded):
        generate_trace(module, max_accesses=999)


def test_empty_loop():
    module = Module("empty")
    a = module.add_buffer("A", (4,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 3, 3):
        builder.store(builder.const(0.0), a, ["i"])
    trace = generate_trace(module)
    assert len(trace) == 0


def test_linalg_op_rejected():
    module = Module("lin")
    c = module.add_buffer("C", (4, 4), F32)
    module.append(FillOp(c, 0.0))
    with pytest.raises(IRError):
        generate_trace(module)


def test_scalar_and_rect_chunks_interleave_in_program_order():
    """Per outer iteration: the body's scalar, then its inner loop's run."""
    module = Module("mixed")
    n = 3
    a = module.add_buffer("A", (n,), F32)
    c = module.add_buffer("C", (n, n), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.store(builder.const(1.0), a, ["i"])  # scalar path
        with builder.loop("j", 0, n):  # rectangular under fixed i
            builder.store(builder.const(0.0), c, ["i", "j"])
    trace = generate_trace(module)
    names = [trace.buffers[b].name for b in trace.buffer_ids]
    assert names == (["A"] + ["C"] * n) * n
    assert trace.offsets.tolist() == [
        off
        for i in range(n)
        for off in [i] + [i * n + j for j in range(n)]
    ]


# -- bit-for-bit against the per-iteration reference walker ----------------


def assert_same_trace(actual, expected):
    assert [b.name for b in actual.buffers] == [
        b.name for b in expected.buffers
    ]
    assert actual.buffer_ids.dtype == np.int32
    assert actual.offsets.dtype == np.int64
    assert actual.is_write.dtype == bool
    np.testing.assert_array_equal(actual.buffer_ids, expected.buffer_ids)
    np.testing.assert_array_equal(actual.offsets, expected.offsets)
    np.testing.assert_array_equal(actual.is_write, expected.is_write)


def assert_prefix_of(prefix, full):
    """``prefix`` is exactly the first ``len(prefix)`` accesses of ``full``."""
    count = len(prefix)
    assert [prefix.buffers[b].name for b in prefix.buffer_ids] == [
        full.buffers[b].name for b in full.buffer_ids[:count]
    ]
    np.testing.assert_array_equal(prefix.offsets, full.offsets[:count])
    np.testing.assert_array_equal(prefix.is_write, full.is_write[:count])


#: The ML kernels have fixed shapes; these are the same ops at toy sizes.
SMALL_ML = {
    "conv2d_alexnet": lambda: _conv2d("conv2d_alexnet", 1, 2, 9, 3, 3, 2),
    "conv2d_convnext": lambda: _conv2d("conv2d_convnext", 1, 3, 6, 4, 2, 2),
    "conv2d_wideresnet": lambda: _conv2d(
        "conv2d_wideresnet", 2, 3, 3, 4, 1, 1
    ),
    "sdpa_bert": lambda: _sdpa("sdpa_bert", 1, 2, 5, 4),
    "sdpa_gemma2": lambda: _sdpa("sdpa_gemma2", 1, 2, 3, 6),
    "matmul_gpt2": lambda: _lm_head("matmul_gpt2", 2, 5, 9),
    "matmul_llama2": lambda: _lm_head("matmul_llama2", 3, 4, 7),
}


def small_registry_module(name):
    spec = get_benchmark(name)
    if spec.category == "ml":
        return SMALL_ML[name]()
    return spec.module({
        size: 3 if size in ("tsteps", "tmax") else 11
        for size in spec.size_names
    })


@pytest.mark.parametrize("tile_size", [None, 4], ids=["untiled", "tiled4"])
@pytest.mark.parametrize("name", list_benchmarks())
def test_registry_kernel_matches_reference(name, tile_size):
    """Every registry kernel, tiled (partial edge tiles) and untiled."""
    module = _lower_to_affine(small_registry_module(name))
    if tile_size is not None:
        module, _ = tile_and_parallelize(module, tile_size=tile_size)
    assert_same_trace(generate_trace(module), reference_generate_trace(module))


def _random_index(rng, ivs):
    expr = LinExpr.cst(rng.randint(0, 2))
    for iv in rng.sample(ivs, rng.randint(1, len(ivs))):
        expr = expr + LinExpr.var(iv) * rng.choice([1, 1, 2, 3])
    return expr


def _random_bounds(rng, ivs):
    """Composite ``max``/``min`` bounds, often triangular in an outer iv."""
    lowers = [LinExpr.cst(rng.randint(0, 2))]
    uppers = [LinExpr.cst(rng.randint(4, 9))]
    for _ in range(rng.randint(0, 2) if ivs else 0):
        anchor = LinExpr.var(rng.choice(ivs))
        if rng.random() < 0.5:
            lowers.append(anchor + rng.randint(-1, 2))
        else:  # empty for the first outer iterations when the offset <= 0
            uppers.append(anchor + rng.randint(-1, 3))
    return lowers, uppers


def random_imperfect_module(seed):
    """Seeded imperfect nest: scalars before and after inner loops,
    triangular and composite bounds, steps of 1 and 2."""
    rng = random.Random(seed)
    module = Module(f"imperfect{seed}")
    buffers = [module.add_buffer(name, (40, 40), F32) for name in "ABC"]
    builder = AffineBuilder(module)
    names = iter(f"i{k}" for k in range(100))

    def body(ivs, depth):
        for _ in range(rng.randint(1, 3)):
            if depth < 3 and rng.random() < 0.45:
                iv = next(names)
                lowers, uppers = _random_bounds(rng, ivs)
                with builder.loop(iv, lowers, uppers, step=rng.choice([1, 2])):
                    body(ivs + [iv], depth + 1)
            else:
                buffer = rng.choice(buffers)
                index = [_random_index(rng, ivs), _random_index(rng, ivs)]
                if rng.random() < 0.4:
                    builder.store(builder.const(1.0), buffer, index)
                else:
                    builder.load(buffer, index)

    for _ in range(rng.randint(1, 2)):
        iv = next(names)
        with builder.loop(iv, 0, rng.randint(3, 9)):
            body([iv], 1)
    return module


@pytest.mark.parametrize("batch", [TRACE_BATCH, 5], ids=["batch", "batch5"])
@pytest.mark.parametrize("seed", range(40))
def test_random_imperfect_nest_matches_reference(seed, batch, monkeypatch):
    """A batch of 5 also walks oversized iterations item by item and
    fills prefixes that straddle the truncation point."""
    monkeypatch.setattr(trace_module, "TRACE_BATCH", batch)
    module = random_imperfect_module(seed)
    full = reference_generate_trace(module)
    assert_same_trace(generate_trace(module), full)
    for budget in {1, len(full) // 3, len(full) // 2 + 1, len(full) + 3}:
        assert_same_trace(
            generate_trace(module, max_accesses=budget, truncate=True),
            reference_generate_trace(
                module, max_accesses=budget, truncate=True
            ),
        )


def symm_shaped_module(n=4):
    """``k < i`` makes the first statement empty at ``i = 0``."""
    module = Module("symm_shaped")
    a = module.add_buffer("A", (n, n), F32)
    b = module.add_buffer("B", (n,), F32)
    c = module.add_buffer("C", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        with builder.loop("k", 0, "i"):
            builder.store(builder.load(c, ["k"]), c, ["k"])
        builder.load(b, ["i"])
        builder.load(a, ["i", "i"])
        builder.store(builder.const(0.0), c, ["i"])
    return module


def test_buffers_register_in_first_access_order():
    """Buffer order (and so the line layout) follows the trace, not the IR:
    the trace starts with ``B`` because ``C``'s loop is empty at i = 0."""
    module = symm_shaped_module()
    trace = generate_trace(module)
    assert [b.name for b in trace.buffers] == ["B", "A", "C"]
    assert_same_trace(trace, reference_generate_trace(module))
    prefix = generate_trace(module, max_accesses=2, truncate=True)
    assert [b.name for b in prefix.buffers] == ["B", "A"]
    assert prefix.buffer_ids.tolist() == [0, 1]


def triangular_module(n=7):
    module = Module("triangular")
    x = module.add_buffer("x", (n, n), F32)
    y = module.add_buffer("y", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, LinExpr.var("i") + 1):
            builder.store(builder.load(x, ["i", "j"]), y, ["j"])
    return module


def imperfect_module(n=5):
    module = Module("imperfect")
    x = module.add_buffer("x", (n, n), F32)
    out = module.add_buffer("out", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.store(builder.const(0.0), out, ["i"])
        with builder.loop("j", 0, n):
            builder.store(builder.load(x, ["i", "j"]), out, ["i"])
        builder.load(out, ["i"])
    return module


def sparse_module(n=12):
    """Most ``(i, j)`` iterations hold no access: ``k`` runs from ``j`` to
    1, so the trace has ``2n - 1`` accesses for ~n^2/2 iterations."""
    module = Module("sparse")
    x = module.add_buffer("x", (n,), F32)
    y = module.add_buffer("y", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.load(x, ["i"])
        with builder.loop("j", 0, "i"):
            with builder.loop("k", "j", 1):
                builder.store(builder.const(0.0), y, ["k"])
    return module


@pytest.mark.parametrize("batch", [TRACE_BATCH, 4], ids=["batch", "batch4"])
@pytest.mark.parametrize(
    "build", [imperfect_module, triangular_module, sparse_module]
)
def test_truncated_prefix_lands_mid_iteration(build, batch, monkeypatch):
    """Every budget, including ones that cut an iteration's body short.
    A batch of 4 splits the count and the fill of the sparse nest's ``j``
    into runs of ``i`` instances and windows of one instance's
    iterations."""
    monkeypatch.setattr(trace_module, "TRACE_BATCH", batch)
    module = build()
    full = generate_trace(module)
    for budget in range(len(full) + 2):
        prefix = generate_trace(module, max_accesses=budget, truncate=True)
        assert len(prefix) == min(budget, len(full))
        assert_prefix_of(prefix, full)
        assert_same_trace(
            prefix,
            reference_generate_trace(
                module, max_accesses=budget, truncate=True
            ),
        )


def test_reference_enforces_the_budget():
    with pytest.raises(TraceBudgetExceeded):
        reference_generate_trace(imperfect_module(), max_accesses=10)


def huge_imperfect_module(n=100_000):
    module = Module("huge_imperfect")
    x = module.add_buffer("x", (n,), F32)
    out = module.add_buffer("out", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.store(builder.const(0.0), out, ["i"])
        with builder.loop("j", 0, n):
            builder.load(x, ["j"])
    return module


def huge_stream_module(n=10**10):
    module = Module("huge_stream")
    x = module.add_buffer("x", (n,), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        builder.load(x, ["i"])
    return module


def cholesky_shaped_module(n=100_000):
    """``i { j < i { k < j } }``: no loop but ``i`` has a uniform trip
    count, so counting has to evaluate ``(i, j)`` instances."""
    module = Module("cholesky_shaped")
    a = module.add_buffer("A", (n, n), F32)
    builder = AffineBuilder(module)
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, "i"):
            with builder.loop("k", 0, "j"):
                builder.load(a, ["i", "k"])
                builder.load(a, ["j", "k"])
            builder.store(builder.load(a, ["i", "j"]), a, ["i", "j"])
        builder.store(builder.load(a, ["i", "i"]), a, ["i", "i"])
    return module


def _timed_peak(call):
    """``(result, seconds, tracemalloc peak bytes)`` of ``call()``."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = call()
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def _rejects(module):
    with pytest.raises(TraceBudgetExceeded):
        generate_trace(module)


@pytest.mark.parametrize(
    "build", [huge_imperfect_module, huge_stream_module, cholesky_shaped_module]
)
def test_huge_nest_rejected_before_generation(build):
    """~10^10 to ~10^14 accesses are counted, not generated, and the count
    stops at the budget: the error comes back fast and without a
    trace-sized allocation, also for the ~5 * 10^9 ``(i, j)`` instances of
    the cholesky-shaped nest."""
    module = build()
    _, elapsed, peak = _timed_peak(lambda: _rejects(module))
    assert elapsed < 1.0
    assert peak < 8 * 2**20


def test_huge_nest_truncates_without_counting_it_all():
    """The approximate rung's budget: the prefix comes back as fast and as
    small as the refusal, and is the reference walker's prefix."""
    module = cholesky_shaped_module()
    prefix, elapsed, peak = _timed_peak(
        lambda: generate_trace(module, max_accesses=100_000, truncate=True)
    )
    assert elapsed < 1.0
    assert peak < 8 * 2**20
    assert len(prefix) == 100_000
    assert_same_trace(
        prefix,
        reference_generate_trace(module, max_accesses=100_000, truncate=True),
    )


def test_iterations_without_accesses_stay_bounded():
    """~2 * 10^6 ``(i, j)`` iterations for ~4,000 accesses: no step
    evaluates more than a batch of them."""
    trace, _, peak = _timed_peak(lambda: generate_trace(sparse_module(2000)))
    assert len(trace) == 2 * 2000 - 1
    assert peak < 8 * 2**20


class _ExpiresAfterFirstPoll(Deadline):
    """A deadline whose ``expired()`` turns true after its first call."""

    def __init__(self):
        super().__init__(3600.0)
        self.polls = 0

    def expired(self) -> bool:
        self.polls += 1
        return self.polls > 1

    def check(self, site: str = "") -> None:
        if self.polls > 1:
            raise DeadlineExceeded("expired", site=site)


def test_deadline_interrupts_after_one_batch():
    module = imperfect_module(n=600)
    full = generate_trace(module)
    assert len(full) > 2 * TRACE_BATCH
    deadline = _ExpiresAfterFirstPoll()
    with pytest.raises(DeadlineExceeded) as raised:
        generate_trace(module, deadline=deadline)
    assert raised.value.site == "cm.trace"
    assert deadline.polls == 2  # one batch filled, expiry seen at the next
    prefix = generate_trace(
        module, truncate=True, deadline=_ExpiresAfterFirstPoll()
    )
    assert 0 < len(prefix) <= TRACE_BATCH
    assert_prefix_of(prefix, full)


def test_deadline_interrupts_the_count():
    """Counting checks the deadline too, one bounded step at a time: with
    a budget too large to stop it, counting ~3 * 10^14 accesses still
    ends at the deadline, and fast."""
    deadline = _ExpiresAfterFirstPoll()
    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded) as raised:
        generate_trace(
            cholesky_shaped_module(), max_accesses=10**15, deadline=deadline
        )
    assert time.perf_counter() - started < 1.0
    assert raised.value.site == "cm.trace"
    assert deadline.polls == 2
    prefix = generate_trace(
        cholesky_shaped_module(), max_accesses=10**15, truncate=True,
        deadline=_ExpiresAfterFirstPoll(),
    )
    assert len(prefix) == 0
