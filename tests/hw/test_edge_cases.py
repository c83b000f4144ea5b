"""Edge-case coverage for the simulated hw drivers.

Regression net for the boundary conditions of the paper's baselines --
the reactive UFS-like driver, DUF and fixed caps: zero-duration kernels,
caps pinned exactly at the uncore bounds, kernels shorter than one
control interval, and ``max_intervals`` truncation turning into a
structured warning rather than an exception.
"""

import pytest

from repro.hw import (
    GovernorConfig,
    KernelWorkload,
    execute_fixed,
    get_platform,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.duf import DufConfig, run_duf_sequence
from tests.hw.test_execution import bb_workload, cb_workload


@pytest.fixture(scope="module")
def platform():
    return get_platform("rpl")


def empty_workload(name="empty"):
    return KernelWorkload(name, 0, (0, 0, 0), 0, 0, 0)


def tiny_workload(name="tiny"):
    """Far shorter than any control interval."""
    return KernelWorkload(name, 10_000, (500, 20, 5), 640, 0, 10)


class TestZeroDurationKernels:
    def test_execute_fixed(self, platform):
        run = execute_fixed(platform, empty_workload(), 2.0, noisy=False)
        assert run.time_s == 0.0
        assert run.energy_j == 0.0

    def test_reactive_does_not_hang(self, platform):
        result = run_governed_sequence(
            platform, [empty_workload(), cb_workload()]
        )
        assert len(result.runs) == 2
        assert result.runs[0].time_s == 0.0
        assert not result.truncated

    def test_duf_does_not_hang(self, platform):
        result = run_duf_sequence(
            platform, [empty_workload(), cb_workload()]
        )
        assert len(result.runs) == 2
        assert not result.truncated


class TestCapsAtBounds:
    def test_cap_exactly_f_min(self, platform):
        f_min = platform.uncore.f_min_ghz
        result = run_capped_sequence(
            platform, [(bb_workload(), f_min)], noisy=False
        )
        assert result.runs[0].f_uncore_ghz == f_min

    def test_cap_exactly_f_max(self, platform):
        f_max = platform.uncore.f_max_ghz
        result = run_capped_sequence(
            platform, [(bb_workload(), f_max)], noisy=False
        )
        assert result.runs[0].f_uncore_ghz == f_max

    def test_reactive_never_leaves_grid_bounds(self, platform):
        result = run_governed_sequence(
            platform,
            [bb_workload(), cb_workload()] * 20,
            GovernorConfig(up_step_ghz=5.0, down_step_ghz=5.0),
        )
        for run in result.runs:
            assert (
                platform.uncore.f_min_ghz
                <= run.f_uncore_ghz
                <= platform.uncore.f_max_ghz
            )


class TestSingleIntervalKernels:
    def test_reactive_holds_frequency_within_interval(self, platform):
        """A kernel that fits in one control interval never sees a step."""
        config = GovernorConfig()
        single = execute_fixed(platform, tiny_workload(), 3.9, noisy=False)
        assert single.time_s < config.interval_s
        result = run_governed_sequence(platform, [tiny_workload()], config)
        start = platform.uncore.clamp(
            config.start_fraction * platform.uncore.f_max_ghz
        )
        assert result.runs[0].f_uncore_ghz == pytest.approx(start)


class TestTruncationWarnings:
    def test_governed_truncates_with_warning(self, platform):
        config = GovernorConfig(max_intervals=3)
        result = run_governed_sequence(
            platform, [bb_workload()] * 50, config
        )
        assert result.truncated
        assert len(result.warnings) == 1
        assert result.warnings[0].startswith("max_intervals=3")
        assert "'bb'" in result.warnings[0]
        assert "truncated" in result.warnings[0]
        assert len(result.runs) < 50

    def test_duf_truncates_with_warning(self, platform):
        config = DufConfig(max_intervals=3)
        result = run_duf_sequence(platform, [bb_workload()] * 50, config)
        assert result.truncated
        assert result.warnings[0].startswith("max_intervals=3")
        assert len(result.runs) < 50

    def test_untruncated_runs_have_no_warnings(self, platform):
        result = run_governed_sequence(platform, [bb_workload()] * 3)
        assert result.warnings == []
        assert not result.truncated
