"""repro.experiments.runner: report caching, comparisons, sweeps."""

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    baseline_comparison,
    frequency_sweep,
    kernel_report,
)

KERNEL = "atax"  # small enough to compile from scratch in a test


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


@pytest.fixture()
def compile_counter(monkeypatch):
    """Count how often the expensive compile stage actually runs."""
    from repro.service import executor

    calls = []
    real = executor.polyufc_compile

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "polyufc_compile", counting)
    return calls


def test_kernel_report_disk_cache_hit_and_miss(cache_dir, compile_counter):
    first = kernel_report(KERNEL, "rpl")
    assert len(compile_counter) == 1  # miss: compiled
    assert list((cache_dir / "store" / "reports").glob("*.json"))

    second = kernel_report(KERNEL, "rpl")
    assert len(compile_counter) == 1  # hit: served from disk
    assert second.benchmark == first.benchmark
    assert [u.name for u in second.units] == [u.name for u in first.units]
    assert [u.cap_ghz for u in second.units] == [
        u.cap_ghz for u in first.units
    ]
    assert second.oi_model == first.oi_model
    assert second.boundedness == first.boundedness


def test_kernel_report_no_cache_env_disables_persistence(
    tmp_path, monkeypatch, compile_counter
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    kernel_report(KERNEL, "rpl")
    assert not list(tmp_path.rglob("*.json"))  # nothing persisted at all
    kernel_report(KERNEL, "rpl")
    assert len(compile_counter) == 2


def test_kernel_report_shape(cache_dir):
    report = kernel_report(KERNEL, "rpl")
    assert report.benchmark == KERNEL
    assert "raptorlake" in report.platform
    assert report.units
    assert report.fully_exact
    assert report.boundedness in ("CB", "BB")
    assert report.total_flops > 0
    for unit in report.units:
        assert unit.cap_ghz > 0
        assert len(unit.level_accesses_hw) == len(unit.model_level_bytes)


def test_baseline_comparison_reports_positive_gains(cache_dir):
    comparison = baseline_comparison(KERNEL, "rpl")
    assert comparison.benchmark == KERNEL
    assert comparison.baseline.time_s > 0
    assert comparison.capped.time_s > 0
    assert comparison.speedup > 0
    assert comparison.energy_gain > 0
    assert comparison.edp_gain == pytest.approx(
        comparison.speedup * comparison.energy_gain
    )


def test_frequency_sweep_is_deterministic(cache_dir):
    first = frequency_sweep(KERNEL, "rpl")
    second = frequency_sweep(KERNEL, "rpl")
    assert first == second
    assert len(first) > 1
    frequencies = [row[0] for row in first]
    assert frequencies == sorted(frequencies)
    for _f, time_s, energy_j, edp in first:
        assert time_s > 0 and energy_j > 0
        assert edp == pytest.approx(time_s * energy_j)
