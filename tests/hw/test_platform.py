"""Tests for platform specs and their derived laws."""

import pytest

from repro.hw import broadwell_sim, get_platform, raptorlake_sim
from repro.hw.platform import UncoreSpec


class TestUncoreSpec:
    def test_frequencies_grid(self):
        spec = UncoreSpec(1.0, 2.0)
        freqs = spec.frequencies()
        assert freqs[0] == 1.0
        assert freqs[-1] == 2.0
        assert len(freqs) == 11
        assert all(
            round(b - a, 3) == 0.1 for a, b in zip(freqs, freqs[1:])
        )

    def test_clamp_snaps_to_grid(self):
        spec = UncoreSpec(0.8, 4.6)
        assert spec.clamp(3.14) == 3.1
        assert spec.clamp(0.1) == 0.8
        assert spec.clamp(9.9) == 4.6

    def test_rpl_has_39_settings(self):
        assert len(raptorlake_sim().uncore.frequencies()) == 39


class TestPlatformLaws:
    def test_registry(self):
        assert get_platform("bdw").name == "broadwell_sim"
        assert get_platform("RPL").name == "raptorlake_sim"
        with pytest.raises(KeyError):
            get_platform("skylake")

    def test_bandwidth_monotone_and_saturating(self):
        platform = raptorlake_sim()
        bws = [
            platform.dram_bandwidth(f)
            for f in platform.uncore.frequencies()
        ]
        assert all(b <= a for a, b in zip(bws[1:], bws[1:]))  # trivially true
        assert all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))
        assert bws[-1] == platform.dram_bw_max
        assert bws[0] < platform.dram_bw_max

    def test_saturation_freq_within_range(self):
        for platform in (broadwell_sim(), raptorlake_sim()):
            f_sat = platform.bandwidth_saturation_freq()
            assert platform.uncore.f_min_ghz <= f_sat <= (
                platform.uncore.f_max_ghz
            )

    def test_latency_decreases_with_f(self):
        platform = broadwell_sim()
        assert platform.dram_latency_s(1.2) > platform.dram_latency_s(2.8)

    def test_uncore_power_scales(self):
        platform = raptorlake_sim()
        idle_low = platform.uncore_power_w(0.8, 0.0)
        idle_high = platform.uncore_power_w(4.6, 0.0)
        busy_high = platform.uncore_power_w(4.6, 1.0)
        assert idle_low < idle_high < busy_high

    def test_uncore_power_activity_clamped(self):
        platform = raptorlake_sim()
        assert platform.uncore_power_w(3.0, 2.0) == (
            platform.uncore_power_w(3.0, 1.0)
        )
        assert platform.uncore_power_w(3.0, -1.0) == (
            platform.uncore_power_w(3.0, 0.0)
        )

    def test_machine_balance_ordering(self):
        # BDW is the more bandwidth-starved platform (paper: kernels shift
        # from BB on BDW to CB on RPL)
        assert (
            broadwell_sim().machine_balance_fpb()
            > raptorlake_sim().machine_balance_fpb()
        )

    def test_paper_frequency_ranges(self):
        bdw, rpl = broadwell_sim(), raptorlake_sim()
        assert (bdw.uncore.f_min_ghz, bdw.uncore.f_max_ghz) == (1.2, 2.8)
        assert (rpl.uncore.f_min_ghz, rpl.uncore.f_max_ghz) == (0.8, 4.6)

    def test_paper_cap_overheads(self):
        assert broadwell_sim().cap_overhead_s == pytest.approx(35e-6)
        assert raptorlake_sim().cap_overhead_s == pytest.approx(21e-6)

    def test_rapl_zones(self):
        assert not broadwell_sim().has_uncore_rapl
        assert raptorlake_sim().has_uncore_rapl

    def test_peak_flops_cores_used(self):
        platform = raptorlake_sim()
        assert platform.peak_flops_per_sec(7) == pytest.approx(
            platform.peak_flops_per_sec() / 2
        )
        assert platform.peak_flops_per_sec(100) == (
            platform.peak_flops_per_sec()
        )
