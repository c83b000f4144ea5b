"""Tests for roofline constants, fits, calibration and characterization."""

import math

import pytest

from repro.hw import broadwell_sim, raptorlake_sim
from repro.roofline import (
    Boundedness,
    InverseFit,
    LinearFit,
    attainable_performance,
    calibrate_platform,
    characterize,
    power_ceiling,
)


@pytest.fixture(scope="module")
def rpl_constants():
    return calibrate_platform(raptorlake_sim())


@pytest.fixture(scope="module")
def bdw_constants():
    return calibrate_platform(broadwell_sim())


class TestFits:
    def test_linear_fit_roundtrip(self):
        fit = LinearFit.fit([1.0, 2.0, 3.0], [5.0, 7.0, 9.0])
        assert fit.alpha == pytest.approx(2.0)
        assert fit.gamma == pytest.approx(3.0)
        assert fit(4.0) == pytest.approx(11.0)

    def test_inverse_fit_roundtrip(self):
        freqs = [1.0, 2.0, 4.0]
        values = [3.0 / f + 0.5 for f in freqs]
        fit = InverseFit.fit(freqs, values)
        assert fit.a == pytest.approx(3.0)
        assert fit.b == pytest.approx(0.5)


class TestCalibration:
    def test_peak_flops_recovered(self, rpl_constants):
        platform = raptorlake_sim()
        fitted = 1.0 / rpl_constants.t_fpu
        true = platform.peak_flops_per_sec()
        assert abs(fitted - true) / true < 0.05

    def test_constant_power_recovered(self, rpl_constants):
        platform = raptorlake_sim()
        assert abs(rpl_constants.p_con - platform.p_constant_w) < (
            0.2 * platform.p_constant_w
        )

    def test_saturation_freq_close(self, rpl_constants):
        platform = raptorlake_sim()
        assert (
            abs(
                rpl_constants.saturation_freq()
                - platform.bandwidth_saturation_freq()
            )
            < 0.8
        )

    def test_balance_positive_and_ordered(self, rpl_constants, bdw_constants):
        # BDW is the more bandwidth-starved machine: higher balance
        assert bdw_constants.b_t_dram > 0
        assert rpl_constants.b_t_dram > 0
        rel_bdw = bdw_constants.b_t_dram / broadwell_sim().machine_balance_fpb()
        rel_rpl = rpl_constants.b_t_dram / raptorlake_sim().machine_balance_fpb()
        assert 0.8 < rel_bdw < 2.5
        assert 0.8 < rel_rpl < 2.5

    def test_idle_uncore_power_grows_with_f(self, rpl_constants):
        platform = raptorlake_sim()
        low = rpl_constants.p_uncore_idle_fit(platform.uncore.f_min_ghz)
        high = rpl_constants.p_uncore_idle_fit(platform.uncore.f_max_ghz)
        assert high > low
        assert high > 1.0  # watts of over-provisioning at max frequency

    def test_miss_penalty_decreasing_in_f(self, rpl_constants):
        assert rpl_constants.miss_penalty_fit(1.0) > (
            rpl_constants.miss_penalty_fit(4.0)
        )

    def test_bandwidth_clipped_at_peak(self, rpl_constants):
        assert rpl_constants.bandwidth_at(100.0) == rpl_constants.dram_bw_peak

    def test_overlap_rho_in_range(self, rpl_constants):
        assert 0.0 <= rpl_constants.overlap_rho <= 1.0

    def test_e_byte_positive(self, rpl_constants):
        platform = raptorlake_sim()
        for f in (platform.uncore.f_min_ghz, platform.uncore.f_max_ghz):
            assert rpl_constants.e_byte_fit(f) > 0

    def test_calibration_deterministic(self):
        a = calibrate_platform(raptorlake_sim())
        b = calibrate_platform(raptorlake_sim())
        assert a.t_fpu == b.t_fpu
        assert a.p_con == b.p_con


class TestCharacterization:
    def test_cb_bb_threshold(self, rpl_constants):
        balance = rpl_constants.b_t_dram
        assert characterize(rpl_constants, balance * 2).is_compute_bound
        assert characterize(rpl_constants, balance / 2).is_bandwidth_bound
        # boundary point is CB (I >= B)
        assert characterize(rpl_constants, balance).is_compute_bound

    def test_negative_oi_rejected(self, rpl_constants):
        with pytest.raises(ValueError):
            characterize(rpl_constants, -1.0)

    def test_infinite_oi_is_cb(self, rpl_constants):
        result = characterize(rpl_constants, math.inf)
        assert result.is_compute_bound
        assert result.attainable_flops == rpl_constants.peak_flops

    def test_attainable_performance_roofline_shape(self, rpl_constants):
        low = attainable_performance(rpl_constants, 0.1)
        mid = attainable_performance(rpl_constants, rpl_constants.b_t_dram)
        high = attainable_performance(rpl_constants, 1e6)
        assert low < mid <= rpl_constants.peak_flops
        assert high == rpl_constants.peak_flops
        # in the bandwidth-limited region performance is linear in OI
        assert attainable_performance(rpl_constants, 0.2) == pytest.approx(
            2 * low
        )

    def test_attainable_performance_frequency_aware(self, rpl_constants):
        low_f = attainable_performance(rpl_constants, 0.5, f_ghz=1.0)
        high_f = attainable_performance(rpl_constants, 0.5, f_ghz=4.0)
        assert high_f > low_f

    def test_power_ceiling_cb_decreases_with_oi(self, rpl_constants):
        balance = rpl_constants.b_t_dram
        near = power_ceiling(rpl_constants, balance * 1.1, 3.0)
        far = power_ceiling(rpl_constants, balance * 10, 3.0)
        assert far < near
        # approaches p_con + p_hat_fpu for huge OI (paper Sec. V-B)
        limit = rpl_constants.p_con + rpl_constants.p_hat_fpu
        assert power_ceiling(rpl_constants, 1e9, 3.0) == pytest.approx(
            limit, rel=1e-3
        )

    def test_power_ceiling_bb_increases_with_oi(self, rpl_constants):
        balance = rpl_constants.b_t_dram
        low = power_ceiling(rpl_constants, balance * 0.1, 3.0)
        high = power_ceiling(rpl_constants, balance * 0.9, 3.0)
        assert high > low

    def test_reuse_gap_sign(self, rpl_constants):
        balance = rpl_constants.b_t_dram
        assert characterize(rpl_constants, balance + 1).reuse_gap_fpb > 0
        assert characterize(rpl_constants, balance - 1).reuse_gap_fpb < 0

    def test_boundedness_str(self):
        assert str(Boundedness.COMPUTE_BOUND) == "CB"
        assert str(Boundedness.BANDWIDTH_BOUND) == "BB"
