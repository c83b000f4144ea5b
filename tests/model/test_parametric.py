"""Tests for the Sec. V parametric model (Eqns 2-11)."""

import math

import pytest

from repro.hw import raptorlake_sim
from repro.model import KernelSummary, PolyUFCModel
from repro.roofline import calibrate_platform


@pytest.fixture(scope="module")
def constants():
    return calibrate_platform(raptorlake_sim())


def cb_kernel(constants):
    """High-OI kernel: OI = 10x balance."""
    q = 1_000_000
    omega = int(q * constants.b_t_dram * 10)
    return KernelSummary(
        "cb", omega, q, q // 64, (0, 4 * q, 2 * q), cores_fraction=1.0
    )


def bb_kernel(constants):
    """Low-OI kernel: OI = balance / 10."""
    q = 50_000_000
    omega = int(q * constants.b_t_dram / 10)
    return KernelSummary(
        "bb", omega, q, q // 64, (0, q, q), cores_fraction=1.0
    )


class TestClassification:
    def test_cb(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        assert model.characterization.is_compute_bound

    def test_bb(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        assert model.characterization.is_bandwidth_bound

    def test_oi_definition(self):
        kernel = KernelSummary("k", 100, 50, 1, (0,))
        assert kernel.oi_fpb == 2.0
        zero_q = KernelSummary("k", 100, 0, 0, (0,))
        assert math.isinf(zero_q.oi_fpb)


class TestTime:
    def test_memory_time_decreases_with_f(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        assert model.memory_time_s(1.0) > model.memory_time_s(4.0)

    def test_cb_time_nearly_flat(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        slow = model.time_s(0.8)
        fast = model.time_s(4.6)
        assert slow / fast < 1.25

    def test_bb_time_strongly_f_dependent(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        assert model.time_s(0.8) / model.time_s(4.6) > 1.3

    def test_eqn2_additive_upper_bounds_overlapped(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        for f in (1.0, 2.5, 4.0):
            assert model.time_eqn2_s(f) >= model.time_s(f)

    def test_flop_time_scales_with_cores_fraction(self, constants):
        full = PolyUFCModel(constants, cb_kernel(constants))
        serial = KernelSummary(
            "serial", full.kernel.omega, full.kernel.q_dram_bytes,
            full.kernel.dram_lines, full.kernel.level_bytes,
            cores_fraction=0.25,
        )
        partial = PolyUFCModel(constants, serial)
        assert partial.flop_time_s() == pytest.approx(
            4 * full.flop_time_s()
        )


class TestPerfBandwidth:
    def test_eqn5_eqn6_consistency(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        f = 2.0
        time_s = model.time_s(f)
        assert model.perf_flops(f) == pytest.approx(
            model.kernel.omega / time_s
        )
        assert model.bandwidth_bps(f) == pytest.approx(
            model.kernel.q_dram_bytes / time_s
        )

    def test_bb_bandwidth_bounded_by_roofline(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        for f in (1.0, 3.0, 4.5):
            assert model.bandwidth_bps(f) <= constants.bandwidth_at(f) * 1.01


class TestPowerEnergy:
    def test_power_increases_with_f(self, constants):
        for kernel in (cb_kernel(constants), bb_kernel(constants)):
            model = PolyUFCModel(constants, kernel)
            assert model.power_w(4.6) > model.power_w(0.8)

    def test_power_at_least_constant(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        assert model.power_w(0.8) >= constants.p_con

    def test_bb_flop_power_attenuated(self, constants):
        """BB kernels draw less flop power than CB (I/B factor)."""
        cb = PolyUFCModel(constants, cb_kernel(constants))
        bb = PolyUFCModel(constants, bb_kernel(constants))
        # compare the flop-power component indirectly: at equal frequency
        # the BB kernel's power should not include the full p_hat_fpu
        f = 3.0
        bb_power = bb.power_w(f)
        assert bb_power < constants.p_con + constants.p_hat_fpu + (
            constants.p_hat_dram_fit(f)
        ) + 1.0

    def test_energy_is_power_times_time(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        f = 2.4
        assert model.energy_j(f) == pytest.approx(
            model.time_s(f) * model.power_w(f)
        )

    def test_eqn11_variant_exists(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        assert model.energy_eqn11_j(2.0) > 0

    def test_cb_energy_lower_at_low_f(self, constants):
        """The CB over-provisioning story: energy falls with the cap."""
        model = PolyUFCModel(constants, cb_kernel(constants))
        assert model.energy_j(1.2) < model.energy_j(4.6)

    def test_edp_definition(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        f = 3.0
        assert model.edp(f) == pytest.approx(
            model.energy_j(f) * model.time_s(f)
        )

    def test_bb_edp_interior_minimum(self, constants):
        model = PolyUFCModel(constants, bb_kernel(constants))
        freqs = [0.8 + 0.1 * i for i in range(39)]
        edps = [model.edp(f) for f in freqs]
        best = freqs[edps.index(min(edps))]
        assert 0.8 < best < 4.6

    def test_estimate_bundle(self, constants):
        model = PolyUFCModel(constants, cb_kernel(constants))
        est = model.estimate(2.0)
        assert est.f_ghz == 2.0
        assert est.edp == pytest.approx(est.energy_j * est.time_s)
        assert est.memory_time_s <= est.time_s / max(
            1 - constants.overlap_rho, 1e-6
        )
