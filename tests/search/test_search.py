"""Tests for POLYUFC-SEARCH."""

import pytest

from repro.hw import raptorlake_sim
from repro.model import KernelSummary, PolyUFCModel
from repro.roofline import calibrate_platform
from repro.search import SearchConfig, polyufc_search


@pytest.fixture(scope="module")
def constants():
    return calibrate_platform(raptorlake_sim())


@pytest.fixture(scope="module")
def uncore():
    return raptorlake_sim().uncore


def cb_model(constants, oi_factor=10.0):
    q = 1_000_000
    omega = int(q * constants.b_t_dram * oi_factor)
    summary = KernelSummary("cb", omega, q, q // 64, (0, 4 * q, 2 * q))
    return PolyUFCModel(constants, summary)


def bb_model(constants, oi_factor=0.1):
    q = 50_000_000
    omega = int(q * constants.b_t_dram * oi_factor)
    summary = KernelSummary("bb", omega, q, q // 64, (0, q, q))
    return PolyUFCModel(constants, summary)


class TestConfig:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(objective="speed")
        assert SearchConfig(objective="energy").objective == "energy"

    def test_paper_default_epsilon(self):
        assert SearchConfig().epsilon == pytest.approx(1e-3)


class TestSearch:
    def test_cb_selects_low_cap(self, constants, uncore):
        result = polyufc_search(cb_model(constants), uncore)
        assert result.boundedness == "CB"
        assert result.f_cap_ghz <= 0.55 * uncore.f_max_ghz

    def test_bb_selects_near_saturation(self, constants, uncore):
        result = polyufc_search(bb_model(constants), uncore)
        assert result.boundedness == "BB"
        assert abs(result.f_cap_ghz - constants.saturation_freq()) <= 0.6

    def test_cap_on_grid(self, constants, uncore):
        result = polyufc_search(bb_model(constants), uncore)
        assert result.f_cap_ghz in uncore.frequencies()

    def test_binary_search_iteration_count(self, constants, uncore):
        """Binary search probes ~2*log2(39) points plus refinement, far
        fewer than the 39-point exhaustive sweep."""
        result = polyufc_search(cb_model(constants), uncore)
        assert result.iterations <= 30

    def test_cap_at_most_objective_optimal_region(self, constants, uncore):
        """The selected cap's EDP is close to the grid optimum."""
        model = bb_model(constants)
        result = polyufc_search(model, uncore)
        best = min(model.edp(f) for f in uncore.frequencies())
        assert model.edp(result.f_cap_ghz) <= best * 1.25

    def test_energy_objective_not_above_edp_cap(self, constants, uncore):
        model = cb_model(constants)
        edp_cap = polyufc_search(model, uncore).f_cap_ghz
        energy_cap = polyufc_search(
            model, uncore, SearchConfig(objective="energy")
        ).f_cap_ghz
        assert energy_cap <= edp_cap + 0.11

    def test_performance_objective_prefers_high_f(self, constants, uncore):
        model = bb_model(constants)
        perf_cap = polyufc_search(
            model, uncore, SearchConfig(objective="performance")
        ).f_cap_ghz
        edp_cap = polyufc_search(model, uncore).f_cap_ghz
        assert perf_cap >= edp_cap - 0.11

    def test_epsilon_controls_cb_descent(self, constants, uncore):
        """A tighter epsilon never descends further than a looser one."""
        model = cb_model(constants, oi_factor=3.0)
        tight = polyufc_search(
            model, uncore, SearchConfig(epsilon=1e-6)
        ).f_cap_ghz
        loose = polyufc_search(
            model, uncore, SearchConfig(epsilon=5e-2)
        ).f_cap_ghz
        assert loose <= tight

    def test_zero_flop_unit_uses_bandwidth(self, constants, uncore):
        summary = KernelSummary("fill", 0, 1_000_000, 15_625, (0, 0, 0))
        model = PolyUFCModel(constants, summary)
        result = polyufc_search(model, uncore)
        assert result.boundedness == "BB"
        assert result.f_cap_ghz >= uncore.f_min_ghz

    def test_steps_recorded(self, constants, uncore):
        result = polyufc_search(cb_model(constants), uncore)
        assert result.steps
        for step in result.steps:
            assert step.edp > 0
            assert step.energy_j > 0
