"""Tests for the workload construction helpers."""

import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import generate_trace, simulate_hierarchy
from repro.hw import get_platform, workload_from_sim


@pytest.fixture(scope="module")
def sim():
    platform = get_platform("rpl")
    module = POLYBENCH_BUILDERS["doitgen"](nq=10, nr=10, np_=10)
    return simulate_hierarchy(generate_trace(module), platform.hierarchy)


def test_workload_from_sim_fields(sim):
    workload = workload_from_sim("doitgen", 1000, sim, True, 8)
    assert workload.level_accesses == tuple(
        level.accesses for level in sim.levels
    )
    assert workload.dram_fetch_bytes == sim.dram_fetch_bytes
    assert workload.dram_writeback_bytes == sim.dram_writeback_bytes
    assert workload.dram_bytes == sim.dram_bytes
    assert workload.parallel and workload.threads == 8
