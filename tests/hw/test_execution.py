"""Tests for the execution model and governor."""

import pytest

from repro.hw import (
    GovernorConfig,
    KernelWorkload,
    broadwell_sim,
    execute_fixed,
    raptorlake_sim,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.execution import compute_time_s, memory_time_s, uncore_time_s


def cb_workload(name="cb"):
    """Flop-heavy workload."""
    return KernelWorkload(
        name=name,
        flops=50_000_000,
        level_accesses=(1_000_000, 2_000, 500),
        dram_fetch_bytes=32_000,
        dram_writeback_bytes=0,
        dram_lines=500,
        parallel=True,
        threads=20,
    )


def bb_workload(name="bb"):
    """Streaming workload."""
    nbytes = 16_000_000
    return KernelWorkload(
        name=name,
        flops=500_000,
        level_accesses=(nbytes // 8, nbytes // 64, nbytes // 64),
        dram_fetch_bytes=nbytes,
        dram_writeback_bytes=nbytes // 4,
        dram_lines=(nbytes + nbytes // 4) // 64,
        parallel=True,
        threads=20,
    )


class TestExecuteFixed:
    def test_deterministic_noise(self):
        platform = raptorlake_sim()
        a = execute_fixed(platform, cb_workload(), 2.0)
        b = execute_fixed(platform, cb_workload(), 2.0)
        assert a.time_s == b.time_s
        assert a.energy_j == b.energy_j

    def test_noise_differs_across_frequencies(self):
        platform = raptorlake_sim()
        a = execute_fixed(platform, cb_workload(), 2.0)
        b = execute_fixed(platform, cb_workload(), 2.1)
        assert a.time_s != b.time_s

    def test_noise_free_mode(self):
        platform = raptorlake_sim()
        run = execute_fixed(platform, cb_workload(), 2.0, noisy=False)
        t_c = compute_time_s(platform, cb_workload())
        t_m = memory_time_s(platform, cb_workload(), 2.0)
        expected = max(t_c, t_m) + platform.overlap_rho * min(t_c, t_m)
        assert run.time_s == pytest.approx(expected)

    def test_bb_time_improves_with_f(self):
        platform = raptorlake_sim()
        slow = execute_fixed(platform, bb_workload(), 0.8, noisy=False)
        fast = execute_fixed(platform, bb_workload(), 4.6, noisy=False)
        assert slow.time_s / fast.time_s > 1.3

    def test_cb_time_flat_power_grows(self):
        platform = raptorlake_sim()
        slow = execute_fixed(platform, cb_workload(), 0.8, noisy=False)
        fast = execute_fixed(platform, cb_workload(), 4.6, noisy=False)
        assert slow.time_s / fast.time_s < 1.15
        assert fast.avg_power_w > slow.avg_power_w

    def test_frequency_clamped(self):
        platform = raptorlake_sim()
        run = execute_fixed(platform, cb_workload(), 99.0)
        assert run.f_uncore_ghz == platform.uncore.f_max_ghz

    def test_prefetch_hides_latency(self):
        platform = raptorlake_sim()
        latency_bound = KernelWorkload(
            "chase", 1000, (100_000, 100_000, 100_000),
            100_000 * 64, 0, 100_000, False, 1,
        )
        on = execute_fixed(platform, latency_bound, 2.0, prefetch=True,
                           noisy=False)
        off = execute_fixed(platform, latency_bound, 2.0, prefetch=False,
                            noisy=False)
        assert off.time_s > on.time_s

    def test_serial_vs_parallel_compute(self):
        platform = raptorlake_sim()
        serial = KernelWorkload(
            "s", 10_000_000, (1000, 10, 10), 640, 0, 10, False, 1
        )
        parallel = KernelWorkload(
            "p", 10_000_000, (1000, 10, 10), 640, 0, 10, True, 20
        )
        t_serial = compute_time_s(platform, serial)
        t_parallel = compute_time_s(platform, parallel)
        assert t_serial == pytest.approx(t_parallel * platform.cores)


#: ``(memory_time_s, uncore_time_s)`` per (platform, workload, uncore GHz,
#: prefetch) at f_min, a middle cap and f_max.  Frozen values: a change to
#: how the two functions compute their shared LLC and DRAM terms must keep
#: every float, so the test compares with ``==``.
PINNED_TIMES = {
    ("rpl", "cb", 0.8, True): (3.656627185561196e-06, 2.589960518894529e-06),
    ("rpl", "cb", 0.8, False): (5.550724407783418e-06, 4.484057741116751e-06),
    ("rpl", "cb", 2.7, True): (2.6650856389986822e-06, 1.5984189723320158e-06),
    ("rpl", "cb", 2.7, False): (3.2491344605475043e-06, 2.1824677938808374e-06),
    ("rpl", "cb", 4.6, True): (2.363512677798392e-06, 1.2968460111317254e-06),
    ("rpl", "cb", 4.6, False): (2.7765561560592614e-06, 1.709889489392595e-06),
    ("rpl", "bb", 0.8, True): (0.00165053581500282, 0.0015172024816694867),
    ("rpl", "bb", 0.8, False): (0.0028343465788917086, 0.0027010132455583752),
    ("rpl", "bb", 2.7, True): (0.0010779973649538868, 0.0009446640316205533),
    ("rpl", "bb", 2.7, False): (0.0014430278784219003, 0.0013096945450885669),
    ("rpl", "bb", 4.6, True): (0.000906756338899196, 0.0007734230055658627),
    ("rpl", "bb", 4.6, False): (0.0011649085128122394, 0.001031575179478906),
    ("bdw", "cb", 1.2, True): (6.878285138019184e-06, 4.744951804685851e-06),
    ("bdw", "cb", 1.2, False): (7.9760587431694e-06, 5.842725409836066e-06),
    ("bdw", "cb", 2.0, True): (5.697460623593699e-06, 3.564127290260366e-06),
    ("bdw", "cb", 2.0, False): (6.355759803921569e-06, 4.222426470588236e-06),
    ("bdw", "cb", 2.8, True): (5.328816749000235e-06, 3.195483415666902e-06),
    ("bdw", "cb", 2.8, False): (5.612814001747488e-06, 3.4794806684141547e-06),
    ("bdw", "bb", 1.2, True): (0.0030683271183658154, 0.0028016604516991487),
    ("bdw", "bb", 1.2, False): (0.0037544356215846995, 0.0034877689549180327),
    ("bdw", "bb", 2.0, True): (0.0023765991642558664, 0.0021099324975891996),
    ("bdw", "bb", 2.0, False): (0.0027880361519607845, 0.0025213694852941177),
    ("bdw", "bb", 2.8, True): (0.0021721006821924255, 0.0019054340155257588),
    ("bdw", "bb", 2.8, False): (0.002349598965159458, 0.0020829322984927917),
}


class TestPinnedMemoryTimes:
    @pytest.mark.parametrize(
        "key",
        list(PINNED_TIMES),
        ids=lambda key: "{}-{}-{}-{}".format(
            key[0], key[1], key[2], "prefetch" if key[3] else "no-prefetch"
        ),
    )
    def test_bit_identical(self, key):
        name, kind, f_ghz, prefetch = key
        platform = {"rpl": raptorlake_sim, "bdw": broadwell_sim}[name]()
        workload = {"cb": cb_workload, "bb": bb_workload}[kind]()
        got = (
            memory_time_s(platform, workload, f_ghz, prefetch),
            uncore_time_s(platform, workload, f_ghz, prefetch),
        )
        assert got == PINNED_TIMES[key]


class TestGovernor:
    def test_bb_ramps_to_max(self):
        platform = raptorlake_sim()
        result = run_governed_sequence(
            platform, [bb_workload()] * 40, GovernorConfig()
        )
        assert result.runs[-1].f_uncore_ghz == platform.uncore.f_max_ghz

    def test_interval_state_persists_across_kernels(self):
        """Kernels shorter than the control interval still drive scaling."""
        platform = raptorlake_sim()
        tiny = bb_workload("tiny")
        single = execute_fixed(platform, tiny, 3.9, noisy=False)
        config = GovernorConfig()
        assert single.time_s < config.interval_s * 10
        result = run_governed_sequence(platform, [tiny] * 60, config)
        assert result.runs[-1].f_uncore_ghz > result.runs[0].f_uncore_ghz

    def test_start_frequency_override(self):
        platform = raptorlake_sim()
        result = run_governed_sequence(
            platform, [cb_workload()], start_freq_ghz=1.0
        )
        assert result.runs[0].f_uncore_ghz <= 1.2

    def test_energy_accumulates(self):
        platform = raptorlake_sim()
        once = run_governed_sequence(platform, [bb_workload()])
        twice = run_governed_sequence(platform, [bb_workload()] * 2)
        assert twice.energy_j > once.energy_j
        assert twice.time_s > once.time_s

    def test_sequence_result_properties(self):
        platform = raptorlake_sim()
        result = run_governed_sequence(platform, [bb_workload()])
        assert result.avg_power_w == pytest.approx(
            result.energy_j / result.time_s
        )
        assert result.edp == pytest.approx(result.energy_j * result.time_s)


class TestCappedSequence:
    def test_cap_overhead_charged_on_change_only(self):
        platform = raptorlake_sim()
        workload = cb_workload()
        same = run_capped_sequence(
            platform, [(workload, 2.0)] * 5, noisy=False
        )
        alternating = run_capped_sequence(
            platform,
            [(workload, 2.0), (workload, 3.0)] * 3,
            noisy=False,
        )
        assert same.cap_switches == 1
        assert alternating.cap_switches == 6
        overhead = platform.cap_overhead_s
        kernel_time = execute_fixed(
            platform, workload, 2.0, noisy=False
        ).time_s
        assert same.time_s == pytest.approx(
            5 * kernel_time + overhead, rel=1e-6
        )

    def test_none_cap_means_max(self):
        platform = raptorlake_sim()
        result = run_capped_sequence(platform, [(cb_workload(), None)])
        assert result.runs[0].f_uncore_ghz == platform.uncore.f_max_ghz

    def test_low_cap_saves_energy_on_cb(self):
        platform = raptorlake_sim()
        workload = cb_workload()
        low = run_capped_sequence(platform, [(workload, 1.2)] * 10)
        high = run_capped_sequence(platform, [(workload, 4.6)] * 10)
        assert low.energy_j < high.energy_j

