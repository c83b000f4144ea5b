"""Simulated hardware: platforms, execution model and uncore drivers.

This package replaces the paper's physical testbed (Tab. III): two x86
platforms with core/uncore frequency domains.  The cache simulator's
counters stand in for PAPI and the execution model's energy for RAPL:
"measuring" a kernel means pushing its exact memory trace through the
cache simulator and converting flops and traffic into time and power
with the platform's ground-truth parameters -- parameters the PolyUFC
roofline fits only *approximate*, which is what makes model-vs-hardware
comparisons meaningful.
"""

from repro.hw.platform import (
    PlatformSpec,
    UncoreSpec,
    broadwell_sim,
    raptorlake_sim,
    get_platform,
    PLATFORMS,
)
from repro.hw.execution import (
    KernelWorkload,
    RunResult,
    execute_fixed,
    workload_from_sim,
)
from repro.hw.governor import (
    GovernorConfig,
    SequenceResult,
    exhaustion_warning,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.duf import DufConfig, run_duf_sequence

__all__ = [
    "PlatformSpec",
    "UncoreSpec",
    "broadwell_sim",
    "raptorlake_sim",
    "get_platform",
    "PLATFORMS",
    "KernelWorkload",
    "RunResult",
    "execute_fixed",
    "workload_from_sim",
    "GovernorConfig",
    "SequenceResult",
    "exhaustion_warning",
    "run_capped_sequence",
    "run_governed_sequence",
    "DufConfig",
    "run_duf_sequence",
]
