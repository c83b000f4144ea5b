"""``repro.runtime`` -- the fault-tolerant execution layer.

Three cooperating pieces (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.runtime.deadline` -- cooperative :class:`Deadline` budgets
  threaded from ``polyufc_compile`` down to the CM engines and counting,
  so ``cm_timeout_s`` interrupts work *mid-unit* at chunk boundaries.
* :mod:`repro.runtime.errors` -- the structured :class:`ReproError`
  taxonomy every degradation rung keys off.
* :mod:`repro.runtime.faults` -- named, deterministically-armable
  injection sites (``REPRO_FAULTS`` / :func:`inject`) so every
  degradation path has a test.
* :mod:`repro.runtime.io` -- atomic, checksummed, quarantine-on-corruption
  disk I/O for the persistent caches.
"""

from repro.runtime.deadline import Deadline, check
from repro.runtime.errors import (
    CacheCorruption,
    DeadlineExceeded,
    EngineFailure,
    FaultConfigError,
    ReproError,
    TransientIOError,
)
from repro.runtime.faults import (
    KNOWN_SITES,
    armed,
    fire,
    inject,
    mangle,
)
from repro.runtime.io import (
    atomic_write_json,
    quarantine_file,
    read_checked_json,
    with_retries,
)

__all__ = [
    "Deadline",
    "check",
    "ReproError",
    "DeadlineExceeded",
    "CacheCorruption",
    "EngineFailure",
    "TransientIOError",
    "FaultConfigError",
    "KNOWN_SITES",
    "armed",
    "fire",
    "inject",
    "mangle",
    "atomic_write_json",
    "read_checked_json",
    "quarantine_file",
    "with_retries",
]
