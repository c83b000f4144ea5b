"""The structured error taxonomy of the resilience layer.

Every failure the fault-tolerant execution layer knows how to degrade
around is a :class:`ReproError` subclass, so call sites can write one
``except ReproError`` arm per degradation rung instead of fishing
``ValueError``/``OSError`` out of deep call stacks.  The hierarchy:

* :class:`DeadlineExceeded` -- a cooperative :class:`repro.runtime.Deadline`
  expired at a checkpoint; the work that raised it is partial and must be
  discarded or replaced by a cheaper rung.
* :class:`CacheCorruption` -- a persisted artifact (kernel-report cache,
  CM memo entry) failed checksum/schema validation; the reader quarantines
  the file and recomputes.
* :class:`EngineFailure` -- a CM evaluation engine (or an injected fault
  standing in for one) failed; characterization degrades per unit instead
  of aborting the kernel.
* :class:`TransientIOError` -- a retryable I/O failure surfaced by the
  hardened disk layers after the bounded retry/backoff budget ran out.
* :class:`FaultConfigError` -- a malformed ``REPRO_FAULTS`` spec; raised
  eagerly at parse time (configuration bugs must never masquerade as
  injected faults).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every structured resilience-layer error."""


class DeadlineExceeded(ReproError):
    """A cooperative deadline expired at a checkpoint.

    ``site`` names the checkpoint that noticed the expiry (useful when
    diagnosing which stage ate the budget).
    """

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site


class CacheCorruption(ReproError):
    """A persisted cache artifact failed checksum or schema validation."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path


class EngineFailure(ReproError):
    """A CM engine failed (for real, or via an injected fault)."""

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site


class TransientIOError(ReproError):
    """Retryable I/O kept failing after the bounded retry budget."""


class FaultConfigError(ReproError):
    """A ``REPRO_FAULTS`` spec (or ``inject()`` call) is malformed."""
