"""Cooperative deadlines for the PolyUFC pipeline.

A :class:`Deadline` is a shared wall-clock budget created once at the top
of ``polyufc_compile`` and threaded down through ``characterize_units``,
the CM engines and ``isllite`` counting.  Its budget is set only by
argument (``cm_timeout_s``, ``--cm-timeout``).  Work checks it at *chunk
boundaries* (``deadline.check(site)``); an expired deadline raises
:class:`repro.runtime.errors.DeadlineExceeded`, which the degradation
ladder in ``characterize_units`` converts into a cheaper rung instead of
letting a pathological unit block the pipeline.

The object is deliberately tiny and thread-safe by construction: it holds
one immutable expiry instant, so a worker pool can share a single
instance and every worker sees the same budget.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.runtime.errors import DeadlineExceeded


class Deadline:
    """A wall-clock expiry instant with cooperative checkpoints."""

    __slots__ = ("expires_at", "budget_s")

    def __init__(self, budget_s: float, *, _now: Optional[float] = None):
        if budget_s < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = float(budget_s)
        now = time.monotonic() if _now is None else _now
        self.expires_at = now + self.budget_s

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now, or ``None`` for "no budget"."""
        return None if seconds is None else cls(seconds)

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, site: str = "") -> None:
        """Checkpoint: raise :class:`DeadlineExceeded` once expired."""
        if time.monotonic() >= self.expires_at:
            where = f" at {site}" if site else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exceeded{where}",
                site=site,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget_s={self.budget_s}, "
            f"remaining={self.remaining():.3f}s)"
        )


def check(deadline: Optional[Deadline], site: str = "") -> None:
    """``deadline.check(site)`` that tolerates ``deadline=None``."""
    if deadline is not None:
        deadline.check(site)

