"""Deterministic fault injection for the resilience layer.

Every degradation path in the pipeline is reachable on purpose: the CM
engines, the trace generator, the counting engine and the kernel-report
cache each call :func:`fire` (or :func:`mangle`) at a **named site**,
and a fault armed at that site makes the failure happen
deterministically -- so the whole ladder is testable without
pathological inputs.

Arming
------
* Environment: ``REPRO_FAULTS="site:kind[:arg][,site:kind[:arg]...]"``
  (e.g. ``REPRO_FAULTS="report.read:corrupt,cm.engine:fail:2"``).
* Programmatic: ``with inject("cm.chunk", "slow", arg=0.05): ...``
  (nested ``inject`` frames shadow the environment).

Kinds
-----
* ``fail``    -- raise :class:`EngineFailure` at the site.
* ``io``      -- raise :class:`OSError` (exercises the retry/backoff and
  transient-IO paths of the hardened disk layers).
* ``slow``    -- ``time.sleep(arg)`` (default 0.05s) each time the site
  fires; with a deadline armed this simulates a pathologically slow unit.
* ``corrupt`` -- :func:`mangle` returns a corrupted copy of the payload
  passing through the site (exercises checksum validation + quarantine).
* ``die``     -- ``os._exit`` on the spot (models an OOM-killed or
  segfaulted service pool worker; arm only at sites that run inside
  worker processes, e.g. ``service.worker``).

The optional ``arg`` is kind-dependent: for ``slow`` it is the sleep in
seconds; for the other kinds an integer ``n >= 1`` fires only the first
``n`` calls (transient faults), a float ``0 < p < 1`` fires with
probability ``p`` from a deterministically seeded RNG
(``$REPRO_FAULTS_SEED``, default 0), and no arg fires always.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.errors import EngineFailure, FaultConfigError

FAULTS_ENV = "REPRO_FAULTS"
SEED_ENV = "REPRO_FAULTS_SEED"

#: Injection sites wired into the pipeline (open set -- unknown names are
#: legal and simply never fire, but these are the ones that exist today).
KNOWN_SITES = (
    "cm.trace",     # trace generation entry (repro.cache.trace)
    "cm.engine",    # CM engine entry (repro.cache.static_model.polyufc_cm)
    "cm.chunk",     # per-level and per-chunk checkpoints of the CM engines
    "cm.count",     # isllite exact-count scan loop
    "report.read",  # kernel-report cache read
    "report.write", # kernel-report cache write
    "service.worker",  # service pool-worker job entry (repro.service.pool)
)

KINDS = ("fail", "io", "slow", "corrupt", "die")

_DEFAULT_SLOW_S = 0.05


@dataclass
class FaultSpec:
    """One armed fault: what happens when ``site`` is reached."""

    site: str
    kind: str
    arg: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r} for site {self.site!r}; "
                f"expected one of {KINDS}"
            )
        if self.arg is not None and self.arg <= 0:
            raise FaultConfigError(
                f"fault arg must be positive, got {self.arg!r} "
                f"({self.site}:{self.kind})"
            )


@dataclass
class _ArmedFault:
    """A spec plus its mutable firing state (thread-safe)."""

    spec: FaultSpec
    lock: threading.Lock = field(default_factory=threading.Lock)
    fired: int = 0
    rng: Optional[random.Random] = None

    def should_fire(self) -> bool:
        spec = self.spec
        if spec.kind == "slow" or spec.arg is None:
            return True
        with self.lock:
            if 0 < spec.arg < 1:
                if self.rng is None:
                    seed = os.environ.get(SEED_ENV, "0")
                    self.rng = random.Random(f"{seed}:{spec.site}")
                return self.rng.random() < spec.arg
            if self.fired >= int(spec.arg):
                return False
            self.fired += 1
            return True


def parse_faults(raw: str) -> Dict[str, FaultSpec]:
    """Parse a ``REPRO_FAULTS`` value into per-site specs."""
    specs: Dict[str, FaultSpec] = {}
    for entry in filter(None, (part.strip() for part in raw.split(","))):
        pieces = entry.split(":")
        if len(pieces) not in (2, 3):
            raise FaultConfigError(
                f"malformed fault spec {entry!r}; "
                "expected site:kind[:arg]"
            )
        site, kind = pieces[0], pieces[1]
        arg: Optional[float] = None
        if len(pieces) == 3:
            try:
                arg = float(pieces[2])
            except ValueError:
                raise FaultConfigError(
                    f"non-numeric fault arg {pieces[2]!r} in {entry!r}"
                ) from None
        specs[site] = FaultSpec(site=site, kind=kind, arg=arg)
    return specs


# Environment-armed faults, cached per raw env value so ``fire`` stays a
# couple of dict lookups on the (common) nothing-armed path.
_env_lock = threading.Lock()
_env_raw: Optional[str] = None
_env_armed: Dict[str, _ArmedFault] = {}

# Programmatic frames pushed by ``inject`` (innermost wins).
_frames: List[Dict[str, _ArmedFault]] = []


def _env_faults() -> Dict[str, _ArmedFault]:
    global _env_raw, _env_armed
    raw = os.environ.get(FAULTS_ENV, "")
    if raw != _env_raw:
        with _env_lock:
            if raw != _env_raw:
                _env_armed = {
                    site: _ArmedFault(spec)
                    for site, spec in parse_faults(raw).items()
                }
                _env_raw = raw
    return _env_armed


def _lookup(site: str) -> Optional[_ArmedFault]:
    for frame in reversed(_frames):
        armed = frame.get(site)
        if armed is not None:
            return armed
    return _env_faults().get(site)


@contextmanager
def inject(site: str, kind: str, arg: Optional[float] = None):
    """Arm one fault for the duration of the ``with`` block."""
    frame = {site: _ArmedFault(FaultSpec(site=site, kind=kind, arg=arg))}
    _frames.append(frame)
    try:
        yield frame[site]
    finally:
        _frames.remove(frame)


def armed(site: str) -> Optional[FaultSpec]:
    """The spec armed at ``site`` right now, if any (no firing)."""
    found = _lookup(site)
    return found.spec if found is not None else None


def fire(site: str) -> None:
    """Run the fault armed at ``site``, if any.

    ``fail`` raises :class:`EngineFailure`, ``io`` raises :class:`OSError`,
    ``slow`` sleeps; ``corrupt`` does nothing here (it acts through
    :func:`mangle` at the data path instead).
    """
    found = _lookup(site)
    if found is None or not found.should_fire():
        return
    kind = found.spec.kind
    if kind == "fail":
        raise EngineFailure(f"injected engine fault at {site}", site=site)
    if kind == "io":
        raise OSError(f"injected transient IO fault at {site}")
    if kind == "slow":
        time.sleep(
            found.spec.arg if found.spec.arg is not None else _DEFAULT_SLOW_S
        )
    if kind == "die":
        # Hard process death, bypassing all exception handling -- models
        # an OOM-killed or segfaulted pool worker.  Only meaningful at
        # sites reached inside service worker processes; arming it in
        # the main process kills the whole run, which is on the arming
        # test to avoid.
        os._exit(23)


def mangle(site: str, text: str) -> str:
    """Corrupt ``text`` if a ``corrupt`` fault is armed at ``site``."""
    found = _lookup(site)
    if (
        found is None
        or found.spec.kind != "corrupt"
        or not found.should_fire()
    ):
        return text
    # Truncate and append garbage: breaks both JSON parsing and checksums
    # regardless of payload shape.
    return text[: max(0, len(text) // 2)] + '\x00{"corrupt":'
