"""The content-addressed characterization result store.

Layout (under :func:`store_root`, relocatable via ``REPRO_CACHE_DIR``)::

    store/
      reports/<spec-digest>.json      one KernelReport per job digest
      workloads/<workload-digest>.json  hardware-side counters, shared by
                                        jobs differing only in objective /
                                        epsilon / overhead / engine /
                                        associativity
      families/<family-digest>.json   one parametric characterization
                                      artifact per kernel family, shared
                                      by every problem size (size-erased
                                      digest; see ``JobSpec.family_digest``)
      index.json                      digest -> queryable summary row

Every object rides the same hardened discipline as the rest of the
persistent caches (``repro.runtime.io``): checksummed ``repro-envelope``
payloads, per-writer temp files published with ``os.replace``, and
quarantine-and-recompute on any validation failure.  Report objects fire
the existing ``report.read`` / ``report.write`` fault-injection sites,
so the CI fault matrix exercises the store exactly as it exercised the
old ad-hoc report cache.

Two policies are enforced *here*, once, for every producer:

* **Degraded results are never persisted.**  A report whose units
  walked the degradation ladder reflects a transient condition (an
  expired deadline, an injected fault); serving it later would poison
  every consumer, so :meth:`ResultStore.put_report` refuses it.
* **Corrupt entries are never served.**  A torn, mangled or
  schema-drifted object is quarantined (``<name>.corrupt``) and the
  caller recomputes.

The index is an acceleration structure, not a source of truth: a put
writes only the report object, and every read of the index reconciles
it with the objects on disk (see :meth:`ResultStore._load_index`).
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.cache.parametric_model import (
    FamilyFitError,
    ParametricCharacterization,
)
from repro.mlpolyufc.reports import KernelReport, ReportSchemaError
from repro.runtime import (
    CacheCorruption,
    EngineFailure,
    TransientIOError,
    atomic_write_json,
    quarantine_file,
    read_checked_json,
)
from repro.service.spec import JobSpec

log = logging.getLogger("repro.runtime")

T = TypeVar("T")

#: Counters every hardware-side workload row must carry.
_WORKLOAD_KEYS = (
    "name", "level_accesses", "dram_fetch_bytes",
    "dram_writeback_bytes", "dram_lines",
)


def store_root() -> Path:
    """Store location: $REPRO_CACHE_DIR/store, else the checkout's."""
    cache = os.environ.get("REPRO_CACHE_DIR")
    if cache:
        return Path(cache) / "store"
    return Path(__file__).resolve().parents[3] / ".polyufc_cache" / "store"


def _index_row(
    spec: JobSpec, report: KernelReport, digest: str, created_at: float
) -> dict:
    caps = report.caps()
    return {
        "digest": digest,
        "benchmark": spec.benchmark,
        "platform": spec.platform,
        "granularity": spec.granularity,
        "objective": spec.objective,
        "set_associative": spec.set_associative,
        "engine": spec.resolved_engine(),
        "boundedness": report.boundedness,
        "oi_model": report.oi_model if report.total_q_dram_model else None,
        "units": len(report.units),
        "min_cap_ghz": min(caps) if caps else None,
        "max_cap_ghz": max(caps) if caps else None,
        "cm_notes": len(report.noted_units),
        "created_at": created_at,
    }


def _workload_units(payload: dict) -> List[dict]:
    units = payload["units"]
    if not isinstance(units, list) or not all(
        isinstance(unit, dict) and all(key in unit for key in _WORKLOAD_KEYS)
        for unit in units
    ):
        raise ReportSchemaError("workload units lack hardware counters")
    return units


class ResultStore:
    """Content-addressed report + workload store with a queryable index."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else store_root()
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    @property
    def workloads_dir(self) -> Path:
        return self.root / "workloads"

    @property
    def families_dir(self) -> Path:
        return self.root / "families"

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def report_path(self, digest: str) -> Path:
        return self.reports_dir / f"{digest}.json"

    def workload_path(self, digest: str) -> Path:
        return self.workloads_dir / f"{digest}.json"

    def family_path(self, digest: str) -> Path:
        return self.families_dir / f"{digest}.json"

    # -- reports -------------------------------------------------------

    def put_report(
        self, spec: JobSpec, report: KernelReport
    ) -> Optional[Path]:
        """Persist an exact report; refuse degraded ones (policy).

        Returns the object path, or ``None`` when the report was refused
        or the write kept failing (callers lose caching, not results).
        """
        if not report.fully_exact:
            log.debug(
                "not persisting degraded report for %s (%s)",
                spec.label(), ",".join(report.degraded_units),
            )
            return None
        payload = {"spec": spec.to_json(), "report": report.to_json()}
        return self._write(
            "report", self.report_path(spec.digest()), payload
        )

    def get_report(self, digest: str) -> Optional[KernelReport]:
        """Fetch a stored report, or ``None`` (missing / quarantined)."""
        return self._read(
            "report", self.report_path(digest), ("spec", "report"),
            lambda payload: KernelReport.from_json(payload["report"]),
        )

    # -- workloads -----------------------------------------------------

    def put_workload(self, digest: str, units: List[dict]) -> Optional[Path]:
        """Persist the hardware-side counters of one tiled module."""
        return self._write(
            "workload", self.workload_path(digest), {"units": units}
        )

    def has_workload(self, digest: str) -> bool:
        return self.workload_path(digest).exists()

    def get_workload(self, digest: str) -> Optional[List[dict]]:
        return self._read(
            "workload", self.workload_path(digest), ("units",),
            _workload_units,
        )

    # -- parametric kernel families ------------------------------------

    def put_family(
        self, digest: str, artifact: ParametricCharacterization
    ) -> Optional[Path]:
        """Persist one kernel family's parametric characterization.

        Keyed by :meth:`repro.service.spec.JobSpec.family_digest`.  The
        exact-samples-only policy is enforced by the producer
        (``execute_report`` samples only fully-exact reports), so every
        persisted vector is engine-agreed ground truth; this method just
        writes the artifact under the usual hardened envelope.
        """
        return self._write(
            "family", self.family_path(digest),
            {"family": artifact.to_json()},
        )

    def get_family(
        self, digest: str
    ) -> Optional[ParametricCharacterization]:
        """Fetch a family artifact, or ``None`` (missing / quarantined)."""
        return self._read(
            "family", self.family_path(digest), ("family",),
            lambda payload: ParametricCharacterization.from_json(
                payload["family"]
            ),
        )

    # -- one write path and one read path for every object kind --------

    def _write(self, kind: str, path: Path, payload: dict) -> Optional[Path]:
        """Publish one object; ``None`` when the write kept failing
        (callers lose caching, not results)."""
        try:
            atomic_write_json(path, payload, fault_site="report.write")
        except (TransientIOError, EngineFailure) as exc:
            log.warning(
                "%s write of %s failed (%s); continuing", kind, path.name, exc
            )
            return None
        return path

    def _read(
        self,
        kind: str,
        path: Path,
        required_keys: Sequence[str],
        parse: Callable[[dict], T],
    ) -> Optional[T]:
        """``parse`` of one object's payload, or ``None``: missing,
        corrupt (quarantined and logged by the envelope reader), still
        failing after the retries, or drifted from the schema ``parse``
        expects (quarantined here)."""
        try:
            payload = read_checked_json(
                path, fault_site="report.read", required_keys=required_keys
            )
        except (FileNotFoundError, CacheCorruption):
            return None
        except (TransientIOError, EngineFailure) as exc:
            log.warning(
                "%s read of %s kept failing (%s); recomputing",
                kind, path.name, exc,
            )
            return None
        try:
            return parse(payload)
        except (ReportSchemaError, FamilyFitError) as exc:
            log.warning("%s entry %s has drifted schema (%s)", kind, path, exc)
            quarantine_file(path)
            return None

    # -- index + queries ----------------------------------------------

    def _load_index(self) -> Dict[str, dict]:
        """The index, reconciled with the report objects on disk.

        Rows whose object is gone (deleted or quarantined) are dropped,
        objects the index lacks are read and indexed, and the index is
        rewritten once if anything changed.  A missing, corrupt or
        unreadable index reconciles from empty.  Objects that cannot be
        indexed (corrupt ones are quarantined by the read) are skipped.
        """
        with self._lock:
            rows = None
            try:
                payload = read_checked_json(self.index_path)
                if isinstance(payload, dict):
                    rows = payload.get("rows")
            except (FileNotFoundError, CacheCorruption):
                pass  # a corrupt index is quarantined by the reader
            except (TransientIOError, EngineFailure) as exc:
                log.warning("index read failed (%s); rescanning", exc)
            if not isinstance(rows, dict):
                rows = {}
            try:
                names = os.listdir(self.reports_dir)
            except FileNotFoundError:
                names = []
            digests = {
                name[: -len(".json")]
                for name in names if name.endswith(".json")
            }
            changed = False
            for digest in set(rows) - digests:
                del rows[digest]
                changed = True
            for digest in sorted(digests - set(rows)):
                row = self._object_row(digest)
                if row is not None:
                    rows[digest] = row
                    changed = True
            if changed:
                self._write_index(rows)
            return rows

    def _object_row(self, digest: str) -> Optional[dict]:
        """The index row of one report object, or ``None``."""
        path = self.report_path(digest)
        try:
            payload = read_checked_json(
                path, required_keys=("spec", "report")
            )
            spec = JobSpec.from_json(payload["spec"])
            report = KernelReport.from_json(payload["report"])
            created_at = path.stat().st_mtime
        except (CacheCorruption, ReportSchemaError, ValueError, OSError,
                TransientIOError, EngineFailure):
            return None  # quarantined, stale or gone; skip
        return _index_row(spec, report, digest, created_at)

    def _write_index(self, rows: Dict[str, dict]) -> None:
        try:
            atomic_write_json(self.index_path, {"rows": rows})
        except (TransientIOError, EngineFailure, OSError) as exc:
            log.warning("index write failed (%s); continuing", exc)

    def query(
        self,
        *,
        benchmark: Optional[str] = None,
        platform: Optional[str] = None,
        granularity: Optional[str] = None,
        objective: Optional[str] = None,
        engine: Optional[str] = None,
        boundedness: Optional[str] = None,
        cap_below: Optional[float] = None,
        cap_above: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """Range query over the index (e.g. "all BB kernels on rpl with
        a unit cap below 2.0 GHz").  Returns summary rows, sorted by
        (benchmark, platform, objective, digest) for determinism."""
        if boundedness is not None and boundedness not in ("CB", "BB"):
            raise ValueError(
                f"boundedness must be 'CB' or 'BB', got {boundedness!r}"
            )
        rows = list(self._load_index().values())

        def keep(row: dict) -> bool:
            if benchmark is not None and row["benchmark"] != benchmark:
                return False
            if platform is not None and row["platform"] != platform:
                return False
            if granularity is not None and row["granularity"] != granularity:
                return False
            if objective is not None and row["objective"] != objective:
                return False
            if engine is not None and row["engine"] != engine:
                return False
            if boundedness is not None and row["boundedness"] != boundedness:
                return False
            if cap_below is not None:
                if row["min_cap_ghz"] is None:
                    return False
                if not row["min_cap_ghz"] < cap_below:
                    return False
            if cap_above is not None:
                if row["max_cap_ghz"] is None:
                    return False
                if not row["max_cap_ghz"] > cap_above:
                    return False
            return True

        matched = sorted(
            (row for row in rows if keep(row)),
            key=lambda row: (
                row["benchmark"], row["platform"],
                row["objective"], row["digest"],
            ),
        )
        if limit is not None:
            matched = matched[: max(0, int(limit))]
        return matched

    def stats(self) -> dict:
        """Object counts, for health endpoints and debugging."""
        reports = (
            len(list(self.reports_dir.glob("*.json")))
            if self.reports_dir.is_dir() else 0
        )
        workloads = (
            len(list(self.workloads_dir.glob("*.json")))
            if self.workloads_dir.is_dir() else 0
        )
        families = (
            len(list(self.families_dir.glob("*.json")))
            if self.families_dir.is_dir() else 0
        )
        return {
            "root": str(self.root),
            "reports": reports,
            "workloads": workloads,
            "families": families,
            "indexed": len(self._load_index()),
        }
