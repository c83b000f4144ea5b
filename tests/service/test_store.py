"""ResultStore: lossless round-trips, quarantine, index + range queries."""

import dataclasses
import sys
import threading

import pytest

from repro.mlpolyufc.reports import (
    REPORT_SCHEMA_VERSION,
    KernelReport,
    UnitReport,
)
from repro.runtime import read_checked_json
from repro.service.spec import JobSpec
from repro.service.store import ResultStore


def make_unit(name="atax_0", **overrides) -> UnitReport:
    base = dict(
        name=name,
        omega=1000,
        oi_fpb=0.5,
        boundedness="BB",
        cap_ghz=2.5,
        parallel=True,
        q_dram_model=2000,
        level_accesses_hw=(10, 5, 2),
        dram_fetch_bytes_hw=128,
        dram_writeback_bytes_hw=64,
        dram_lines_hw=3,
        model_level_bytes=(256, 128, 64),
        model_dram_lines=4,
        cores_fraction=1.0,
        search_iterations=7,
    )
    base.update(overrides)
    return UnitReport(**base)


def make_report(benchmark="atax", objective="edp", **unit_overrides):
    unit = make_unit(name=f"{benchmark}_0", **unit_overrides)
    return KernelReport(
        benchmark=benchmark,
        platform="raptorlake_sim",
        granularity="linalg",
        objective=objective,
        set_associative=True,
        balance_fpb=1.0,
        units=[unit],
        timings_ms={"pluto": 1.0},
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestReportObjects:
    def test_roundtrip_is_lossless_including_resilience_metadata(
        self, store
    ):
        spec = JobSpec(benchmark="atax")
        report = make_report(
            cm_note="symbolic: fell back to fast on chunk 3",
            warning="hardware simulation retried once",
        )
        assert store.put_report(spec, report) is not None
        fetched = store.get_report(spec.digest())
        assert fetched is not None
        assert fetched.to_json() == report.to_json()
        assert fetched.units[0].cm_note == report.units[0].cm_note
        assert fetched.units[0].warning == report.units[0].warning
        assert fetched.units[0].degraded == "exact"

    def test_degraded_reports_are_refused(self, store):
        spec = JobSpec(benchmark="atax")
        degraded = make_report(
            degraded="timeout-cap", warning="deadline expired"
        )
        assert not degraded.fully_exact
        assert store.put_report(spec, degraded) is None
        assert not store.report_path(spec.digest()).exists()
        assert store.query() == []

    def test_corrupted_entry_is_quarantined_never_served(self, store):
        spec = JobSpec(benchmark="atax")
        report = make_report()
        path = store.put_report(spec, report)
        path.write_text(path.read_text()[:30])
        assert store.get_report(spec.digest()) is None
        assert list(store.reports_dir.glob("*.corrupt"))
        # The slot is reusable: a recompute repopulates and serves again.
        assert store.put_report(spec, report) is not None
        assert store.get_report(spec.digest()).to_json() == report.to_json()

    def test_schema_drifted_entry_is_quarantined(self, store):
        spec = JobSpec(benchmark="atax")
        path = store.put_report(spec, make_report())
        payload = read_checked_json(path, quarantine=False)
        payload["report"]["version"] = REPORT_SCHEMA_VERSION - 1
        from repro.runtime import atomic_write_json

        atomic_write_json(path, payload)
        assert store.get_report(spec.digest()) is None
        assert list(store.reports_dir.glob("*.corrupt"))


class TestWorkloadObjects:
    ROWS = [
        {
            "name": "atax_0",
            "level_accesses": [10, 5, 2],
            "dram_fetch_bytes": 128,
            "dram_writeback_bytes": 64,
            "dram_lines": 3,
        }
    ]

    def test_roundtrip(self, store):
        digest = JobSpec(benchmark="atax").workload_digest()
        assert store.put_workload(digest, self.ROWS) is not None
        assert store.get_workload(digest) == self.ROWS

    def test_missing_returns_none(self, store):
        assert store.get_workload("0" * 64) is None

    def test_drifted_schema_is_quarantined(self, store):
        digest = JobSpec(benchmark="atax").workload_digest()
        rows = [dict(self.ROWS[0])]
        rows[0].pop("dram_lines")
        store.put_workload(digest, rows)
        assert store.get_workload(digest) is None
        assert list(store.workloads_dir.glob("*.corrupt"))


class TestIndexAndQueries:
    @pytest.fixture()
    def populated(self, store):
        # atax: BB (oi 0.5 < balance 1.0); bicg: CB (oi 2.0); two
        # objectives for atax at different caps.
        store.put_report(
            JobSpec(benchmark="atax", objective="edp"),
            make_report("atax", "edp", cap_ghz=2.5),
        )
        store.put_report(
            JobSpec(benchmark="atax", objective="energy"),
            make_report("atax", "energy", cap_ghz=3.8),
        )
        store.put_report(
            JobSpec(benchmark="bicg", objective="edp"),
            make_report(
                "bicg", "edp", cap_ghz=1.5, boundedness="CB",
                q_dram_model=500,
            ),
        )
        return store

    def test_filters(self, populated):
        assert len(populated.query()) == 3
        assert [
            row["benchmark"] for row in populated.query(benchmark="atax")
        ] == ["atax", "atax"]
        assert [
            row["objective"]
            for row in populated.query(benchmark="atax")
        ] == ["edp", "energy"]  # deterministic sort
        bb = populated.query(boundedness="BB")
        assert {row["benchmark"] for row in bb} == {"atax"}
        low = populated.query(cap_below=2.0)
        assert [row["benchmark"] for row in low] == ["bicg"]
        high = populated.query(cap_above=3.0)
        assert [row["objective"] for row in high] == ["energy"]
        assert len(populated.query(limit=1)) == 1
        assert populated.query(platform="bdw") == []

    def test_invalid_boundedness_raises(self, populated):
        with pytest.raises(ValueError):
            populated.query(boundedness="XX")

    def test_put_leaves_the_index_alone(self, store):
        store.put_report(JobSpec(benchmark="atax"), make_report())
        assert not store.index_path.exists()
        assert len(store.query()) == 1  # the read indexes the object
        before = store.index_path.read_bytes()
        store.put_report(
            JobSpec(benchmark="bicg"), make_report("bicg", cap_ghz=1.5)
        )
        assert store.index_path.read_bytes() == before
        assert len(store.query()) == 2

    def test_rebuild_after_index_loss(self, populated):
        rows = populated.query()
        populated.index_path.unlink()
        assert populated.query() == rows  # reconciled from the objects
        assert len(populated.query(benchmark="atax")) == 2

    def test_corrupted_object_drops_out_of_queries(self, populated):
        atax = JobSpec(benchmark="atax", objective="edp").digest()
        assert len(populated.query()) == 3  # indexed before the damage
        path = populated.report_path(atax)
        path.write_text(path.read_text()[:30])
        assert populated.get_report(atax) is None  # quarantined
        assert list(populated.reports_dir.glob("*.corrupt"))
        assert atax not in [row["digest"] for row in populated.query()]
        # An object corrupted before any read is quarantined by the
        # reconcile itself.
        bicg = JobSpec(benchmark="bicg", objective="edp").digest()
        populated.index_path.unlink()
        path = populated.report_path(bicg)
        path.write_text(path.read_text()[:30])
        assert [row["benchmark"] for row in populated.query()] == ["atax"]
        assert not path.exists()

    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        # Two handles on one root, like a scheduler and its pool
        # workers: separate locks, only the objects on disk are shared.
        root = tmp_path / "store"
        handles = [ResultStore(root), ResultStore(root)]
        names = ["atax", "bicg", "mvt", "gemm", "trisolv", "2mm", "3mm",
                 "gesummv"]
        objectives = ["edp", "energy", "performance"]

        def write(handle, chunk):
            for name in chunk:
                for objective in objectives:
                    handle.put_report(
                        JobSpec(benchmark=name, objective=objective),
                        make_report(name, objective),
                    )

        def read():
            for _ in range(20):
                handles[1].query()

        threads = [
            threading.Thread(target=write, args=(handles[i % 2], names[i::4]))
            for i in range(4)
        ] + [threading.Thread(target=read)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(ResultStore(root).query()) == len(names) * len(objectives)

    def test_corrupt_index_rebuilds_automatically(self, populated):
        populated.index_path.write_text("not an envelope at all")
        assert len(populated.query()) == 3

    def test_stats(self, populated):
        populated.put_workload(
            JobSpec(benchmark="atax").workload_digest(),
            TestWorkloadObjects.ROWS,
        )
        stats = populated.stats()
        assert stats["reports"] == 3
        assert stats["workloads"] == 1
        assert stats["indexed"] == 3

    def test_client_stats_keep_their_keys_without_a_store(self, tmp_path):
        from repro.service import ServiceClient

        with ServiceClient(store=tmp_path / "store") as client:
            with_store = client.store_stats()
        with ServiceClient(store=False) as client:
            without = client.store_stats()
        assert set(without) == set(with_store)
