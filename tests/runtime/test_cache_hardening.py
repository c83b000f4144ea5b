"""Hardened disk-layer tests: atomicity, validation, quarantine, retries."""

import json
import threading

import pytest

from repro.runtime import (
    CacheCorruption,
    TransientIOError,
    atomic_write_json,
    read_checked_json,
    with_retries,
)
from repro.runtime import faults
from repro.runtime.io import checksum, wrap


class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "entry.json"
        payload = {"a": 1, "b": [1, 2, 3], "c": "x"}
        atomic_write_json(path, payload)
        assert read_checked_json(path) == payload

    def test_checksum_is_canonical(self):
        assert checksum({"a": 1, "b": 2}) == checksum({"b": 2, "a": 1})

    def test_wrap_shape(self):
        envelope = wrap({"k": 1})
        assert envelope["format"] == "repro-envelope"
        assert envelope["payload"] == {"k": 1}
        assert envelope["sha256"] == checksum({"k": 1})

    def test_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checked_json(tmp_path / "absent.json")


class TestValidationAndQuarantine:
    def quarantined(self, tmp_path, name="entry.json"):
        return (tmp_path / (name + ".corrupt")).exists()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"a": 1})
        path.write_text(path.read_text()[:10])
        with pytest.raises(CacheCorruption):
            read_checked_json(path)
        assert not path.exists()
        assert self.quarantined(tmp_path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"a": 1})
        envelope = json.loads(path.read_text())
        envelope["payload"]["a"] = 2  # flip a value, keep the checksum
        path.write_text(json.dumps(envelope))
        with pytest.raises(CacheCorruption, match="checksum"):
            read_checked_json(path)
        assert self.quarantined(tmp_path)

    def test_wrong_envelope_version(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"a": 1})
        envelope = json.loads(path.read_text())
        envelope["version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(CacheCorruption, match="version"):
            read_checked_json(path)

    def test_legacy_unenveloped_entry_rejected(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"old": "format"}))
        with pytest.raises(CacheCorruption, match="format"):
            read_checked_json(path)

    def test_required_keys_enforced(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"present": 1})
        with pytest.raises(CacheCorruption, match="missing keys"):
            read_checked_json(path, required_keys=("present", "absent"))

    def test_quarantine_can_be_disabled(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("not json at all")
        with pytest.raises(CacheCorruption):
            read_checked_json(path, quarantine=False)
        assert path.exists()
        assert not self.quarantined(tmp_path)


class TestRetries:
    def test_transient_failures_then_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert with_retries(flaky, base_delay_s=0.001) == "ok"
        assert len(attempts) == 3

    def test_exhausted_budget_surfaces_structured_error(self):
        def always_down():
            raise OSError("disk on fire")

        with pytest.raises(TransientIOError, match="disk on fire"):
            with_retries(always_down, retries=2, base_delay_s=0.001)

    def test_filenotfound_is_never_retried(self):
        attempts = []

        def missing():
            attempts.append(1)
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            with_retries(missing, base_delay_s=0.001)
        assert len(attempts) == 1

    def test_injected_transient_write_fault_recovers(self, tmp_path):
        path = tmp_path / "entry.json"
        with faults.inject("report.write", "io", arg=2):
            atomic_write_json(
                path, {"a": 1}, fault_site="report.write", base_delay_s=0.001
            )
        assert read_checked_json(path) == {"a": 1}

    def test_persistent_write_fault_surfaces(self, tmp_path):
        path = tmp_path / "entry.json"
        with faults.inject("report.write", "io"):
            with pytest.raises(TransientIOError):
                atomic_write_json(
                    path, {"a": 1}, fault_site="report.write",
                    base_delay_s=0.001,
                )
        assert not path.exists()


class TestConcurrentWriters:
    def test_racing_writers_never_tear(self, tmp_path):
        path = tmp_path / "entry.json"
        errors = []
        barrier = threading.Barrier(8)

        def writer(i):
            try:
                barrier.wait()
                for round_no in range(20):
                    atomic_write_json(path, {"writer": i, "round": round_no})
                    read_checked_json(path)  # must always validate
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = read_checked_json(path)
        assert 0 <= final["writer"] < 8 and 0 <= final["round"] < 20
        assert not list(tmp_path.glob("*.tmp"))  # no staging debris


class TestMemoHardening:
    def small_inputs(self):
        from repro.benchsuite.polybench import POLYBENCH_BUILDERS
        from repro.cache import CacheHierarchy, CacheLevelConfig

        module = POLYBENCH_BUILDERS["gemm"](ni=8, nj=8, nk=8)
        hierarchy = CacheHierarchy(
            (CacheLevelConfig("L1", 8 * 64, 64, 2),)
        )
        return module, hierarchy

    def test_concurrent_memoized_cm_writers(self):
        from repro.cache.memo import (
            _cm_lru,
            _stream_lru,
            clear_memo,
            memoized_cm_with_note,
        )

        module, hierarchy = self.small_inputs()
        results = [None] * 6
        barrier = threading.Barrier(6)

        def worker(i):
            barrier.wait()
            results[i] = memoized_cm_with_note(module, None, hierarchy)

        clear_memo()
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == results[0] for result in results)
        assert len(_cm_lru._data) == 1
        # Every worker that missed stored the unit's stream under one key.
        ((stream, weight),) = _stream_lru._data.values()
        assert _stream_lru.weight == weight == stream.nbytes

    def test_stream_lru_byte_count_survives_racing_writers(
        self, monkeypatch
    ):
        import sys

        from repro.cache import generate_trace, line_stream, memo
        from repro.cache.memo import _stream_lru, clear_memo

        module, _hierarchy = self.small_inputs()
        trace = generate_trace(module)
        streams = [line_stream(trace, 64) for _ in range(4)]
        budget = 3 * streams[0].nbytes
        monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", budget)
        clear_memo()
        barrier = threading.Barrier(16, timeout=30)
        errors = []

        def writer(i):
            barrier.wait()
            try:
                for round_ in range(2000):
                    key = f"unit{(i + round_) % 5}"
                    _stream_lru.put(key, streams[round_ % 4])
                    _stream_lru.get(f"unit{round_ % 5}")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        held = [weight for _stream, weight in _stream_lru._data.values()]
        assert _stream_lru.weight == sum(held) <= budget
        assert len(held) == 3
        clear_memo()


class TestReportCacheHardening:
    def test_corrupted_report_recomputes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import kernel_report

        fresh = kernel_report("doitgen", "rpl")
        entries = list((tmp_path / "store" / "reports").glob("*.json"))
        assert len(entries) == 1
        entries[0].write_text(entries[0].read_text()[:25])
        recomputed = kernel_report("doitgen", "rpl")
        assert recomputed.caps() == fresh.caps()
        assert list(tmp_path.rglob("*.corrupt"))
        # and the slot was repopulated with a valid entry
        assert (
            read_checked_json(entries[0])["report"]["benchmark"] == "doitgen"
        )

    def test_schema_drifted_report_recomputes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import kernel_report

        fresh = kernel_report("doitgen", "rpl")
        entry = next(
            iter((tmp_path / "store" / "reports").glob("*.json"))
        )
        # Valid envelope, stale payload shape: drop a required unit field.
        payload = read_checked_json(entry, quarantine=False)
        for unit in payload["report"]["units"]:
            unit.pop("cap_ghz")
        atomic_write_json(entry, payload)
        recomputed = kernel_report("doitgen", "rpl")
        assert recomputed.caps() == fresh.caps()
        assert list(tmp_path.rglob("*.corrupt"))
