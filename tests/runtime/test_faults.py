"""Unit tests for the deterministic fault-injection harness."""

import time

import pytest

from repro.runtime import EngineFailure, FaultConfigError
from repro.runtime.faults import (
    KINDS,
    KNOWN_SITES,
    FaultSpec,
    armed,
    fire,
    inject,
    mangle,
    parse_faults,
)


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """These tests reason about *un*-armed sites; CI may arm globally."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


class TestParsing:
    def test_single_spec(self):
        specs = parse_faults("memo.read:corrupt")
        assert set(specs) == {"memo.read"}
        assert specs["memo.read"].kind == "corrupt"
        assert specs["memo.read"].arg is None

    def test_multiple_specs_with_args(self):
        specs = parse_faults("cm.engine:fail:2, report.write:io:0.5")
        assert specs["cm.engine"].arg == 2
        assert specs["report.write"].arg == 0.5

    def test_empty_string_arms_nothing(self):
        assert parse_faults("") == {}

    @pytest.mark.parametrize(
        "raw", ["justasite", "a:b:c:d", "site:fail:soon", "site:explode"]
    )
    def test_malformed_specs_rejected(self, raw):
        with pytest.raises(FaultConfigError):
            parse_faults(raw)

    def test_nonpositive_arg_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec("s", "fail", arg=0)

    def test_kind_list_is_closed(self):
        assert set(KINDS) == {"fail", "io", "slow", "corrupt", "die"}


class TestInjection:
    def test_nothing_armed_by_default(self):
        for site in KNOWN_SITES:
            assert armed(site) is None
            fire(site)  # no-op

    def test_inject_scopes_the_fault(self):
        assert armed("cm.engine") is None
        with inject("cm.engine", "fail"):
            assert armed("cm.engine").kind == "fail"
            with pytest.raises(EngineFailure) as excinfo:
                fire("cm.engine")
            assert excinfo.value.site == "cm.engine"
        assert armed("cm.engine") is None

    def test_io_kind_raises_oserror(self):
        with inject("memo.write", "io"):
            with pytest.raises(OSError):
                fire("memo.write")

    def test_slow_kind_sleeps(self):
        with inject("cm.chunk", "slow", arg=0.03):
            start = time.monotonic()
            fire("cm.chunk")
            assert time.monotonic() - start >= 0.03

    def test_count_limited_fault_is_transient(self):
        with inject("report.read", "io", arg=2):
            for _ in range(2):
                with pytest.raises(OSError):
                    fire("report.read")
            fire("report.read")  # third call passes
            fire("report.read")

    def test_innermost_frame_wins(self):
        with inject("cm.trace", "fail"):
            with inject("cm.trace", "slow", arg=0.001):
                assert armed("cm.trace").kind == "slow"
                fire("cm.trace")  # sleeps instead of raising
            with pytest.raises(EngineFailure):
                fire("cm.trace")

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cm.count:fail")
        assert armed("cm.count").kind == "fail"
        with pytest.raises(EngineFailure):
            fire("cm.count")
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert armed("cm.count") is None

    def test_probabilistic_fault_is_seeded(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")

        def outcomes():
            with inject("cm.chunk", "io", arg=0.5) as armed_fault:
                return [armed_fault.should_fire() for _ in range(32)]

        first, second = outcomes(), outcomes()
        assert first == second  # deterministic under a fixed seed
        assert any(first) and not all(first)  # actually probabilistic


class TestMangle:
    def test_mangle_only_with_corrupt_kind(self):
        text = '{"payload": 1}'
        assert mangle("memo.write", text) == text
        with inject("memo.write", "io"):
            assert mangle("memo.write", text) == text
        with inject("memo.write", "corrupt"):
            assert mangle("memo.write", text) != text

    def test_mangled_text_is_not_json(self):
        import json

        with inject("report.write", "corrupt"):
            broken = mangle("report.write", '{"a": [1, 2, 3]}')
        with pytest.raises(ValueError):
            json.loads(broken)

    def test_count_limited_corruption(self):
        text = '{"payload": 1}'
        with inject("memo.write", "corrupt", arg=1):
            assert mangle("memo.write", text) != text
            assert mangle("memo.write", text) == text
