"""Faults armed at every named site must never crash ``kernel_report``.

Each case arms one fault through the ``REPRO_FAULTS`` environment knob
(the same mechanism the CI fault-injection job uses) and runs the full
report twice -- once against cold caches so the write-side sites fire,
once against warm caches so the read-side sites fire.  The report must
come back with units either exact or visibly degraded; nothing raises.
"""

import pytest

from repro.cache.memo import clear_memo
from repro.runtime.faults import KNOWN_SITES

# Memoization stays off so the engines recompute and fire on both passes.
CASES = [
    ("cm.trace", "fail"),
    ("cm.engine", "fail"),
    ("cm.chunk", "fail"),
    ("cm.chunk", "slow:0.01"),
    ("cm.count", "fail"),
    ("report.read", "corrupt"),
    ("report.read", "io"),
    ("report.write", "io"),
    ("report.write", "fail"),
]


# service.worker fires inside forked pool workers, which kernel_report
# never reaches; its coverage (worker death, pool rebuild) lives in
# tests/service/test_pool.py.
SERVICE_SITES = {"service.worker"}


def test_every_site_is_covered():
    assert {site for site, _ in CASES} == set(KNOWN_SITES) - SERVICE_SITES


@pytest.mark.parametrize(
    "site,kind",
    CASES,
    ids=[f"{site}:{kind.split(':')[0]}" for site, kind in CASES],
)
def test_armed_fault_never_crashes_kernel_report(
    tmp_path, monkeypatch, site, kind
):
    from repro.experiments import kernel_report

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reports"))
    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    clear_memo()
    monkeypatch.setenv("REPRO_FAULTS", f"{site}:{kind}")

    cold = kernel_report("doitgen", "rpl", cm_timeout_s=5.0)
    warm = kernel_report("doitgen", "rpl", cm_timeout_s=5.0)

    for report in (cold, warm):
        assert report.units
        for unit in report.units:
            assert unit.degraded in ("exact", "approx", "timeout-cap")
            if unit.degraded != "exact":
                assert unit.warning  # degradation is visible per unit
        assert all(cap > 0 for cap in report.caps())


def test_hard_engine_fault_is_visible_in_unit_metadata(tmp_path, monkeypatch):
    from repro.experiments import kernel_report

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    monkeypatch.setenv("REPRO_FAULTS", "cm.engine:fail")
    clear_memo()
    report = kernel_report("doitgen", "rpl")
    assert report.degraded_units  # every unit lost its exact rung
    assert not report.fully_exact
    for unit in report.units:
        assert unit.degraded == "timeout-cap"
        assert "injected engine fault" in unit.warning
    # degraded reports are never persisted -- the store cannot be poisoned
    assert not list(tmp_path.rglob("reports/*.json"))
    # disarmed, the same slot recomputes exactly and persists
    monkeypatch.setenv("REPRO_FAULTS", "")
    exact = kernel_report("doitgen", "rpl")
    assert exact.fully_exact
    assert list(tmp_path.rglob("reports/*.json"))
