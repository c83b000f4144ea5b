"""JobSpec validation and content-digest semantics."""

import dataclasses

import pytest

from repro.service.spec import SPEC_VERSION, JobSpec, model_versions


def test_digest_is_deterministic():
    a = JobSpec(benchmark="atax")
    b = JobSpec(benchmark="atax")
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64  # sha256 hex


@pytest.mark.parametrize(
    "field,value",
    [
        ("benchmark", "bicg"),
        ("platform", "bdw"),
        ("granularity", "affine"),
        ("objective", "energy"),
        ("set_associative", False),
        ("tile_size", 16),
        ("epsilon", 1e-2),
        ("cap_overhead_factor", 10.0),
        ("engine", "reference"),
    ],
)
def test_digest_covers_every_identity_field(field, value):
    base = JobSpec(benchmark="atax")
    changed = dataclasses.replace(base, **{field: value})
    assert base.digest() != changed.digest()


def test_timeout_is_an_execution_knob_not_identity():
    base = JobSpec(benchmark="atax")
    bounded = dataclasses.replace(base, cm_timeout_s=1.0)
    assert base.digest() == bounded.digest()


def test_workload_digest_shared_across_cap_selection_knobs():
    base = JobSpec(benchmark="atax")
    for field, value in [
        ("objective", "performance"),
        ("epsilon", 1e-2),
        ("cap_overhead_factor", 1.0),
        ("engine", "reference"),
    ]:
        variant = dataclasses.replace(base, **{field: value})
        assert base.workload_digest() == variant.workload_digest()
        # ... while the full report digest does change.
        assert base.digest() != variant.digest()
    # The simulator-visible fields DO change the workload digest.
    for field, value in [
        ("benchmark", "bicg"),
        ("platform", "bdw"),
        ("granularity", "affine"),
        ("set_associative", False),
        ("tile_size", 16),
    ]:
        variant = dataclasses.replace(base, **{field: value})
        assert base.workload_digest() != variant.workload_digest()


def test_digest_folds_in_model_versions(monkeypatch):
    base = JobSpec(benchmark="atax")
    before = base.digest()
    monkeypatch.setattr(
        "repro.service.spec.SPEC_VERSION", SPEC_VERSION + 1
    )
    assert base.digest() != before


def test_digest_pins_the_resolved_engine():
    spec = JobSpec(benchmark="atax")
    # The default engine is fast: it shares the explicit fast slot and
    # no other engine's.
    assert spec.digest() == dataclasses.replace(spec, engine="fast").digest()
    assert (
        spec.digest()
        != dataclasses.replace(spec, engine="reference").digest()
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"benchmark": "nope"},
        {"benchmark": "atax", "platform": "skylake"},
        {"benchmark": "atax", "granularity": "basicblock"},
        {"benchmark": "atax", "objective": "speed"},
        {"benchmark": "atax", "engine": "magic"},
        {"benchmark": "atax", "tile_size": 0},
        {"benchmark": "atax", "epsilon": 0.0},
        {"benchmark": "atax", "cap_overhead_factor": -1.0},
        {"benchmark": "atax", "cm_timeout_s": -5.0},
    ],
)
def test_validate_rejects_malformed_fields(kwargs):
    with pytest.raises(ValueError):
        JobSpec(**kwargs).validate()


@pytest.mark.parametrize(
    "fields",
    [
        {"tile_size": True},
        {"epsilon": True},
        {"set_associative": "no"},
        {"epsilon": "0.01"},
        {"cap_overhead_factor": "50"},
        {"cm_timeout_s": "5"},
    ],
    ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()),
)
def test_from_json_rejects_mistyped_fields(fields):
    with pytest.raises(ValueError):
        JobSpec.from_json({"benchmark": "atax", **fields})


def test_type_checks_keep_valid_digests(monkeypatch):
    # Versions frozen so the pins only move if the recipe or a field's
    # canonical form does.
    monkeypatch.setattr(
        "repro.service.spec.model_versions",
        lambda: {"spec": 1, "report": 1, "memo": 1, "envelope": 1},
    )
    default = JobSpec.from_json({"benchmark": "atax"})
    full = JobSpec.from_json({
        "benchmark": "gemm", "platform": "bdw", "granularity": "affine",
        "objective": "energy", "set_associative": False, "tile_size": 16,
        "epsilon": 0.01, "cap_overhead_factor": 10, "engine": "reference",
        "sizes": {"ni": 40}, "cm_timeout_s": 2,
    })
    assert default.digest() == (
        "9de2d3e01dad0d71a1b57f2b613ff3ded3d218916b63b26d20188f1a85806a8e"
    )
    assert full.digest() == (
        "24084151cd664dd6366c6ff2f1f59a7ace6055bc57e67882851f924814e69e59"
    )


def test_from_json_roundtrip_and_strictness():
    spec = JobSpec(benchmark="atax", objective="energy", epsilon=1e-2)
    assert JobSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        JobSpec.from_json({"benchmark": "atax", "bogus": 1})
    with pytest.raises(ValueError):
        JobSpec.from_json({"platform": "rpl"})  # benchmark missing
    with pytest.raises(ValueError):
        JobSpec.from_json(["atax"])  # not an object


def test_model_versions_shape():
    versions = model_versions()
    assert set(versions) == {"spec", "report", "memo", "envelope"}
    assert all(isinstance(v, int) for v in versions.values())
