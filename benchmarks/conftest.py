"""Pytest configuration for the table/figure harnesses.

Every harness prints the regenerated table/series to stdout (run with
``pytest benchmarks/ --benchmark-only -s`` to see them) and asserts the
paper's qualitative shape.  Heavy artifacts come from the result store
(:mod:`repro.experiments`); each session gets a fresh one, shared by all
of its harnesses, so a run never reads or writes the checkout's default
store.
"""

import sys
from pathlib import Path

import pytest

# Make the sibling helper module importable when pytest sets rootdir
# elsewhere.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session", autouse=True)
def session_store(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield
