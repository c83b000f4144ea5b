"""Session-wide test configuration.

Every test session characterizes against its own result store: the
session fixture points ``REPRO_CACHE_DIR`` at a fresh temporary
directory, so tier-1 neither reads nor writes the checkout's default
store (``.polyufc_cache/store``) and a warm developer store cannot hide
a test's cost.  Subprocesses (the examples, ``repro.experiments.
summarize``) inherit the variable and share the one session store.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_store(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield


@pytest.fixture()
def no_memo(monkeypatch):
    """Empty the in-process memo and bound both its LRUs at zero, so
    every CM and line stream is recomputed and none is kept.  Emptying
    matters: a zero bound alone still serves what earlier tests stored.
    """
    from repro.cache import memo

    memo.clear_memo()
    monkeypatch.setattr(memo, "CM_CAPACITY", 0)
    monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", 0)
