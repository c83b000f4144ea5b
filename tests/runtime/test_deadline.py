"""Unit tests for the cooperative deadline primitive."""

import time

import pytest

from repro.runtime import Deadline, DeadlineExceeded, check


class TestDeadline:
    def test_after_none_means_no_budget(self):
        assert Deadline.after(None) is None

    def test_after_builds_a_deadline(self):
        deadline = Deadline.after(10.0)
        assert isinstance(deadline, Deadline)
        assert deadline.budget_s == 10.0
        assert 0.0 < deadline.remaining() <= 10.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_check_raises_with_site(self):
        deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceeded, match="at cm.chunk"):
            deadline.check("cm.chunk")

    def test_check_passes_before_expiry(self):
        Deadline(60.0).check("anywhere")

    def test_expiry_over_time(self):
        deadline = Deadline(0.02)
        assert not deadline.expired()
        time.sleep(0.03)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_module_level_check_tolerates_none(self):
        check(None, "anywhere")  # no-op
        with pytest.raises(DeadlineExceeded):
            check(Deadline(0.0), "site")

    def test_exception_carries_site(self):
        try:
            Deadline(0.0).check("cm.level:L2")
        except DeadlineExceeded as exc:
            assert exc.site == "cm.level:L2"
        else:  # pragma: no cover
            pytest.fail("expected DeadlineExceeded")

