"""Exceptions raised by the integer set library."""


class IslError(Exception):
    """Base class for all isllite errors."""


class SpaceMismatchError(IslError):
    """Two objects live in incompatible spaces."""


class CountBudgetExceeded(IslError):
    """Exact counting would exceed the enumeration budget.

    Raised only when Monte-Carlo estimation is disabled; otherwise counting
    silently degrades to an estimate (and reports it via
    :class:`repro.isllite.count.CountResult.exact`).
    """
