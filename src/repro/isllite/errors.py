"""Exceptions raised by the integer set library."""


class IslError(Exception):
    """Base class for all isllite errors."""


class SpaceMismatchError(IslError):
    """Two objects live in incompatible spaces."""

