"""Exception hierarchy shared by all maghom modules, and validated settings."""

import os


class MaghomError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MaghomError):
    """Malformed input text (edge list, graph6 line, certificate file)."""


class ValidationError(MaghomError):
    """Structurally valid input that violates a required precondition."""


class BudgetExceeded(MaghomError):
    """A configured resource cap was hit before the computation finished."""


class CertificateError(MaghomError):
    """A supplied certificate is not valid for the graph it claims to cover."""


class InternalCheckError(MaghomError):
    """Two independent computations of the same quantity disagree."""


def positive_int_env(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, or ``default``
    when it is unset or empty; any other value raises ValidationError."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {raw!r}")
    return value
