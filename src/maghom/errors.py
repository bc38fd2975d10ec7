"""Exception hierarchy shared by all maghom modules, and the resource limits.

This module alone names, reads, checks and words the two limits: the
basis cap on the cells a basis or K_l(a,b) holds and the coefficients a
magnitude table holds (``basis_cap``, ``over_cap``, ``BasisCharge``,
``check_table_cap``),
and the search budget on the nodes of one certificate search, which
``--budget`` overrides (``budget_option``, ``search_budget``,
``check_search_budget``).  A setting is read once per call that charges
it, never once per comparison.  ``check_length`` words the one rule for
a length, degree, lmax or series order passed to the library.
"""

import os
from collections.abc import Mapping


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


def check_length(what: str, value: object, signed: bool = False) -> None:
    """Refuse ``value``, a length, degree, lmax or order, with
    ValidationError unless it is an ``int`` (a bool is refused too) and,
    unless ``signed``, >= 0."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < 0 and not signed:
        raise ValidationError(f"{what} must be >= 0")


def basis_cap() -> int:
    return positive_int_env("MAGHOM_BASIS_CAP", 2_000_000)


def over_cap(what: str, cap: int, unit: str = "") -> BudgetExceeded:
    return BudgetExceeded(f"{what} exceeds the cap of {cap}{unit}")


class BasisCharge:
    """The running count of one basis, ``what``, against the basis cap,
    which is read once, when the charge is made.  Each cell of the
    summand (a, b) counts ``weights[a, b]`` times, as it stands for that
    many cells of the full basis.  ``add`` counts n more and refuses the
    basis as soon as the count is over the cap, so the cells that one
    charge has let by never outgrow it by more than one batch.  A caller
    that counts a run of batches itself may add them once, at its end,
    if it calls ``add`` with its count so far as soon as that is over
    ``room``, what is left of the cap."""

    __slots__ = ("what", "weights", "cap", "room")

    def __init__(self, what: str, weights: Mapping[tuple[int, int], int]):
        self.what, self.weights, self.cap = what, weights, basis_cap()
        self.room = self.cap

    def add(self, n: int) -> None:
        self.room -= n
        if self.room < 0:
            raise over_cap(self.what, self.cap)


def check_table_cap(what: str, rows: int, cols: int, words: int = 1) -> None:
    """Refuse to hold ``what``, a table of rows x cols coefficients of up
    to ``words`` machine words each, when its words are over the basis cap."""
    cap = basis_cap()
    if rows * cols * words > cap:
        each = f" of {words} machine words each" if rows * cols <= cap else ""
        raise BudgetExceeded(
            f"{what} needs {rows} x {cols} coefficients{each}, over the basis cap {cap}"
        )


def check_search_budget(nodes: int, budget: int) -> None:
    """Refuse the ``nodes``-th node of a certificate search over ``budget``."""
    if nodes > budget:
        raise BudgetExceeded(f"certificate search exceeded {budget} nodes")


def budget_option(budget: int | None) -> int | None:
    """The ``--budget`` option as given, None when it is absent; a value
    below 1 raises ValidationError."""
    if budget is not None and budget < 1:
        raise ValidationError("--budget must be positive")
    return budget


def search_budget(budget: int | None = None) -> int:
    """``budget`` when given, else the search budget of the environment;
    a given value below 1 raises ValidationError."""
    if budget is None:
        return positive_int_env("MAGHOM_SEARCH_BUDGET", 10_000_000)
    if budget < 1:
        raise ValidationError(f"search budget must be a positive integer, got {budget}")
    return budget
