"""Exceptions shared across the package."""

import time


class ParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


class AmbientMismatchError(ParameterError):
    """Monomials from different variable sets were mixed in one operation."""


class UnknownVariableError(ParameterError):
    """A variable name is not part of the ambient variable set."""


class ResourceCapError(RuntimeError):
    """A computation exceeded a size cap or time budget.

    Deliberately distinct from a mathematical answer: a capped search must
    never be reported as "infeasible" or as a value.
    """


def check_deadline(deadline: float | None) -> None:
    """Raise :class:`ResourceCapError` once ``time.monotonic()`` has passed
    ``deadline``; ``None`` means no budget."""
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceCapError("computation exceeded its time budget")
