"""Exceptions shared across the package, and the helpers for time budgets
and recursion depth."""

import sys
import time
from contextlib import contextmanager


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


def deadline_after(budget_s: float | None) -> float | None:
    """The ``time.monotonic()`` instant ``budget_s`` seconds from now;
    ``None`` (no budget) stays ``None``."""
    return time.monotonic() + budget_s if budget_s is not None else None


def seconds_left(deadline: float | None) -> float | None:
    """Budget left before ``deadline``, to hand to the next call; raises
    :class:`ResourceCapError` once it is used up."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise ResourceCapError("computation exceeded its time budget")
    return left


@contextmanager
def recursion_limit(depth: int):
    """Raise the interpreter's recursion limit to at least ``depth`` inside
    the block, and restore the previous limit on the way out."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, depth))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
