"""Exception hierarchy shared across the engine, and the number checks that
the configuration classes and the store's ledger share."""

import math


class AgentMemError(Exception):
    """Base class for all engine errors."""


class ValidationError(AgentMemError):
    """Input violates a documented precondition or invariant."""


class NotFoundError(AgentMemError):
    """A referenced entry, fact, or document does not exist."""


class StorageError(AgentMemError):
    """The filesystem refused a read or write."""


class ServiceError(AgentMemError):
    """An external HTTP service (reader/embedder/extractor) failed."""


def is_finite_number(value) -> bool:
    """An int or float that is finite as a float. A bool is not a number, and
    NaN passes no comparison, so a check written as a comparison alone would
    let it through."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def is_count(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)
