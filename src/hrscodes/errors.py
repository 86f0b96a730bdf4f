"""Exception types shared across the package, and its one integer check."""

import numpy as np


class FieldMismatchError(ValueError):
    """Two operands live in prime fields with different moduli."""


class ParameterError(ValueError):
    """Invalid code parameters, shapes, degrees, or job inputs."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed its codeword budget."""


def require_int(value, name: str) -> int:
    """value as a Python int: an int or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
