"""The NRT weight and distance on s x r matrices over GF(p).

A column's weight is s - i + 1 where i is the 1-based index of its topmost
nonzero entry (0 for a zero column); a matrix weighs the sum of its column
weights.  Codewords, received words and errors are NrtMatrix, a frozen
dataclass; its entries and a code's multipliers pass one gate, _elements.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_int
from .field import PrimeField


@dataclass(frozen=True, init=False, repr=False, eq=False)
class NrtMatrix:
    """An s x r matrix over a prime field, entries reduced into [0, p).

    Entries are integers: an integer array, or an object array or nested
    sequence of ints and numpy integers, never bools, floats or complex.
    The backing array is read-only, in copies too (__reduce__ rebuilds them
    through _elements).  Row 1 (index 0) is the order-0 derivative row.
    """

    field: PrimeField
    entries: np.ndarray

    def __init__(self, field: PrimeField, entries):
        a = entries if isinstance(entries, np.ndarray) else np.array(entries, dtype=object)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ParameterError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", _elements(field, a, "matrix entry"))

    def __reduce__(self):
        return NrtMatrix, (self.field, self.entries)

    @property
    def s(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self):
        return self.entries.shape

    def to_lists(self) -> list[list[int]]:
        """Rows as plain lists of ints (row 1 first)."""
        return [[int(x) for x in row] for row in self.entries]

    def _check(self, other):
        if not isinstance(other, NrtMatrix):
            raise TypeError(f"expected NrtMatrix, got {type(other).__name__}")
        self.field.require_same(other.field)
        if self.shape != other.shape:
            raise ParameterError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, NrtMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.all(self.entries == other.entries))
        )

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        return NrtMatrix(self.field, self.entries + other.entries)

    def __sub__(self, other):
        self._check(other)
        return NrtMatrix(self.field, self.entries - other.entries)

    def __repr__(self):
        return f"NrtMatrix({self.to_lists()}, p={self.field.p})"


def _elements(field: PrimeField, a: np.ndarray, name: str) -> np.ndarray:
    """a's integer entries reduced into [0, p), frozen, in the field's dtype.

    Object arrays (a nested list becomes one: numpy would read [[True, 2]]
    as int64) are checked entry by entry with require_int unless they hold
    only Python ints; every other array is checked by its dtype.
    """
    if a.dtype == object:
        if not all(type(x) is int for x in a.flat):
            a = np.array([require_int(x, name) for x in a.flat], dtype=object).reshape(a.shape)
    elif a.dtype.kind not in "iu":
        raise ParameterError(f"{name} must be an integer, got dtype {a.dtype}")
    if np.can_cast(a.dtype, np.int64):
        a = a.astype(field.dtype)
        a %= field.p
    else:
        # uint64 and Python-int entries may not fit int64: reduce first.
        a = (a % field.p).astype(field.dtype, copy=False)
    a.flags.writeable = False
    return a


def column_weights(entries: np.ndarray) -> np.ndarray:
    """Per-column NRT weights of an (..., s, r) array (no field needed).

    A batch of matrices gives one row of r weights per matrix.
    """
    s = entries.shape[-2]
    # Row i of a column weighs s - i when nonzero; the top one is the largest.
    rank = np.arange(s, 0, -1).reshape(s, 1)
    return (rank * (entries != 0)).max(axis=-2, initial=0)


def nrt_weight(a: NrtMatrix) -> int:
    """Sum of the NRT weights of all columns."""
    return int(column_weights(a.entries).sum())


def nrt_distance(a: NrtMatrix, b: NrtMatrix) -> int:
    """d_N(A, B) = weight of A - B; requires equal shapes and moduli."""
    a._check(b)
    return nrt_weight(a - b)
